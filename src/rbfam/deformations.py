"""Infinitesimal deformations of twisted Rota-Baxter families.

Order-by-order verification over the truncated polynomial ring, the link
to the degree-1 cocycle condition (both routes computed, exact agreement
required), equivalences through the (phi^t, psi^t) pairs, Nijenhuis
elements, cocycle trivialization, and the rigidity probe built on them.

An element x generates one trivial pair (phi^t, psi^t), built in
``_trivial_pair``.  The equivalence check verifies that pair's morphism
laws; apart from p(x) = x and the commutator law, every Nijenhuis-element
law is a t or t^2 coefficient of the same laws.  Each checker reads its
coefficients through ``_order_coefficients``, which also requires the
laws to hold at t = 0.

The infinitesimal verdict is the order-1 condition; the order-2
coefficient is computed and reported as a separate flag, never folded in.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace
from fractions import Fraction
from itertools import chain
from itertools import product as iproduct

from .cohomology import RBF, Tensor, cohomology_dims, differential_matrix, rbf_complex
from .errors import InputError, PreconditionError, RouteMismatchError
from .family import (
    _split_operator,
    _total_product,
    check_hom_ns_family,
    check_omega_assoc,
    operator_bimodule,
)
from .homalg import is_equivariant
from .linalg import Matrix, kernel_basis, solve, unit_vector, vadd, vector, vsub
from .operators import check_twisted_rbf, family_identity_cases
from .reports import (
    DEFAULT_MAX_VIOLATIONS,
    CheckReport,
    Report,
    ensure_valid,
    intertwining_cases,
    note_lines,
    run_law,
)
from .scalars import TruncatedPoly, format_scalar, format_vector, poly_coefficient

# R + t R1 enters the family identity and the equivalence conditions at
# most quadratically, so K[t]/(t^3) holds every coefficient they have.
TRUNCATION = 3

PSI_MULTIPLICATIVE = "(i) psi^t multiplicative"

READING_NOTE = (
    "module-action reading: the second lines of the morphism obstructions "
    "use u .r x (a module element cannot act from the left on an algebra element)"
)


@dataclass(frozen=True)
class LinearDeformation:
    """R + t R1 for a direction R1 with the same shapes as the base maps.

    The direction must satisfy the equivariance law R1_a o q = p o R1_a
    (degree-1 cochain membership); violating it is an input error, not an
    axiom verdict.  ``order`` is the truncation a workspace document
    records; it is validated and written back, but every check expands
    over K[t]/(t^TRUNCATION), so it changes no result.
    """

    base: object
    direction: tuple
    order: int = 3

    def __post_init__(self):
        base = self.base
        if len(self.direction) != base.omega.size:
            raise InputError("one direction matrix per semigroup element is required")
        n, d = base.algebra.dim, base.bimodule.dim
        for alpha, mat in enumerate(self.direction):
            if (mat.rows, mat.cols) != (n, d):
                raise InputError(f"direction {alpha} must be {n}x{d}")
        if not isinstance(self.order, int) or self.order < 2:
            raise InputError("truncation order must be an integer >= 2")
        p, q = base.algebra.p, base.bimodule.q
        for alpha, mat in enumerate(self.direction):
            if not is_equivariant(p, q, 1, [mat]):
                raise InputError(
                    f"direction {alpha} violates equivariance (degree-1 membership)"
                )

    def deformed_maps(self, order):
        """Base maps with the direction attached to t, over K[t]/(t^order)."""
        out = []
        for base_m, dir_m in zip(self.base.maps, self.direction):
            entries = tuple(
                TruncatedPoly([b, c], order) for b, c in zip(base_m.entries, dir_m.entries)
            )
            out.append(Matrix(base_m.rows, base_m.cols, entries))
        return tuple(out)


def _coeff_vector(vec, i):
    return tuple(poly_coefficient(c, i) for c in vec)


def _order_coefficients(cases, what, orders):
    """One list of (where, t^i coefficient of the residual) per i in ``orders``.

    The cases are materialized first.  At t = 0 every law here is a law of
    the base structure, so a residual with a nonzero constant term raises
    ``RouteMismatchError("<what> broke at order 0")``.
    """
    stored = list(cases)
    if any(any(_coeff_vector(residual, 0)) for _, residual in stored):
        raise RouteMismatchError(f"{what} broke at order 0")
    return [[(where, _coeff_vector(residual, i)) for where, residual in stored] for i in orders]


@dataclass
class InfinitesimalReport(Report):
    subject: str
    order1: CheckReport
    order2: CheckReport
    cocycle_route_ok: bool
    notes: list = field(default_factory=list)

    @property
    def passed(self):
        return self.order1.passed

    def parts(self):
        return {
            "order1": self.order1.to_dict(),
            "order2_flag": self.order2.to_dict(),
            "cocycle_route_ok": self.cocycle_route_ok,
        }

    def lines(self):
        return [
            self.order1.render(),
            "order-2 coefficient (separate flag, not part of the verdict):",
            self.order2.render(),
            f"  independent degree-1 cocycle route: {'pass' if self.cocycle_route_ok else 'fail'}",
        ]


def direction_cochain(handle, direction):
    """View per-index matrices as a degree-1 cochain of the family complex."""
    table = {}
    for alpha, mat in enumerate(direction):
        table[(alpha,)] = Tensor((mat.rows, mat.cols), mat.entries)
    return handle.make_cochain(1, table)


def check_infinitesimal(deformation, max_violations=DEFAULT_MAX_VIOLATIONS):
    """Order-wise check that R + t R1 stays a twisted Rota-Baxter family.

    The order-1 verdict (the t-coefficient of the family identity) must
    coincide with the vanishing of the degree-1 differential applied to
    the direction; both are computed and compared on every call.
    """
    base = deformation.base
    ensure_valid(base, check_twisted_rbf, "base twisted Rota-Baxter family")
    return _infinitesimal_report(deformation, rbf_complex(base), max_violations)


def _infinitesimal_report(deformation, handle, max_violations=DEFAULT_MAX_VIOLATIONS):
    """``check_infinitesimal`` on a validated base, whose complex ``handle``
    the caller already holds."""
    order1_cases, order2_cases = _order_coefficients(
        family_identity_cases(deformation.base, deformation.deformed_maps(TRUNCATION)),
        "base identity",
        (1, 2),
    )

    order1 = CheckReport(subject="infinitesimal deformation, order-1 identity")
    run_law(
        order1,
        "t-coefficient of R^t_a u . R^t_b v = R^t_ab(R^t_a u .l v + u .r R^t_b v + phi(..))",
        order1_cases,
        max_violations,
    )
    order2 = CheckReport(subject="order-2 coefficient (separate flag)")
    run_law(order2, "t^2-coefficient of the family identity", order2_cases, max_violations)

    cocycle = direction_cochain(handle, deformation.direction)
    cocycle_ok = handle.differential(cocycle).is_zero()
    if cocycle_ok != order1.passed:
        raise RouteMismatchError(
            "order-1 identity and degree-1 cocycle membership disagree"
        )
    return InfinitesimalReport(
        subject="infinitesimal deformation",
        order1=order1,
        order2=order2,
        cocycle_route_ok=cocycle_ok,
        notes=["the verdict is the order-1 condition; the order-2 coefficient is a separate flag"],
    )


# ---------------------------------------------------------------------------
# induced deformation of the splitting products


@dataclass
class NSDeformationReport(Report):
    subject: str
    order1: InfinitesimalReport
    ns_axioms: CheckReport
    total_product: CheckReport
    notes: list = field(default_factory=list)

    @property
    def passed(self):
        return self.ns_axioms.passed and self.total_product.passed

    def parts(self):
        return {
            "order1": self.order1.to_dict(),
            "ns_axioms": self.ns_axioms.to_dict(),
            "total_product": self.total_product.to_dict(),
        }

    def lines(self):
        return [self.ns_axioms.render(), self.total_product.render()]


def deform_ns_family(deformation, strict=True, max_violations=DEFAULT_MAX_VIOLATIONS):
    """Deform the induced splitting products and re-verify the axioms mod t^2.

    The deformed products are the splitting of R + t R1 taken over
    K[t]/(t^2).  Its t^0 part is the splitting of R; its t^1 part is the
    splitting of R1 in < and >, and phi(R1_a u, R_b v) + phi(R_a u, R1_b v)
    in v.  With a cocycle direction the deformed products satisfy the
    NS-family axioms modulo t^2, and their total product stays pair-indexed
    associative modulo t^2 (both verified over the truncated ring).
    ``strict`` raises when the order-1 precondition fails; with
    strict=False the failing order-1 verdict is included and the axioms
    are evaluated anyway, exposing the order-t residuals.
    """
    inf = check_infinitesimal(deformation, max_violations)
    if strict and not inf.passed:
        raise PreconditionError(
            "direction fails the order-1 infinitesimal check", report=inf.order1
        )
    deformed = _split_operator(replace(deformation.base, maps=deformation.deformed_maps(2)))
    ns_report = check_hom_ns_family(deformed, max_violations)
    total = _total_product(deformed)
    total_report = check_omega_assoc(total, max_violations)
    report = NSDeformationReport(
        subject="induced splitting-product deformation (mod t^2)",
        order1=inf,
        ns_axioms=ns_report,
        total_product=total_report,
    )
    if not inf.passed:
        report.notes.append("order-1 precondition failed; axiom residuals shown at order t")
    return report


# ---------------------------------------------------------------------------
# Nijenhuis elements


def _commutator(algebra, x, y):
    return vsub(algebra.product(x, y), algebra.product(y, x))


def _trivial_pair(operator, x):
    """(x, psi^t, [phi^t_a]) for the trivial deformation that x generates.

    psi^t = id + t(x.(-) - (-).x) on the algebra; phi^t_a = id + t T_a on
    the module, with T_a(u) = x .l u - u .r x + phi(x, R_a u) - phi(R_a u, x).
    Both are over K[t]/(t^TRUNCATION); x comes back parsed as a vector.
    """
    A, module, phi = operator.algebra, operator.bimodule, operator.cocycle
    x = vector(x)
    if len(x) != A.dim:
        raise InputError(f"element must live in the {A.dim}-dimensional algebra")

    def id_plus_t(basis, first_order):
        cols = [
            tuple(TruncatedPoly([b, c], TRUNCATION) for b, c in zip(e, first_order(e)))
            for e in basis
        ]
        return Matrix.from_columns(cols, rows=len(basis))

    def transform(r):
        def first_order(u):
            ru = r.apply(u)
            return vadd(
                vsub(module.act_l(x, u), module.act_r(u, x)),
                vsub(phi.apply(x, ru), phi.apply(ru, x)),
            )

        return first_order

    psi = id_plus_t(A.basis(), lambda a: _commutator(A, x, a))
    return x, psi, [id_plus_t(module.basis(), transform(r)) for r in operator.maps]


def _module_laws(operator, psi):
    """The pair's laws (iv)-(vi) on one index, as (name, (alpha, phi^t_alpha)
    -> ``intertwining_cases`` arguments)."""
    module, phi = operator.bimodule, operator.cocycle
    left, right = module.left, module.right
    return (
        ("(iv) phi^t o Phi = Phi o (psi^t x psi^t)", lambda al, ph: (ph, phi.phi, phi.phi, [psi, psi], ("a", "b"))),
        ("(v) phi^t(a .l u) = psi^t(a) .l phi^t(u)", lambda al, ph: (ph, left, left, [psi, ph], ("a", "u"))),
        ("(vi) phi^t(u .r a) = phi^t(u) .r psi^t(a)", lambda al, ph: (ph, right, right, [ph, psi], ("u", "a"))),
    )


def _per_alpha(law, phi_ts):
    return chain.from_iterable(
        intertwining_cases(*law(al, ph), {"alpha": al}) for al, ph in enumerate(phi_ts)
    )


def _psi_multiplicative(algebra, psi):
    return intertwining_cases(psi, algebra.mu, algebra.mu, [psi, psi], ("a", "b"))


def _negated(cases):
    return [(where, tuple(-c for c in residual)) for where, residual in cases]


def check_nijenhuis_element(x, operator, max_violations=DEFAULT_MAX_VIOLATIONS):
    """Verify the Nijenhuis-element laws for a vector x in the algebra.

    Besides p(x) = x and the commutator law, every law is a coefficient of
    a morphism law of the trivial pair (phi^t, psi^t) that x generates: the
    square law is minus the t^2 coefficient of (i) psi^t multiplicative, and
    the cocycle, left- and right-action compatibilities are the t
    coefficients and minus the t^2 coefficients of (iv), (v) and (vi).  As
    phi^t is linear in t, the t^2 coefficient of (iv) is the same on every
    index; it is read off the first one and reported without an index.
    """
    ensure_valid(operator, check_twisted_rbf, "twisted Rota-Baxter family")
    return _nijenhuis_element_report(x, operator, operator_bimodule(operator), max_violations)


def _nijenhuis_element_report(x, operator, actions, max_violations=DEFAULT_MAX_VIOLATIONS):
    """``check_nijenhuis_element`` on a validated operator, whose operator
    bimodule ``actions`` the caller already holds."""
    A, omega = operator.algebra, operator.omega
    x, psi, phi_ts = _trivial_pair(operator, x)
    report = CheckReport(subject="Nijenhuis element")

    def commutator_law():
        # u |>- x and x -<| u are the actions of V on L in the operator bimodule.
        for alpha, beta in iproduct(omega.elements(), repeat=2):
            for a, u in enumerate(operator.bimodule.basis()):
                c = vsub(actions.act_l(alpha, beta, u, x), actions.act_r(alpha, beta, x, u))
                yield {"alpha": alpha, "beta": beta, "u": a}, _commutator(A, x, c)

    def coefficients(name, cases):
        return _order_coefficients(cases, f"condition {name}", (1, 2))

    x_t = Tensor((A.dim,), x)
    run_law(report, "p(x) = x", intertwining_cases(A.p, x_t, x_t, [], ()), max_violations)
    run_law(
        report,
        "x.(u |>- x - x -<| u) - (u |>- x - x -<| u).x = 0",
        commutator_law(),
        max_violations,
    )
    _, square = coefficients(PSI_MULTIPLICATIVE, _psi_multiplicative(A, psi))
    run_law(
        report,
        "(x.a).(x.b) - (x.a).(b.x) - (a.x).(x.b) + (a.x).(b.x) = 0",
        _negated(square),
        max_violations,
    )
    for what, (name, law) in zip(
        ("cocycle", "left-action", "right-action"), _module_laws(operator, psi)
    ):
        at_t, at_t2 = coefficients(name, _per_alpha(law, phi_ts))
        if what == "cocycle":
            _, at_t2 = coefficients(name, intertwining_cases(*law(0, phi_ts[0])))
        run_law(report, f"{what} compatibility @ t", at_t, max_violations)
        run_law(report, f"{what} compatibility @ t^2", _negated(at_t2), max_violations)
    report.notes.append(READING_NOTE)
    return report


# ---------------------------------------------------------------------------
# equivalence of deformations


@dataclass
class EquivalenceReport(Report):
    subject: str
    conditions: CheckReport
    passes_mod_t2: bool
    passes_all_orders: bool
    notes: list = field(default_factory=list)

    @property
    def passed(self):
        return self.passes_mod_t2

    @property
    def title(self):
        return self.subject + " (mod t^2)"

    def parts(self):
        return {
            "passes_mod_t2": self.passes_mod_t2,
            "passes_all_orders": self.passes_all_orders,
            "conditions": self.conditions.to_dict(),
        }

    def lines(self):
        return [self.conditions.render()]


def check_equivalence(deformation, other, x, max_violations=DEFAULT_MAX_VIOLATIONS):
    """Morphism conditions for (phi^t, psi^t) between two deformations.

    psi^t = id + t(x.(-) - (-).x) on the algebra; phi^t is the per-index
    family id + t(x .l (-) - (-) .r x + phi(x, R_a -) - phi(R_a -, x)).
    Conditions are expanded over K[t]/(t^3); the verdict is taken mod t^2
    and the t^2 coefficients are reported as separate obstruction laws.
    Passing mod t^2 forces the difference of directions to equal the
    degree-0 coboundary of x, which is asserted.
    """
    if deformation.base is not other.base and deformation.base != other.base:
        raise InputError("equivalence needs two deformations of the same base family")
    base = deformation.base
    ensure_valid(base, check_twisted_rbf, "base twisted Rota-Baxter family")
    handle = rbf_complex(base)
    inf1 = _infinitesimal_report(deformation, handle)
    inf2 = _infinitesimal_report(other, handle)
    if not inf1.passed:
        raise PreconditionError("first deformation fails its order-1 check", report=inf1.order1)
    if not inf2.passed:
        raise PreconditionError("second deformation fails its order-1 check", report=inf2.order1)
    A, module, omega = base.algebra, base.bimodule, base.omega
    x, psi, phi_ts = _trivial_pair(base, x)
    if A.p.apply(x) != tuple(x):
        raise PreconditionError("element is not fixed by the structure map")
    maps_t = deformation.deformed_maps(order=TRUNCATION)
    maps_bar = other.deformed_maps(order=TRUNCATION)

    q = module.q
    per_alpha = (
        ("(ii) psi^t o R^t = Rbar^t o phi^t", lambda al, ph: (psi, maps_t[al], maps_bar[al], [ph], ("u",))),
        ("(iii) phi^t o q = q o phi^t", lambda al, ph: (ph, q, q, [ph], ("u",))),
    ) + _module_laws(base, psi)
    laws = [
        (PSI_MULTIPLICATIVE, _psi_multiplicative(A, psi)),
        ("(i) psi^t commutes with p", intertwining_cases(psi, A.p, A.p, [psi], ("a",))),
    ] + [(name, _per_alpha(law, phi_ts)) for name, law in per_alpha]
    buckets = [
        (name, _order_coefficients(cases, f"condition {name}", (1, 2))) for name, cases in laws
    ]

    conditions = CheckReport(subject="equivalence morphism conditions")
    for name, (at_t, _) in buckets:
        run_law(conditions, f"{name} @ t^1", at_t, max_violations)
    mod_t2 = conditions.passed
    for name, (_, at_t2) in buckets:
        run_law(conditions, f"{name} @ t^2", at_t2, max_violations)
    all_orders = conditions.passed

    delta0 = rbf_delta0_matrices(handle, x)
    coboundary_cases = []
    for alpha in omega.elements():
        diff = deformation.direction[alpha].sub(other.direction[alpha])
        res = diff.sub(delta0[alpha])
        for a in range(module.dim):
            coboundary_cases.append(({"alpha": alpha, "u": a}, res.column(a)))
    run_law(conditions, "R1 - R1bar = delta0(x) entrywise", iter(coboundary_cases), max_violations)
    coboundary_ok = conditions.laws[-1].ok
    if mod_t2 and not coboundary_ok:
        raise RouteMismatchError(
            "morphism conditions passed mod t^2 but the directions do not "
            "differ by the coboundary of x"
        )
    return EquivalenceReport(
        subject="equivalence of infinitesimal deformations",
        conditions=conditions,
        passes_mod_t2=mod_t2,
        passes_all_orders=all_orders,
        notes=[READING_NOTE],
    )


def rbf_delta0_matrices(handle, x):
    """delta0(x) as one matrix per semigroup element (x need not be p-fixed)."""
    image = handle.raw_differential(0, vector(x))
    block = handle.block_dim(1)
    return [
        Matrix(handle.target_dim, handle.source_dim, tuple(image[pos : pos + block]))
        for pos in range(0, len(image), block)
    ]


# ---------------------------------------------------------------------------
# trivialization and rigidity


@dataclass
class TrivializationResult:
    found: bool
    solution: tuple | None
    kernel: tuple
    solution_nijenhuis: bool | None
    shift_nijenhuis: tuple
    witness: tuple | None

    def to_dict(self):
        return {
            "found": self.found,
            "solution": [format_scalar(c) for c in self.solution] if self.found else None,
            "kernel_dim": len(self.kernel),
            "kernel": [[format_scalar(c) for c in v] for v in self.kernel],
            "solution_nijenhuis": self.solution_nijenhuis,
            "shift_nijenhuis": [list(pair) for pair in self.shift_nijenhuis],
            "witness": [format_scalar(c) for c in self.witness] if self.witness else None,
        }

    def render(self):
        if not self.found:
            return "no trivializing element: the class is nontrivial"
        witness = None if self.witness is None else format_vector(self.witness)
        return f"trivializing element found; kernel dimension {len(self.kernel)}\nnijenhuis witness: {witness}"


def trivialize_cocycle(operator, cocycle_maps):
    """Solve delta0(x) = f over the p-fixed elements for a degree-1 cocycle f.

    f is a degree-1 cochain of the twisted-family complex or one matrix per
    semigroup element.  Returns the particular solution, the solution-space
    kernel, and Nijenhuis verdicts for the solution and its shifts by +-1 of
    each kernel basis vector; ``found=False`` means the class is nontrivial.
    """
    ensure_valid(operator, check_twisted_rbf, "twisted Rota-Baxter family")
    return _trivialization(operator, cocycle_maps, rbf_complex(operator))


def _trivialization(operator, cocycle_maps, handle):
    """``trivialize_cocycle`` on a validated operator, whose complex
    ``handle`` the caller already holds."""
    if hasattr(cocycle_maps, "table"):
        if cocycle_maps.complex != RBF or cocycle_maps.degree != 1:
            raise InputError("trivialization needs a degree-1 twisted-family cochain")
        cochain = handle.make_cochain(1, cocycle_maps.table)
    elif len(cocycle_maps) != operator.omega.size:
        raise InputError("one direction matrix per semigroup element is required")
    else:
        cochain = direction_cochain(handle, cocycle_maps)
    if not handle.differential(cochain).is_zero():
        raise InputError("the supplied cochain is not a cocycle")

    n = operator.algebra.dim
    rhs = handle.flatten(cochain)
    p_rows = operator.algebra.p.sub(Matrix.identity(n))
    delta0 = [tuple(handle.raw_differential(0, unit_vector(n, i))) for i in range(n)]
    system = Matrix.from_columns([delta0[i] + p_rows.column(i) for i in range(n)], rows=len(rhs) + n)
    outcome = solve(system, rhs + (Fraction(0),) * n)
    if outcome is None:
        return TrivializationResult(
            found=False,
            solution=None,
            kernel=(),
            solution_nijenhuis=None,
            shift_nijenhuis=(),
            witness=None,
        )
    x0, kernel = outcome

    def nijenhuis(x):
        return _nijenhuis_element_report(x, operator, handle.omega_module).passed

    x0_ok = nijenhuis(x0)
    shifts = []
    witness = tuple(x0) if x0_ok else None
    for v in kernel:
        plus = nijenhuis(vadd(x0, v))
        minus = nijenhuis(vsub(x0, v))
        shifts.append((plus, minus))
        if witness is None and plus:
            witness = vadd(x0, v)
        if witness is None and minus:
            witness = vsub(x0, v)
    return TrivializationResult(
        found=True,
        solution=tuple(x0),
        kernel=tuple(kernel),
        solution_nijenhuis=x0_ok,
        shift_nijenhuis=tuple(shifts),
        witness=witness,
    )


@dataclass
class RigidityReport:
    dims: object
    outcomes: tuple
    verdict: str
    notes: list = field(default_factory=list)

    def to_dict(self):
        return {
            "dim_c1": self.dims.dim_c,
            "dim_z1": self.dims.dim_z,
            "dim_b1": self.dims.dim_b,
            "dim_h1": self.dims.dim_h,
            "outcomes": [dict(o) for o in self.outcomes],
            "verdict": self.verdict,
            "notes": list(self.notes),
        }

    def render(self):
        dims = self.dims
        lines = [f"rigidity probe: dim Z^1 = {dims.dim_z}, dim B^1 = {dims.dim_b}, dim H^1 = {dims.dim_h}"]
        for i, o in enumerate(self.outcomes):
            lines.append(f"  cocycle {i}: trivialized={o['trivialized']} nijenhuis={o['nijenhuis']}")
        lines.append(f"verdict: {self.verdict}")
        return "\n".join(lines + note_lines(self.notes))


def rigidity_probe(operator):
    """Sufficient-condition probe: every degree-1 cocycle must be the
    coboundary of some Nijenhuis element.

    The verdict is "sufficient condition met" or "inconclusive"; the probe
    never claims non-rigidity (the condition is sufficient only), and the
    search is limited to the affine solution sets of the trivialization.
    Without a unit in the semigroup the complex starts at degree 1, so
    B^1 = 0 and no cocycle is trivialized.
    """
    ensure_valid(operator, check_twisted_rbf, "twisted Rota-Baxter family")
    handle = rbf_complex(operator)
    dims = cohomology_dims(handle, 1)
    m1 = differential_matrix(handle, 1)
    z_basis = kernel_basis(m1)
    unitless = operator.omega.unit is None
    outcomes = []
    all_good = True
    for coeffs in z_basis:
        if unitless:
            found = nij = False
        else:
            cochain = handle.unflatten(1, handle.combine(1, coeffs))
            result = _trivialization(operator, cochain, handle)
            found = result.found
            nij = found and result.witness is not None
        outcomes.append(
            {
                "trivialized": found,
                "nijenhuis": nij,
                "witness": list(result.witness) if nij else None,
            }
        )
        all_good = all_good and nij
    verdict = "sufficient condition met" if all_good else "inconclusive"
    report = RigidityReport(dims=dims, outcomes=tuple(outcomes), verdict=verdict)
    if unitless:
        report.notes.append("the semigroup has no unit: the complex starts at degree 1, so B^1 = 0")
    if dims.dim_z == 0:
        report.notes.append("no degree-1 cocycles: the condition holds vacuously")
    if verdict == "inconclusive":
        report.notes.append(
            "the criterion is sufficient only; 'inconclusive' never means non-rigid"
        )
    return report
