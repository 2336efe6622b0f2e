"""Infinitesimal deformations of twisted Rota-Baxter families.

Order-by-order verification, the link to the degree-1 cocycle condition
(both routes computed, exact agreement required), equivalences through
the (phi^t, psi^t) pairs, Nijenhuis elements, cocycle trivialization, and
the rigidity probe built on them.

An element x generates one trivial pair (phi^t, psi^t), built in
``_trivial_pair``.  The equivalence check verifies that pair's morphism
laws; apart from p(x) = x and the commutator law, every Nijenhuis-element
law is a t or t^2 coefficient of the same laws.  Each checker reads its
coefficients through ``_order_coefficients``, which also requires the
laws to hold at t = 0: it interpolates each law's residual states at four
rational points, on the integer path of every other law.  Only
``deform_ns_family`` builds truncated polynomials.

The infinitesimal verdict is the order-1 condition; the order-2
coefficient is computed and reported as a separate flag, never folded in.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import cache
from itertools import product as iproduct
from math import lcm

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
from .linalg import Matrix, _compose_sum, _signed_state, kernel_basis, solve, unit_vector, vadd, vector, vsub
from .operators import check_twisted_rbf, family_identity_residuals
from .reports import (
    DEFAULT_MAX_VIOLATIONS,
    CheckReport,
    Report,
    ensure_valid,
    intertwining_cases,
    intertwining_residual,
    note_lines,
    residual_cases,
    run_law,
)
from .scalars import TruncatedPoly, format_scalar, format_vector

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
    records; it is validated and written back, but every law is read off
    evaluations at rational points (``maps_at``), so it changes no result.
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

    def maps_at(self, t):
        """R + t R1 at a rational t; at t = 0 the base maps themselves,
        whose products the base keeps."""
        if not t:
            return self.base.maps
        return tuple(r.add(r1.scale(t)) for r, r1 in zip(self.base.maps, self.direction))

    def deformed_maps(self, order):
        """Base maps with the direction attached to t, over K[t]/(t^order)."""
        out = []
        for base_m, dir_m in zip(self.base.maps, self.direction):
            entries = tuple(
                TruncatedPoly([b, c], order) for b, c in zip(base_m.entries, dir_m.entries)
            )
            out.append(Matrix(base_m.rows, base_m.cols, entries))
        return tuple(out)


def _order_coefficients(law, what):
    """(t blocks, t^2 blocks) of a law of degree at most 3 in t, as
    ``reports.residual_cases`` reads them.

    ``law(t)`` gives the law's residual blocks (residual, names, where) at
    a rational t.  Its values at t = 0, 1, -1 and 2 fix its coefficients
    c_i: with v(0) = 0,
    6 c_1 = 6 v(1) - 2 v(-1) - v(2) and 2 c_2 = v(1) + v(-1), taken on each
    block's integer numerators over one denominator.  At t = 0 every law
    here is a law of the base structure, so a nonzero v(0) raises
    ``RouteMismatchError("<what> broke at order 0")``.
    """
    at0, at1, at_minus1, at2 = (list(law(Fraction(t))) for t in (0, 1, -1, 2))
    if any(any(state.values()) for (state, _, _), _, _ in at0):
        raise RouteMismatchError(f"{what} broke at order 0")
    first, second = [], []
    for (v1, names, where), (v_minus1, _, _), (v2, _, _) in zip(at1, at_minus1, at2):
        den = lcm(v1[1], v_minus1[1], v2[1])
        c1, c2 = {}, {}
        for (state, d, _), w1, w2 in ((v1, 6, 1), (v_minus1, -2, 1), (v2, -1, 0)):
            for k, v in state.items():
                v *= den // d
                c1[k] = c1.get(k, 0) + w1 * v
                c2[k] = c2.get(k, 0) + w2 * v
        first.append(((c1, 6 * den, v1[2]), names, where))
        second.append(((c2, 2 * den, v1[2]), names, where))
    return first, second


def _minus(blocks):
    """The blocks of minus a law: each state's numerators negated."""
    return [(({k: -v for k, v in s.items()}, den, shape), names, where) for (s, den, shape), names, where in blocks]


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
    order1_blocks, order2_blocks = _order_coefficients(
        lambda t: family_identity_residuals(deformation.base, deformation.maps_at(t)),
        "base identity",
    )

    order1 = CheckReport(subject="infinitesimal deformation, order-1 identity")
    run_law(
        order1,
        "t-coefficient of R^t_a u . R^t_b v = R^t_ab(R^t_a u .l v + u .r R^t_b v + phi(..))",
        residual_cases(order1_blocks),
        max_violations,
    )
    order2 = CheckReport(subject="order-2 coefficient (separate flag)")
    run_law(order2, "t^2-coefficient of the family identity", residual_cases(order2_blocks), max_violations)

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
    """(x, pair) for the trivial deformation that x generates: pair(t) is
    (psi^t, [phi^t_a]) at a rational t, built once per point.

    psi^t = id + t(x.(-) - (-).x) on the algebra; phi^t_a = id + t T_a on
    the module, with T_a(u) = x .l u - u .r x + phi(x, R_a u) - phi(R_a u, x).
    x comes back parsed as a vector.
    """
    A, module, phi = operator.algebra, operator.bimodule, operator.cocycle
    x = vector(x)
    if len(x) != A.dim:
        raise InputError(f"element must live in the {A.dim}-dimensional algebra")

    def transform(r, u):
        ru = r.apply(u)
        return vadd(
            vsub(module.act_l(x, u), module.act_r(u, x)),
            vsub(phi.apply(x, ru), phi.apply(ru, x)),
        )

    commutator = Matrix.from_columns([_commutator(A, x, a) for a in A.basis()], rows=A.dim)
    transforms = [
        Matrix.from_columns([transform(r, u) for u in module.basis()], rows=module.dim) for r in operator.maps
    ]
    id_algebra, id_module = Matrix.identity(A.dim), Matrix.identity(module.dim)

    @cache
    def pair(t):
        psi = id_algebra.add(commutator.scale(t))
        return psi, [id_module.add(t_a.scale(t)) for t_a in transforms]

    return x, pair


def _module_laws(operator):
    """The pair's laws (iv)-(vi) on one index, as (name, where-names,
    (psi^t, phi^t_alpha) -> ``intertwining_residual`` arguments)."""
    module, phi = operator.bimodule, operator.cocycle
    left, right = module.left, module.right
    return (
        ("(iv) phi^t o Phi = Phi o (psi^t x psi^t)", ("a", "b"), lambda psi, ph: (ph, phi.phi, phi.phi, [psi, psi])),
        ("(v) phi^t(a .l u) = psi^t(a) .l phi^t(u)", ("a", "u"), lambda psi, ph: (ph, left, left, [psi, ph])),
        ("(vi) phi^t(u .r a) = phi^t(u) .r psi^t(a)", ("u", "a"), lambda psi, ph: (ph, right, right, [ph, psi])),
    )


def _pair_law(pair, names, law, indexed=True):
    """law(t), for ``_order_coefficients``, of a law of the trivial pair
    whose residual at t is ``intertwining_residual(*law(psi^t, phi^t_alpha))``:
    one block per index alpha, where-keys {"alpha": alpha}; with ``indexed``
    false, one block on the first index and no where-key (a law of psi^t
    alone, or one that is the same on every index)."""

    def at(t):
        psi, phi_ts = pair(t)
        if not indexed:
            return [(intertwining_residual(*law(psi, phi_ts[0])), names, None)]
        return [(intertwining_residual(*law(psi, ph)), names, {"alpha": al}) for al, ph in enumerate(phi_ts)]

    return at


def _psi_multiplicative(algebra, pair):
    return _pair_law(pair, ("a", "b"), lambda psi, _: (psi, algebra.mu, algebra.mu, [psi, psi]), indexed=False)


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
    x, pair = _trivial_pair(operator, x)
    report = CheckReport(subject="Nijenhuis element")

    x_t = Tensor((A.dim,), x)
    eye = Matrix.identity(operator.bimodule.dim)

    def commutator_law():
        # u |>- x and x -<| u are the actions of V on L in the operator bimodule.
        for alpha, beta in iproduct(omega.elements(), repeat=2):
            left, right = actions.left[alpha][beta], actions.right[alpha][beta]
            c = _compose_sum([(1, left, [eye, x_t]), (-1, right, [x_t, eye])])
            yield _signed_state([(1, A.mu, [x_t, c]), (-1, A.mu, [c, x_t])]), ("u",), {"alpha": alpha, "beta": beta}

    run_law(report, "p(x) = x", intertwining_cases(A.p, x_t, x_t, [], ()), max_violations)
    run_law(
        report,
        "x.(u |>- x - x -<| u) - (u |>- x - x -<| u).x = 0",
        residual_cases(commutator_law()),
        max_violations,
    )
    _, square = _order_coefficients(_psi_multiplicative(A, pair), f"condition {PSI_MULTIPLICATIVE}")
    run_law(
        report,
        "(x.a).(x.b) - (x.a).(b.x) - (a.x).(x.b) + (a.x).(b.x) = 0",
        residual_cases(_minus(square)),
        max_violations,
    )
    for what, (name, names, law) in zip(
        ("cocycle", "left-action", "right-action"), _module_laws(operator)
    ):
        at_t, at_t2 = _order_coefficients(_pair_law(pair, names, law), f"condition {name}")
        if what == "cocycle":
            _, at_t2 = _order_coefficients(_pair_law(pair, names, law, indexed=False), f"condition {name}")
        run_law(report, f"{what} compatibility @ t", residual_cases(at_t), max_violations)
        run_law(report, f"{what} compatibility @ t^2", residual_cases(_minus(at_t2)), max_violations)
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
    Each condition is read as its t and t^2 coefficients
    (``_order_coefficients``); the verdict is taken mod t^2 and the t^2
    coefficients are reported as separate obstruction laws.
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
    x, pair = _trivial_pair(base, x)
    if A.p.apply(x) != tuple(x):
        raise PreconditionError("element is not fixed by the structure map")

    def psi_intertwines(t):
        psi, phi_ts = pair(t)
        maps_t, maps_bar = deformation.maps_at(t), other.maps_at(t)
        return [
            (intertwining_residual(psi, maps_t[al], maps_bar[al], [ph]), ("u",), {"alpha": al})
            for al, ph in enumerate(phi_ts)
        ]

    q = module.q
    laws = [
        (PSI_MULTIPLICATIVE, _psi_multiplicative(A, pair)),
        ("(i) psi^t commutes with p", _pair_law(pair, ("a",), lambda psi, _: (psi, A.p, A.p, [psi]), indexed=False)),
        ("(ii) psi^t o R^t = Rbar^t o phi^t", psi_intertwines),
        ("(iii) phi^t o q = q o phi^t", _pair_law(pair, ("u",), lambda _, ph: (ph, q, q, [ph]))),
    ] + [(name, _pair_law(pair, names, law)) for name, names, law in _module_laws(base)]
    buckets = [(name, _order_coefficients(law, f"condition {name}")) for name, law in laws]

    conditions = CheckReport(subject="equivalence morphism conditions")
    for name, (at_t, _) in buckets:
        run_law(conditions, f"{name} @ t^1", residual_cases(at_t), max_violations)
    mod_t2 = conditions.passed
    for name, (_, at_t2) in buckets:
        run_law(conditions, f"{name} @ t^2", residual_cases(at_t2), max_violations)
    all_orders = conditions.passed

    delta0 = rbf_delta0_matrices(handle, x)
    eye = Matrix.identity(module.dim)
    coboundary = residual_cases(
        (_signed_state([(1, r1, [eye]), (-1, r1bar, [eye]), (-1, d0, [eye])]), ("u",), {"alpha": alpha})
        for alpha, r1, r1bar, d0 in zip(omega.elements(), deformation.direction, other.direction, delta0)
    )
    coboundary_ok = run_law(conditions, "R1 - R1bar = delta0(x) entrywise", coboundary, max_violations)
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
    unitless = handle.first_degree == 1
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
