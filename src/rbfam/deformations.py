"""Infinitesimal deformations of twisted Rota-Baxter families.

Order-by-order verification over the truncated polynomial ring, the link
to the degree-1 cocycle condition (both routes computed, exact agreement
required), equivalences through the (phi^t, psi^t) pairs, Nijenhuis
elements, cocycle trivialization, and the rigidity probe built on them.

The infinitesimal verdict is the order-1 condition; the order-2
coefficient is computed and reported as a separate flag, never folded in.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace
from fractions import Fraction
from itertools import chain
from itertools import product as iproduct

from .cohomology import Tensor, cohomology_dims, differential_matrix, rbf_complex
from .errors import InputError, PreconditionError, RouteMismatchError
from .homalg import is_equivariant
from .linalg import Matrix, bilinear_tensor, kernel_basis, solve, unit_vector, vadd, vector, vsub
from .operators import check_twisted_rbf, family_identity_cases
from .reports import (
    DEFAULT_MAX_VIOLATIONS,
    CheckReport,
    ensure_valid,
    intertwining_cases,
    run_law,
)
from .scalars import TruncatedPoly, poly_coefficient

# R + t R1 enters the family identity and the equivalence conditions at
# most quadratically, so K[t]/(t^3) holds every coefficient they have.
TRUNCATION = 3

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


@dataclass
class InfinitesimalReport:
    subject: str
    order1: CheckReport
    order2: CheckReport
    cocycle_route_ok: bool
    notes: list = field(default_factory=list)

    @property
    def passed(self):
        return self.order1.passed

    def to_dict(self):
        return {
            "subject": self.subject,
            "passed": self.passed,
            "order1": self.order1.to_dict(),
            "order2_flag": self.order2.to_dict(),
            "cocycle_route_ok": self.cocycle_route_ok,
            "notes": list(self.notes),
        }

    def render(self):
        lines = [f"{'PASS' if self.passed else 'FAIL'}  {self.subject}"]
        lines.append(self.order1.render())
        lines.append("order-2 coefficient (separate flag, not part of the verdict):")
        lines.append(self.order2.render())
        lines.append(f"  independent degree-1 cocycle route: {'pass' if self.cocycle_route_ok else 'fail'}")
        for note in self.notes:
            lines.append(f"  note: {note}")
        return "\n".join(lines)


def direction_cochain(handle, direction):
    """View per-index matrices as a degree-1 cochain of the family complex."""
    table = {}
    for alpha, mat in enumerate(direction):
        table[(alpha,)] = Tensor((mat.rows, mat.cols), mat.entries)
    return handle.make_cochain(1, table)


def check_infinitesimal(deformation, handle=None, max_violations=DEFAULT_MAX_VIOLATIONS):
    """Order-wise check that R + t R1 stays a twisted Rota-Baxter family.

    The order-1 verdict (the t-coefficient of the family identity) must
    coincide with the vanishing of the degree-1 differential applied to
    the direction; both are computed and compared on every call.
    """
    base = deformation.base
    ensure_valid(base, check_twisted_rbf, "base twisted Rota-Baxter family")
    order1_cases = []
    order2_cases = []
    for where, residual in family_identity_cases(base, deformation.deformed_maps(TRUNCATION)):
        if any(_coeff_vector(residual, 0)):
            raise RouteMismatchError("base identity broke at order 0")
        order1_cases.append((where, _coeff_vector(residual, 1)))
        order2_cases.append((where, _coeff_vector(residual, 2)))

    order1 = CheckReport(subject="infinitesimal deformation, order-1 identity")
    run_law(
        order1,
        "t-coefficient of R^t_a u . R^t_b v = R^t_ab(R^t_a u .l v + u .r R^t_b v + phi(..))",
        iter(order1_cases),
        max_violations,
    )
    order2 = CheckReport(subject="order-2 coefficient (separate flag)")
    run_law(order2, "t^2-coefficient of the family identity", iter(order2_cases), max_violations)

    if handle is None:
        handle = rbf_complex(base)
    cocycle = direction_cochain(handle, deformation.direction)
    cocycle_ok = handle.differential(cocycle).is_zero()
    if cocycle_ok != order1.passed:
        raise RouteMismatchError(
            "order-1 identity and degree-1 cocycle membership disagree"
        )
    report = InfinitesimalReport(
        subject="infinitesimal deformation",
        order1=order1,
        order2=order2,
        cocycle_route_ok=cocycle_ok,
    )
    report.notes.append(
        "the verdict is the order-1 condition; the order-2 coefficient is a separate flag"
    )
    return report


# ---------------------------------------------------------------------------
# induced deformation of the splitting products


@dataclass
class NSDeformationReport:
    subject: str
    order1: InfinitesimalReport
    ns_axioms: CheckReport
    total_product: CheckReport
    notes: list = field(default_factory=list)

    @property
    def passed(self):
        return self.ns_axioms.passed and self.total_product.passed

    def to_dict(self):
        return {
            "subject": self.subject,
            "passed": self.passed,
            "order1": self.order1.to_dict(),
            "ns_axioms": self.ns_axioms.to_dict(),
            "total_product": self.total_product.to_dict(),
            "notes": list(self.notes),
        }

    def render(self):
        lines = [f"{'PASS' if self.passed else 'FAIL'}  {self.subject}"]
        lines.append(self.ns_axioms.render())
        lines.append(self.total_product.render())
        for note in self.notes:
            lines.append(f"  note: {note}")
        return "\n".join(lines)


def _poly_tensor(t0, t1, order):
    return Tensor(
        t0.shape,
        tuple(TruncatedPoly([a, b], order) for a, b in zip(t0.entries, t1.entries)),
    )


def deform_ns_family(deformation, handle=None, strict=True, max_violations=DEFAULT_MAX_VIOLATIONS):
    """Deform the induced splitting products and re-verify the axioms mod t^2.

    With a cocycle direction the deformed products satisfy the NS-family
    axioms modulo t^2, and their total product stays pair-indexed
    associative modulo t^2 (both verified over the truncated ring).
    ``strict`` raises when the order-1 precondition fails; with
    strict=False the failing order-1 verdict is included and the axioms
    are evaluated anyway, exposing the order-t residuals.
    """
    from .family import _split_operator, _total_product, check_hom_ns_family, check_omega_assoc

    inf = check_infinitesimal(deformation, handle=handle, max_violations=max_violations)
    if strict and not inf.passed:
        raise PreconditionError(
            "direction fails the order-1 infinitesimal check", report=inf.order1
        )
    base, direction = deformation.base, deformation.direction
    phi, omega = base.cocycle, base.omega
    # < and > are linear in the maps, so the t^0 and t^1 parts of the
    # splitting of R + t R1 are the splittings of R and of R1; v is bilinear.
    split0 = _split_operator(base)
    split1 = _split_operator(replace(base, maps=direction))

    def vee(alpha, beta):
        r_a, r_b = base.maps[alpha], base.maps[beta]
        r1_a, r1_b = direction[alpha], direction[beta]
        vee1 = bilinear_tensor(
            base.bimodule.dim,
            lambda a, b: vadd(
                phi.apply(r1_a.column(a), r_b.column(b)),
                phi.apply(r_a.column(a), r1_b.column(b)),
            ),
        )
        return _poly_tensor(split0.vee[alpha][beta], vee1, 2)

    deformed = replace(
        split0,
        prec=tuple(_poly_tensor(t0, t1, 2) for t0, t1 in zip(split0.prec, split1.prec)),
        succ=tuple(_poly_tensor(t0, t1, 2) for t0, t1 in zip(split0.succ, split1.succ)),
        vee=tuple(tuple(vee(a, b) for b in omega.elements()) for a in omega.elements()),
    )
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


def check_nijenhuis_element(x, operator, max_violations=DEFAULT_MAX_VIOLATIONS):
    """Verify the Nijenhuis-element laws for a vector x in the algebra."""
    ensure_valid(operator, check_twisted_rbf, "twisted Rota-Baxter family")
    A, module, phi, omega = (
        operator.algebra,
        operator.bimodule,
        operator.cocycle,
        operator.omega,
    )
    n, d = A.dim, module.dim
    x = vector(x)
    if len(x) != n:
        raise InputError(f"element must live in the {n}-dimensional algebra")
    ebasis = A.basis()
    vbasis = module.basis()
    report = CheckReport(subject="Nijenhuis element")

    def lhd(u_idx, alpha, beta):
        u = vbasis[u_idx]
        ru = operator.maps[alpha].column(u_idx)
        r_ab = operator.maps[omega.mul(alpha, beta)]
        return vsub(
            vsub(A.product(ru, x), r_ab.apply(module.act_r(u, x))),
            r_ab.apply(phi.apply(ru, x)),
        )

    def rhd(u_idx, alpha, beta):
        u = vbasis[u_idx]
        rv = operator.maps[beta].column(u_idx)
        r_ab = operator.maps[omega.mul(alpha, beta)]
        return vsub(
            vsub(A.product(x, rv), r_ab.apply(module.act_l(x, u))),
            r_ab.apply(phi.apply(x, rv)),
        )

    def commutator_law():
        for alpha, beta in iproduct(omega.elements(), repeat=2):
            for a in range(d):
                c = vsub(lhd(a, alpha, beta), rhd(a, alpha, beta))
                yield {"alpha": alpha, "beta": beta, "u": a}, _commutator(A, x, c)

    def square_law():
        for i, j in iproduct(range(n), repeat=2):
            xa = A.product(x, ebasis[i])
            ax = A.product(ebasis[i], x)
            xb = A.product(x, ebasis[j])
            bx = A.product(ebasis[j], x)
            residual = vsub(
                vsub(A.product(xa, xb), A.product(xa, bx)),
                vsub(A.product(ax, xb), A.product(ax, bx)),
            )
            yield {"a": i, "b": j}, residual

    def first_order_transform(alpha, u):
        ru = operator.maps[alpha].apply(u)
        return vadd(
            vsub(module.act_l(x, u), module.act_r(u, x)),
            vsub(phi.apply(x, ru), phi.apply(ru, x)),
        )

    def cocycle_compat_t():
        for alpha in omega.elements():
            for i, j in iproduct(range(n), repeat=2):
                w = phi.apply(ebasis[i], ebasis[j])
                lhs = first_order_transform(alpha, w)
                rhs = vadd(
                    phi.apply(_commutator(A, x, ebasis[i]), ebasis[j]),
                    phi.apply(ebasis[i], _commutator(A, x, ebasis[j])),
                )
                yield {"alpha": alpha, "a": i, "b": j}, vsub(lhs, rhs)

    def cocycle_compat_t2():
        for i, j in iproduct(range(n), repeat=2):
            yield {"a": i, "b": j}, phi.apply(
                _commutator(A, x, ebasis[i]), _commutator(A, x, ebasis[j])
            )

    def left_compat_t():
        for alpha in omega.elements():
            for i, a in iproduct(range(n), range(d)):
                w = module.act_l(ebasis[i], vbasis[a])
                lhs = first_order_transform(alpha, w)
                rhs = vadd(
                    module.act_l(_commutator(A, x, ebasis[i]), vbasis[a]),
                    module.act_l(ebasis[i], first_order_transform(alpha, vbasis[a])),
                )
                yield {"alpha": alpha, "a": i, "u": a}, vsub(lhs, rhs)

    def left_compat_t2():
        for alpha in omega.elements():
            for i, a in iproduct(range(n), range(d)):
                yield {"alpha": alpha, "a": i, "u": a}, module.act_l(
                    _commutator(A, x, ebasis[i]), first_order_transform(alpha, vbasis[a])
                )

    def right_compat_t():
        for alpha in omega.elements():
            for a, i in iproduct(range(d), range(n)):
                w = module.act_r(vbasis[a], ebasis[i])
                lhs = first_order_transform(alpha, w)
                rhs = vadd(
                    module.act_r(vbasis[a], _commutator(A, x, ebasis[i])),
                    module.act_r(first_order_transform(alpha, vbasis[a]), ebasis[i]),
                )
                yield {"alpha": alpha, "u": a, "a": i}, vsub(lhs, rhs)

    def right_compat_t2():
        for alpha in omega.elements():
            for a, i in iproduct(range(d), range(n)):
                yield {"alpha": alpha, "u": a, "a": i}, module.act_r(
                    first_order_transform(alpha, vbasis[a]), _commutator(A, x, ebasis[i])
                )

    x_t = Tensor((n,), x)
    run_law(report, "p(x) = x", intertwining_cases(A.p, x_t, x_t, [], ()), max_violations)
    run_law(
        report,
        "x.(u |>- x - x -<| u) - (u |>- x - x -<| u).x = 0",
        commutator_law(),
        max_violations,
    )
    run_law(
        report,
        "(x.a).(x.b) - (x.a).(b.x) - (a.x).(x.b) + (a.x).(b.x) = 0",
        square_law(),
        max_violations,
    )
    run_law(report, "cocycle compatibility @ t", cocycle_compat_t(), max_violations)
    run_law(report, "cocycle compatibility @ t^2", cocycle_compat_t2(), max_violations)
    run_law(report, "left-action compatibility @ t", left_compat_t(), max_violations)
    run_law(report, "left-action compatibility @ t^2", left_compat_t2(), max_violations)
    run_law(report, "right-action compatibility @ t", right_compat_t(), max_violations)
    run_law(report, "right-action compatibility @ t^2", right_compat_t2(), max_violations)
    report.notes.append(READING_NOTE)
    return report


# ---------------------------------------------------------------------------
# equivalence of deformations


@dataclass
class EquivalenceReport:
    subject: str
    conditions: CheckReport
    passes_mod_t2: bool
    passes_all_orders: bool
    notes: list = field(default_factory=list)

    @property
    def passed(self):
        return self.passes_mod_t2

    def to_dict(self):
        return {
            "subject": self.subject,
            "passed": self.passed,
            "passes_mod_t2": self.passes_mod_t2,
            "passes_all_orders": self.passes_all_orders,
            "conditions": self.conditions.to_dict(),
            "notes": list(self.notes),
        }

    def render(self):
        lines = [f"{'PASS' if self.passed else 'FAIL'}  {self.subject} (mod t^2)"]
        lines.append(self.conditions.render())
        for note in self.notes:
            lines.append(f"  note: {note}")
        return "\n".join(lines)


def check_equivalence(deformation, other, x, handle=None, max_violations=DEFAULT_MAX_VIOLATIONS):
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
    inf1 = check_infinitesimal(deformation, handle=handle)
    inf2 = check_infinitesimal(other, handle=handle)
    if not inf1.passed:
        raise PreconditionError("first deformation fails its order-1 check", report=inf1.order1)
    if not inf2.passed:
        raise PreconditionError("second deformation fails its order-1 check", report=inf2.order1)
    A, module, phi, omega = base.algebra, base.bimodule, base.cocycle, base.omega
    n, d = A.dim, module.dim
    x = vector(x)
    if len(x) != n:
        raise InputError(f"element must live in the {n}-dimensional algebra")
    if A.p.apply(x) != tuple(x):
        raise PreconditionError("element is not fixed by the structure map")

    k = TRUNCATION
    t = TruncatedPoly.t(k)
    ebasis = A.basis()
    vbasis = module.basis()

    def lift(vec):
        return tuple(TruncatedPoly.constant(c, k) for c in vec)

    psi_cols = [
        vadd(lift(ebasis[i]), tuple(t * c for c in _commutator(A, x, ebasis[i])))
        for i in range(n)
    ]
    psi = Matrix.from_columns(psi_cols, rows=n)

    def phi_t(alpha):
        cols = []
        for a in range(d):
            u = vbasis[a]
            ru = base.maps[alpha].column(a)
            first_order = vadd(
                vsub(module.act_l(x, u), module.act_r(u, x)),
                vsub(phi.apply(x, ru), phi.apply(ru, x)),
            )
            cols.append(vadd(lift(u), tuple(t * c for c in first_order)))
        return Matrix.from_columns(cols, rows=d)

    phi_ts = [phi_t(alpha) for alpha in omega.elements()]
    maps_t = deformation.deformed_maps(order=k)
    maps_bar = other.deformed_maps(order=k)

    conditions = CheckReport(subject="equivalence morphism conditions")
    buckets = []

    def collect(name, cases):
        stored = [(where, residual) for where, residual in cases]
        for c in stored:
            if any(poly_coefficient(e, 0) for e in c[1]):
                raise RouteMismatchError(f"condition {name} broke at order 0")
        buckets.append((name, stored))

    # Per-index laws: (name, (alpha, phi^t_alpha) -> intertwining_cases arguments).
    q, left, right = module.q, module.left, module.right
    per_alpha = (
        ("(ii) psi^t o R^t = Rbar^t o phi^t", lambda al, ph: (psi, maps_t[al], maps_bar[al], [ph], ("u",))),
        ("(iii) phi^t o q = q o phi^t", lambda al, ph: (ph, q, q, [ph], ("u",))),
        ("(iv) phi^t o Phi = Phi o (psi^t x psi^t)", lambda al, ph: (ph, phi.phi, phi.phi, [psi, psi], ("a", "b"))),
        ("(v) phi^t(a .l u) = psi^t(a) .l phi^t(u)", lambda al, ph: (ph, left, left, [psi, ph], ("a", "u"))),
        ("(vi) phi^t(u .r a) = phi^t(u) .r psi^t(a)", lambda al, ph: (ph, right, right, [ph, psi], ("u", "a"))),
    )
    collect("(i) psi^t multiplicative", intertwining_cases(psi, A.mu, A.mu, [psi, psi], ("a", "b")))
    collect("(i) psi^t commutes with p", intertwining_cases(psi, A.p, A.p, [psi], ("a",)))
    for name, law in per_alpha:
        cases = (
            intertwining_cases(*law(al, phi_ts[al]), {"alpha": al}) for al in omega.elements()
        )
        collect(name, chain.from_iterable(cases))

    for name, stored in buckets:
        run_law(
            conditions,
            f"{name} @ t^1",
            ((w, _coeff_vector(r, 1)) for w, r in stored),
            max_violations,
        )
    mod_t2 = conditions.passed
    for name, stored in buckets:
        run_law(
            conditions,
            f"{name} @ t^2",
            ((w, _coeff_vector(r, 2)) for w, r in stored),
            max_violations,
        )
    all_orders = conditions.passed

    if handle is None:
        handle = rbf_complex(base)
    delta0 = rbf_delta0_matrices(handle, x)
    coboundary_cases = []
    for alpha in omega.elements():
        diff = deformation.direction[alpha].sub(other.direction[alpha])
        res = diff.sub(delta0[alpha])
        for a in range(d):
            coboundary_cases.append(({"alpha": alpha, "u": a}, res.column(a)))
    run_law(conditions, "R1 - R1bar = delta0(x) entrywise", iter(coboundary_cases), max_violations)
    coboundary_ok = conditions.laws[-1].ok
    if mod_t2 and not coboundary_ok:
        raise RouteMismatchError(
            "morphism conditions passed mod t^2 but the directions do not "
            "differ by the coboundary of x"
        )
    report = EquivalenceReport(
        subject="equivalence of infinitesimal deformations",
        conditions=conditions,
        passes_mod_t2=mod_t2,
        passes_all_orders=all_orders,
    )
    report.notes.append(READING_NOTE)
    return report


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
        from .scalars import format_scalar

        return {
            "found": self.found,
            "solution": [format_scalar(c) for c in self.solution] if self.found else None,
            "kernel_dim": len(self.kernel),
            "kernel": [[format_scalar(c) for c in v] for v in self.kernel],
            "solution_nijenhuis": self.solution_nijenhuis,
            "shift_nijenhuis": [list(pair) for pair in self.shift_nijenhuis],
            "witness": [format_scalar(c) for c in self.witness] if self.witness else None,
        }


def trivialize_cocycle(operator, cocycle_maps, handle=None):
    """Solve delta0(x) = f over the p-fixed elements for a degree-1 cocycle f.

    Returns the particular solution, the solution-space kernel, and
    Nijenhuis verdicts for the solution and its shifts by +-1 of each
    kernel basis vector; ``found=False`` means the class is nontrivial.
    """
    ensure_valid(operator, check_twisted_rbf, "twisted Rota-Baxter family")
    if handle is None:
        handle = rbf_complex(operator)
    omega = operator.omega
    n, d = operator.algebra.dim, operator.bimodule.dim
    if hasattr(cocycle_maps, "table"):
        if cocycle_maps.degree != 1:
            raise InputError("trivialization needs a degree-1 cochain")
        mats = []
        for alpha in omega.elements():
            t = cocycle_maps.table[(alpha,)]
            mats.append(Matrix(n, d, t.entries))
    else:
        mats = [cocycle_maps[alpha] for alpha in omega.elements()]
    cochain = direction_cochain(handle, mats)
    if not handle.differential(cochain).is_zero():
        raise InputError("the supplied cochain is not a cocycle")

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
    x0_ok = check_nijenhuis_element(x0, operator).passed
    shifts = []
    witness = tuple(x0) if x0_ok else None
    for v in kernel:
        plus = check_nijenhuis_element(vadd(x0, v), operator).passed
        minus = check_nijenhuis_element(vsub(x0, v), operator).passed
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

    @property
    def sufficient_condition_met(self):
        return self.verdict == "sufficient condition met"

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
        lines = [
            f"rigidity probe: dim Z^1 = {self.dims.dim_z}, dim B^1 = {self.dims.dim_b}, "
            f"dim H^1 = {self.dims.dim_h}"
        ]
        for i, o in enumerate(self.outcomes):
            lines.append(
                f"  cocycle {i}: trivialized={o['trivialized']} nijenhuis={o['nijenhuis']}"
            )
        lines.append(f"verdict: {self.verdict}")
        for note in self.notes:
            lines.append(f"  note: {note}")
        return "\n".join(lines)


def rigidity_probe(operator, handle=None):
    """Sufficient-condition probe: every degree-1 cocycle must be the
    coboundary of some Nijenhuis element.

    The verdict is "sufficient condition met" or "inconclusive"; the probe
    never claims non-rigidity (the condition is sufficient only), and the
    search is limited to the affine solution sets of the trivialization.
    """
    ensure_valid(operator, check_twisted_rbf, "twisted Rota-Baxter family")
    if handle is None:
        handle = rbf_complex(operator)
    dims = cohomology_dims(handle, 1)
    m1 = differential_matrix(handle, 1)
    z_basis = kernel_basis(m1)
    outcomes = []
    all_good = True
    for coeffs in z_basis:
        cochain = handle.unflatten(1, handle.combine(1, coeffs))
        result = trivialize_cocycle(operator, cochain, handle=handle)
        nij = result.found and result.witness is not None
        outcomes.append(
            {
                "trivialized": result.found,
                "nijenhuis": nij,
                "witness": list(result.witness) if nij else None,
            }
        )
        all_good = all_good and nij
    verdict = "sufficient condition met" if all_good else "inconclusive"
    report = RigidityReport(dims=dims, outcomes=tuple(outcomes), verdict=verdict)
    if dims.dim_z == 0:
        report.notes.append("no degree-1 cocycles: the condition holds vacuously")
    if verdict == "inconclusive":
        report.notes.append(
            "the criterion is sufficient only; 'inconclusive' never means non-rigid"
        )
    return report
