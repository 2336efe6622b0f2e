"""Splittings of Hom-associative products: NS, NS-family, tridendriform
family and semigroup-pair-indexed associative structures, with the
constructions that move between them and the operator world.

Hom-dendriform (family) algebras are not a separate type here: they are NS
(family) instances whose last product vanishes; checkers note that case.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import product as iproduct

from .errors import InputError
from .homalg import HomAlgebra, _block_repeat, graded_tensor
from .linalg import Matrix, Tensor, _compose, _compose_sum, multilinear_apply, rank
from .operators import _split_products, _totals, check_twisted_rbf, check_weighted_rbf
from .reports import (
    DEFAULT_MAX_VIOLATIONS,
    CheckReport,
    chained_cases,
    ensure_valid,
    intertwining_cases,
    intertwining_residual,
    nested_cases,
    require_pass,
    residual_cases,
    run_law,
)
from .semigroups import FiniteSemigroup


def _check_product_tensor(t, dim, what):
    if t.shape != (dim, dim, dim):
        raise InputError(f"{what} must have shape {(dim, dim, dim)}, got {t.shape}")


@dataclass(frozen=True)
class HomNSAlgebra:
    """(G, <, >, v, p): three bilinear products whose sum is Hom-associative."""

    dim: int
    prec: Tensor
    succ: Tensor
    vee: Tensor
    p: Matrix

    def __post_init__(self):
        for t, w in ((self.prec, "prec"), (self.succ, "succ"), (self.vee, "vee")):
            _check_product_tensor(t, self.dim, w)
        if (self.p.rows, self.p.cols) != (self.dim, self.dim):
            raise InputError("p must be square of the algebra dimension")


@dataclass(frozen=True)
class HomNSFamilyAlgebra:
    """Products <_a, >_a indexed by omega and v_{a,b} indexed by pairs."""

    dim: int
    omega: FiniteSemigroup
    prec: tuple
    succ: tuple
    vee: tuple
    p: Matrix

    def __post_init__(self):
        m = self.omega.size
        if len(self.prec) != m or len(self.succ) != m:
            raise InputError("need one prec/succ tensor per semigroup element")
        if len(self.vee) != m or any(len(row) != m for row in self.vee):
            raise InputError("need one vee tensor per semigroup pair")
        for t in (*self.prec, *self.succ, *(t for row in self.vee for t in row)):
            _check_product_tensor(t, self.dim, "family product")
        if (self.p.rows, self.p.cols) != (self.dim, self.dim):
            raise InputError("p must be square of the algebra dimension")


@dataclass(frozen=True)
class HomTridendFamily:
    """Products <_a, >_a indexed by omega plus one unindexed product (.)."""

    dim: int
    omega: FiniteSemigroup
    prec: tuple
    succ: tuple
    dot: Tensor
    p: Matrix

    def __post_init__(self):
        m = self.omega.size
        if len(self.prec) != m or len(self.succ) != m:
            raise InputError("need one prec/succ tensor per semigroup element")
        for t in (*self.prec, *self.succ, self.dot):
            _check_product_tensor(t, self.dim, "family product")
        if (self.p.rows, self.p.cols) != (self.dim, self.dim):
            raise InputError("p must be square of the algebra dimension")


@dataclass(frozen=True)
class OmegaAssocAlgebra:
    """Products *_{a,b} indexed by semigroup pairs with twisted associativity."""

    dim: int
    omega: FiniteSemigroup
    prod: tuple
    p: Matrix

    def __post_init__(self):
        m = self.omega.size
        if len(self.prod) != m or any(len(row) != m for row in self.prod):
            raise InputError("need one product tensor per semigroup pair")
        for row in self.prod:
            for t in row:
                _check_product_tensor(t, self.dim, "pair product")
        if (self.p.rows, self.p.cols) != (self.dim, self.dim):
            raise InputError("p must be square of the algebra dimension")


@dataclass(frozen=True)
class OmegaBimodule:
    """Pair-indexed actions of an OmegaAssocAlgebra on a Hom-vector space."""

    parent: OmegaAssocAlgebra
    dim: int
    left: tuple
    right: tuple
    q: Matrix

    def __post_init__(self):
        m = self.parent.omega.size
        g, d = self.parent.dim, self.dim
        for table, shape, what in (
            (self.left, (d, g, d), "left action"),
            (self.right, (d, d, g), "right action"),
        ):
            if len(table) != m or any(len(row) != m for row in table):
                raise InputError(f"need one {what} tensor per semigroup pair")
            for row in table:
                for t in row:
                    if t.shape != shape:
                        raise InputError(f"{what} must have shape {shape}, got {t.shape}")
        if (self.q.rows, self.q.cols) != (d, d):
            raise InputError("q must be square of the module dimension")

    def act_l(self, alpha, beta, x, u):
        return multilinear_apply(self.left[alpha][beta], [x, u])

    def act_r(self, alpha, beta, u, x):
        return multilinear_apply(self.right[alpha][beta], [u, x])


# ---------------------------------------------------------------------------
# checkers


XYZ = ("x", "y", "z")


def _product_cases(f, s_t, t_t, where=None):
    """Cases of f(x ? y) = f(x) ?' f(y) for the products s_t (source), t_t (target)."""
    return intertwining_cases(f, s_t, t_t, [f, f], ("x", "y"), where)


def _indexed(omega, arity, cases):
    """cases(*idx, where=...) chained over idx in omega^arity, in product
    order, with the where-dict naming the indices alpha, beta, gamma."""
    return chained_cases(
        cases(*idx, where=dict(zip(("alpha", "beta", "gamma"), idx)))
        for idx in iproduct(omega.elements(), repeat=arity)
    )


def _indexed_nested(omega, arity, first, last, names, terms):
    """Cases of a nested-product law whose terms(*idx) vary with idx in omega^arity."""
    return _indexed(
        omega, arity, lambda *idx, where: nested_cases(first, last, terms(*idx), names, where)
    )


def check_hom_ns(cand, max_violations=DEFAULT_MAX_VIOLATIONS):
    report = CheckReport(subject=f"Hom-NS algebra (dim {cand.dim})")
    p, prec, succ, vee = cand.p, cand.prec, cand.succ, cand.vee
    total = prec.add(succ).add(vee)

    def law(terms):
        return nested_cases(p, p, terms, XYZ)

    multiplicativity = chained_cases(
        _product_cases(p, t, t, {"op": op}) for op, t in (("<", prec), (">", succ), ("v", vee))
    )
    run_law(report, "p(x ? y) = p(x) ? p(y) for ? in {<, >, v}", multiplicativity, max_violations)
    law_prec = law([(1, prec, prec, True), (-1, prec, total, False)])
    law_mixed = law([(1, prec, succ, True), (-1, succ, prec, False)])
    law_succ = law([(1, succ, total, True), (-1, succ, succ, False)])
    law_vee = law(
        [(1, vee, total, True), (1, prec, vee, True), (-1, succ, vee, False), (-1, vee, total, False)]
    )
    run_law(report, "(x < y) < p(z) = p(x) < (y*z)", law_prec, max_violations)
    run_law(report, "(x > y) < p(z) = p(x) > (y < z)", law_mixed, max_violations)
    run_law(report, "(x*y) > p(z) = p(x) > (y > z)", law_succ, max_violations)
    run_law(
        report,
        "(x*y) v p(z) + (x v y) < p(z) = p(x) > (y v z) + p(x) v (y*z)",
        law_vee,
        max_violations,
    )
    _annotate_vee(report, [cand.vee], cand.p, cand.dim)
    return report


def _split_laws(omega, p, prec, succ, total):
    """Cases of the three laws that NS and tridendriform families share.

    ``total[a][b]`` is the summed product x <_b y + x >_a y + (the third
    product) that two of the laws nest.
    """
    mul = omega.mul

    def law(terms):
        return _indexed_nested(omega, 2, p, p, XYZ, terms)

    return (
        law(lambda a, b: [(1, prec[mul(a, b)], total[a][b], False), (-1, prec[b], prec[a], True)]),
        law(lambda a, b: [(1, prec[b], succ[a], True), (-1, succ[a], prec[b], False)]),
        law(lambda a, b: [(1, succ[mul(a, b)], total[a][b], True), (-1, succ[a], succ[b], False)]),
    )


def check_hom_ns_family(cand, max_violations=DEFAULT_MAX_VIOLATIONS):
    report = CheckReport(subject=f"Hom-NS family algebra (dim {cand.dim})")
    omega, p = cand.omega, cand.p
    prec, succ, vee = cand.prec, cand.succ, cand.vee
    mul = omega.mul

    def mult_cases():
        for a in omega.elements():
            yield _product_cases(p, prec[a], prec[a], {"op": "<", "alpha": a})
            yield _product_cases(p, succ[a], succ[a], {"op": ">", "alpha": a})
        for a, b in iproduct(omega.elements(), repeat=2):
            yield _product_cases(p, vee[a][b], vee[a][b], {"op": "v", "alpha": a, "beta": b})

    run_law(report, "p(x ?_idx y) = p(x) ?_idx p(y)", chained_cases(mult_cases()), max_violations)

    total = _totals(omega, prec, succ, lambda a, b: vee[a][b])
    law_prec, law_mixed, law_succ = _split_laws(omega, p, prec, succ, total)

    def law_vee(a, b, g):
        return [
            (1, succ[a], vee[b][g], False),
            (1, vee[a][mul(b, g)], total[b][g], False),
            (-1, prec[g], vee[a][b], True),
            (-1, vee[mul(a, b)][g], total[a][b], True),
        ]

    run_law(
        report,
        "p(x) <_ab (y <_b z + y >_a z + y v_ab z) = (x <_a y) <_b p(z)",
        law_prec,
        max_violations,
    )
    run_law(report, "(x >_a y) <_b p(z) = p(x) >_a (y <_b z)", law_mixed, max_violations)
    run_law(
        report,
        "(x <_b y + x >_a y + x v_ab y) >_ab p(z) = p(x) >_a (y >_b z)",
        law_succ,
        max_violations,
    )
    run_law(
        report,
        "p(x) >_a (y v_bg z) + p(x) v_a,bg (y*z) = (x v_ab y) <_g p(z) + (x*y) v_ab,g p(z)",
        _indexed_nested(omega, 3, p, p, XYZ, law_vee),
        max_violations,
    )
    _annotate_vee(report, [t for row in cand.vee for t in row], cand.p, cand.dim)
    return report


def _annotate_vee(report, vee_tensors, p, dim):
    if all(t.is_zero() for t in vee_tensors):
        report.notes.append("the v product vanishes identically (Hom-dendriform instance)")
    if not p.has_poly_entries() and rank(p) == dim:
        report.notes.append("regular: the structure map is bijective")


def check_tridend_family(cand, max_violations=DEFAULT_MAX_VIOLATIONS):
    report = CheckReport(subject=f"Hom-tridendriform family algebra (dim {cand.dim})")
    omega, p = cand.omega, cand.p
    prec, succ, dot = cand.prec, cand.succ, cand.dot

    def mult_cases():
        for a in omega.elements():
            yield _product_cases(p, prec[a], prec[a], {"op": "<", "alpha": a})
            yield _product_cases(p, succ[a], succ[a], {"op": ">", "alpha": a})
        yield _product_cases(p, dot, dot, {"op": "."})

    run_law(report, "p(x ? y) = p(x) ? p(y) for every product", chained_cases(mult_cases()), max_violations)

    total = _totals(omega, prec, succ, lambda a, b: dot)
    law_prec, law_mixed, law_succ = _split_laws(omega, p, prec, succ, total)

    def single_law(terms):
        return _indexed_nested(omega, 1, p, p, XYZ, terms)

    succ_dot = single_law(lambda a: [(1, dot, succ[a], True), (-1, succ[a], dot, False)])
    prec_dot = single_law(lambda a: [(1, dot, prec[a], True), (-1, dot, succ[a], False)])
    dot_prec = single_law(lambda a: [(1, prec[a], dot, True), (-1, dot, prec[a], False)])
    dot_dot = nested_cases(p, p, [(1, dot, dot, True), (-1, dot, dot, False)], XYZ)

    run_law(report, "p(x) <_ab (y <_b z + y >_a z + y.z) = (x <_a y) <_b p(z)", law_prec, max_violations)
    run_law(report, "(x >_a y) <_b p(z) = p(x) >_a (y <_b z)", law_mixed, max_violations)
    run_law(report, "(x <_b y + x >_a y + x.y) >_ab p(z) = p(x) >_a (y >_b z)", law_succ, max_violations)
    run_law(report, "(x >_a y).p(z) = p(x) >_a (y.z)", succ_dot, max_violations)
    run_law(report, "(x <_a y).p(z) = p(x).(y >_a z)", prec_dot, max_violations)
    run_law(report, "(x.y) <_a p(z) = p(x).(y <_a z)", dot_prec, max_violations)
    run_law(report, "(x.y).p(z) = p(x).(y.z)", dot_dot, max_violations)
    if cand.dot.is_zero():
        report.notes.append("the unindexed product vanishes (Hom-dendriform family instance)")
    return report


def check_omega_assoc(cand, max_violations=DEFAULT_MAX_VIOLATIONS):
    report = CheckReport(subject=f"Hom-associative algebra relative to a semigroup (dim {cand.dim})")
    omega, p, prod = cand.omega, cand.p, cand.prod
    mul = omega.mul

    def multiplicativity(a, b, where):
        return _product_cases(p, prod[a][b], prod[a][b], where)

    def twisted_assoc(a, b, g):
        return [(1, prod[a][mul(b, g)], prod[b][g], False), (-1, prod[mul(a, b)][g], prod[a][b], True)]

    run_law(report, "p(x *_ab y) = p(x) *_ab p(y)", _indexed(omega, 2, multiplicativity), max_violations)
    run_law(
        report,
        "p(x) *_a,bg (y *_b,g z) = (x *_ab y) *_ab,g p(z)",
        _indexed_nested(omega, 3, p, p, XYZ, twisted_assoc),
        max_violations,
    )
    return report


def check_omega_bimodule(cand, max_violations=DEFAULT_MAX_VIOLATIONS):
    report = CheckReport(subject=f"bimodule over a semigroup-pair-indexed algebra (dim {cand.dim})")
    G = cand.parent
    omega, mul = G.omega, G.omega.mul
    p, q = G.p, cand.q
    prod, left, right = G.prod, cand.left, cand.right

    def q_law(table, ins, names):
        def cases(a, b, where):
            return intertwining_cases(q, table[a][b], table[a][b], ins, names, where)

        return _indexed(omega, 2, cases)

    def right_right(a, b, c):
        return [(1, right[a][mul(b, c)], prod[b][c], False), (-1, right[mul(a, b)][c], right[a][b], True)]

    def left_right(a, b, c):
        return [(1, left[a][mul(b, c)], right[b][c], False), (-1, right[mul(a, b)][c], left[a][b], True)]

    def left_left(a, b, c):
        return [(1, left[a][mul(b, c)], left[b][c], False), (-1, left[mul(a, b)][c], prod[a][b], True)]

    run_law(report, "q(x .l_ab u) = p(x) .l_ab q(u)", q_law(left, [p, q], ("x", "u")), max_violations)
    run_law(report, "q(u .r_ab x) = q(u) .r_ab p(x)", q_law(right, [q, p], ("u", "x")), max_violations)
    run_law(
        report,
        "q(u) .r_a,bg (x *_b,g y) = (u .r_ab x) .r_ab,g p(y)",
        _indexed_nested(omega, 3, q, p, ("u", "x", "y"), right_right),
        max_violations,
    )
    run_law(
        report,
        "p(x) .l_a,bg (u .r_b,g y) = (x .l_ab u) .r_ab,g p(y)",
        _indexed_nested(omega, 3, p, p, ("x", "u", "y"), left_right),
        max_violations,
    )
    run_law(
        report,
        "p(x) .l_a,bg (y .l_b,g u) = (x *_ab y) .l_ab,g q(u)",
        _indexed_nested(omega, 3, p, q, ("x", "y", "u"), left_left),
        max_violations,
    )
    return report


def check_ns_family_morphism(f, source, target, max_violations=DEFAULT_MAX_VIOLATIONS):
    """Linear map commuting with all indexed products and the structure maps."""
    if source.omega.table != target.omega.table:
        raise InputError("morphisms need families indexed by the same semigroup")
    _check_morphism_shape(f, source, target)
    report = CheckReport(subject="Hom-NS family algebra morphism")
    products = residual_cases(_product_blocks(f, source, target))
    structure_map = intertwining_cases(f, source.p, target.p, [f], ("x",))
    run_law(report, "f(x ? y) = f(x) ? f(y) for every product", products, max_violations)
    run_law(report, "f o p = p' o f", structure_map, max_violations)
    return report


def _product_blocks(f, source, target):
    """Blocks of f(x ? y) = f(x) ? f(y) for every product of two NS families.
    Per (alpha, x, y) the < case comes before the > case ("<" sorts first),
    so those two laws are cut into one block per input pair and product."""
    n, omega = source.dim, source.omega
    for a in omega.elements():
        cut = {}
        for op, s_t, t_t in (("<", source.prec[a], target.prec[a]), (">", source.succ[a], target.succ[a])):
            state, den, _ = intertwining_residual(f, s_t, t_t, [f, f])
            for flat, v in state.items():
                cut.setdefault((flat % (n * n), op), ({}, den))[0][flat // (n * n)] = v
        for (c, op), (column, den) in sorted(cut.items()):
            yield (column, den, (f.rows,)), (), {"op": op, "alpha": a, "x": c // n, "y": c % n}
    for a, b in iproduct(omega.elements(), repeat=2):
        where = {"op": "v", "alpha": a, "beta": b}
        yield intertwining_residual(f, source.vee[a][b], target.vee[a][b], [f, f]), ("x", "y"), where


def check_ns_morphism(f, source, target, max_violations=DEFAULT_MAX_VIOLATIONS):
    """NS-algebra morphism check (unindexed products)."""
    _check_morphism_shape(f, source, target)
    report = CheckReport(subject="Hom-NS algebra morphism")
    product_cases = chained_cases(
        _product_cases(f, s_t, t_t, {"op": op})
        for op, s_t, t_t in (
            ("<", source.prec, target.prec),
            (">", source.succ, target.succ),
            ("v", source.vee, target.vee),
        )
    )
    structure_map = intertwining_cases(f, source.p, target.p, [f], ("x",))
    run_law(report, "f(x ? y) = f(x) ? f(y) for every product", product_cases, max_violations)
    run_law(report, "f o p = p' o f", structure_map, max_violations)
    return report


def _check_morphism_shape(f, source, target):
    if (f.rows, f.cols) != (target.dim, source.dim):
        raise InputError(f"f must be {target.dim}x{source.dim}, got {f.rows}x{f.cols}")


# ---------------------------------------------------------------------------
# constructions


def ns_family_from_operator(operator):
    """Splitting of a twisted family on its module: u <_a v = u .r R_a v,
    u >_a v = R_a u .l v, u v_{a,b} v = phi(R_a u, R_b v)."""
    ensure_valid(operator, check_twisted_rbf, "twisted Rota-Baxter family")
    return _split_operator(operator)


def _split_operator(operator):
    """The splitting of ``ns_family_from_operator``, unchecked: for an
    operator already checked, or maps that are not a family (R + t R1 over
    K[t]/(t^2), whose splitting ``deform_ns_family`` checks)."""
    module = operator.bimodule
    prec, succ, vee = operator.products
    return HomNSFamilyAlgebra(dim=module.dim, omega=operator.omega, prec=prec, succ=succ, vee=vee, p=module.q)


def ns_family_pack(family):
    """Pack an NS-family algebra onto G(x)K[omega] into a single NS algebra."""
    ensure_valid(family, check_hom_ns_family, "Hom-NS family algebra")
    omega, n = family.omega, family.dim
    m = omega.size
    dims = (n, n, n)

    return HomNSAlgebra(
        dim=n * m,
        prec=graded_tensor(omega, dims, lambda a, b: family.prec[b]),
        succ=graded_tensor(omega, dims, lambda a, b: family.succ[a]),
        vee=graded_tensor(omega, dims, lambda a, b: family.vee[a][b]),
        p=_block_repeat(family.p, m),
    )


def tridend_from_weighted_rbf(family):
    """x <_a y = x . T_a y, x >_a y = T_a x . y, x.y scaled by the weight."""
    ensure_valid(family, check_weighted_rbf, "weighted Rota-Baxter family")
    A = family.algebra
    prec, succ = _split_products(A.mu, A.mu, family.maps)
    return HomTridendFamily(
        dim=A.dim, omega=family.omega, prec=prec, succ=succ, dot=A.mu.scale(family.weight), p=A.p
    )


def ns_family_from_tridend(family):
    """An NS-family with the constant pair-indexed product v_{a,b} = (.)."""
    ensure_valid(family, check_tridend_family, "Hom-tridendriform family algebra")
    m = family.omega.size
    vee = tuple(tuple(family.dot for _ in range(m)) for _ in range(m))
    return HomNSFamilyAlgebra(
        dim=family.dim,
        omega=family.omega,
        prec=family.prec,
        succ=family.succ,
        vee=vee,
        p=family.p,
    )


def omega_assoc_from_ns_family(family):
    """Total product x *_{a,b} y = x <_b y + x >_a y + x v_{a,b} y."""
    ensure_valid(family, check_hom_ns_family, "Hom-NS family algebra")
    return _total_product(family)


def _total_product(family):
    """The total product of ``omega_assoc_from_ns_family``, unchecked: for
    the splitting of a checked operator, or a deformed splitting whose
    axioms are reported rather than required."""
    omega = family.omega
    prod = _totals(omega, family.prec, family.succ, lambda a, b: family.vee[a][b])
    return OmegaAssocAlgebra(dim=family.dim, omega=omega, prod=prod, p=family.p)


def operator_bimodule(operator):
    """L as a pair-indexed bimodule over the total-product algebra on V.

    Left action u |>- x = R_a u . x - R_ab(u .r x) - R_ab phi(R_a u, x);
    right action x -<| u = x . R_b u - R_ab(x .l u) - R_ab phi(x, R_b u).
    """
    ensure_valid(operator, check_twisted_rbf, "twisted Rota-Baxter family")
    A, module, phi = operator.algebra, operator.bimodule, operator.cocycle.phi
    omega, maps = operator.omega, operator.maps
    parent = _total_product(_split_operator(operator))
    eye = Matrix.identity(A.dim)
    # phi(x, R_b u) and phi(R_a u, x)
    phi_x_r, phi_r_x = _split_products(phi, phi, maps)

    def action(a, b, parts, act, twisted):
        r_ab = maps[omega.mul(a, b)]
        return _compose_sum([(1, A.mu, parts), (-1, r_ab, [act]), (-1, r_ab, [twisted])])

    elements = omega.elements()
    left = tuple(tuple(action(a, b, [maps[a], eye], module.right, phi_r_x[a]) for b in elements) for a in elements)
    right = tuple(tuple(action(a, b, [eye, maps[b]], module.left, phi_x_r[b]) for b in elements) for a in elements)
    return OmegaBimodule(parent=parent, dim=A.dim, left=left, right=right, q=A.p)


def yau_twist_ns_family(family, endo):
    """Compose all products of an NS-family algebra with an endomorphism.

    ``endo`` must commute with every product and with the structure map;
    the twist x ?'_idx y = endo(x) ?_idx endo(y) carries structure map
    endo o p (which is p o endo).
    """
    ensure_valid(family, check_hom_ns_family, "Hom-NS family algebra")
    report = check_ns_family_morphism(endo, family, family)
    require_pass(report, "structure-preserving endomorphism")

    def twist(tensor):
        return _compose(tensor, [endo, endo])

    return HomNSFamilyAlgebra(
        dim=family.dim,
        omega=family.omega,
        prec=tuple(twist(t) for t in family.prec),
        succ=tuple(twist(t) for t in family.succ),
        vee=tuple(tuple(twist(t) for t in row) for row in family.vee),
        p=endo.mul(family.p),
    )


def constant_ns_family(ns, omega):
    """View an NS algebra as a constant family over ``omega``."""
    m = omega.size
    return HomNSFamilyAlgebra(
        dim=ns.dim,
        omega=omega,
        prec=(ns.prec,) * m,
        succ=(ns.succ,) * m,
        vee=tuple((ns.vee,) * m for _ in range(m)),
        p=ns.p,
    )


def as_ns_algebra(family):
    """Collapse a family over the trivial semigroup to a plain NS algebra."""
    if family.omega.size != 1:
        raise InputError("only families over the trivial semigroup collapse")
    return HomNSAlgebra(
        dim=family.dim,
        prec=family.prec[0],
        succ=family.succ[0],
        vee=family.vee[0][0],
        p=family.p,
    )


def total_product_algebra(ns):
    """The Hom-associative algebra with product < + > + v and the same map."""
    ensure_valid(ns, check_hom_ns, "Hom-NS algebra")
    return HomAlgebra(dim=ns.dim, mu=ns.prec.add(ns.succ).add(ns.vee), p=ns.p)
