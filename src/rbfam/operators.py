"""Semigroup-indexed operator families on Hom-associative algebras.

Covers twisted Rota-Baxter families {R_a : V -> L}, Nijenhuis families
{N_a : L -> L}, weighted Rota-Baxter families {T_a : L -> L}, morphisms
between twisted families, the graph characterization inside the twisted
semidirect product, and the packings onto the semigroup algebra.

A family's induced products are composed as whole tensors, once, in
``_split_products`` (right o (I x M_a) and left o (M_a x I)) and
``_twisted_products`` (adding phi o (R_a x R_b)); the constructions in
``family`` take them from here.  Every family identity is one law,
``_family_identity``: M_ab o total_ab = mu o (M_a x M_b) on each pair
(a, b), where total_ab = x <_b y + x >_a y plus phi o (R_a x R_b),
-N_ab o mu or w mu.  ``twisted_inner_sum``, ``graph_check`` and the grid
search stay per tuple as independent second routes.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from itertools import product as iproduct

from .errors import InputError
from .homalg import (
    HomAlgebra,
    HomBimodule,
    TwoCocycle,
    _packed_data,
    check_bimodule,
    check_hom_algebra,
    check_two_cocycle,
    is_equivariant,
    semidirect_product,
    tensor_bimodule,
)
from .linalg import Matrix, _compose, _compose_sum, block_diag, unit_vector, vadd, vsub
from .reports import (
    DEFAULT_MAX_VIOLATIONS,
    CheckReport,
    ensure_valid,
    intertwining_cases,
    run_law,
    signed_cases,
)
from .scalars import ensure_rational
from .semigroups import FiniteSemigroup, builtin


def _check_maps(family, rows, cols):
    """One rows x cols matrix per semigroup element, or ``InputError``."""
    if len(family.maps) != family.omega.size:
        raise InputError("one matrix per semigroup element is required")
    for a, mat in enumerate(family.maps):
        if (mat.rows, mat.cols) != (rows, cols):
            raise InputError(f"map {a} must be {rows}x{cols}, got {mat.rows}x{mat.cols}")


@dataclass(frozen=True)
class TwistedRBFamily:
    """Family {R_a : V -> L}, one n x d matrix per semigroup element."""

    cocycle: TwoCocycle
    omega: FiniteSemigroup
    maps: tuple

    def __post_init__(self):
        _check_maps(self, self.algebra.dim, self.bimodule.dim)

    @property
    def bimodule(self):
        return self.cocycle.host

    @property
    def algebra(self):
        return self.cocycle.host.parent


@dataclass(frozen=True)
class NijenhuisFamily:
    algebra: HomAlgebra
    omega: FiniteSemigroup
    maps: tuple

    def __post_init__(self):
        _check_maps(self, self.algebra.dim, self.algebra.dim)


@dataclass(frozen=True)
class WeightedRBFamily:
    algebra: HomAlgebra
    omega: FiniteSemigroup
    weight: Fraction
    maps: tuple

    def __post_init__(self):
        object.__setattr__(self, "weight", ensure_rational(self.weight))
        _check_maps(self, self.algebra.dim, self.algebra.dim)


@dataclass(frozen=True)
class OperatorMorphism:
    """Pair (psi : L -> L', phi : V -> V') between twisted families."""

    source: TwistedRBFamily
    target: TwistedRBFamily
    psi: Matrix
    phi: Matrix

    def __post_init__(self):
        if self.source.omega.table != self.target.omega.table:
            raise InputError("morphisms need families indexed by the same semigroup")
        if (self.psi.rows, self.psi.cols) != (self.target.algebra.dim, self.source.algebra.dim):
            raise InputError("psi shape mismatch")
        if (self.phi.rows, self.phi.cols) != (self.target.bimodule.dim, self.source.bimodule.dim):
            raise InputError("phi shape mismatch")


def _validate_hosts(operator):
    ensure_valid(operator.algebra, check_hom_algebra, "host hom-algebra")
    ensure_valid(operator.bimodule, check_bimodule, "host hom-bimodule")
    ensure_valid(operator.cocycle, check_two_cocycle, "host two-cocycle")


def twisted_inner_sum(operator, alpha, beta, u, v):
    """R_a u .l v + u .r R_b v + phi(R_a u, R_b v)."""
    module, phi = operator.bimodule, operator.cocycle
    ru, rv = operator.maps[alpha].apply(u), operator.maps[beta].apply(v)
    return vadd(vadd(module.act_l(ru, v), module.act_r(u, rv)), phi.apply(ru, rv))


# ---------------------------------------------------------------------------
# induced products and the family identity


def _split_products(left, right, maps):
    """(prec, succ) with prec_a = right o (I x M_a) and succ_a = left o (M_a x I).

    On a module's actions and maps R_a : V -> L these are the splitting
    products u .r R_a v and R_a u .l v; on (mu, mu) they are x . M_a y and
    M_a x . y, on (phi, phi) phi(x, M_a y) and phi(M_a x, y).
    """
    i_right, i_left = Matrix.identity(right.shape[1]), Matrix.identity(left.shape[2])
    prec = tuple(_compose(right, [i_right, m]) for m in maps)
    succ = tuple(_compose(left, [m, i_left]) for m in maps)
    return prec, succ


def _twisted_products(operator, maps):
    """(prec, succ, vee) of maps R_a : V -> L on the operator's hosts:
    u .r R_a v, R_a u .l v and vee[a][b] = phi o (R_a x R_b)."""
    module = operator.bimodule
    prec, succ = _split_products(module.left, module.right, maps)
    vee = tuple(tuple(_compose(operator.cocycle.phi, [r_a, r_b]) for r_b in maps) for r_a in maps)
    return prec, succ, vee


def _nijenhuis_products(family):
    """(prec, succ, minus_n_mu, total) of a Nijenhuis family: x . N_a y,
    N_a x . y, -N_g(x.y) per grade g and total[a][b] = x . N_b y +
    N_a x . y - N_ab(x.y)."""
    A, omega = family.algebra, family.omega
    prec, succ = _split_products(A.mu, A.mu, family.maps)
    minus_n_mu = tuple(_compose_sum([(-1, n, [A.mu])]) for n in family.maps)
    total = _totals(omega, prec, succ, lambda a, b: minus_n_mu[omega.mul(a, b)])
    return prec, succ, minus_n_mu, total


def _totals(omega, prec, succ, third):
    """total[a][b] = prec[b] + succ[a] + third(a, b), one summed tensor per pair."""
    return tuple(
        tuple(prec[b].add(succ[a]).add(third(a, b)) for b in omega.elements())
        for a in omega.elements()
    )


def _family_identity(omega, mu, maps, total, names):
    """Cases of M_a x . M_b y = M_ab(total[a][b](x, y)) for ``run_law``.

    On each pair (a, b) this is the intertwining law
    M_ab o total_ab = mu o (M_a x M_b); the residual is its right side
    minus its left side, M_a x . M_b y - M_ab(total_ab(x, y)), one signed
    sum of the two compositions.
    """
    for alpha, beta in iproduct(omega.elements(), repeat=2):
        m_ab = maps[omega.mul(alpha, beta)]
        terms = [(1, mu, [maps[alpha], maps[beta]]), (-1, m_ab, [total[alpha][beta]])]
        yield from signed_cases(terms, names, {"alpha": alpha, "beta": beta})


def family_identity_cases(operator, maps):
    """Cases of R_a u . R_b v = R_ab(R_a u .l v + u .r R_b v + phi(R_a u, R_b v)).

    The hosts are the operator's; ``maps`` are the R_a: the operator's own,
    or deformed ones whose entries are truncated polynomials.
    """
    omega = operator.omega
    prec, succ, vee = _twisted_products(operator, maps)
    total = _totals(omega, prec, succ, lambda a, b: vee[a][b])
    return _family_identity(omega, operator.algebra.mu, maps, total, ("u", "v"))


def check_twisted_rbf(operator, max_violations=DEFAULT_MAX_VIOLATIONS):
    _validate_hosts(operator)
    A, module = operator.algebra, operator.bimodule
    omega = operator.omega
    report = CheckReport(subject=f"twisted Rota-Baxter family over omega of size {omega.size}")

    def equivariance():
        for alpha in omega.elements():
            r_a = operator.maps[alpha]
            yield from intertwining_cases(r_a, module.q, A.p, [r_a], ("u",), {"alpha": alpha})

    run_law(report, "R_a o q = p o R_a", equivariance(), max_violations)
    run_law(
        report,
        "R_a u . R_b v = R_ab(R_a u .l v + u .r R_b v + phi(R_a u, R_b v))",
        family_identity_cases(operator, operator.maps),
        max_violations,
    )
    return report


def _commutes_with_p(family):
    """Cases of p o M_a = M_a o p for the maps M_a of an operator family on L."""
    p = family.algebra.p
    for alpha in family.omega.elements():
        m_a = family.maps[alpha]
        yield from intertwining_cases(p, m_a, m_a, [p], ("x",), {"alpha": alpha})


def check_nijenhuis_family(family, max_violations=DEFAULT_MAX_VIOLATIONS):
    ensure_valid(family.algebra, check_hom_algebra, "host hom-algebra")
    report = CheckReport(subject=f"Nijenhuis family over omega of size {family.omega.size}")
    run_law(report, "p o N_a = N_a o p", _commutes_with_p(family), max_violations)
    *_, total = _nijenhuis_products(family)
    run_law(
        report,
        "N_a x . N_b y = N_ab(N_a x . y + x . N_b y - N_ab(x.y))",
        _family_identity(family.omega, family.algebra.mu, family.maps, total, ("x", "y")),
        max_violations,
    )
    return report


def check_weighted_rbf(family, max_violations=DEFAULT_MAX_VIOLATIONS):
    A, omega = family.algebra, family.omega
    ensure_valid(A, check_hom_algebra, "host hom-algebra")
    lam = family.weight
    report = CheckReport(subject=f"weighted Rota-Baxter family (weight {lam})")
    run_law(report, "p(T_a x) = T_a p(x)", _commutes_with_p(family), max_violations)
    prec, succ = _split_products(A.mu, A.mu, family.maps)
    weighted = A.mu.scale(lam)
    total = _totals(omega, prec, succ, lambda a, b: weighted)
    run_law(
        report,
        "T_a x . T_b y = T_ab(T_a x . y + x . T_b y + w x.y)",
        _family_identity(omega, A.mu, family.maps, total, ("x", "y")),
        max_violations,
    )
    return report


def check_operator_morphism(morphism, max_violations=DEFAULT_MAX_VIOLATIONS):
    src, tgt = morphism.source, morphism.target
    _validate_hosts(src)
    _validate_hosts(tgt)
    psi, phi = morphism.psi, morphism.phi
    s_mod, t_mod = src.bimodule, tgt.bimodule
    s_alg, t_alg = src.algebra, tgt.algebra
    report = CheckReport(subject="twisted Rota-Baxter family morphism")
    intertwines_r = chain.from_iterable(
        intertwining_cases(psi, src.maps[alpha], tgt.maps[alpha], [phi], ("u",), {"alpha": alpha})
        for alpha in src.omega.elements()
    )
    run_law(report, "psi o R_a = R'_a o phi", intertwines_r, max_violations)
    # (name, out, source tensor, target tensor, input maps, where-keys)
    for name, *law in (
        ("phi o Phi = Phi' o (psi x psi)", phi, src.cocycle.phi, tgt.cocycle.phi, [psi, psi], ("x", "y")),
        ("phi o q = q' o phi", phi, s_mod.q, t_mod.q, [phi], ("u",)),
        ("phi(x .l u) = psi(x) .l' phi(u)", phi, s_mod.left, t_mod.left, [psi, phi], ("x", "u")),
        ("phi(u .r x) = phi(u) .r' psi(x)", phi, s_mod.right, t_mod.right, [phi, psi], ("u", "x")),
        ("psi(x.y) = psi(x).psi(y)", psi, s_alg.mu, t_alg.mu, [psi, psi], ("x", "y")),
        ("psi o p = p' o psi", psi, s_alg.p, t_alg.p, [psi], ("x",)),
    ):
        run_law(report, name, intertwining_cases(*law), max_violations)
    return report


# ---------------------------------------------------------------------------
# graph characterization


def graph_check(operator, max_violations=DEFAULT_MAX_VIOLATIONS):
    """Check that the graphs of R_a form a Hom-family subalgebra of L x|_phi V.

    Builds Gr(R_a) = span{(R_a v, v)} inside the twisted semidirect product
    and tests (p+q)-stability of each graph plus the product containment
    Gr(R_a) . Gr(R_b) within Gr(R_ab), both by exact membership.
    The verdict agrees with check_twisted_rbf on every input.
    """
    _validate_hosts(operator)
    A, module, omega = operator.algebra, operator.bimodule, operator.omega
    n, d = A.dim, module.dim
    semidirect = semidirect_product(module, operator.cocycle)
    graphs = []
    for alpha in omega.elements():
        cols = []
        for a in range(d):
            cols.append(tuple(operator.maps[alpha].column(a)) + unit_vector(d, a))
        graphs.append(Matrix.from_columns(cols, rows=n + d))
    report = CheckReport(subject="graph characterization in the twisted semidirect product")

    def residual_against(graph, w):
        # The bottom block of every graph matrix is the identity, so w lies
        # in the graph exactly when it equals the graph applied to its
        # bottom part.
        return vsub(w, graph.apply(w[n:]))

    def stability():
        for alpha in omega.elements():
            for a in range(d):
                w = semidirect.p.apply(graphs[alpha].column(a))
                yield {"alpha": alpha, "u": a}, residual_against(graphs[alpha], w)

    def containment():
        for alpha, beta in iproduct(omega.elements(), repeat=2):
            target = graphs[omega.mul(alpha, beta)]
            for a, b in iproduct(range(d), repeat=2):
                w = semidirect.product(graphs[alpha].column(a), graphs[beta].column(b))
                yield {"alpha": alpha, "beta": beta, "u": a, "v": b}, residual_against(target, w)

    run_law(report, "(p+q) Gr(R_a) inside Gr(R_a)", stability(), max_violations)
    run_law(report, "Gr(R_a) . Gr(R_b) inside Gr(R_ab)", containment(), max_violations)
    return report


# ---------------------------------------------------------------------------
# packings and induced data


def pack_operator(operator):
    """Pack a family into a single twisted operator on V(x)K[omega] over L(x)K[omega].

    The packed map sends u(x)a to (R_a u)(x)a; viewed as a family over the
    trivial semigroup with the packed cocycle it passes the family check.
    """
    ensure_valid(operator, check_twisted_rbf, "twisted Rota-Baxter family")
    _, packed_cocycle = tensor_bimodule(operator.cocycle, operator.omega)
    return TwistedRBFamily(
        cocycle=packed_cocycle, omega=builtin("trivial"), maps=(block_diag(operator.maps),)
    )


@dataclass(frozen=True)
class NijenhuisInducedData:
    algebra: HomAlgebra
    module: HomBimodule
    cocycle: TwoCocycle
    operator: TwistedRBFamily


def nijenhuis_induced_data(family):
    """Deformed product, bimodule, cocycle and identity family from a Nijenhuis family.

    On L(x)K[omega]: (x(x)a) . (y(x)b) = (N_a x . y + x . N_b y - N_ab(x.y)) (x) ab,
    L acts through N, the cocycle is (x(x)a, y(x)b) -> -N_ab(x.y), and the
    maps x -> x(x)a form a twisted Rota-Baxter family for that cocycle.
    """
    ensure_valid(family, check_nijenhuis_family, "Nijenhuis family")
    A, omega = family.algebra, family.omega
    rights, lefts, minus_n_mu, products = _nijenhuis_products(family)
    algebra, module, cocycle = _packed_data(
        omega,
        A.p,
        lambda a, b: products[a][b],
        lefts,
        rights,
        lambda a, b: minus_n_mu[omega.mul(a, b)],
    )
    return NijenhuisInducedData(
        algebra=algebra,
        module=module,
        cocycle=cocycle,
        operator=identity_packing_family(A, omega, cocycle),
    )


def identity_packing_family(algebra, omega, packed_cocycle):
    """The family Id_a(x) = x(x)a into L(x)K[omega], for a packed cocycle on it."""
    n = algebra.dim
    maps = []
    for alpha in omega.elements():
        entries = [[Fraction(0)] * n for _ in range(n * omega.size)]
        for i in range(n):
            entries[alpha * n + i][i] = Fraction(1)
        maps.append(Matrix.from_rows(entries))
    return TwistedRBFamily(cocycle=packed_cocycle, omega=omega, maps=tuple(maps))


DEFAULT_SEARCH_GRID = (
    Fraction(0),
    Fraction(1),
    Fraction(-1),
    Fraction(1, 2),
    Fraction(-1, 2),
)
SEARCH_CANDIDATE_CAP = 10**6


@dataclass(frozen=True)
class _SearchOption:
    """A candidate map N with what its equations read, computed once: its
    columns N e_i and, per basis pair (i, j) in row-major order,
    N e_i . e_j, e_i . N e_j and N(e_i . e_j)."""

    matrix: Matrix
    columns: tuple
    left: tuple
    right: tuple
    after_mu: tuple


def _search_option(algebra, mat):
    n = algebra.dim
    pairs = tuple(iproduct(range(n), repeat=2))
    cols, basis = tuple(mat.column(i) for i in range(n)), algebra.basis()
    return _SearchOption(
        matrix=mat,
        columns=cols,
        left=tuple(algebra.product(cols[i], basis[j]) for i, j in pairs),
        right=tuple(algebra.product(basis[i], cols[j]) for i, j in pairs),
        after_mu=tuple(mat.apply(algebra.basis_product(i, j)) for i, j in pairs),
    )


def _pair_holds(algebra, a, b, c):
    """N_a e_i . N_b e_j = N_c(N_a e_i . e_j + e_i . N_b e_j - N_c(e_i . e_j))
    on every basis pair, for the options bound to N_a, N_b and N_c, c = ab."""
    apply = c.matrix.apply
    return all(
        algebra.product(ai, bj) == apply(vsub(vadd(ai_j, i_bj), c_ij))
        for (ai, bj), ai_j, i_bj, c_ij in zip(iproduct(a.columns, b.columns), a.left, b.right, c.after_mu)
    )


def search_nijenhuis_families(algebra, omega, grid=DEFAULT_SEARCH_GRID, cap=SEARCH_CANDIDATE_CAP):
    """Exhaustive grid search for Nijenhuis families with entries from ``grid``.

    The raw candidate count len(grid)**(m*n*n) must stay within ``cap``;
    beyond that an explicit candidate must be supplied instead.  The maps
    are bound one at a time, N_0 first, each from the n x n matrices over
    the grid that commute with p, in grid order.  The equations of a pair
    (a, b) are tested per basis tuple, directly, as soon as N_a, N_b and
    N_ab are all bound, so a failing prefix prunes every candidate that
    extends it.  Survivors come back in grid order, exactly as enumerating
    every candidate would return them.
    """
    ensure_valid(algebra, check_hom_algebra, "host hom-algebra")
    grid = tuple(ensure_rational(g) for g in grid)
    n, m = algebra.dim, omega.size
    total = len(grid) ** (m * n * n)
    if total > cap:
        raise InputError(
            f"search space {total} exceeds the candidate cap {cap}; "
            "supply an explicit candidate instead"
        )
    p = algebra.p
    options = (
        _search_option(algebra, mat)
        for mat in (Matrix(n, n, flat) for flat in iproduct(grid, repeat=n * n))
        if is_equivariant(p, p, 1, (mat,))
    )
    if m > 1:
        # Each later map tries every option again.  A single map tries each
        # once, and only there can the options reach the cap in number.
        options = tuple(options)
    due = [[] for _ in range(m)]
    for alpha, beta in iproduct(range(m), repeat=2):
        ab = omega.mul(alpha, beta)
        due[max(alpha, beta, ab)].append((alpha, beta, ab))
    found, bound = [], [None] * m

    def extend(k):
        if k == m:
            maps = tuple(option.matrix for option in bound)
            found.append(NijenhuisFamily(algebra=algebra, omega=omega, maps=maps))
            return
        for option in options:
            bound[k] = option
            if all(_pair_holds(algebra, bound[a], bound[b], bound[ab]) for a, b, ab in due[k]):
                extend(k + 1)

    extend(0)
    return found
