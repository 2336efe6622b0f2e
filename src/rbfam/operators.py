"""Semigroup-indexed operator families on Hom-associative algebras.

Covers twisted Rota-Baxter families {R_a : V -> L}, Nijenhuis families
{N_a : L -> L}, weighted Rota-Baxter families {T_a : L -> L}, morphisms
between twisted families, the graph characterization inside the twisted
semidirect product, and the packings onto the semigroup algebra.

A family's induced products are composed as whole tensors, once, in
``_split_products`` (right o (I x M_a) and left o (M_a x I)) and
``_twisted_products`` (adding phi o (R_a x R_b)); the constructions in
``family`` take them from here.  A twisted family keeps the products of
its own maps (``TwistedRBFamily.products``), which its check, its
splitting and its induced bimodule share.  Every family identity is one law,
``_family_identity``: M_ab o total_ab = mu o (M_a x M_b) on each pair
(a, b), where total_ab = x <_b y + x >_a y plus phi o (R_a x R_b),
-N_ab o mu or w mu.  ``twisted_inner_sum``, ``graph_check`` and the grid
search stay per tuple as independent second routes; ``graph_check`` and the
search read their arrays once per call as integer tables and build a
``Fraction`` only for a violating tuple's residual or a found family.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import product as iproduct
from math import gcd, lcm, prod

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
from .linalg import (
    Matrix,
    _columns,
    _compose,
    _compose_sum,
    _contract,
    _contract_supports,
    _read,
    _signed_state,
    _support,
    block_diag,
    vadd,
)
from .reports import (
    DEFAULT_MAX_VIOLATIONS,
    CheckReport,
    chained_cases,
    ensure_valid,
    intertwining_cases,
    intertwining_residual,
    residual_cases,
    run_law,
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

    @cached_property
    def products(self):
        """``_twisted_products`` of the family's own maps, built on first use
        and kept on the instance; not a field, so ``==``, ``hash`` and
        ``repr`` ignore it."""
        return _twisted_products(self, self.maps)


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
        tuple(_summed([prec[b], succ[a], third(a, b)]) for b in omega.elements())
        for a in omega.elements()
    )


def _summed(arrays):
    """The entrywise sum of arrays of one shape.  When every array has an
    integer view, the numerators are summed over the lcm of the scales and
    the sum, of the first array's class, is born integer as
    ``linalg._compose_sum``'s tensors are: it builds its ``Fraction``
    entries only when they are read.  Otherwise (a polynomial entry, or
    shapes that ``add`` refuses) the arrays are added entry by entry."""
    first, *rest = arrays
    views = [t.integer_view for t in arrays]
    if None in views or any(t.shape != first.shape for t in rest):
        for t in rest:
            first = first.add(t)
        return first
    den = lcm(*(scale for scale, _ in views))
    values = [0] * prod(first.shape)
    for scale, ints in views:
        m = den // scale
        for k, v in enumerate(ints):
            if v:
                values[k] += m * v
    g = gcd(den, *values)
    return type(first)._born(first.shape, integer_view=(den // g, tuple(v // g for v in values)))


def _family_identity(omega, mu, maps, total, names):
    """Residual blocks of M_a x . M_b y = M_ab(total[a][b](x, y)) for
    ``residual_cases``, one (residual, names, {"alpha": a, "beta": b}) per
    pair (a, b).

    On each pair (a, b) this is the intertwining law
    M_ab o total_ab = mu o (M_a x M_b); the residual is its right side
    minus its left side, M_a x . M_b y - M_ab(total_ab(x, y)), one signed
    sum of the two compositions.
    """
    for alpha, beta in iproduct(omega.elements(), repeat=2):
        m_ab = maps[omega.mul(alpha, beta)]
        terms = [(1, mu, [maps[alpha], maps[beta]]), (-1, m_ab, [total[alpha][beta]])]
        yield _signed_state(terms), names, {"alpha": alpha, "beta": beta}


def family_identity_residuals(operator, maps):
    """Residual blocks of R_a u . R_b v = R_ab(R_a u .l v + u .r R_b v + phi(R_a u, R_b v)).

    The hosts are the operator's; ``maps`` are the R_a: the operator's own,
    whose products it keeps, or others (R + t R1 at some t, say), composed
    afresh.
    """
    omega = operator.omega
    prec, succ, vee = operator.products if maps is operator.maps else _twisted_products(operator, maps)
    total = _totals(omega, prec, succ, lambda a, b: vee[a][b])
    return _family_identity(omega, operator.algebra.mu, maps, total, ("u", "v"))


def family_identity_cases(operator, maps):
    """``family_identity_residuals`` read as cases for ``run_law``."""
    return residual_cases(family_identity_residuals(operator, maps))


def check_twisted_rbf(operator, max_violations=DEFAULT_MAX_VIOLATIONS):
    _validate_hosts(operator)
    A, module = operator.algebra, operator.bimodule
    omega = operator.omega
    report = CheckReport(subject=f"twisted Rota-Baxter family over omega of size {omega.size}")

    equivariance = residual_cases(
        (intertwining_residual(r_a, module.q, A.p, [r_a]), ("u",), {"alpha": alpha})
        for alpha, r_a in zip(omega.elements(), operator.maps)
    )
    run_law(report, "R_a o q = p o R_a", equivariance, max_violations)
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
    return chained_cases(
        intertwining_cases(p, m_a, m_a, [p], ("x",), {"alpha": alpha})
        for alpha, m_a in zip(family.omega.elements(), family.maps)
    )


def check_nijenhuis_family(family, max_violations=DEFAULT_MAX_VIOLATIONS):
    ensure_valid(family.algebra, check_hom_algebra, "host hom-algebra")
    report = CheckReport(subject=f"Nijenhuis family over omega of size {family.omega.size}")
    run_law(report, "p o N_a = N_a o p", _commutes_with_p(family), max_violations)
    *_, total = _nijenhuis_products(family)
    run_law(
        report,
        "N_a x . N_b y = N_ab(N_a x . y + x . N_b y - N_ab(x.y))",
        residual_cases(_family_identity(family.omega, family.algebra.mu, family.maps, total, ("x", "y"))),
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
        residual_cases(_family_identity(omega, A.mu, family.maps, total, ("x", "y"))),
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
    intertwines_r = chained_cases(
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

    Each graph column (R_a e_u, e_u) is read as values at R_a's scale s_a
    (its ``scaled`` view), and the product's mu and p through their
    ``columns``, once per call; a product of graph columns is one
    ``_contract`` over den.  Every graph's bottom block is the identity, so
    w lies in Gr(R_t) exactly when w = Gr(R_t) w_V: the residual is
    s_t w - Gr_t(w_V) over den * s_t, Gr_t the graph at scale s_t.  A law
    is one residual block of those numerators per alpha (or (alpha, beta))
    holding the violating tuples' columns, read as entries (``_read``)
    where a polynomial feeds them.
    """
    _validate_hosts(operator)
    module, omega = operator.bimodule, operator.omega
    n, d = operator.algebra.dim, module.dim
    semidirect = semidirect_product(module, operator.cocycle)
    s_mu, mu = semidirect.mu.columns
    s_p, p = semidirect.p.columns
    scales, graphs, minus_graphs = [], [], []
    for r in operator.maps:
        scale, values = r.scaled
        cols = [values[u::d] + tuple(scale if v == u else 0 for v in range(d)) for u in range(d)]
        scales.append(scale)
        graphs.append(cols)
        minus_graphs.append([tuple((k, -c) for k, c in enumerate(col) if c) for col in cols])
    report = CheckReport(subject="graph characterization in the twisted semidirect product")

    def block(products, den, t, names, where):
        s_t, state = scales[t], {}
        for c, w in enumerate(products):
            out = _contract(minus_graphs[t], [w[n:]], [x * s_t for x in w])
            if any(out):
                state.update((k * len(products) + c, v) for k, v in enumerate(out))
        den *= s_t
        if any(type(v) is not int for v in state.values()):
            state, den = {key: _read(v, den) for key, v in state.items()}, None
        return (state, den, (n + d,) + (d,) * len(names)), names, where

    stability = residual_cases(
        block([_contract(p, [u], [0] * (n + d)) for u in graphs[a]], s_p * scales[a], a, ("u",), {"alpha": a})
        for a in omega.elements()
    )
    containment = residual_cases(
        block(
            [_contract(mu, [u, v], [0] * (n + d)) for u, v in iproduct(graphs[a], graphs[b])],
            s_mu * scales[a] * scales[b], omega.mul(a, b), ("u", "v"), {"alpha": a, "beta": b},
        )
        for a, b in iproduct(omega.elements(), repeat=2)
    )
    run_law(report, "(p+q) Gr(R_a) inside Gr(R_a)", stability, max_violations)
    run_law(report, "Gr(R_a) . Gr(R_b) inside Gr(R_ab)", containment, max_violations)
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
    """A candidate map N with what its equations read, computed once as
    integers: N is read as the integer matrix M = G N, G the lcm of the
    grid's denominators, and mu as its integer columns U over the scale s.
    Kept are M's ``columns``, the supports of M e_i as the first and as the
    second argument of U (``first``, ``second``), and per basis pair (i, j)
    in row-major order U(M e_i, e_j), U(e_i, M e_j) and M U(e_i, e_j)."""

    matrix: Matrix
    columns: tuple
    first: tuple
    second: tuple
    left: tuple
    right: tuple
    after_mu: tuple


def _search_option(mu, products, mat, ints):
    """The option of ``mat``, whose entries times G are ``ints``; ``mu`` is
    the algebra's integer columns and products[i * n + j] = U(e_i, e_j)."""
    n = mat.rows
    pairs = tuple(iproduct(range(n), repeat=2))
    columns = _columns(ints, (n, n))
    vectors = [ints[i::n] for i in range(n)]
    first, second = tuple(_support(v, n) for v in vectors), tuple(_support(v, 1) for v in vectors)
    return _SearchOption(
        matrix=mat,
        columns=columns,
        first=first,
        second=second,
        left=tuple(_contract_supports(mu, [first[i], [(j, 1)]], [0] * n) for i, j in pairs),
        right=tuple(_contract_supports(mu, [[(i * n, 1)], second[j]], [0] * n) for i, j in pairs),
        after_mu=tuple(_contract(columns, [products[i * n + j]], [0] * n) for i, j in pairs),
    )


def _pair_holds(mu, n, a, b, c):
    """N_a e_i . N_b e_j = N_c(N_a e_i . e_j + e_i . N_b e_j - N_c(e_i . e_j))
    on every basis pair, for the options bound to N_a, N_b and N_c, c = ab.
    With N = M / G and mu = U / s both sides are over s G^2, so the test is
    U(M_a e_i, M_b e_j) == M_c(U(M_a e_i, e_j) + U(e_i, M_b e_j) - M_c U(e_i, e_j))
    on integer vectors."""
    return all(
        _contract_supports(mu, [ai, bj], [0] * n)
        == _contract(c.columns, [[x + y - z for x, y, z in zip(ai_j, i_bj, c_ij)]], [0] * n)
        for (ai, bj), ai_j, i_bj, c_ij in zip(iproduct(a.first, b.second), a.left, b.right, c.after_mu)
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
    scale = lcm(*(g.denominator for g in grid))
    ints = tuple(g.numerator * (scale // g.denominator) for g in grid)
    (_, values), (_, mu) = algebra.mu.scaled, algebra.mu.columns
    products = [values[j :: n * n] for j in range(n * n)]
    options = (
        _search_option(mu, products, mat, flat_ints)
        for mat, flat_ints in zip(
            (Matrix(n, n, flat) for flat in iproduct(grid, repeat=n * n)), iproduct(ints, repeat=n * n)
        )
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
            if all(_pair_holds(mu, n, bound[a], bound[b], bound[ab]) for a, b, ab in due[k]):
                extend(k + 1)

    extend(0)
    return found
