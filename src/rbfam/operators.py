"""Semigroup-indexed operator families on Hom-associative algebras.

Covers twisted Rota-Baxter families {R_a : V -> L}, Nijenhuis families
{N_a : L -> L}, weighted Rota-Baxter families {T_a : L -> L}, morphisms
between twisted families, the graph characterization inside the twisted
semidirect product, and the packings onto the semigroup algebra.
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
from .linalg import Matrix, bilinear_tensor, block_diag, unit_vector, vadd, vsub
from .reports import (
    DEFAULT_MAX_VIOLATIONS,
    CheckReport,
    ensure_valid,
    intertwining_cases,
    run_law,
)
from .scalars import ensure_rational
from .semigroups import FiniteSemigroup, builtin


@dataclass(frozen=True)
class TwistedRBFamily:
    """Family {R_a : V -> L}, one n x d matrix per semigroup element."""

    cocycle: TwoCocycle
    omega: FiniteSemigroup
    maps: tuple

    def __post_init__(self):
        if len(self.maps) != self.omega.size:
            raise InputError("one matrix per semigroup element is required")
        n, d = self.algebra.dim, self.bimodule.dim
        for a, mat in enumerate(self.maps):
            if (mat.rows, mat.cols) != (n, d):
                raise InputError(f"map {a} must be {n}x{d}, got {mat.rows}x{mat.cols}")

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
        if len(self.maps) != self.omega.size:
            raise InputError("one matrix per semigroup element is required")
        n = self.algebra.dim
        for a, mat in enumerate(self.maps):
            if (mat.rows, mat.cols) != (n, n):
                raise InputError(f"map {a} must be {n}x{n}")


@dataclass(frozen=True)
class WeightedRBFamily:
    algebra: HomAlgebra
    omega: FiniteSemigroup
    weight: Fraction
    maps: tuple

    def __post_init__(self):
        object.__setattr__(self, "weight", ensure_rational(self.weight))
        if len(self.maps) != self.omega.size:
            raise InputError("one matrix per semigroup element is required")
        n = self.algebra.dim
        for a, mat in enumerate(self.maps):
            if (mat.rows, mat.cols) != (n, n):
                raise InputError(f"map {a} must be {n}x{n}")


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
    return _inner_sum(operator, u, v, operator.maps[alpha].apply(u), operator.maps[beta].apply(v))


def _inner_sum(operator, u, v, ru, rv):
    module, phi = operator.bimodule, operator.cocycle
    return vadd(vadd(module.act_l(ru, v), module.act_r(u, rv)), phi.apply(ru, rv))


def family_identity_cases(operator, maps):
    """Cases of R_a u . R_b v = R_ab(R_a u .l v + u .r R_b v + phi(R_a u, R_b v)).

    The hosts are the operator's; ``maps`` are the R_a: the operator's own,
    or deformed ones whose entries are truncated polynomials.
    """
    A, omega = operator.algebra, operator.omega
    vbasis = operator.bimodule.basis()
    for alpha, beta in iproduct(omega.elements(), repeat=2):
        r_ab = maps[omega.mul(alpha, beta)]
        for a, b in iproduct(range(len(vbasis)), repeat=2):
            u, v = vbasis[a], vbasis[b]
            ru, rv = maps[alpha].apply(u), maps[beta].apply(v)
            rhs = r_ab.apply(_inner_sum(operator, u, v, ru, rv))
            yield {"alpha": alpha, "beta": beta, "u": a, "v": b}, vsub(A.product(ru, rv), rhs)


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


def _endo_family_identity_cases(family, third):
    """Cases of M_a x . M_b y = M_ab(M_a x . y + x . M_b y + third(M_ab, x.y))
    on basis pairs (x, y), for the maps M_a of an operator family on L."""
    A, omega, maps = family.algebra, family.omega, family.maps
    n = A.dim
    for alpha, beta in iproduct(omega.elements(), repeat=2):
        m_ab = maps[omega.mul(alpha, beta)]
        for i, j in iproduct(range(n), repeat=2):
            x, y = unit_vector(n, i), unit_vector(n, j)
            lhs = A.product(maps[alpha].apply(x), maps[beta].apply(y))
            inner = vadd(
                vadd(A.product(maps[alpha].apply(x), y), A.product(x, maps[beta].apply(y))),
                third(m_ab, A.basis_product(i, j)),
            )
            yield {"alpha": alpha, "beta": beta, "x": i, "y": j}, vsub(lhs, m_ab.apply(inner))


def check_nijenhuis_family(family, max_violations=DEFAULT_MAX_VIOLATIONS):
    ensure_valid(family.algebra, check_hom_algebra, "host hom-algebra")
    report = CheckReport(subject=f"Nijenhuis family over omega of size {family.omega.size}")
    run_law(report, "p o N_a = N_a o p", _commutes_with_p(family), max_violations)
    run_law(
        report,
        "N_a x . N_b y = N_ab(N_a x . y + x . N_b y - N_ab(x.y))",
        _endo_family_identity_cases(family, lambda n_ab, xy: tuple(-c for c in n_ab.apply(xy))),
        max_violations,
    )
    return report


def check_weighted_rbf(family, max_violations=DEFAULT_MAX_VIOLATIONS):
    ensure_valid(family.algebra, check_hom_algebra, "host hom-algebra")
    lam = family.weight
    report = CheckReport(subject=f"weighted Rota-Baxter family (weight {lam})")
    run_law(report, "p(T_a x) = T_a p(x)", _commutes_with_p(family), max_violations)
    run_law(
        report,
        "T_a x . T_b y = T_ab(T_a x . y + x . T_b y + w x.y)",
        _endo_family_identity_cases(family, lambda t_ab, xy: tuple(lam * c for c in xy)),
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
    n, basis = A.dim, A.basis()

    def per_grade(col):
        return [bilinear_tensor(n, lambda i, j, N=N: col(N, i, j)) for N in family.maps]

    # N_a x . y, x . N_b y and -N_g(x.y) per grade; the deformed product of
    # grades a and b is their sum with g = ab.
    lefts = per_grade(lambda N, i, j: A.product(N.column(i), basis[j]))
    rights = per_grade(lambda N, i, j: A.product(basis[i], N.column(j)))
    minus_n_mu = [t.neg() for t in per_grade(lambda N, i, j: N.apply(A.basis_product(i, j)))]
    products = {
        (a, b): lefts[a].add(rights[b]).add(minus_n_mu[omega.mul(a, b)])
        for a, b in iproduct(omega.elements(), repeat=2)
    }
    algebra, module, cocycle = _packed_data(
        omega,
        A.p,
        lambda a, b: products[(a, b)],
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


def search_nijenhuis_families(algebra, omega, grid=DEFAULT_SEARCH_GRID, cap=SEARCH_CANDIDATE_CAP):
    """Exhaustive grid search for Nijenhuis families with entries from ``grid``.

    The candidate count len(grid)**(m*n*n) must stay within ``cap``; beyond
    that an explicit candidate must be supplied instead.  Candidates are
    screened with early exit; survivors are returned in grid order.
    """
    ensure_valid(algebra, check_hom_algebra, "host hom-algebra")
    n, m = algebra.dim, omega.size
    slots = m * n * n
    total = len(grid) ** slots
    if total > cap:
        raise InputError(
            f"search space {total} exceeds the candidate cap {cap}; "
            "supply an explicit candidate instead"
        )
    grid = tuple(ensure_rational(g) for g in grid)
    prods = {
        (i, j): algebra.basis_product(i, j) for i, j in iproduct(range(n), repeat=2)
    }
    basis = algebra.basis()
    p = algebra.p
    p_is_id = p.is_identity()
    found = []
    for flat in iproduct(grid, repeat=slots):
        maps = tuple(
            Matrix(n, n, flat[a * n * n : (a + 1) * n * n]) for a in range(m)
        )
        ok = True
        if not p_is_id:
            ok = is_equivariant(p, p, 1, maps)
        if ok:
            for alpha, beta in iproduct(range(m), repeat=2):
                n_ab = maps[omega.mul(alpha, beta)]
                for i, j in iproduct(range(n), repeat=2):
                    lhs = algebra.product(maps[alpha].column(i), maps[beta].column(j))
                    inner = vsub(
                        vadd(
                            algebra.product(maps[alpha].column(i), basis[j]),
                            algebra.product(basis[i], maps[beta].column(j)),
                        ),
                        n_ab.apply(prods[(i, j)]),
                    )
                    if lhs != n_ab.apply(inner):
                        ok = False
                        break
                if not ok:
                    break
        if ok:
            found.append(NijenhuisFamily(algebra=algebra, omega=omega, maps=maps))
    return found
