"""Benchmark-side algebra: seeded basis changes and naive reference checks.

Nothing here calls into rbfam's arithmetic.  rbfam objects are read as
data carriers (their ``entries`` and ``shape``) and built through their
public constructors, so a reference computed here does not come from the
code being timed.
"""
from fractions import Fraction
from itertools import product

from rbfam.homalg import HomAlgebra, HomBimodule, TwoCocycle
from rbfam.linalg import Matrix, Tensor
from rbfam.operators import TwistedRBFamily


def matmul(a, b):
    return [[sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(len(b[0]))] for i in range(len(a))]


def identity(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


def inverse(a):
    """Exact inverse by Gauss-Jordan over Fractions (small square matrices)."""
    n = len(a)
    rows = [[Fraction(x) for x in a[i]] + [Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for c in range(n):
        piv = next(r for r in range(c, n) if rows[r][c])
        rows[c], rows[piv] = rows[piv], rows[c]
        pc = rows[c][c]
        rows[c] = [x / pc for x in rows[c]]
        for r in range(n):
            if r != c and rows[r][c]:
                f = rows[r][c]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[c])]
    return [row[n:] for row in rows]


def _dense_unimodular(n):
    """A fixed dense integer matrix of determinant 1: L0 U0 with +-1 off the diagonal."""
    lower = [[1 if i == j else ((-1) ** (i + j) if j < i else 0) for j in range(n)] for i in range(n)]
    upper = [[1 if i <= j else 0 for j in range(n)] for i in range(n)]
    return matmul(lower, upper)


def seeded_unimodular(n, rng):
    """S = P D: a seeded signed permutation P times the fixed dense D.

    Every seed gives a dense basis with the same entry sizes, so the seed
    changes the input without changing how much arithmetic it costs.
    Returns (S, S^-1), both integer matrices.
    """
    perm = list(range(n))
    rng.shuffle(perm)
    signed = [[rng.choice((1, -1)) if perm[i] == j else 0 for j in range(n)] for i in range(n)]
    s = matmul(signed, _dense_unimodular(n))
    s_inv = inverse(s)
    if any(x.denominator != 1 for row in s_inv for x in row):
        raise AssertionError("basis change is not unimodular")
    s_inv = [[int(x) for x in row] for row in s_inv]
    if matmul(s, s_inv) != identity(n):
        raise AssertionError("basis change inverse is wrong")
    return s, s_inv


def nested3(t):
    d0, d1, d2 = t.shape
    e = t.entries
    return [[[Fraction(e[(k * d1 + i) * d2 + j]) for j in range(d2)] for i in range(d1)] for k in range(d0)]


def rows_of(m):
    return [[Fraction(m.entries[i * m.cols + j]) for j in range(m.cols)] for i in range(m.rows)]


def _transport3(t, out, a, b):
    """new[k][i][j] = sum out[k][k0] t[k0][i0][j0] a[i0][i] b[j0][j]."""
    src = nested3(t)
    d0, d1, d2 = t.shape
    new = [[[Fraction(0)] * d2 for _ in range(d1)] for _ in range(d0)]
    for k0, i0, j0 in product(range(d0), range(d1), range(d2)):
        c = src[k0][i0][j0]
        if not c:
            continue
        for k, i, j in product(range(d0), range(d1), range(d2)):
            w = out[k][k0] * a[i0][i] * b[j0][j]
            if w:
                new[k][i][j] += c * w
    return Tensor.from_function((d0, d1, d2), lambda k, i, j: new[k][i][j])


def _conj(m, s, s_inv):
    return Matrix.from_rows(matmul(matmul(s, rows_of(m)), s_inv))


def transport_algebra(algebra, s, s_inv):
    """(L, mu, p) moved along x -> S x."""
    return HomAlgebra(
        dim=algebra.dim,
        mu=_transport3(algebra.mu, s, s_inv, s_inv),
        p=_conj(algebra.p, s, s_inv),
    )


def transport_family(operator, rng):
    """Move (L, V, Phi, R_a) along seeded unimodular S on L and U on V.

    mu, p, left, right, q, Phi and every R_a are transported, so the result
    is isomorphic to the input and has the same cohomology dimensions.
    """
    algebra, module = operator.algebra, operator.bimodule
    s, s_inv = seeded_unimodular(algebra.dim, rng)
    u, u_inv = seeded_unimodular(module.dim, rng)
    new_algebra = transport_algebra(algebra, s, s_inv)
    new_module = HomBimodule(
        parent=new_algebra,
        dim=module.dim,
        left=_transport3(module.left, u, s_inv, u_inv),
        right=_transport3(module.right, u, u_inv, s_inv),
        q=_conj(module.q, u, u_inv),
    )
    cocycle = TwoCocycle(host=new_module, phi=_transport3(operator.cocycle.phi, u, s_inv, s_inv))
    maps = tuple(Matrix.from_rows(matmul(matmul(s, rows_of(r)), u_inv)) for r in operator.maps)
    return TwistedRBFamily(cocycle=cocycle, omega=operator.omega, maps=maps)


def yau_twisted_triangular():
    """Yau twist of the 2x2 upper-triangular algebra by m = diag(1, 2, 1).

    Basis (E11, E12, E22); product x * y = m(x . y); structure map m.
    """
    n = 3
    twist = (1, 2, 1)
    mu = [[[0] * n for _ in range(n)] for _ in range(n)]
    for k, i, j in ((0, 0, 0), (1, 0, 1), (1, 1, 2), (2, 2, 2)):
        mu[k][i][j] = twist[k]
    return HomAlgebra(
        dim=n,
        mu=Tensor.from_nested(mu, 3),
        p=Matrix.from_rows([[twist[i] if i == j else 0 for j in range(n)] for i in range(n)]),
    )


# ---------------------------------------------------------------------------
# naive references


def _apply(m, v):
    return [sum(m[i][j] * v[j] for j in range(len(v))) for i in range(len(m))]


def _bilinear(t, x, y):
    return [
        sum(t[k][i][j] * x[i] * y[j] for i in range(len(x)) for j in range(len(y)) if x[i] and y[j])
        for k in range(len(t))
    ]


class FamilyData:
    """Raw structure constants of a twisted family's hosts, read once."""

    def __init__(self, operator):
        self.mu = nested3(operator.algebra.mu)
        self.left = nested3(operator.bimodule.left)
        self.right = nested3(operator.bimodule.right)
        self.phi = nested3(operator.cocycle.phi)
        self.p = rows_of(operator.algebra.p)
        self.q = rows_of(operator.bimodule.q)
        self.table = operator.omega.table
        self.size = operator.omega.size
        self.n, self.d = operator.algebra.dim, operator.bimodule.dim


def family_law_holds(data, maps):
    """Equivariance p R_a = R_a q and the twisted Rota-Baxter family identity.

    ``maps`` holds one row-major n*d entry sequence per semigroup element.
    """
    n, d = data.n, data.d
    mats = [[[Fraction(m[i * d + a]) for a in range(d)] for i in range(n)] for m in maps]
    for r in mats:
        if matmul(data.p, r) != matmul(r, data.q):
            return False
    cols = [[[r[i][a] for i in range(n)] for a in range(d)] for r in mats]
    for alpha, beta in product(range(data.size), repeat=2):
        r_ab = mats[data.table[alpha][beta]]
        for a, b in product(range(d), repeat=2):
            ru, rv = cols[alpha][a], cols[beta][b]
            u = [int(i == a) for i in range(d)]
            v = [int(i == b) for i in range(d)]
            inner = [
                x + y + z
                for x, y, z in zip(_bilinear(data.left, ru, v), _bilinear(data.right, u, rv), _bilinear(data.phi, ru, rv))
            ]
            if _bilinear(data.mu, ru, rv) != _apply(r_ab, inner):
                return False
    return True


def nijenhuis_law_holds(mu, table, maps):
    """N_a x . N_b y = N_ab(N_a x . y + x . N_b y - N_ab(x . y)) on basis pairs (p = id)."""
    n = len(mu)
    for alpha, beta in product(range(len(table)), repeat=2):
        n_a, n_b, n_ab = maps[alpha], maps[beta], maps[table[alpha][beta]]
        for i, j in product(range(n), repeat=2):
            x = [int(k == i) for k in range(n)]
            y = [int(k == j) for k in range(n)]
            nx, ny = _apply(n_a, x), _apply(n_b, y)
            inner = [
                a + b - c
                for a, b, c in zip(_bilinear(mu, nx, y), _bilinear(mu, x, ny), _apply(n_ab, _bilinear(mu, x, y)))
            ]
            if _bilinear(mu, nx, ny) != _apply(n_ab, inner):
                return False
    return True
