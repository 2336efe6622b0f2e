"""Matrix products, cochain transport and elimination held to frozen bodies.

Derandomized Hypothesis properties hold ``Matrix.mul``, ``Matrix.apply``,
``transport_cochain``, ``rank``, ``kernel_supports``, ``solve`` and
``invert_matrix`` to the bodies frozen in ``oracles`` (``dense_matrix_mul``,
``dense_matrix_apply``, ``tuple_transport_cochain``, ``viewed_rank``,
``viewed_kernel_supports``, ``augmented_solve``,
``augmented_invert_matrix``): the same ``repr``, so an entry's type counts
as much as its value, or the same exception type and message.

Products draw raw ints, mixed int/``Fraction`` entries, long rationals and
polynomials over K[t]/(t^2) and K[t]/(t^3) (nilpotent products vanish), with
0-extent and mismatched shapes.  Elimination draws rational matrices, low
rank ones among them, and now and then a polynomial entry or a float or
polynomial right-hand side.  Transport moves degree 0-2 cochains along D1's identity
morphism, a D1 automorphism and the identity morphisms of the seeded C2
transports.
"""
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from rbfam.cohomology import rbf_complex, transport_cochain
from rbfam.linalg import Matrix, block_diag, invert_matrix, kernel_supports, rank, solve
from rbfam.operators import OperatorMorphism
from rbfam.scalars import TruncatedPoly
from rbfam.workspace import desk_instance
from test_law_composition import transported
from test_signed_sums import _outcome, array, dims, extent, sum_scalars

# ---------------------------------------------------------------------------
# products


@st.composite
def products(draw):
    """(a, b) for a.mul(b); now and then b's row count does not fit."""
    order = draw(st.sampled_from((None, None, 2, 3)))
    r, k, c = draw(dims), draw(dims), draw(dims)
    return array(draw, order, (r, k), True), array(draw, order, (extent(draw, k), c), True)


@st.composite
def applications(draw):
    """(m, v) for m.apply(v); now and then v's length does not fit."""
    order = draw(st.sampled_from((None, None, 2, 3)))
    r, c = draw(dims), draw(dims)
    n = extent(draw, c)
    return array(draw, order, (r, c), True), tuple(draw(st.lists(sum_scalars(order), min_size=n, max_size=n)))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(case=products())
def test_mul_matches_dense_body(case):
    assert _outcome(Matrix.mul, *case) == _outcome(oracles.dense_matrix_mul, *case)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(case=applications())
def test_apply_matches_dense_body(case):
    assert _outcome(Matrix.apply, *case) == _outcome(oracles.dense_matrix_apply, *case)


# ---------------------------------------------------------------------------
# elimination

POLYNOMIALS = (TruncatedPoly.t(2), TruncatedPoly.constant(1, 3))
INEXACT = (1.5, 0.0) + POLYNOMIALS
sizes = st.integers(0, 5)


def spoil(draw, entries, inexact=INEXACT):
    """``entries``, or, one time in ten, with one entry drawn from
    ``inexact``."""
    entries = list(entries)
    if entries and draw(st.integers(0, 9)) == 0:
        entries[draw(st.integers(0, len(entries) - 1))] = draw(st.sampled_from(inexact))
    return entries


@st.composite
def rational_matrices(draw, rows=None, cols=None):
    """A rational matrix: dense, sparse, or the product of two through a
    narrower middle (rank deficient); now and then one entry is a
    polynomial.  A float entry is refused when a matrix is built
    (``tests/test_linalg.py``), so only a right-hand side draws one."""
    rows = draw(sizes) if rows is None else rows
    cols = draw(sizes) if cols is None else cols
    if draw(st.booleans()):
        m = array(draw, None, (rows, cols), True)
    else:
        k = draw(st.integers(0, max(min(rows, cols) - 1, 0)))
        m = oracles.dense_matrix_mul(array(draw, None, (rows, k), True), array(draw, None, (k, cols), True))
    return Matrix(rows, cols, tuple(spoil(draw, m.entries, POLYNOMIALS)))


@st.composite
def systems(draw):
    """(m, b) for solve: b is m applied to a vector (consistent), or drawn
    (mostly inconsistent when m is rank deficient); now and then its
    length does not fit or one entry is inexact."""
    m = draw(rational_matrices())
    if draw(st.booleans()) and all(isinstance(e, (int, Fraction)) for e in m.entries):
        x = draw(st.lists(sum_scalars(None), min_size=m.cols, max_size=m.cols))
        b = oracles.dense_matrix_apply(m, x)
    else:
        n = extent(draw, m.rows)
        b = draw(st.lists(sum_scalars(None), min_size=n, max_size=n))
    return m, tuple(spoil(draw, b))


@st.composite
def squares(draw):
    """A square rational matrix, or one time in eight a non-square one."""
    n = draw(st.integers(0, 4))
    return draw(rational_matrices(n, extent(draw, n)))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(m=rational_matrices())
def test_rank_and_kernel_match_viewed_bodies(m):
    assert _outcome(rank, m) == _outcome(oracles.viewed_rank, m)
    assert _outcome(kernel_supports, m) == _outcome(oracles.viewed_kernel_supports, m)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(case=systems())
def test_solve_matches_augmented_body(case):
    assert _outcome(solve, *case) == _outcome(oracles.augmented_solve, *case)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(m=squares())
def test_invert_matrix_matches_augmented_body(m):
    assert _outcome(invert_matrix, m) == _outcome(oracles.augmented_invert_matrix, m)


# ---------------------------------------------------------------------------
# cochain transport


def morphisms():
    """D1's identity morphism, the D1 automorphism (diag(1, -1) on V and on
    each block of L), and the identity morphisms of the seeded C2
    transports of the twisted-triangular packing."""
    d1 = desk_instance("D1")["operator"]
    flip = Matrix.from_rows([[1, 0], [0, -1]])
    out = [
        OperatorMorphism(d1, d1, Matrix.identity(4), Matrix.identity(2)),
        OperatorMorphism(d1, d1, block_diag([flip, flip]), flip),
    ]
    for seed in (0, 1):
        op = transported(("cyclic", 2), seed)
        out.append(OperatorMorphism(op, op, Matrix.identity(op.algebra.dim), Matrix.identity(op.bimodule.dim)))
    return out


MORPHISMS = morphisms()


@settings(max_examples=40, deadline=None, derandomize=True)
@given(morphism=st.sampled_from(MORPHISMS), degree=st.integers(0, 2), data=st.data())
def test_transport_matches_per_tuple_body(morphism, degree, data):
    handle = rbf_complex(morphism.source)
    size = len(handle.supports(degree))
    picks = data.draw(st.lists(st.integers(0, max(size - 1, 0)), max_size=3)) if size else []
    coeffs = [Fraction(0)] * size
    for i in picks:
        coeffs[i] += data.draw(st.sampled_from((1, -1, Fraction(1, 2), Fraction(-7, 3))))
    cochain = handle.unflatten(degree, handle.combine(degree, coeffs))
    assert _outcome(transport_cochain, morphism, cochain) == _outcome(
        oracles.tuple_transport_cochain, morphism, cochain
    )


# ---------------------------------------------------------------------------
# elimination builds no matrix and keeps no integer view


def constructions(monkeypatch):
    """A list that grows by one per ``Matrix`` constructed from now on."""
    built = []
    post_init = Matrix.__post_init__

    def counting(self):
        built.append((self.rows, self.cols))
        post_init(self)

    monkeypatch.setattr(Matrix, "__post_init__", counting)
    return built


def test_solve_builds_no_matrix(monkeypatch):
    m = Matrix.from_rows([[1, Fraction(1, 2), 0], [2, 3, Fraction(-1, 3)]])
    built = constructions(monkeypatch)
    assert solve(m, (1, Fraction(2, 5))) is not None
    assert built == []


def test_invert_matrix_builds_only_its_result(monkeypatch):
    m = Matrix.from_rows([[1, Fraction(1, 2)], [2, 3]])
    built = constructions(monkeypatch)
    inverse = invert_matrix(m)
    assert built == [(2, 2)]
    assert inverse == Matrix.from_rows([[Fraction(3, 2), Fraction(-1, 4)], [-1, Fraction(1, 2)]])


def test_elimination_keeps_no_integer_view():
    for rows in ([[1, Fraction(1, 2), 0], [2, 3, 0]], [[1, 2], [Fraction(1, 3), 0], [0, 5]]):
        m = Matrix.from_rows(rows)
        assert rank(m) == 2
        kernel_supports(m)
        assert "integer_view" not in vars(m)
