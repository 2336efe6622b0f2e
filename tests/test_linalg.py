import random
from fractions import Fraction
from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    bareiss_kernel_supports,
    bareiss_rank,
    bareiss_solve,
    copying_compose,
    dense_multilinear,
    matrix_add,
    matrix_is_identity,
    matrix_is_zero,
    matrix_neg,
    matrix_scale,
    matrix_sub,
    naive_multilinear,
    naive_rank,
    nested_of,
    rows_of,
    tensor_add,
    tensor_is_zero,
    tensor_neg,
    tensor_scale,
    tensor_sub,
)
from rbfam.cohomology import HA, ComplexHandle
from rbfam.errors import InputError
from rbfam.homalg import is_equivariant
from rbfam.linalg import (
    ONE,
    ZERO,
    Matrix,
    Tensor,
    _compose,
    densify,
    invert_matrix,
    kernel_basis,
    kernel_supports,
    multilinear_apply,
    rank,
    solve,
    tensor_column,
    unit_vector,
)
from rbfam.reports import intertwining_residual
from rbfam.scalars import TruncatedPoly

small_entries = st.integers(min_value=-6, max_value=6).map(Fraction)


def matrices(max_dim=5, entries=small_entries):
    return st.integers(1, max_dim).flatmap(
        lambda r: st.integers(1, max_dim).flatmap(
            lambda c: st.lists(
                st.lists(entries, min_size=c, max_size=c), min_size=r, max_size=r
            ).map(Matrix.from_rows)
        )
    )


def test_rank_examples():
    assert rank(Matrix.identity(2)) == 2
    assert rank(Matrix.zero(3, 5)) == 0
    # one dependent row, checked against the independent max-pivot oracle
    m = Matrix.from_rows([[1, 2], [2, 4]])
    assert rank(m) == 1
    assert naive_rank(rows_of(m)) == 1


def test_rank_rejects_polynomials():
    t = TruncatedPoly.t(2)
    m = Matrix(1, 1, (t,))
    with pytest.raises(InputError):
        rank(m)
    with pytest.raises(InputError):
        kernel_basis(m)
    with pytest.raises(InputError):
        solve(m, (Fraction(1),))


def test_elimination_refuses_float_entries():
    # A float has no exact denominator, so it gets no integer view.
    m = Matrix(1, 2, (0.5, 1))
    for run in (rank, kernel_supports, kernel_basis, lambda m: solve(m, (Fraction(1),))):
        with pytest.raises(InputError, match="rational matrices only"):
            run(m)
    with pytest.raises(InputError, match="rational matrices only"):
        invert_matrix(Matrix(2, 2, (0.5, 1, 0, 1)))


def test_kernel_examples():
    assert kernel_basis(Matrix.identity(3)) == []
    basis = kernel_basis(Matrix.zero(2, 3))
    assert basis == [unit_vector(3, 0), unit_vector(3, 1), unit_vector(3, 2)]
    (v,) = kernel_basis(Matrix.from_rows([[1, 1]]))
    assert v[0] * Fraction(-1) == v[1]
    for vec in kernel_basis(Matrix.from_rows([[1, 2, 3], [2, 4, 6], [1, 1, 1]])):
        assert Matrix.from_rows([[1, 2, 3], [2, 4, 6], [1, 1, 1]]).apply(vec) == (ZERO,) * 3


def test_solve_examples():
    b = (Fraction(3), Fraction(-1))
    sol, ker = solve(Matrix.identity(2), b)
    assert sol == b and ker == []
    assert solve(Matrix.zero(2, 2), (Fraction(1), Fraction(0))) is None
    sol, ker = solve(Matrix.from_rows([[2]]), (Fraction(3),))
    assert sol == (Fraction(3, 2),) and ker == []
    with pytest.raises(InputError):
        solve(Matrix.identity(2), (Fraction(1),))


def test_solve_underdetermined():
    m = Matrix.from_rows([[1, 1, 0], [0, 0, 1]])
    sol, ker = solve(m, (Fraction(2), Fraction(5)))
    assert m.apply(sol) == (Fraction(2), Fraction(5))
    assert len(ker) == 1
    shifted = tuple(s + k for s, k in zip(sol, ker[0]))
    assert m.apply(shifted) == (Fraction(2), Fraction(5))


@settings(max_examples=80, deadline=None)
@given(matrices())
def test_rank_nullity_and_pivot_independence(m):
    r = rank(m)
    ker = kernel_basis(m)
    assert m.cols == r + len(ker)
    for v in ker:
        assert m.apply(v) == (ZERO,) * m.rows
    # A different pivoting strategy (largest pivot, full row combination)
    # must see the same rank.
    assert naive_rank(rows_of(m)) == r


@settings(max_examples=50, deadline=None)
@given(matrices(4), st.lists(small_entries, min_size=4, max_size=4))
def test_solve_agrees_with_construction(m, xs):
    x = tuple(xs[: m.cols])
    x = x + (Fraction(0),) * (m.cols - len(x))
    b = m.apply(x)
    outcome = solve(m, b)
    assert outcome is not None
    sol, _ = outcome
    assert m.apply(sol) == b


rationals = st.fractions(min_value=-6, max_value=6, max_denominator=3)


@st.composite
def linear_systems(draw):
    """(M, b, where): consistent (b = M x) or arbitrary right-hand sides,
    some with a truncated polynomial planted in M or b (``where``)."""
    rows, cols = draw(st.integers(0, 4)), draw(st.integers(1, 4))
    entries = draw(st.lists(rationals, min_size=rows * cols, max_size=rows * cols))
    m = Matrix(rows, cols, tuple(entries))
    if draw(st.booleans()):
        b = m.apply(tuple(draw(st.lists(rationals, min_size=cols, max_size=cols))))
    else:
        b = tuple(draw(st.lists(rationals, min_size=rows, max_size=rows)))
    where = draw(st.sampled_from([None, None, None, "matrix", "rhs"])) if rows else None
    poly = TruncatedPoly.t(2)
    if where == "matrix":
        i = draw(st.integers(0, rows * cols - 1))
        m = Matrix(rows, cols, m.entries[:i] + (poly,) + m.entries[i + 1 :])
    elif where == "rhs":
        i = draw(st.integers(0, rows - 1))
        b = b[:i] + (poly,) + b[i + 1 :]
    return m, b, where


@settings(max_examples=200, deadline=None)
@given(linear_systems())
def test_solve_matches_the_frozen_solver(system):
    m, b, where = system
    if where is not None:
        with pytest.raises(InputError):
            solve(m, b)
        with pytest.raises(ValueError):
            bareiss_solve(m, b)
        return
    assert repr(solve(m, b)) == repr(bareiss_solve(m, b))


def test_solve_rejects_a_float_right_hand_side():
    with pytest.raises(InputError, match="not an exact rational"):
        solve(Matrix.identity(2), (Fraction(1), 0.5))


@st.composite
def square_matrices(draw):
    """Square rational matrices up to 4x4; about half are made singular by
    replacing the last row with a combination of the others."""
    n = draw(st.integers(0, 4))
    rows = [draw(st.lists(rationals, min_size=n, max_size=n)) for _ in range(n)]
    if n and draw(st.booleans()):
        coeffs = draw(st.lists(rationals, min_size=n - 1, max_size=n - 1))
        rows[-1] = [sum((c * r[j] for c, r in zip(coeffs, rows)), Fraction(0)) for j in range(n)]
    return Matrix(n, n, tuple(e for row in rows for e in row))


@settings(max_examples=150, deadline=None)
@given(square_matrices())
def test_invert_matrix_matches_per_column_solves(m):
    _assert_inverse_matches_solves(m)


def _assert_inverse_matches_solves(m):
    # The inverse is one elimination of [M | I]; the frozen solver finds it
    # column by column, and M is singular when a column has no unique solution.
    solutions = [bareiss_solve(m, unit_vector(m.rows, i)) for i in range(m.rows)]
    if any(sol is None or sol[1] for sol in solutions):
        with pytest.raises(InputError, match="^matrix is not invertible$"):
            invert_matrix(m)
        return
    inverse = invert_matrix(m)
    assert (inverse.rows, inverse.cols) == (m.rows, m.rows)
    assert repr([inverse.column(i) for i in range(m.rows)]) == repr([sol[0] for sol in solutions])


@st.composite
def sparse_matrices(draw):
    """0/+-1 matrices up to 40x40, tall or wide, at a drawn density, with
    some rows or columns zeroed and some rows copied (maybe negated) onto
    others.  About a quarter are square and invertible: a row-shuffled
    triangular matrix with +-1 on its diagonal."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    rows, cols = draw(st.integers(0, 40)), draw(st.integers(1, 40))
    density = draw(st.sampled_from([0.02, 0.05, 0.1, 0.3, 0.7]))

    def entry():
        return rng.choice((1, -1)) if rng.random() < density else 0

    if draw(st.integers(0, 3)) == 0:
        rows = cols
        grid = [[rng.choice((1, -1)) if i == j else entry() if j > i else 0 for j in range(cols)] for i in range(rows)]
        rng.shuffle(grid)
        return Matrix.from_rows(grid)
    grid = [[entry() for _ in range(cols)] for _ in range(rows)]
    for _ in range(draw(st.integers(0, 3))):
        if rows:
            grid[rng.randrange(rows)] = [0] * cols
        j = rng.randrange(cols)
        for row in grid:
            row[j] = 0
    for _ in range(draw(st.integers(0, 3))):
        if rows > 1:
            i, k, sign = rng.randrange(rows), rng.randrange(rows), rng.choice((1, -1))
            grid[k] = [sign * e for e in grid[i]]
    return Matrix(rows, cols, tuple(Fraction(e) for row in grid for e in row))


@settings(max_examples=150, deadline=None)
@given(st.one_of(matrices(6, rationals), sparse_matrices()), st.lists(rationals, min_size=1, max_size=5))
def test_elimination_matches_the_frozen_bareiss(m, xs):
    assert repr(rank(m)) == repr(bareiss_rank(m))
    expected = bareiss_kernel_supports(m)
    assert repr(kernel_supports(m)) == repr(expected)
    assert repr(kernel_basis(m)) == repr([densify(v, m.cols) for v in expected])
    # A consistent right-hand side, then one that usually is not.
    x = tuple(xs[i % len(xs)] for i in range(m.cols))
    for b in (m.apply(x), tuple(xs[i % len(xs)] for i in range(m.rows))):
        assert repr(solve(m, b)) == repr(bareiss_solve(m, b))
    if m.rows == m.cols:
        _assert_inverse_matches_solves(m)


def test_seeded_triangular_constraint_block_matches_the_frozen_bareiss():
    # The structure map diag(1, 2, 1) of the Yau-twisted triangular algebra,
    # moved by the twisted-constrained benchmark's basis change S = P D at
    # seed 0 (S p S^-1).  Its degree-4 Hochschild constraint block is sparse.
    p = Matrix.from_rows([[2, 1, 0], [0, 1, 0], [0, 0, 1]])
    handle = ComplexHandle(tag=HA, source_dim=3, target_dim=3, source_map=p, target_map=p, omega=None, degree_cap=4)
    m = handle._constraint_matrix(4)
    assert (m.rows, m.cols, sum(1 for e in m.entries if e)) == (241, 243, 785)
    assert repr(rank(m)) == repr(bareiss_rank(m))
    assert repr(kernel_supports(m)) == repr(bareiss_kernel_supports(m))


def test_invert_matrix_shapes():
    assert invert_matrix(Matrix(0, 0, ())) == Matrix(0, 0, ())
    with pytest.raises(InputError, match="^only square matrices invert$"):
        invert_matrix(Matrix.zero(2, 3))


def random_tensor(rng, shape):
    total = 1
    for d in shape:
        total *= d
    return Tensor(tuple(shape), tuple(Fraction(rng.randint(-4, 4)) for _ in range(total)))


def test_multilinear_examples():
    # scalar multiplication tensor: 1-dim algebra
    t = Tensor((1, 1, 1), (Fraction(1),))
    assert multilinear_apply(t, [(Fraction(2),), (Fraction(3),)]) == (Fraction(6),)
    # any zero argument gives the zero vector
    rng = random.Random(1)
    t = random_tensor(rng, (3, 2, 2))
    assert multilinear_apply(t, [(ZERO,) * 2, (Fraction(1), Fraction(2))]) == (ZERO,) * 3
    # basis arguments extract a column
    assert multilinear_apply(t, [unit_vector(2, 1), unit_vector(2, 0)]) == tensor_column(t, (1, 0))


def test_multilinear_against_naive_oracle():
    rng = random.Random(20240810)
    # total sizes range up to 10**4 entries
    shapes = [
        (2,),
        (3, 4),
        (2, 3, 2),
        (4, 2, 3, 2),
        (2, 2, 2, 2, 2),
        (5, 10, 10, 10),
        (10, 10, 10, 10),
    ]
    for shape in shapes:
        t = random_tensor(rng, shape)
        args = [
            tuple(Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(d))
            for d in shape[1:]
        ]
        expected = naive_multilinear(nested_of(t), [list(a) for a in args])
        assert list(multilinear_apply(t, args)) == expected


def kernel_scalars(order):
    """Scalars biased toward 0 and 1: small and long ``Fraction``s (long
    ones have numerators of about 300 digits and denominators up to
    2**61 - 1), raw ints mixed in, and TruncatedPoly of ``order`` when set."""
    rationals = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))
    long_rationals = st.builds(
        lambda n, sign, d: Fraction(sign * n, d),
        st.integers(10**299, 10**300),
        st.sampled_from((1, -1)),
        st.one_of(st.just(2**61 - 1), st.integers(1, 2**61 - 1)),
    )
    options = [
        st.just(Fraction(0)),
        st.just(Fraction(1)),
        st.just(0),
        st.just(1),
        st.integers(-3, 3),
        rationals,
        long_rationals,
    ]
    if order is not None:
        options += [
            st.just(TruncatedPoly.constant(1, order)),
            st.lists(rationals, min_size=order, max_size=order).map(
                lambda cs: TruncatedPoly(cs, order)
            ),
        ]
    return st.one_of(options)


@st.composite
def kernel_inputs(draw):
    """A tensor with 0-3 input axes (extents 0-3) and arguments that are
    unit, zero or dense vectors, over rationals (``Fraction``s, raw ints or
    both) or one truncation order."""
    order = draw(st.sampled_from([None, 1, 2, 3]))
    scalars = kernel_scalars(order)
    ones = [Fraction(1), 1] + ([] if order is None else [TruncatedPoly.constant(1, order)])
    zeros = [Fraction(0), 0]
    shape = (draw(st.integers(0, 3)),) + tuple(
        draw(st.lists(st.integers(0, 3), min_size=0, max_size=3))
    )
    entries = tuple(draw(st.lists(scalars, min_size=prod(shape), max_size=prod(shape))))
    args = []
    for d in shape[1:]:
        kinds = ["zero", "dense"] + (["unit"] if d else [])
        kind = draw(st.sampled_from(kinds))
        if kind == "unit":
            one, i = draw(st.sampled_from(ones)), draw(st.integers(0, d - 1))
            zero = draw(st.sampled_from(zeros))
            args.append(tuple(one if j == i else zero for j in range(d)))
        elif kind == "zero":
            args.append((draw(st.sampled_from(zeros)),) * d)
        else:
            args.append(tuple(draw(st.lists(scalars, min_size=d, max_size=d))))
    return Tensor(shape, entries), args


@settings(max_examples=300, deadline=None)
@given(kernel_inputs())
def test_multilinear_matches_dense_kernel(case):
    # repr compares every entry's value and type (Fraction vs TruncatedPoly).
    tensor, args = case
    assert repr(multilinear_apply(tensor, args)) == repr(dense_multilinear(tensor, args))


def _outcome(fn, *args):
    """``repr`` of fn(*args), or the type and message of what it raises."""
    try:
        return repr(fn(*args))
    except Exception as exc:
        return type(exc), str(exc)


def _array(draw, order, shape, matrix):
    """A ``Matrix`` (``shape`` has two extents) or a ``Tensor`` of that shape
    over ``kernel_scalars(order)``; a square matrix is at times an identity
    with a raw-int, ``Fraction`` or constant-polynomial 1 and 0."""
    if matrix and shape[0] == shape[1] and draw(st.booleans()):
        one = draw(st.sampled_from([1, ONE] + ([] if order is None else [TruncatedPoly.constant(1, order)])))
        zero = draw(st.sampled_from([0, ZERO]))
        return Matrix(*shape, tuple(one if i == j else zero for i in range(shape[0]) for j in range(shape[1])))
    entries = tuple(draw(st.lists(kernel_scalars(order), min_size=prod(shape), max_size=prod(shape))))
    return Matrix(*shape, entries) if matrix else Tensor(shape, entries)


def _extent(draw, extent):
    """``extent``, or, one time in five, another extent (a shape mismatch)."""
    return draw(st.integers(0, 3)) if draw(st.integers(0, 4)) == 0 else extent


@st.composite
def array_pairs(draw):
    """A ``Matrix`` or a ``Tensor``, a second one of its class whose shape is
    at times another, and a scalar, drawn as ``kernel_inputs`` draws them."""
    order = draw(st.sampled_from([None, 1, 2, 3]))
    matrix = draw(st.booleans())
    rank_ = 2 if matrix else draw(st.integers(0, 3))
    shape = tuple(draw(st.lists(st.integers(0, 3), min_size=rank_, max_size=rank_)))
    other = tuple(_extent(draw, d) for d in shape)
    if not matrix and draw(st.integers(0, 4)) == 0:
        other += (1,)
    a, b = _array(draw, order, shape, matrix), _array(draw, order, other, matrix)
    return a, b, draw(kernel_scalars(order))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(array_pairs())
def test_array_ops_match_the_frozen_bodies(case):
    # repr compares shapes, entry values and entry types; a mismatch must
    # raise the same InputError message.
    a, b, c = case
    if isinstance(a, Matrix):
        binary = {"add": matrix_add, "sub": matrix_sub}
        unary = {"neg": matrix_neg, "is_zero": matrix_is_zero, "is_identity": matrix_is_identity}
        scale = matrix_scale
    else:
        binary = {"add": tensor_add, "sub": tensor_sub}
        unary = {"neg": tensor_neg, "is_zero": tensor_is_zero}
        scale = tensor_scale
    for name, frozen in binary.items():
        assert _outcome(getattr(type(a), name), a, b) == _outcome(frozen, a, b)
    for name, frozen in unary.items():
        for x in (a, b):
            assert _outcome(getattr(type(x), name), x) == _outcome(frozen, x)
    assert _outcome(type(a).scale, a, c) == _outcome(scale, a, c)


@st.composite
def compositions(draw):
    """(outer, parts) for ``_compose``, each a ``Matrix`` or a ``Tensor``
    with extents 0-3 and at times a part that does not fit its slot."""
    order = draw(st.sampled_from([None, 1, 2, 3]))
    m = draw(st.integers(1, 2))
    shape = tuple(draw(st.lists(st.integers(0, 3), min_size=m + 1, max_size=m + 1)))
    outer = _array(draw, order, shape, m == 1 and draw(st.booleans()))
    parts = []
    for a in shape[1:]:
        if draw(st.booleans()):
            parts.append(_array(draw, order, (_extent(draw, a), draw(st.integers(0, 3))), True))
        else:
            inner = tuple(draw(st.lists(st.integers(0, 3), min_size=0, max_size=2)))
            parts.append(_array(draw, order, (_extent(draw, a), *inner), False))
    return outer, parts


@settings(max_examples=300, deadline=None, derandomize=True)
@given(compositions())
def test_compose_matches_the_frozen_body(case):
    outer, parts = case
    assert _outcome(_compose, outer, parts) == _outcome(copying_compose, outer, parts)


def _tensor_of(m):
    return Tensor((m.rows, m.cols), m.entries)


@st.composite
def matrix_laws(draw):
    """(out, src, tgt, ins) of an intertwining law out o src = tgt o ins[0]
    on matrices, at times with sides that do not match."""
    order = draw(st.sampled_from([None, 1, 2, 3]))
    d, e, n, r = draw(st.lists(st.integers(0, 3), min_size=4, max_size=4))
    out = _array(draw, order, (d, e), True)
    src = _array(draw, order, (_extent(draw, e), n), True)
    tgt = _array(draw, order, (_extent(draw, d), r), True)
    ins = _array(draw, order, (_extent(draw, r), _extent(draw, n)), True)
    return out, src, tgt, [ins]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(matrix_laws())
def test_intertwining_residual_reads_a_matrix_as_its_tensor(case):
    out, src, tgt, ins = case
    assert _outcome(intertwining_residual, out, src, tgt, ins) == _outcome(
        intertwining_residual, out, _tensor_of(src), _tensor_of(tgt), ins
    )
    assert _outcome(_compose, out, [src]) == _outcome(copying_compose, out, [src])


def test_kernels_read_a_matrix_in_place(monkeypatch):
    # Membership of a matrix cochain and a composition with a matrix build
    # no Tensor but their result: a Matrix is read through its shape.
    built = []
    post_init = Tensor.__post_init__

    def counting(self):
        built.append(self.shape)
        post_init(self)

    monkeypatch.setattr(Tensor, "__post_init__", counting)
    p = Matrix(2, 2, (1, 1, 0, 1))
    m = Matrix(2, 2, (0, 1, 0, 0))
    assert is_equivariant(p, p, 1, [m])
    assert built == []
    composed = _compose(p, [m])
    assert built == [(2, 2)]
    assert composed == Tensor((2, 2), (ZERO, ONE, ZERO, ZERO))


def test_multilinear_keeps_polynomial_type_of_unit_factors():
    # A constant-1 polynomial equals Fraction(1) but must still make the
    # output polynomial, in the tensor and in an argument alike.
    one = TruncatedPoly.constant(1, 2)
    t = Tensor((1, 2), (one, Fraction(0)))
    assert repr(multilinear_apply(t, [unit_vector(2, 0)])) == repr((one,))
    t = Tensor((1, 2), (Fraction(3), Fraction(0)))
    out = multilinear_apply(t, [(one, Fraction(0))])
    assert isinstance(out[0], TruncatedPoly)
    assert repr(out) == repr(dense_multilinear(t, [(one, Fraction(0))]))
    # no input axes, and a zero-extent axis
    t = Tensor((2,), (Fraction(5), Fraction(0)))
    assert multilinear_apply(t, []) == (Fraction(5), Fraction(0))
    assert multilinear_apply(Tensor((2, 0, 3), ()), [(), (ZERO,) * 3]) == (ZERO,) * 2


def test_tensor_identity_survives_the_kernel():
    rng = random.Random(9)
    t = random_tensor(rng, (3, 2, 2))
    m = Matrix(2, 2, (Fraction(1, 2), Fraction(0), Fraction(3), Fraction(-1, 3)))
    multilinear_apply(t, [unit_vector(2, 1), (Fraction(1), Fraction(-2))])
    _compose(t, [m, m])
    rank(m)
    assert m.integer_view == (6, (3, 0, 18, -2))
    for built, fresh in ((t, Tensor(t.shape, t.entries)), (m, Matrix(m.rows, m.cols, m.entries))):
        assert "integer_view" in vars(built)
        assert built == fresh and fresh == built
        assert hash(built) == hash(fresh)
        assert repr(built) == repr(fresh)
    # A polynomial entry gets no view, and the results stay polynomial.
    t2 = TruncatedPoly.t(2)
    poly = Tensor((1, 2, 2), (t2, Fraction(1), Fraction(0), Fraction(2)))
    args = [unit_vector(2, 0), unit_vector(2, 0)]
    assert repr(multilinear_apply(poly, args)) == repr((t2,))
    assert isinstance(_compose(poly, [m, m]).entries[0], TruncatedPoly)
    assert poly.integer_view is None and poly.integer_columns is None


def test_multilinear_shape_errors():
    t = Tensor((2, 2), (Fraction(1),) * 4)
    with pytest.raises(InputError):
        multilinear_apply(t, [])
    with pytest.raises(InputError):
        multilinear_apply(t, [(Fraction(1),)])


def test_tensor_construction_errors():
    with pytest.raises(InputError):
        Tensor((2, 2), (Fraction(1),) * 3)
    with pytest.raises(InputError):
        Matrix(2, 2, (Fraction(1),) * 3)
    with pytest.raises(InputError):
        Matrix.from_rows([[0.5]])
    # Ragged nested lists whose leaf count fits the extents of the first path.
    for nested, depth in (([[1], [2, 3], []], 2), ([[[1, 0], [0, 1]], [[0, 1, 1, 0]]], 3)):
        with pytest.raises(InputError, match="ragged nested tensor"):
            Tensor.from_nested(nested, depth)
    assert Tensor.from_nested([[], []], 2) == Tensor((2, 0), ())


def test_matrix_block_and_power():
    from rbfam.linalg import block_diag

    m = block_diag([Matrix.identity(2), Matrix.from_rows([[2]])])
    assert m.rows == m.cols == 3
    assert m.at(2, 2) == 2 and m.at(0, 0) == 1 and m.at(0, 2) == 0
    p = Matrix.from_rows([[0, 1], [1, 0]])
    assert p.power(2).is_identity()
    assert p.power(0).is_identity()
    with pytest.raises(InputError):
        p.power(-1)
