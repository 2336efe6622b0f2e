"""Arrays born integer, held to the arrays built eagerly from their entries.

``_compose_sum``, ``Matrix.mul``, ``Matrix.power`` and the integer path of
``operators._summed`` return arrays born with only their shape and
``integer_view``; ``entries`` is built on its first read.  Derandomized
Hypothesis properties hold each to the eager array of the same entries:
the same ``entries`` (a position that cancels to 0 reads as the shared
``ZERO``), ``==`` either way round, ``hash``, ``repr``, ``replace`` and a
pickle round trip, each read on a fresh result so that no read leans on
another.  A sum with a ``TruncatedPoly`` entry is still built eagerly.
``check_twisted_rbf`` on D1 reads none of its products' entries, and a
column-state matrix past its cell budget still refuses to build them.

A part's ``density``, kept beside its ``rows_view``, orders the slots of
a composition as a recount of its nonzeros per row does, key order
included.
"""
import pickle
from dataclasses import replace
from fractions import Fraction
from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rbfam.errors import DegreeCapError
from rbfam.linalg import ONE, ZERO, Matrix, Tensor, _compose_state, _compose_sum, _integer_view, _signed_state
from rbfam.operators import _summed, check_twisted_rbf
from rbfam.scalars import TruncatedPoly
from rbfam.workspace import desk_instance
from test_kernel_views import kernel_sums

small = st.builds(Fraction, st.integers(-3, 3), st.sampled_from((1, 2, 3)))


def _is_born(array):
    return "entries" not in vars(array) and "integer_view" in vars(array)


def _same_as_eager(make, eager):
    """Each read of a fresh ``make()`` agrees with ``eager``."""
    assert make().entries == eager.entries
    assert make() == eager and eager == make()
    assert hash(make()) == hash(eager)
    assert repr(make()) == repr(eager)
    assert repr(replace(make())) == repr(eager)
    assert repr(pickle.loads(pickle.dumps(make()))) == repr(eager)
    array = make()
    view = array.integer_view
    assert array.entries == eager.entries and view == _integer_view(eager.entries)


def _eager_sum(terms):
    """The tensor of ``_signed_state(terms)`` built entry by entry."""
    state, den, shape = _signed_state(terms)
    entries = [ZERO] * prod(shape)
    for k, v in state.items():
        entries[k] = v if den is None else Fraction(v, den)
    return Tensor(shape, tuple(entries)), state, den


@settings(max_examples=200, deadline=None, derandomize=True)
@given(terms=kernel_sums())
def test_composed_tensor_reads_as_the_eager_one(terms):
    try:
        eager, state, den = _eager_sum(terms)
    except Exception:
        return
    tensor = _compose_sum(terms)
    if den is None:
        # A polynomial entry: the sum is built eagerly, as before.
        assert "entries" in vars(tensor) and repr(tensor) == repr(eager)
        return
    assert _is_born(tensor)
    _same_as_eager(lambda: _compose_sum(terms), eager)
    entries = tensor.entries
    assert all(entries[k] is ZERO for k, v in state.items() if v == 0)


def test_cancelled_positions_read_as_zero():
    t = Tensor((2, 2), (Fraction(1, 2), ONE, ZERO, Fraction(-3)))
    p = Matrix(2, 2, (1, 1, 0, 2))
    tensor = _compose_sum([(1, t, [p]), (-1, t, [p])])
    assert _is_born(tensor) and tensor.integer_view == (1, (0, 0, 0, 0))
    assert all(e is ZERO for e in tensor.entries)
    assert tensor == Tensor.zero((2, 2)) and tensor.is_zero()


def test_polynomial_sums_stay_eager():
    one = TruncatedPoly.constant(1, 2)
    t = Tensor((1, 2), (TruncatedPoly([1, 1], 2), ZERO))
    tensor = _compose_sum([(1, t, [Matrix(2, 2, (one, 0, 0, one))])])
    assert "entries" in vars(tensor) and "integer_view" not in vars(tensor)
    assert repr(tensor) == repr(_eager_sum([(1, t, [Matrix(2, 2, (one, 0, 0, one))])])[0])


def matrices(rows, cols):
    return st.lists(small, min_size=rows * cols, max_size=rows * cols).map(lambda e: Matrix(rows, cols, tuple(e)))


def _naive_mul(a, b):
    return Matrix(a.rows, b.cols, tuple(
        sum((a.at(i, k) * b.at(k, j) for k in range(a.cols)), ZERO) for i in range(a.rows) for j in range(b.cols)
    ))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(data=st.data(), dims=st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3)))
def test_matrix_products_read_as_the_eager_ones(data, dims):
    r, k, c = dims
    a, b = data.draw(matrices(r, k)), data.draw(matrices(k, c))
    assert _is_born(a.mul(b))
    _same_as_eager(lambda: a.mul(b), _naive_mul(a, b))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(data=st.data(), n=st.integers(1, 3), k=st.integers(1, 3))
def test_matrix_powers_read_as_the_eager_ones(data, n, k):
    m = data.draw(matrices(n, n))
    want = Matrix.identity(n)
    for _ in range(k):
        want = _naive_mul(want, m)
    assert _is_born(m.power(k))
    _same_as_eager(lambda: m.power(k), want)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(data=st.data(), shape=st.lists(st.integers(1, 3), min_size=2, max_size=3), count=st.integers(1, 3))
def test_summed_arrays_read_as_the_eager_sum(data, shape, count):
    size = prod(shape)
    entries = [data.draw(st.lists(small, min_size=size, max_size=size)) for _ in range(count)]
    if len(shape) == 2 and data.draw(st.booleans()):
        arrays = [Matrix(*shape, tuple(e)) for e in entries]
    else:
        arrays = [Tensor(tuple(shape), tuple(e)) for e in entries]
    eager = arrays[0]
    for t in arrays[1:]:
        eager = eager.add(t)
    assert _is_born(_summed(arrays)) and type(_summed(arrays)) is type(eager)
    _same_as_eager(lambda: _summed(arrays), eager)


def test_twisted_rbf_check_reads_no_product_entries():
    operator = desk_instance("D1")["operator"]
    assert check_twisted_rbf(operator).passed
    prec, succ, vee = operator.products
    tensors = [*prec, *succ, *(t for row in vee for t in row)]
    assert tensors and all(_is_born(t) for t in tensors)


def test_column_states_past_the_budget_refuse_their_entries():
    m = Matrix.from_column_states(3, 3, [({0: 1, 2: -1}, 2)] * 3, 8)
    assert "entries" not in vars(m)
    with pytest.raises(DegreeCapError):
        m.entries
    with pytest.raises(DegreeCapError):
        m == Matrix.zero(3, 3)
    within = Matrix.from_column_states(3, 3, [({0: 1, 2: -1}, 2)] * 3, 9)
    half = Fraction(1, 2)
    assert within == Matrix(3, 3, (half, half, half, ZERO, ZERO, ZERO, -half, -half, -half))


def test_kept_density_orders_parts_as_a_recount_does():
    t = Tensor((1, 3, 3), (0, 1, 0, 0, 1, 0, 1, 1, 0))
    sparse = Tensor((3, 3), (1, 0, 0, 0, 0, 0, 0, 1, 1))
    dense = Tensor((3, 3), (1, 1, 1, 1, 1, 0, 0, 1, 0))
    assert (sparse.density, dense.density) == (1.0, 2.0)
    rows = [sparse.rows_view, dense.rows_view]
    counted = _compose_state(t.shape, t.state_view, rows)
    # The slot order shows in the key order.
    assert list(counted) != list(_compose_state(t.shape, t.state_view, rows, [2.0, 1.0]))
    assert repr(_signed_state([(1, t, [sparse, dense])])[0]) == repr(counted)
