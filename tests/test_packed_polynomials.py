"""Polynomial signed sums held to the entry-wise body of the kernel.

A derandomized Hypothesis property holds ``linalg._signed_state`` on
polynomial data to ``oracles.entrywise_signed_state``, the body that
multiplies ``TruncatedPoly`` entries one product at a time: the same
``repr`` of (state, den, shape), so key order and each entry's type
(``TruncatedPoly`` or ``Fraction``) count as much as its value, or the
same exception type and message.

Inputs are orders 1, 2, 3 and 5; polynomial coefficients of about 300
digits over distinct denominators; arrays that are all rational, all
polynomial or that mix nonzero rationals and polynomials; powers of t
whose products truncate to 0; and terms repeated with the opposite sign,
so sums cancel.

Two deterministic cases pin edges: an output coefficient of exactly
-bound, for the a-priori bound on every coefficient that a packed kernel
would take its slot width from, and a call mixing two truncation orders,
which is refused even where they never meet.
"""
from fractions import Fraction
from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from rbfam.errors import InputError
from rbfam.linalg import ZERO, Matrix, Tensor, _signed_state
from rbfam.scalars import TruncatedPoly

ORDERS = (1, 2, 3, 5)


def _outcome(fn, *args):
    """``repr`` of fn(*args), or the type and message of what it raises."""
    try:
        return repr(fn(*args))
    except Exception as exc:
        return type(exc), str(exc)


# ---------------------------------------------------------------------------
# generated inputs


def rationals():
    """Small rationals, biased toward 0 and 1, and long ones: numerators of
    about 300 digits over denominators drawn from a wide range, so the
    entries of one array rarely share one."""
    small = st.builds(Fraction, st.integers(-3, 3), st.sampled_from((1, 2, 3, 6)))
    long = st.builds(
        lambda n, sign, d: Fraction(sign * n, d),
        st.integers(10**299, 10**300),
        st.sampled_from((1, -1)),
        st.integers(2, 2**61 - 1),
    )
    return st.one_of(st.just(Fraction(0)), st.just(Fraction(1)), st.integers(-2, 2), small, long)


def polynomials(order):
    """Polynomials over K[t]/(t^order): dense ones with small or long
    coefficients, signed powers of t (whose products truncate to 0), zero
    polynomials and nonzero constants."""
    powers = st.builds(
        lambda j, c: TruncatedPoly([0] * j + [c], order),
        st.integers(0, order - 1),
        st.sampled_from((1, -1, 2, Fraction(-1, 2))),
    )
    return st.one_of(
        st.lists(rationals(), min_size=order, max_size=order).map(lambda cs: TruncatedPoly(cs, order)),
        powers,
        powers,
        st.just(TruncatedPoly([0], order)),
        st.just(TruncatedPoly.constant(1, order)),
    )


@st.composite
def arrays(draw, order, shape, matrix=False):
    """A ``Matrix`` (two extents) or ``Tensor`` of ``shape`` whose entries
    are all rational, all polynomial or mixed; a mixed array of two or
    more entries holds a nonzero rational and a nonzero polynomial.  Now
    and then sparse: each input column a unit or zero vector."""
    kind = draw(st.sampled_from(("rational", "poly", "poly", "mixed", "mixed")))
    size = prod(shape)
    scalars = {
        "rational": rationals(),
        "poly": polynomials(order),
        "mixed": st.one_of(rationals(), polynomials(order)),
    }[kind]
    entries = draw(st.lists(scalars, min_size=size, max_size=size))
    if kind == "mixed" and size >= 2:
        entries[0] = draw(rationals().filter(bool))
        entries[-1] = draw(polynomials(order).filter(bool))
    if size and draw(st.integers(0, 3)) == 0:
        d_out, inner = shape[0], size // shape[0]
        picks = [draw(st.integers(-1, d_out - 1)) for _ in range(inner)]
        entries = [entries[k * inner + j] if picks[j] == k else ZERO for k in range(d_out) for j in range(inner)]
    return Matrix(*shape, tuple(entries)) if matrix else Tensor(shape, tuple(entries))


dims = st.integers(0, 2)


@st.composite
def polynomial_sums(draw):
    """Terms (sign, outer, parts) of one output shape (d, *ins) over one
    truncation order: each term splits ``ins`` over 1-2 parts (none when
    ``ins`` is empty), and now and then is repeated with the opposite sign."""
    order = draw(st.sampled_from(ORDERS))
    d = draw(st.integers(1, 2))
    ins = tuple(draw(st.lists(dims, min_size=0, max_size=3)))
    terms = []
    for _ in range(draw(st.integers(1, 3))):
        m = draw(st.integers(1, 2)) if ins else draw(st.integers(0, 1))
        cuts = sorted(draw(st.lists(st.integers(0, len(ins)), min_size=m - 1, max_size=m - 1))) if m else []
        groups = [ins[a:b] for a, b in zip([0, *cuts], [*cuts, len(ins)])] if m else []
        heads = [draw(st.integers(1, 2)) for _ in groups]
        outer = draw(arrays(order, (d, *heads), len(heads) == 1 and draw(st.booleans())))
        parts = [draw(arrays(order, (a, *g), len(g) == 1 and draw(st.booleans()))) for a, g in zip(heads, groups)]
        sign = draw(st.sampled_from((1, -1)))
        terms.append((sign, outer, parts))
        if draw(st.integers(0, 2)) == 0:
            terms.append((-sign, outer, parts))
    return terms


@settings(max_examples=300, deadline=None, derandomize=True)
@given(terms=polynomial_sums())
def test_signed_state_matches_entrywise_body(terms):
    assert _outcome(_signed_state, terms) == _outcome(oracles.entrywise_signed_state, terms)


# ---------------------------------------------------------------------------
# edges


@pytest.mark.parametrize("order", (1, 2, 3))
def test_slot_width_holds_a_coefficient_of_minus_bound(order):
    # (-3, -3) o (1, 1)^T - (3, 3) o (1, 1)^T: the a-priori coefficient bound
    # is 2 * (1 * 2 * 3 * 1) = 12 and the one output coefficient is -12 = -bound.
    def constants(rows, cols, c):
        return Matrix(rows, cols, (TruncatedPoly.constant(c, order),) * (rows * cols))

    ones = constants(2, 1, 1)
    terms = [(1, constants(1, 2, -3), [ones]), (-1, constants(1, 2, 3), [ones])]
    want = repr(({0: TruncatedPoly.constant(-12, order)}, None, (1, 1)))
    assert repr(_signed_state(terms)) == want == repr(oracles.entrywise_signed_state(terms))


def test_mixed_truncation_orders_are_refused_even_where_they_never_meet():
    # Every product is 0, so the entry-wise body never combined the two
    # orders and did not refuse them.
    zero = Matrix(1, 1, (ZERO,))
    t2, t3 = TruncatedPoly.t(2), TruncatedPoly.t(3)
    apart = [(1, Matrix(1, 1, (t2,)), [zero]), (1, Matrix(1, 1, (t3,)), [zero])]
    together = [(1, Matrix(1, 2, (t2, t3)), [Matrix(2, 1, (ZERO, ZERO))])]
    for terms in (apart, together):
        assert oracles.entrywise_signed_state(terms) == ({}, None, (1, 1))
        with pytest.raises(InputError, match="^mixed truncation orders$"):
            _signed_state(terms)
