from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rbfam.errors import InputError
from rbfam.scalars import (
    TruncatedPoly,
    format_rational,
    parse_rational,
    poly_coefficient,
)

rationals = st.fractions(
    min_value=Fraction(-50), max_value=Fraction(50), max_denominator=12
)


def poly(order=3):
    return st.builds(
        lambda cs: TruncatedPoly(cs, order), st.lists(rationals, min_size=0, max_size=order)
    )


@pytest.mark.parametrize(
    "text,value",
    [("7", Fraction(7)), ("-3/4", Fraction(-3, 4)), ("+2/6", Fraction(1, 3)), ("0", 0)],
)
def test_parse_rational(text, value):
    assert parse_rational(text) == value


@pytest.mark.parametrize("text", ["1.5", "1/0", "1/-2", "a", "", "1e3", "--2", None, 3])
def test_parse_rational_rejects(text):
    with pytest.raises(InputError):
        parse_rational(text)


def test_format_round_trip():
    for value in (Fraction(-3, 4), Fraction(7), Fraction(0), Fraction(22, 7)):
        assert parse_rational(format_rational(value)) == value


def test_poly_basics():
    t = TruncatedPoly.t(3)
    assert (1 + t) * (1 - t) == TruncatedPoly([1, 0, -1], 3)
    assert t * t * t == 0  # t^3 == 0
    assert (t * t) * t == t * (t * t)
    assert poly_coefficient((2 + t) * (3 + t), 1) == 5
    assert poly_coefficient(Fraction(5), 0) == 5
    assert poly_coefficient(Fraction(5), 1) == 0


def test_poly_division_and_errors():
    t = TruncatedPoly.t(2)
    assert (2 * t) / 2 == t
    with pytest.raises(ZeroDivisionError):
        (2 * t) / 0
    with pytest.raises(InputError):
        TruncatedPoly.t(2) + TruncatedPoly.t(3)
    with pytest.raises(InputError):
        TruncatedPoly([0.5], 2)
    with pytest.raises(InputError):
        TruncatedPoly([1], 0)


@settings(max_examples=60, deadline=None)
@given(a=poly(), b=poly(), c=poly())
def test_poly_ring_laws(a, b, c):
    assert (a + b) * c == a * c + b * c
    assert a * (b + c) == a * b + a * c
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a + (-a) == 0


@settings(max_examples=60, deadline=None)
@given(a=poly(), b=poly())
def test_evaluation_at_zero_is_ring_map(a, b):
    assert (a + b).at_zero() == a.at_zero() + b.at_zero()
    assert (a * b).at_zero() == a.at_zero() * b.at_zero()


def test_truncation_discards_high_degrees():
    t = TruncatedPoly.t(3)
    full = (1 + t) * (1 + t) * (1 + t)  # 1 + 3t + 3t^2 (+ t^3 dropped)
    assert full == TruncatedPoly([1, 3, 3], 3)


@settings(max_examples=60, deadline=None)
@given(a=poly(), b=st.one_of(poly(), rationals, st.integers(-5, 5)))
def test_equal_scalars_hash_equal(a, b):
    if a == b:
        assert hash(a) == hash(b)


def test_constant_poly_hashes_as_its_constant():
    from rbfam.linalg import Matrix

    one = TruncatedPoly.constant(1, 3)
    assert one == Fraction(1) and hash(one) == hash(Fraction(1)) == hash(1)
    assert hash(TruncatedPoly([0], 3)) == hash(Fraction(0))
    assert len({Matrix(1, 1, (one,)), Matrix(1, 1, (Fraction(1),))}) == 1
    assert {Fraction(1): "one"}[one] == "one"
    # A nonconstant polynomial equals no rational and keeps its own hash.
    t = TruncatedPoly.t(3)
    assert t != Fraction(0) and len({Matrix(1, 1, (t,)), Matrix(1, 1, (Fraction(0),))}) == 2
