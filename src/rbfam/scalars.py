"""Exact scalars: arbitrary-precision rationals and truncated polynomials.

Rationals are plain ``fractions.Fraction`` values (always reduced, positive
denominator).  This module adds the one literal syntax used in every file
format and report, plus the ring K[t]/(t^k) of truncated polynomials in a
deformation parameter t.  No floating point is accepted anywhere.
"""
from __future__ import annotations

import re
from fractions import Fraction

from .errors import InputError

_RATIONAL_RE = re.compile(r"^[+-]?[0-9]+(/[0-9]+)?$")


def parse_rational(text, where=None):
    """Parse a rational literal: optional sign, integer, optional "/" positive integer.

    ``where`` names the entry in the message for a literal too long to convert.
    """
    if not isinstance(text, str) or _RATIONAL_RE.match(text) is None:
        raise InputError(f"bad rational literal: {text!r}")
    num, _, den = text.partition("/")
    try:
        num, den = int(num), int(den or 1)
    except ValueError as exc:
        # Python refuses to convert integer strings of over 4300 digits.
        prefix = "" if where is None else f"{where}: "
        raise InputError(f"{prefix}rational literal of {len(text)} characters is too long") from exc
    if den == 0:
        raise InputError(f"bad rational literal (zero denominator): {text!r}")
    return Fraction(num, den)


def format_rational(value):
    # Fraction.__str__ emits exactly the accepted syntax ("-3/4", "7").
    return str(Fraction(value))


def ensure_rational(value):
    """Coerce int to Fraction; reject anything inexact (floats in particular)."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise InputError(f"not an exact rational: {value!r}")


def ensure_scalar(value):
    """Accept a Fraction, int, or TruncatedPoly; reject everything else."""
    if isinstance(value, TruncatedPoly):
        return value
    return ensure_rational(value)


def format_scalar(value):
    if isinstance(value, TruncatedPoly):
        return str(value)
    return format_rational(value)


def format_vector(values):
    return "(" + ", ".join(format_scalar(c) for c in values) + ")"


def poly_coefficient(value, i):
    """The t^i coefficient of a scalar (rationals live in degree 0)."""
    if isinstance(value, TruncatedPoly):
        return value.coefficient(i)
    return ensure_rational(value) if i == 0 else Fraction(0)


class TruncatedPoly:
    """Polynomial sum c_i t^i with rational c_i, computed modulo t^order.

    Values are immutable; all arithmetic discards terms of degree >= order.
    Mixing two different orders is rejected, mixing with ints/Fractions
    lifts the rational to a constant polynomial.
    """

    __slots__ = ("coeffs", "order")

    def __init__(self, coeffs, order):
        if not isinstance(order, int) or order < 1:
            raise InputError("truncation order must be a positive integer")
        cs = [ensure_rational(c) for c in coeffs][:order]
        cs += [Fraction(0)] * (order - len(cs))
        self.coeffs = tuple(cs)
        self.order = order

    @classmethod
    def constant(cls, value, order):
        return cls([value], order)

    @classmethod
    def t(cls, order):
        return cls([0, 1], order)

    def coefficient(self, i):
        return self.coeffs[i] if 0 <= i < self.order else Fraction(0)

    def _lift(self, other):
        if isinstance(other, TruncatedPoly):
            if other.order != self.order:
                raise InputError("mixed truncation orders")
            return other
        if isinstance(other, (int, Fraction)):
            return TruncatedPoly([other], self.order)
        return None

    def __add__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return TruncatedPoly([a + b for a, b in zip(self.coeffs, o.coeffs)], self.order)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return TruncatedPoly([a - b for a, b in zip(self.coeffs, o.coeffs)], self.order)

    def __rsub__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return o.__sub__(self)

    def __mul__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        out = [Fraction(0)] * self.order
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            for j in range(self.order - i):
                b = o.coeffs[j]
                if b:
                    out[i + j] += a * b
        return TruncatedPoly(out, self.order)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            other = ensure_rational(other)
            if not other:
                raise ZeroDivisionError("division by zero rational")
            return TruncatedPoly([c / other for c in self.coeffs], self.order)
        return NotImplemented

    def __neg__(self):
        return TruncatedPoly([-c for c in self.coeffs], self.order)

    def __pos__(self):
        return self

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.coeffs[0] == other and not any(self.coeffs[1:])
        if isinstance(other, TruncatedPoly):
            return self.order == other.order and self.coeffs == other.coeffs
        return NotImplemented

    def __hash__(self):
        # A constant equals its rational (see __eq__), so it hashes as one.
        if not any(self.coeffs[1:]):
            return hash(self.coeffs[0])
        return hash((self.coeffs, self.order))

    def __bool__(self):
        return any(self.coeffs)

    def __str__(self):
        terms = []
        for i, c in enumerate(self.coeffs):
            if not c:
                continue
            if i == 0:
                terms.append(format_rational(c))
            else:
                tpow = "t" if i == 1 else f"t^{i}"
                if c == 1:
                    terms.append(tpow)
                elif c == -1:
                    terms.append(f"-{tpow}")
                else:
                    terms.append(f"{format_rational(c)}*{tpow}")
        body = " + ".join(terms).replace("+ -", "- ") if terms else "0"
        return f"{body} (mod t^{self.order})"

    __repr__ = __str__
