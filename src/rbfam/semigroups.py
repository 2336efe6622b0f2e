"""Finite semigroups given by multiplication tables.

Elements are the 0-based indices {0..m-1}; every semigroup-indexed object
in the package is keyed by these indices.  The unit is never stored in
files, always re-derived by scanning the table.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import product as iproduct

from .errors import InputError, MissingUnitError


@dataclass(frozen=True)
class FiniteSemigroup:
    size: int
    table: tuple
    unit: int | None

    def mul(self, a, b):
        return self.table[a][b]

    def product(self, indices):
        """Left fold of an index sequence (associative, so any fold); the
        empty product is the unit."""
        it = iter(indices)
        out = next(it, self.unit)
        if out is None:
            raise MissingUnitError("the empty product needs a unit in the semigroup")
        for a in it:
            out = self.table[out][a]
        return out

    def elements(self):
        return range(self.size)

    def to_dict(self):
        return {"size": self.size, "table": [list(row) for row in self.table]}


def _find_unit(table, m):
    # A two-sided unit is unique when it exists.
    for e in range(m):
        if all(table[e][a] == a and table[a][e] == a for a in range(m)):
            return e
    return None


def validate_semigroup(table):
    """Validate a multiplication table and return the semigroup.

    Rejects non-square tables, out-of-range entries, and non-associative
    tables (reporting the first violating triple in lexicographic order).
    """
    rows = [tuple(row) for row in table]
    m = len(rows)
    if m < 1:
        raise InputError("semigroup must have at least one element")
    for i, row in enumerate(rows):
        if len(row) != m:
            raise InputError(f"table row {i} has length {len(row)}, expected {m}")
        for j, e in enumerate(row):
            if not isinstance(e, int) or isinstance(e, bool) or not 0 <= e < m:
                raise InputError(f"table[{i}][{j}] = {e!r} out of range 0..{m - 1}")
    t = tuple(rows)
    for a, b, c in iproduct(range(m), repeat=3):
        if t[t[a][b]][c] != t[a][t[b][c]]:
            raise InputError(
                f"not associative: (a*b)*c != a*(b*c) at (a,b,c)=({a},{b},{c})"
            )
    return FiniteSemigroup(size=m, table=t, unit=_find_unit(t, m))


def builtin(name, parameter=None):
    """Catalog semigroups: trivial, cyclic(m), left_zero(m), right_zero(m), boolean_monoid."""
    if name == "trivial":
        return validate_semigroup([[0]])
    if name == "cyclic":
        m = parameter
        if not isinstance(m, int) or m < 1:
            raise InputError("cyclic(m) needs an integer m >= 1")
        return validate_semigroup([[(a + b) % m for b in range(m)] for a in range(m)])
    if name == "left_zero":
        m = parameter
        if not isinstance(m, int) or m < 1:
            raise InputError("left_zero(m) needs an integer m >= 1")
        return validate_semigroup([[a for _ in range(m)] for a in range(m)])
    if name == "right_zero":
        m = parameter
        if not isinstance(m, int) or m < 1:
            raise InputError("right_zero(m) needs an integer m >= 1")
        return validate_semigroup([[b for b in range(m)] for _ in range(m)])
    if name == "boolean_monoid":
        # {1, e} with e*e = e; index 0 is the unit.
        return validate_semigroup([[0, 1], [1, 1]])
    raise InputError(f"unknown builtin semigroup {name!r}")
