"""Nijenhuis-element reports, pinned in full.

``goldens/nijenhuis_element_reports.json`` holds the ``to_dict()`` of
``check_nijenhuis_element`` on D0, D1, D2, the zero family on the 2x2
matrix units and the identity-packing family of the Yau-twisted triangular
algebra over C2 and over the boolean monoid.  The elements are 0, every
unit vector and seeded random vectors; ``max_violations`` is large enough
to keep every violation, so each where-dict and residual is pinned.  The
goldens were frozen from the hand-written law loops, before the laws
became coefficients of the trivial pair's morphism laws; a failure here
means a report changed, and the fix belongs in the code, not in the golden
file.

A Hypothesis property holds the checker to that former body, frozen in
``oracles.nijenhuis_element_report``, on random elements of the same
operators and of the identity-packing family of the matrix units over C2,
the one operator here whose cocycle law at t^2 fails.
"""
import json
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import nijenhuis_element_report
from rbfam.deformations import LinearDeformation, check_equivalence, check_nijenhuis_element
from rbfam.errors import InputError
from rbfam.homalg import tensor_semigroup_algebra
from rbfam.linalg import Matrix, unit_vector, zero_vector
from rbfam.operators import identity_packing_family
from rbfam.scalars import format_rational
from rbfam.semigroups import builtin

GOLDEN_PATH = Path(__file__).parent / "goldens" / "nijenhuis_element_reports.json"
GRID = (Fraction(0), Fraction(1), Fraction(-1), Fraction(1, 2), Fraction(3))
RANDOM_ELEMENTS = 6
ALL = 10**6
GOLDEN_NAMES = (
    "D0",
    "D1",
    "D2",
    "matrix_units",
    "triangular/cyclic",
    "triangular/boolean_monoid",
)
NAMES = GOLDEN_NAMES + ("matrix_units/cyclic",)


def _packed(tri, omega):
    _, _, cocycle = tensor_semigroup_algebra(tri, omega)
    return identity_packing_family(tri, omega, cocycle)


@pytest.fixture(scope="module")
def operators(d0, d1, d2, matrix_algebra_operator, twisted_triangular_algebra):
    return {
        "D0": d0["operator"],
        "D1": d1["operator"],
        "D2": d2["operator"],
        "matrix_units": matrix_algebra_operator,
        "triangular/cyclic": _packed(twisted_triangular_algebra, builtin("cyclic", 2)),
        "triangular/boolean_monoid": _packed(twisted_triangular_algebra, builtin("boolean_monoid")),
        "matrix_units/cyclic": _packed(matrix_algebra_operator.algebra, builtin("cyclic", 2)),
    }


@pytest.fixture(scope="module")
def goldens():
    return json.loads(GOLDEN_PATH.read_text())


def elements(name, n):
    """0, the unit vectors, then seeded random vectors over GRID (no repeats)."""
    rng = random.Random(GOLDEN_NAMES.index(name))
    out = [zero_vector(n)] + [unit_vector(n, i) for i in range(n)]
    out += [tuple(rng.choice(GRID) for _ in range(n)) for _ in range(RANDOM_ELEMENTS)]
    return list(dict.fromkeys(out))


def case_key(name, x):
    return f"{name}/x=({', '.join(format_rational(c) for c in x)})"


def report_json(report):
    # Key order is kept: it is the order in which render() prints a where-dict.
    return json.dumps(report.to_dict(), indent=1)


def test_goldens_cover_every_case(operators, goldens):
    keys = [
        case_key(name, x)
        for name in GOLDEN_NAMES
        for x in elements(name, operators[name].algebra.dim)
    ]
    assert sorted(goldens) == sorted(keys)
    assert sum(law["violation_count"] for g in goldens.values() for law in g["laws"]) > 0


@pytest.mark.parametrize("name", GOLDEN_NAMES)
def test_report_matches_golden(name, operators, goldens):
    operator = operators[name]
    for x in elements(name, operator.algebra.dim):
        report = check_nijenhuis_element(x, operator, max_violations=ALL)
        assert report_json(report) == json.dumps(goldens[case_key(name, x)], indent=1), x


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_checker_matches_frozen_body(operators, data):
    operator = operators[data.draw(st.sampled_from(NAMES))]
    n = operator.algebra.dim
    x = tuple(data.draw(st.lists(st.sampled_from(GRID), min_size=n, max_size=n)))
    max_violations = data.draw(st.sampled_from((1, 3, ALL)))
    assert report_json(check_nijenhuis_element(x, operator, max_violations)) == report_json(
        nijenhuis_element_report(x, operator, max_violations)
    )


def test_element_of_the_wrong_length_is_an_input_error(operators):
    # Both checkers parse x through the one trivial-pair builder.
    operator = operators["D1"]
    zero = LinearDeformation(base=operator, direction=(Matrix.zero(4, 2),) * 2)
    x = (Fraction(1),) * 3
    checks = (lambda: check_nijenhuis_element(x, operator), lambda: check_equivalence(zero, zero, x))
    for check in checks:
        with pytest.raises(InputError, match="^element must live in the 4-dimensional algebra$"):
            check()
