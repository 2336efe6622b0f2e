"""Deformation reports held to the bodies that read K[t]/(t^3) residuals.

A derandomized Hypothesis property holds ``check_infinitesimal`` and
``check_equivalence`` to ``oracles.truncated_infinitesimal_report`` and
``oracles.truncated_equivalence_report``: the bodies that expanded R + t R1
and the trivial pair (psi^t, phi^t) over K[t]/(t^3) and read each law's t
and t^2 coefficients off its polynomial residuals.  The ``repr`` of
``to_dict()`` must agree, with ``max_violations`` large enough to keep
every violation, or the same exception type and message.

The operators are D0, D1, D2 and the identity-packing families of the
Yau-twisted triangular algebra over C2 and over the boolean monoid, whose
structure maps are not the identity.  Directions are random combinations
over (0, 1, -1, 1/2) of a basis of degree-1 cochains or of cocycles;
elements are random p-fixed vectors, now and then one that is not fixed.
Equivalence pairs either differ by the coboundary delta0(x) or are drawn
independently.  Every law read here has degree at most 3 in t, which the
t^2 coefficient of a truncation at t^3 depends on.
"""
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from rbfam.cohomology import differential_matrix, rbf_complex
from rbfam.deformations import LinearDeformation, check_equivalence, check_infinitesimal, rbf_delta0_matrices
from rbfam.homalg import tensor_semigroup_algebra
from rbfam.linalg import Matrix, kernel_basis
from rbfam.operators import identity_packing_family
from rbfam.semigroups import builtin

GRID = (Fraction(0), Fraction(1), Fraction(-1), Fraction(1, 2))
ALL = 10**6
# True five times in six, so that most equivalence pairs pass their order-1 checks.
MOSTLY = st.sampled_from((True,) * 5 + (False,))
NAMES = ("D0", "D1", "D2", "triangular/cyclic", "triangular/boolean_monoid")


def _packed(tri, omega):
    _, _, cocycle = tensor_semigroup_algebra(tri, omega)
    return identity_packing_family(tri, omega, cocycle)


@pytest.fixture(scope="module")
def cases(d0, d1, d2, twisted_triangular_algebra):
    """name -> (operator, handle, number of C^1 basis vectors, Z^1 basis, basis of the p-fixed elements)."""
    operators = {
        "D0": d0["operator"],
        "D1": d1["operator"],
        "D2": d2["operator"],
        "triangular/cyclic": _packed(twisted_triangular_algebra, builtin("cyclic", 2)),
        "triangular/boolean_monoid": _packed(twisted_triangular_algebra, builtin("boolean_monoid")),
    }
    out = {}
    for name, operator in operators.items():
        handle = rbf_complex(operator)
        n = operator.algebra.dim
        fixed = kernel_basis(operator.algebra.p.sub(Matrix.identity(n)))
        out[name] = operator, handle, len(handle.supports(1)), kernel_basis(differential_matrix(handle, 1)), fixed
    return out


def _outcome(fn):
    """``repr`` of fn()'s ``to_dict()``, or the type and message of what it raises."""
    try:
        return repr(fn().to_dict())
    except Exception as exc:
        return type(exc), str(exc)


def _combination(draw, vectors, size):
    coeffs = [draw(st.sampled_from(GRID)) for _ in vectors]
    return [sum((c * v[i] for c, v in zip(coeffs, vectors)), Fraction(0)) for i in range(size)]


def _direction(draw, case, cocycle):
    """R1 over a random combination of the Z^1 basis (0 when Z^1 = 0, as on
    D1 and D2) when ``cocycle`` holds, else of the C^1 basis."""
    operator, handle, dim_c, z_basis, _ = case
    if cocycle:
        coeffs = _combination(draw, z_basis, dim_c)
    else:
        coeffs = [draw(st.sampled_from(GRID)) for _ in range(dim_c)]
    return _matrices(operator, handle.combine(1, coeffs))


def _matrices(operator, raw):
    n, d = operator.algebra.dim, operator.bimodule.dim
    return tuple(Matrix(n, d, tuple(raw[pos : pos + n * d])) for pos in range(0, len(raw), n * d))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(data=st.data())
def test_infinitesimal_report_matches_truncated_body(cases, data):
    case = cases[data.draw(st.sampled_from(NAMES))]
    deformation = LinearDeformation(base=case[0], direction=_direction(data.draw, case, data.draw(st.booleans())))
    assert _outcome(lambda: check_infinitesimal(deformation, ALL)) == _outcome(
        lambda: oracles.truncated_infinitesimal_report(deformation, ALL)
    )


@settings(max_examples=60, deadline=None, derandomize=True)
@given(data=st.data())
def test_equivalence_report_matches_truncated_body(cases, data):
    case = cases[data.draw(st.sampled_from(NAMES))]
    operator, handle, _, _, fixed = case
    n = operator.algebra.dim
    if fixed and data.draw(MOSTLY):
        x = tuple(_combination(data.draw, fixed, n))
    else:
        x = tuple(data.draw(st.sampled_from(GRID)) for _ in range(n))
    direction = _direction(data.draw, case, data.draw(MOSTLY))
    if x == operator.algebra.p.apply(x) and data.draw(st.booleans()):
        shifted = tuple(r.sub(c) for r, c in zip(direction, rbf_delta0_matrices(handle, x)))
        pair = (direction, shifted) if data.draw(st.booleans()) else (shifted, direction)
    else:
        pair = (direction, _direction(data.draw, case, data.draw(MOSTLY)))
    first, second = (LinearDeformation(base=operator, direction=r1) for r1 in pair)
    assert _outcome(lambda: check_equivalence(first, second, x, ALL)) == _outcome(
        lambda: oracles.truncated_equivalence_report(first, second, x, ALL)
    )
