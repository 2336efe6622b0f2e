"""The stencil maps of the complexes held to the bodies that probed them.

A derandomized property holds ``differential_matrix`` and
``raw_differential`` to a handle whose stencil maps are built and applied
by the bodies frozen in ``oracles`` (``oracles.probed_handle``): each
first/last-term map probed on unit vectors and a walker that adds
``Fraction`` entries one cell at a time.  Both must give the same ``repr``,
or the same exception type and message.  Inputs are generated HA and OMEGA
handles at degrees 0-3 (identity, scalar and dense structure maps; entries
with non-unit denominators, raw ints and polynomials over K[t]/(t^3)), and
the RBF, OMEGA and HA complexes of seeded transports of the
twisted-triangular packings over C2 and the boolean monoid at degrees 0-1,
one with its generic route moved at one entry.  Raw vectors are random
rationals, now and then with polynomial entries.

``FROZEN_POLYNOMIAL`` pins what the complexes of D1 give on polynomial data
(the outputs were frozen from the probing bodies): the twisted family with
maps over K[t]/(t^2), on integer, rational and polynomial raw vectors, and
the rational family on polynomial raw vectors.
"""
import hashlib
import random
import sys
from dataclasses import replace
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from rbfam.cohomology import HA, OMEGA, ComplexHandle, cohomology_dims, ha_complex, omega_complex, rbf_complex
from rbfam.errors import InputError, WorkbenchError
from rbfam import linalg
from rbfam.family import OmegaAssocAlgebra, OmegaBimodule
from rbfam.homalg import HomAlgebra, HomBimodule
from rbfam.linalg import Matrix
from rbfam.scalars import TruncatedPoly
from rbfam.semigroups import builtin
from test_law_composition import ORDER, _nudged, matrix, populated, tensor, transported


def _outcome(fn, *args):
    try:
        return repr(fn(*args))
    except WorkbenchError as err:
        return f"{type(err).__name__}: {err}"


def raw_vector(draw, length, poly):
    """A seeded vector: fractions with non-unit denominators, zeros and raw
    ints, plus, when ``poly``, polynomials over K[t]/(t^3)."""
    rng = random.Random(draw(st.integers(0, 2**16)))

    def entry():
        kind = rng.randrange(5 if poly else 4)
        if kind == 0:
            return Fraction(0)
        if kind == 1:
            return rng.choice((1, -2))
        if kind < 4:
            return Fraction(rng.choice((1, -1, 2, -3)), rng.choice((1, 2, 3, 6)))
        return TruncatedPoly([Fraction(rng.randint(-2, 2), rng.choice((1, 2))) for _ in range(ORDER)], ORDER)

    return [entry() for _ in range(length)]


@st.composite
def generated_cases(draw):
    """handle, degree and raw vector on a generated HA or OMEGA complex.

    The structure data is not validated: with identity maps every cochain
    is a member, with p = c id and q = c^degree id every degree-n cochain
    is, and dense maps mostly leave a small or empty basis whose images
    escape it (a ``RouteMismatchError``).
    """
    poly = draw(st.integers(0, 3)) == 0
    tag, degree = draw(st.sampled_from([(tag, degree) for tag in (HA, OMEGA) for degree in range(4)]))
    top = 2 if degree == 3 else 3
    n, d = draw(st.integers(1, top)), draw(st.integers(1, top))
    maps = draw(st.sampled_from(("identity", "identity", "scalar", "dense")))
    if maps == "identity":
        p, q = Matrix.identity(n), Matrix.identity(d)
    elif maps == "scalar":
        c = draw(st.sampled_from((Fraction(2), Fraction(-1), Fraction(1, 2))))
        p, q = Matrix.identity(n).scale(c), Matrix.identity(d).scale(c**degree)
    else:
        p, q = matrix(draw, n, n, poly), matrix(draw, d, d, poly)
    structure = tensor if draw(st.booleans()) else populated
    data = dict(source_dim=n, target_dim=d, source_map=p, target_map=q, degree_cap=3)
    if tag == HA:
        algebra = HomAlgebra(dim=n, mu=structure(draw, (n, n, n), poly), p=p)
        module = HomBimodule(
            parent=algebra, dim=d, left=structure(draw, (d, n, d), poly), right=structure(draw, (d, d, n), poly), q=q
        )
        handle = ComplexHandle(tag=HA, omega=None, ha_module=module, **data)
    else:
        omega = builtin(*draw(st.sampled_from((("cyclic", 2), ("boolean_monoid",), ("left_zero", 2), ("trivial",)))))
        elements = omega.elements()

        def table(shape):
            return tuple(tuple(structure(draw, shape, poly) for _ in elements) for _ in elements)

        algebra = OmegaAssocAlgebra(dim=n, omega=omega, prod=table((n, n, n)), p=p)
        module = OmegaBimodule(parent=algebra, dim=d, left=table((d, n, d)), right=table((d, d, n)), q=q)
        handle = ComplexHandle(tag=OMEGA, omega=omega, omega_algebra=algebra, omega_module=module, **data)
    return handle, degree, raw_vector(draw, handle.raw_dim(degree), poly)


@lru_cache(maxsize=None)
def transport_handles(omega, seed):
    """The RBF complex of a seeded transport, the OMEGA complex of its
    induced data, the HA complex of its bimodule, and the RBF complex with
    its generic route's left[0][0] moved at one entry."""
    operator = transported(omega, seed)
    rbf = rbf_complex(operator)
    module = rbf.omega_module
    left = list(map(list, module.left))
    left[0][0] = _nudged(left[0][0], 3)
    moved = replace(rbf, omega_module=replace(module, left=tuple(map(tuple, left))), _maps={}, _basis={}, _matrix={})
    return (
        rbf,
        omega_complex(rbf.omega_algebra, rbf.omega_module),
        ha_complex(operator.algebra, operator.bimodule),
        moved,
    )


@st.composite
def transport_cases(draw):
    omega = draw(st.sampled_from((("cyclic", 2), ("boolean_monoid", None))))
    handle = draw(st.sampled_from(transport_handles(omega, draw(st.integers(0, 1)))))
    degree = draw(st.integers(0, 1))
    return handle, degree, raw_vector(draw, handle.raw_dim(degree), draw(st.integers(0, 4)) == 0)


def assert_matches_probed_bodies(handle, degree, vec):
    # Fresh caches on both sides: the maps are assembled by these calls.
    new = replace(handle, _maps={}, _basis={}, _matrix={})
    old = oracles.probed_handle(handle)
    assert _outcome(new.differential_matrix, degree) == _outcome(old.differential_matrix, degree)
    assert _outcome(new.raw_differential, degree, vec) == _outcome(old.raw_differential, degree, vec)


@settings(max_examples=120, deadline=None, derandomize=True)
@given(case=generated_cases())
def test_generated_stencil_maps_match_probed_bodies(case):
    assert_matches_probed_bodies(*case)


@settings(max_examples=50, deadline=None, derandomize=True)
@given(case=transport_cases())
def test_transport_stencil_maps_match_probed_bodies(case):
    assert_matches_probed_bodies(*case)


# ---------------------------------------------------------------------------
# polynomial data

FROZEN_POLYNOMIAL = {
    # raw_differential(1, [1] * 16) with D1's maps over K[t]/(t^2): every entry 1 (mod t^2).
    "poly-maps/raw": "8c3e6e0374b84afe5a97ad6e2bd9d0ed9c986db425579c58de96bc2945eb467a",
    # differential_matrix(0): a Fraction matrix, the one of rational D1 (goldens "D1/rbf/0").
    "poly-maps/matrix0": "aa08f00cd291356b740360fb3f13c0613ad4f25f8ca4e6d9c4ae0158cfdfdbcd",
    # raw_differential(1, MIXED) on the same data.
    "poly-maps/raw-mixed": "5ba13a37f7c479d921f846d9f61e70cb583eb19ef03d9d40d6e55921ab3d31ec",
    # raw_differential(1, [1 + t] * 16) on rational D1: every entry 1 + t (mod t^2).
    "rational/raw-poly": "e67ba4d7b0425d8574af311a8cf0a6c9761edb58ecd51419907b88d82103292a",
    # raw_differential(1, MIXED) on rational D1: polynomial and Fraction entries.
    "rational/raw-mixed": "b1221d68cf01de35a113f5a24586cc604237a752bdd5d5cd5e4068350ec80202",
    # raw_differential(1, [1/3] * 16) with D1's maps over K[t]/(t^2): every entry 1/3 (mod t^2).
    "poly-maps/raw-thirds": "ae3a5ca6550e68eb10f500e17b92597c7e3d2aca9a060c78914e1fd8c3ccf201",
}
MIXED = [TruncatedPoly([Fraction(i, 3), -1], 2) if i % 3 else Fraction(i, 2) for i in range(16)]


def _digest(obj):
    return hashlib.sha256(repr(obj).encode()).hexdigest()


@pytest.fixture(scope="module")
def poly_handle(d1):
    operator = d1["operator"]
    maps = tuple(Matrix(m.rows, m.cols, tuple(TruncatedPoly([e, 0], 2) for e in m.entries)) for m in operator.maps)
    return rbf_complex(replace(operator, maps=maps))


def test_polynomial_maps_keep_their_outputs(poly_handle, d1):
    rational = rbf_complex(d1["operator"])
    listing = {
        "poly-maps/raw": _digest(poly_handle.raw_differential(1, [1] * 16)),
        "poly-maps/matrix0": _digest(poly_handle.differential_matrix(0)),
        "poly-maps/raw-mixed": _digest(poly_handle.raw_differential(1, MIXED)),
        "rational/raw-poly": _digest(rational.raw_differential(1, [TruncatedPoly([1, 1], 2)] * 16)),
        "rational/raw-mixed": _digest(rational.raw_differential(1, MIXED)),
        "poly-maps/raw-thirds": _digest(poly_handle.raw_differential(1, [Fraction(1, 3)] * 16)),
    }
    assert listing == FROZEN_POLYNOMIAL
    assert {repr(e) for e in poly_handle.raw_differential(1, [1] * 16)} == {"1 (mod t^2)"}
    assert all(type(e) is Fraction for e in poly_handle.differential_matrix(0).entries)
    with pytest.raises(InputError, match=r"^elimination is defined for rational matrices only$"):
        cohomology_dims(poly_handle, 1)


# ---------------------------------------------------------------------------
# term maps are composed, not probed


@pytest.mark.parametrize("degree, calls", [(0, 0), (1, 108)])
def test_stencil_term_maps_make_no_multilinear_calls(monkeypatch, degree, calls):
    # Every term map is composed as a whole tensor, so only the direct
    # route's per-tuple merged slot, ``twisted_inner_sum``, contracts: no
    # call at degree 0 (no merged slot), 108 at degree 1.
    handle = rbf_complex(transported(("cyclic", 2), 0))
    original, count = linalg.multilinear_apply, []

    def counting(*args):
        count.append(1)
        return original(*args)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "rbfam" and getattr(module, "multilinear_apply", None) is original:
            monkeypatch.setattr(module, "multilinear_apply", counting)
    handle._stencil_maps(degree)
    assert len(count) == calls


def test_term_maps_are_built_once_per_handle(monkeypatch):
    # q is not the identity here, so degree 1 composes Q = I and degree 2
    # Q = q: the end maps are kept per exponent of Q, and the merged slots,
    # which do not depend on it, are built once for both degrees.
    operator = transported(("cyclic", 2), 0)
    handle = rbf_complex(operator)
    assert not handle.source_map.is_identity()
    original, count = linalg.multilinear_apply, []

    def counting(*args):
        count.append(1)
        return original(*args)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "rbfam" and getattr(module, "multilinear_apply", None) is original:
            monkeypatch.setattr(module, "multilinear_apply", counting)
    handle._stencil_maps(1)
    assert len(count) == 108
    handle._stencil_maps(2)
    assert len(count) == 108
    monkeypatch.undo()
    assert repr(handle.differential_matrix(2)) == repr(rbf_complex(operator).differential_matrix(2))
