"""Differential matrices built from integer column states.

``ComplexHandle.differential_matrix`` keeps each column's free-column
coordinates as a sparse state {row: int} over the column's denominator
(``Matrix.from_column_states``) and builds ``entries`` only on first
access.  Such a matrix must be the same value as one built from its
entries: ``==``, ``hash``, ``repr``, ``entries`` and ``dataclasses.replace``
agree, on rational data and on a polynomial stencil.  ``rank`` read off
the states agrees with ``oracles.naive_rank``, polynomial entries are still
refused, and the route and membership checks keep their messages.
"""
import random
from dataclasses import replace
from fractions import Fraction

import pytest

import oracles
from rbfam.cohomology import differential_matrix, ha_complex, rbf_complex
from rbfam.errors import DegreeCapError, InputError, RouteMismatchError
from rbfam.homalg import regular_bimodule, tensor_semigroup_algebra
from rbfam.linalg import Matrix, kernel_basis, rank
from rbfam.operators import identity_packing_family
from rbfam.scalars import TruncatedPoly
from rbfam.semigroups import builtin


@pytest.fixture(scope="module")
def handles(d1, twisted_triangular_algebra):
    """Handles by name: D1's twisted family (p = q = id), the identity
    packing of the Yau-twisted triangular algebra over C2 (constrained
    spaces), the HA complex of that algebra, and D1 with its maps over
    K[t]/(t^2) (a polynomial stencil from degree 1 on)."""
    algebra = twisted_triangular_algebra
    _, _, cocycle = tensor_semigroup_algebra(algebra, builtin("cyclic", 2))
    operator = d1["operator"]
    poly_maps = tuple(Matrix(m.rows, m.cols, tuple(TruncatedPoly([e, 0], 2) for e in m.entries)) for m in operator.maps)
    return {
        "d1": rbf_complex(operator),
        "twisted-family": rbf_complex(identity_packing_family(algebra, builtin("cyclic", 2), cocycle), degree_cap=1),
        "triangular-ha": ha_complex(algebra, regular_bimodule(algebra)),
        "poly-maps": rbf_complex(replace(operator, maps=poly_maps)),
    }


CASES = [
    ("d1", 0),
    ("d1", 1),
    ("d1", 2),
    ("twisted-family", 0),
    ("twisted-family", 1),
    ("triangular-ha", 1),
    ("triangular-ha", 2),
    ("poly-maps", 0),
    ("poly-maps", 1),
]


def fresh_matrix(handle, degree):
    handle._matrix.clear()
    m = differential_matrix(handle, degree)
    assert m.column_states is not None and "entries" not in vars(m)
    return m


def dense_reference(handle, degree):
    """The matrix built from its entries: each basis vector's image through
    ``raw_differential``, read at the next basis's free columns."""
    free = [s[-1][0] for s in handle.supports(degree + 1)]
    images = [handle.raw_differential(degree, v) for v in handle.basis_vectors(degree)]
    return Matrix.from_columns([[image[f] for f in free] for image in images], rows=len(free))


@pytest.mark.parametrize("name, degree", CASES)
def test_sparse_built_matrix_is_the_dense_built_one(handles, name, degree):
    handle = handles[name]
    dense = dense_reference(handle, degree)
    # Each comparison starts on a matrix whose entries are not built yet.
    assert fresh_matrix(handle, degree) == dense
    assert hash(fresh_matrix(handle, degree)) == hash(dense)
    assert repr(fresh_matrix(handle, degree)) == repr(dense)
    assert fresh_matrix(handle, degree).entries == dense.entries
    copied = replace(fresh_matrix(handle, degree))
    assert "column_states" not in vars(copied) and repr(copied) == repr(dense)
    assert repr(replace(fresh_matrix(handle, degree), rows=dense.rows)) == repr(dense)
    if name == "poly-maps" and degree == 1:
        assert any(isinstance(e, TruncatedPoly) for e in dense.entries)


def _states_matrix(rng, rows, cols):
    """A matrix from seeded column states (denominators 1-6, empty columns
    now and then) and its dense rows."""
    states = []
    for _ in range(cols):
        state = {i: v for i in range(rows) if rng.random() < 0.4 and (v := rng.randint(-3, 3))}
        states.append((state, rng.randint(1, 6)))
    dense = [[Fraction(s.get(i, 0), den) for s, den in states] for i in range(rows)]
    return Matrix.from_column_states(rows, cols, states, 10**6), dense


@pytest.mark.parametrize("shape", [(7, 3), (3, 7), (5, 5), (0, 4), (4, 0), (12, 9), (9, 12)])
def test_rank_from_column_states_matches_naive_rank(shape):
    rng = random.Random(sum(shape))
    for _ in range(20):
        m, dense = _states_matrix(rng, *shape)
        assert rank(m) == oracles.naive_rank(dense) == rank(Matrix(m.rows, m.cols, m.entries))


@pytest.mark.parametrize("name, degree", [case for case in CASES if case[0] != "poly-maps"])
def test_differential_rank_matches_naive_rank(handles, name, degree):
    m = fresh_matrix(handles[name], degree)
    # Elimination reads the column states: no entry is built.
    assert kernel_basis(m) == kernel_basis(dense_reference(handles[name], degree))
    assert "entries" not in vars(m)
    assert rank(m) == oracles.naive_rank([m.row(i) for i in range(m.rows)])


def test_polynomial_matrix_is_refused_by_rank(handles):
    m = fresh_matrix(handles["poly-maps"], 1)
    assert any(type(v) is not int for state, _ in m.column_states for v in state.values())
    with pytest.raises(InputError, match=r"^elimination is defined for rational matrices only$"):
        rank(m)


def test_routes_are_compared_across_denominators(d1):
    # The generic route's columns over 3 * den hold the same rationals: no
    # mismatch.  Moving one of its numerators is caught, with the message
    # the Fraction comparison gave (frozen from it).
    handle = rbf_complex(d1["operator"])
    direct, (cols, den) = handle._stencil_maps(1)
    expected = differential_matrix(rbf_complex(d1["operator"]), 1)
    scaled = [{r: 3 * v for r, v in col.items()} for col in cols]
    handle._maps[1] = [direct, (scaled, 3 * den)]
    assert differential_matrix(handle, 1) == expected
    row = min(scaled[8])
    scaled[8] = {**scaled[8], row: scaled[8][row] + 1}
    handle._matrix.clear()
    with pytest.raises(RouteMismatchError) as info:
        differential_matrix(handle, 1)
    assert str(info.value) == (
        f"twisted-family differential routes disagree at index tuple {handle._locate(2, row)[0]}, "
        f"entry {handle._locate(2, row)[1]}, on basis vector 8"
    )


def test_route_mismatch_message_is_kept(d1, monkeypatch):
    # Frozen from the Fraction comparison of the two routes' images.
    import rbfam.cohomology as cohomology_module

    original = cohomology_module.twisted_inner_sum
    first = (Fraction(1), Fraction(0))

    def perturbed(operator, alpha, beta, u, v):
        out = original(operator, alpha, beta, u, v)
        return (out[0] + 1,) + out[1:] if (alpha, beta) == (1, 0) and u == v == first else out

    monkeypatch.setattr(cohomology_module, "twisted_inner_sum", perturbed)
    messages = {
        1: "twisted-family differential routes disagree at index tuple (1, 0), entry (0, 0, 0), on basis vector 8",
        2: "twisted-family differential routes disagree at index tuple (0, 1, 0), entry (0, 0, 0, 0), "
        "on basis vector 16",
    }
    for degree, message in messages.items():
        with pytest.raises(RouteMismatchError) as info:
            differential_matrix(rbf_complex(d1["operator"]), degree)
        assert str(info.value) == message


def test_image_that_leaves_the_cochain_space_is_refused(handles, monkeypatch):
    # A unit state on a raw coordinate that is no basis vector's free column
    # (over any denominator) is not a member of the degree-2 space.
    handle = replace(handles["twisted-family"], _maps={}, _basis={}, _matrix={})
    free = {s[-1][0] for s in handle.supports(2)}
    col = min(set(range(handle.raw_dim(2))) - free)
    monkeypatch.setattr(handle, "_apply_maps", lambda maps, degree, support, where="": ({col: 2}, 3))
    with pytest.raises(RouteMismatchError, match=r"^differential image escaped the constrained cochain space$"):
        differential_matrix(handle, 1)


def test_dense_entries_count_against_the_budget(d1):
    # The dims path fits a budget of 10000 (raw 256, a stencil walk of
    # 1024 x 3^2 steps); the 256x64 matrix's dense entries do not.
    handle = rbf_complex(d1["operator"], max_entries=10000)
    m = differential_matrix(handle, 2)
    assert rank(m) == 48
    with pytest.raises(DegreeCapError) as info:
        m.entries
    assert info.value.estimated_entries == 256 * 64
    assert str(info.value) == "a 256x64 matrix needs 16384 entries, beyond the budget 10000"


def test_stencil_and_basis_nonzeros_count_against_the_budget(d1):
    # With the bases cached, a budget of 300 admits degree 1's raw sizes
    # and stencil walk (64 steps) but not its 296 stencil nonzeros plus 80
    # basis nonzeros.
    handle = rbf_complex(d1["operator"])
    handle.supports(1), handle.supports(2)
    small = replace(handle, max_entries=300)
    with pytest.raises(DegreeCapError) as info:
        differential_matrix(small, 1)
    assert info.value.estimated_entries == 296 + 80
