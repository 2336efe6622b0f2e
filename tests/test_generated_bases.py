"""Generated cochain-space bases against the dense raw x raw constraint.

A basis depends only on (tag, p, q, dims, omega), so the property builds
``ComplexHandle`` straight from those, with identity, zero, idempotent and
seeded unimodular structure maps, and checks every degree 0-3 against the
kernel of ``oracles.oracle_full_constraint``.
"""
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import oracle_full_constraint
from rbfam.cohomology import HA, OMEGA, RBF, ComplexHandle
from rbfam.linalg import Matrix, kernel_basis
from rbfam.semigroups import builtin

MAX_RAW = 64
OMEGAS = {"C2": builtin("cyclic", 2), "boolean_monoid": builtin("boolean_monoid")}


def seeded_unimodular(n, rng):
    """(S, S^-1) from random integer row operations and sign flips."""
    s, s_inv = Matrix.identity(n), Matrix.identity(n)
    for _ in range(2 * n):
        i, j = rng.randrange(n), rng.randrange(n)
        op = [[int(r == c) for c in range(n)] for r in range(n)]
        inv = [row[:] for row in op]
        if i == j:
            op[i][i] = inv[i][i] = -1
        else:
            c = rng.choice((-2, -1, 1, 2))
            op[i][j], inv[i][j] = c, -c
        s = Matrix.from_rows(op).mul(s)
        s_inv = s_inv.mul(Matrix.from_rows(inv))
    return s, s_inv


@st.composite
def structure_maps(draw, n):
    kind = draw(st.sampled_from(["identity", "zero", "idempotent", "unimodular"]))
    if kind == "identity":
        return Matrix.identity(n)
    if kind == "zero":
        return Matrix.zero(n, n)
    s, s_inv = seeded_unimodular(n, random.Random(draw(st.integers(0, 2**16))))
    if kind == "unimodular":
        return s
    rank = draw(st.integers(0, n))
    diag = Matrix.from_rows([[int(r == c < rank) for c in range(n)] for r in range(n)])
    return s.mul(diag).mul(s_inv)


@st.composite
def handles(draw):
    tag = draw(st.sampled_from([HA, OMEGA, RBF]))
    omega = None if tag == HA else OMEGAS[draw(st.sampled_from(sorted(OMEGAS)))]
    g, d = draw(st.integers(1, 3 if tag == HA else 2)), draw(st.integers(0, 2))
    handle = ComplexHandle(
        tag=tag,
        source_dim=g,
        target_dim=d,
        source_map=draw(structure_maps(g)),
        target_map=draw(structure_maps(d)),
        omega=omega,
        degree_cap=3,
    )
    degrees = [n for n in range(4) if handle.raw_dim(n) <= MAX_RAW]
    return handle, draw(st.sampled_from(degrees))


@settings(max_examples=200, deadline=None)
@given(handles())
def test_basis_is_the_kernel_of_the_full_constraint(case):
    handle, degree = case
    rows = oracle_full_constraint(
        handle.source_map, handle.target_map, len(handle.index_keys(degree)), degree
    )
    raw = handle.raw_dim(degree)
    expected = kernel_basis(Matrix(len(rows), raw, tuple(e for row in rows for e in row)))
    assert handle.basis_vectors(degree) == expected
    assert handle._basis[degree] == [
        tuple((i, e) for i, e in enumerate(v) if e) for v in expected
    ]
