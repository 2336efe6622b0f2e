import random
from fractions import Fraction
from itertools import product as iproduct

import pytest

from rbfam.cohomology import (
    Cochain,
    cochain_basis,
    cohomology_dims,
    differential_matrix,
    ha_complex,
    invert_matrix,
    omega_complex,
    rbf_complex,
    transport_cochain,
)
from rbfam.errors import DegreeCapError, InputError, MissingUnitError, RouteMismatchError
from rbfam.family import OmegaAssocAlgebra, OmegaBimodule
from rbfam.homalg import (
    HomBimodule,
    hochschild_differential,
    regular_bimodule,
    tensor_semigroup_algebra,
    zero_cocycle,
)
from rbfam.linalg import Matrix, Tensor, block_diag, kernel_basis, unit_vector
from rbfam.operators import OperatorMorphism, TwistedRBFamily, identity_packing_family
from rbfam.semigroups import builtin


def test_d0_basis_dimension(d0_handle):
    assert len(cochain_basis(d0_handle, 1)) == 1
    assert len(cochain_basis(d0_handle, 0)) == 1


def test_zero_module_all_dims_vanish(d1):
    algebra = d1["base_algebra"]
    module = HomBimodule(
        parent=algebra,
        dim=0,
        left=Tensor.zero((0, 2, 0)),
        right=Tensor.zero((0, 0, 2)),
        q=Matrix.zero(0, 0),
    )
    cocycle = zero_cocycle(module)
    operator = TwistedRBFamily(
        cocycle=cocycle, omega=builtin("trivial"), maps=(Matrix.zero(2, 0),)
    )
    handle = rbf_complex(operator)
    for n in (1, 2):
        dims = cohomology_dims(handle, n)
        assert tuple(dims) == (0, 0, 0, 0)


def test_d1_degree_one_dimension_matches_enumeration(d1_handle):
    basis = cochain_basis(d1_handle, 1)
    # p = q = id: every coefficient vector is a member, so the dimension is
    # the raw count per index tuple
    expected = 2 * (4 * 2)
    assert len(basis) == expected
    for cochain in basis[:4]:
        assert d1_handle.membership_ok(cochain)


def test_d0_dims_are_all_one(d0_handle):
    for n in (0, 1, 2):
        assert tuple(cohomology_dims(d0_handle, n)) == (1, 1, 0, 1)
        assert differential_matrix(d0_handle, n).is_zero()


def test_d1_complex_squares_to_zero(d1_handle):
    for n in (0, 1):
        m_lo = differential_matrix(d1_handle, n)
        m_hi = differential_matrix(d1_handle, n + 1)
        assert m_hi.mul(m_lo).is_zero()


def test_route_equivalence_on_full_bases(d1_handle, d1_omega_handle):
    """Direct twisted-family differential equals the generic pair-indexed
    differential with the induced data, over the whole degree-1 and
    degree-2 bases."""
    for n in (1, 2):
        direct = differential_matrix(d1_handle, n)
        generic = differential_matrix(d1_omega_handle, n)
        assert direct.entries == generic.entries


def test_trivial_omega_reproduces_hochschild(d1):
    algebra, module = d1["algebra"], d1["bimodule"]
    trivial = builtin("trivial")
    wrapped_algebra = OmegaAssocAlgebra(
        dim=algebra.dim, omega=trivial, prod=((algebra.mu,),), p=algebra.p
    )
    wrapped_module = OmegaBimodule(
        parent=wrapped_algebra,
        dim=module.dim,
        left=((module.left,),),
        right=((module.right,),),
        q=module.q,
    )
    ha = ha_complex(algebra, module)
    om = omega_complex(wrapped_algebra, wrapped_module)
    for n in (0, 1, 2):
        assert differential_matrix(ha, n).entries == differential_matrix(om, n).entries


def test_differential_is_linear(d1_handle):
    rng = random.Random(3)
    basis = cochain_basis(d1_handle, 1)
    f = basis[3].scale(Fraction(2)).add(basis[10].scale(Fraction(-5)))
    g = basis[0].scale(Fraction(1, 2))
    df = d1_handle.differential(f)
    dg = d1_handle.differential(g)
    dfg = d1_handle.differential(f.add(g))
    assert dfg.table.keys() == df.table.keys()
    for key in df.table:
        assert dfg.table[key].entries == df.table[key].add(dg.table[key]).entries


def test_zero_cochain_maps_to_zero(d1_handle):
    zero = d1_handle.unflatten(1, (Fraction(0),) * d1_handle.raw_dim(1))
    assert d1_handle.differential(zero).is_zero()


def test_degree_cap_and_entry_budget(d1):
    handle = rbf_complex(d1["operator"], degree_cap=1)
    with pytest.raises(DegreeCapError):
        cohomology_dims(handle, 2)
    tiny = rbf_complex(d1["operator"], max_entries=10)
    with pytest.raises(DegreeCapError) as err:
        cochain_basis(tiny, 2)
    assert err.value.estimated_entries == 2 * 2 * 4 * 2 * 2


def test_missing_unit_behavior(d1):
    omega = builtin("left_zero", 2)
    base = d1["base_algebra"]
    packed, module, cocycle = tensor_semigroup_algebra(base, omega)
    operator = TwistedRBFamily(
        cocycle=cocycle, omega=omega, maps=(Matrix.zero(4, 2), Matrix.zero(4, 2))
    )
    handle = rbf_complex(operator)
    with pytest.raises(MissingUnitError):
        cochain_basis(handle, 0)
    with pytest.raises(MissingUnitError):
        cohomology_dims(handle, 0)
    # degrees >= 1 are served; nothing bounds at degree 1
    dims = cohomology_dims(handle, 1)
    assert dims.dim_b == 0
    m1 = differential_matrix(handle, 1)
    m2 = differential_matrix(handle, 2)
    assert m2.mul(m1).is_zero()


def test_noncommutative_semigroup_complex(d1):
    """Index bookkeeping survives a semigroup with ab != ba.

    The identity packing family exists over any semigroup; over left-zero
    the merged index tuples genuinely depend on the order of factors.
    """
    from rbfam.operators import check_twisted_rbf, identity_packing_family

    omega = builtin("left_zero", 2)
    base = d1["base_algebra"]
    _, _, cocycle = tensor_semigroup_algebra(base, omega)
    operator = identity_packing_family(base, omega, cocycle)
    assert check_twisted_rbf(operator).passed
    handle = rbf_complex(operator)
    m1 = differential_matrix(handle, 1)
    m2 = differential_matrix(handle, 2)
    assert not m1.is_zero()
    assert m2.mul(m1).is_zero()
    assert tuple(cohomology_dims(handle, 1)) == (16, 4, 0, 4)
    assert tuple(cohomology_dims(handle, 2)) == (64, 12, 12, 0)


def test_constrained_family_complex_with_twisting(twisted_triangular_algebra):
    """Full pipeline with non-identity structure maps: membership cuts the
    cochain spaces down and the differential still squares to zero."""
    from rbfam.operators import check_twisted_rbf, identity_packing_family

    omega = builtin("cyclic", 2)
    packed, module, cocycle = tensor_semigroup_algebra(twisted_triangular_algebra, omega)
    operator = identity_packing_family(twisted_triangular_algebra, omega, cocycle)
    assert check_twisted_rbf(operator).passed
    handle = rbf_complex(operator, degree_cap=1)
    assert len(handle.basis_vectors(1)) == 20
    assert len(handle.basis_vectors(2)) == 96 < handle.raw_dim(2)
    m0 = differential_matrix(handle, 0)
    m1 = differential_matrix(handle, 1)
    assert not m0.is_zero()
    assert m1.mul(m0).is_zero()
    assert tuple(cohomology_dims(handle, 0)) == (4, 2, 0, 2)
    assert tuple(cohomology_dims(handle, 1)) == (20, 2, 2, 0)


def test_public_differential_functions(d1_handle, d1_omega_handle):
    from rbfam.cohomology import omega_differential, rbf_differential

    f = cochain_basis(d1_handle, 1)[7]
    out = rbf_differential(d1_handle, f)
    assert out.degree == 2
    g = cochain_basis(d1_omega_handle, 1)[7]
    out2 = omega_differential(d1_omega_handle, g)
    for key in out.table:
        assert out.table[key].entries == out2.table[key].entries
    with pytest.raises(InputError):
        omega_differential(d1_handle, f)
    with pytest.raises(InputError):
        rbf_differential(d1_omega_handle, g)


def test_constrained_basis_matches_naive_kernel(twisted_triangular_algebra, d1_handle):
    """Cross-check constrained dimensions against an independently built
    constraint matrix reduced by the naive max-pivot elimination."""
    from itertools import product as iproduct

    from oracles import naive_kernel_dim

    module = regular_bimodule(twisted_triangular_algebra)
    handle = ha_complex(twisted_triangular_algebra, module)
    n = twisted_triangular_algebra.dim
    p_rows = [[twisted_triangular_algebra.p.at(i, j) for j in range(n)] for i in range(n)]
    q_rows = p_rows  # regular bimodule: q = p
    rows = []
    # residual of q(f(e_i)) - f(p(e_i)) per coefficient f[k][j]
    for k_out, i_in in iproduct(range(n), range(n)):
        row = []
        for k, j in iproduct(range(n), range(n)):
            coeff = q_rows[k_out][k] * (1 if j == i_in else 0)
            coeff -= (1 if k == k_out else 0) * p_rows[j][i_in]
            row.append(Fraction(coeff))
        rows.append(row)
    assert naive_kernel_dim(rows, n * n) == len(cochain_basis(handle, 1))
    # unconstrained case: every raw coefficient vector is a member
    raw = d1_handle.raw_dim(1)
    zero_rows = [[Fraction(0)] * raw]
    assert naive_kernel_dim(zero_rows, raw) == len(cochain_basis(d1_handle, 1))


def test_membership_constrained_basis(twisted_triangular_algebra):
    module = regular_bimodule(twisted_triangular_algebra)
    handle = ha_complex(twisted_triangular_algebra, module)
    basis1 = cochain_basis(handle, 1)
    assert len(basis1) < handle.raw_dim(1)
    for cochain in basis1:
        assert handle.membership_ok(cochain)
    dims = cohomology_dims(handle, 1)
    assert dims.dim_c == len(basis1)
    from rbfam.linalg import kernel_basis

    assert len(kernel_basis(differential_matrix(handle, 1))) == dims.dim_z
    for n in (0, 1):
        assert differential_matrix(handle, n + 1).mul(differential_matrix(handle, n)).is_zero()


def test_make_cochain_rejects_non_member(twisted_triangular_algebra):
    module = regular_bimodule(twisted_triangular_algebra)
    handle = ha_complex(twisted_triangular_algebra, module)
    bad = {(): Tensor((3, 3), tuple(Fraction(1) for _ in range(9)))}
    with pytest.raises(InputError):
        handle.make_cochain(1, bad)


def test_rbf_degree_zero_formula(d1, d1_handle):
    # On commutative packed data every degree-0 coboundary vanishes.
    for i in range(4):
        x = tuple(Fraction(int(j == i)) for j in range(4))
        cochain = d1_handle.make_cochain(0, x)
        assert d1_handle.differential(cochain).is_zero()


# -- transport -----------------------------------------------------------------


def test_transport_identity(d1, d1_handle):
    operator = d1["operator"]
    morphism = OperatorMorphism(
        source=operator, target=operator, psi=Matrix.identity(4), phi=Matrix.identity(2)
    )
    f = cochain_basis(d1_handle, 1)[5]
    out = transport_cochain(morphism, f, d1_handle, d1_handle)
    for key in f.table:
        assert out.table[key].entries == f.table[key].entries


def test_transport_scaling_on_zero_operator():
    # On the scalar line with R = 0 and phi = 0, (phi, psi) = (c id, id) is a
    # valid morphism; transport rescales a degree-n cochain by c^(-n).
    from rbfam.homalg import HomAlgebra

    algebra = HomAlgebra(dim=1, mu=Tensor((1, 1, 1), (Fraction(1),)), p=Matrix.identity(1))
    module = regular_bimodule(algebra)
    cocycle = zero_cocycle(module)
    operator = TwistedRBFamily(cocycle=cocycle, omega=builtin("trivial"), maps=(Matrix.zero(1, 1),))
    handle = rbf_complex(operator)
    c = Fraction(3)
    morphism = OperatorMorphism(
        source=operator,
        target=operator,
        psi=Matrix.identity(1),
        phi=Matrix(1, 1, (c,)),
    )
    from rbfam.operators import check_operator_morphism

    assert check_operator_morphism(morphism).passed
    for n in (1, 2):
        f = cochain_basis(handle, n)[0]
        out = transport_cochain(morphism, f, handle, handle)
        expected = f.scale(c ** (-n))
        for key in f.table:
            assert out.table[key].entries == expected.table[key].entries


def test_transport_nontrivial_automorphism(d1, d1_handle):
    operator = d1["operator"]
    f_small = Matrix.from_rows([[1, 0], [0, -1]])
    morphism = OperatorMorphism(
        source=operator,
        target=operator,
        psi=block_diag([f_small, f_small]),
        phi=f_small,
    )
    from rbfam.operators import check_operator_morphism

    assert check_operator_morphism(morphism).passed
    for f in (cochain_basis(d1_handle, 1)[3], cochain_basis(d1_handle, 1)[9]):
        out = transport_cochain(morphism, f, d1_handle, d1_handle)
        assert out.degree == 1  # chain-map law asserted inside the call
    # transport is linear
    f = cochain_basis(d1_handle, 1)[3]
    g = cochain_basis(d1_handle, 1)[9]
    combo = f.scale(Fraction(2)).add(g.scale(Fraction(-3)))
    lhs = transport_cochain(morphism, combo, d1_handle, d1_handle)
    rhs = transport_cochain(morphism, f, d1_handle, d1_handle).scale(Fraction(2)).add(
        transport_cochain(morphism, g, d1_handle, d1_handle).scale(Fraction(-3))
    )
    for key in lhs.table:
        assert lhs.table[key].entries == rhs.table[key].entries


def test_transport_needs_invertible_phi(d1, d1_handle):
    operator = d1["operator"]
    morphism = OperatorMorphism(
        source=operator, target=operator, psi=Matrix.zero(4, 4), phi=Matrix.zero(2, 2)
    )
    f = cochain_basis(d1_handle, 1)[0]
    with pytest.raises(InputError):
        transport_cochain(morphism, f, d1_handle, d1_handle)


def test_invert_matrix():
    m = Matrix.from_rows([[1, 1], [0, 1]])
    inv = invert_matrix(m)
    assert m.mul(inv).is_identity()
    with pytest.raises(InputError):
        invert_matrix(Matrix.from_rows([[1, 1], [1, 1]]))


# -- constrained bases and matrices against the dense reference -------------


@pytest.fixture(scope="module", params=["cyclic", "boolean_monoid"])
def twisted_family_handle(request, twisted_triangular_algebra):
    """RBF handle of the identity packing family of the twisted triangular
    algebra: non-identity structure maps, so the constraint basis is used."""
    omega = builtin("cyclic", 2) if request.param == "cyclic" else builtin(request.param)
    _, _, cocycle = tensor_semigroup_algebra(twisted_triangular_algebra, omega)
    operator = identity_packing_family(twisted_triangular_algebra, omega, cocycle)
    return rbf_complex(operator, degree_cap=1)


def _reference_basis(handle, degree):
    from oracles import oracle_full_constraint

    rows = oracle_full_constraint(
        handle.source_map, handle.target_map, len(handle.index_keys(degree)), degree
    )
    return kernel_basis(Matrix.from_rows(rows))


def _oracle_reference(operator, degree):
    """Flattened image of a cochain under the from-scratch oracle differential,
    remembered per cochain."""
    from oracles import NaiveFamilyComplex, nested_of

    oracle = NaiveFamilyComplex(operator)
    outputs = list(iproduct(range(oracle.d), repeat=degree + 1))
    images = {}

    def image(cochain):
        memo = tuple(cochain.table[key].entries for key in cochain.keys())
        if memo not in images:
            if degree == 0:
                # Degree 0 tables are [a][k]; key them by (a,) like the others.
                out = oracle.delta(0, list(cochain.as_vector()))
                out = {key: {(a,): col for a, col in enumerate(cols)} for key, cols in out.items()}
            else:
                out = oracle.delta(degree, {key: nested_of(t) for key, t in cochain.table.items()})
            images[memo] = [
                out[key][idx][k]
                for key in sorted(out)
                for k in range(oracle.n)
                for idx in outputs
            ]
        return images[memo]

    return image


def _hochschild_reference(handle, degree):
    return lambda cochain: list(
        hochschild_differential(handle.ha_module, degree, cochain.table[()]).entries
    )


def _assert_matrix_reproduces_images(handle, degree, reference):
    """B_{n+1} M_n and differential() both equal the reference image of
    every degree-n basis vector."""
    mat = differential_matrix(handle, degree)
    out = handle.basis_vectors(degree + 1)
    raw = handle.raw_dim(degree + 1)
    for j, b in enumerate(cochain_basis(handle, degree)):
        combo = [Fraction(0)] * raw
        for i, v in enumerate(out):
            c = mat.at(i, j)
            if c:
                combo = [x + c * y for x, y in zip(combo, v)]
        expected = reference(b)
        assert combo == expected
        assert list(handle.flatten(handle.differential(b))) == expected


@pytest.mark.parametrize("degree", [0, 1, 2])
def test_twisted_family_basis_matches_dense_constraint(twisted_family_handle, degree):
    assert twisted_family_handle.basis_vectors(degree) == _reference_basis(
        twisted_family_handle, degree
    )


@pytest.mark.parametrize("degree", [0, 1])
def test_twisted_family_matrix_reproduces_images(twisted_family_handle, degree):
    reference = _oracle_reference(twisted_family_handle.operator, degree)
    _assert_matrix_reproduces_images(twisted_family_handle, degree, reference)


def test_twisted_ha_bases_and_matrices_match_reference(twisted_triangular_algebra):
    handle = ha_complex(
        twisted_triangular_algebra, regular_bimodule(twisted_triangular_algebra), degree_cap=3
    )
    for degree in (1, 2, 3):
        assert handle.basis_vectors(degree) == _reference_basis(handle, degree)
        _assert_matrix_reproduces_images(handle, degree, _hochschild_reference(handle, degree))


def test_differential_matrix_rejects_escaped_image(twisted_family_handle, monkeypatch):
    handle = rbf_complex(twisted_family_handle.operator, degree_cap=1)
    out = handle.basis_vectors(1)
    # A unit vector on a non-free column has zero free-column coordinates,
    # so it is not a member.
    free = {max(i for i, e in enumerate(v) if e) for v in out}
    col = min(set(range(handle.raw_dim(1))) - free)
    escaped = handle.unflatten(1, unit_vector(handle.raw_dim(1), col))
    assert not handle.membership_ok(escaped)
    monkeypatch.setattr(handle, "differential", lambda cochain: escaped)
    with pytest.raises(RouteMismatchError):
        differential_matrix(handle, 0)


def test_constraint_block_counts_against_the_entry_budget(twisted_triangular_algebra):
    handle = ha_complex(
        twisted_triangular_algebra,
        regular_bimodule(twisted_triangular_algebra),
        degree_cap=4,
        max_entries=1000,
    )
    assert handle.raw_dim(4) == 243 <= 1000
    with pytest.raises(DegreeCapError) as info:
        handle.basis_vectors(4)
    assert info.value.estimated_entries == 243**2


# -- stencil-assembled matrices ----------------------------------------------


def test_dense_basis_counts_against_the_entry_budget(d1):
    # p = q = id: the basis is raw unit vectors of raw entries each.
    handle = rbf_complex(d1["operator"], max_entries=1000)
    assert handle.raw_dim(2) == 64 <= 1000
    with pytest.raises(DegreeCapError) as info:
        handle.basis_vectors(2)
    assert info.value.estimated_entries == 64**2


def test_differential_matrix_raises_when_routes_disagree(d1, monkeypatch):
    import rbfam.cohomology as cohomology_module

    original = cohomology_module.twisted_inner_sum
    first = unit_vector(d1["operator"].bimodule.dim, 0)

    def perturbed(operator, alpha, beta, u, v):
        out = original(operator, alpha, beta, u, v)
        if (alpha, beta) == (0, 0) and u == v == first:
            out = (out[0] + 1,) + out[1:]
        return out

    # Only the direct route reads twisted_inner_sum.
    monkeypatch.setattr(cohomology_module, "twisted_inner_sum", perturbed)
    handle = rbf_complex(d1["operator"])
    with pytest.raises(RouteMismatchError, match=r"disagree at index tuple \(\d+, \d+\)"):
        differential_matrix(handle, 1)
    # One cochain through a fresh handle: the message names the index tuple
    # and the entry, and no basis vector.
    handle = rbf_complex(d1["operator"])
    basis = cochain_basis(handle, 1)
    total = basis[0]
    for b in basis[1:]:
        total = total.add(b)
    with pytest.raises(
        RouteMismatchError, match=r"disagree at index tuple \(\d+, \d+\), entry \(\d+, \d+, \d+\)$"
    ):
        handle.differential(total)


@pytest.fixture(scope="module")
def d1_oracle(d1_handle):
    """Oracle references of D1 by degree, shared by RBF and OMEGA on the
    induced data (one coefficient space)."""
    return {degree: _oracle_reference(d1_handle.operator, degree) for degree in (1, 2)}


@pytest.mark.parametrize("degree", [1, 2])
@pytest.mark.parametrize("which", ["rbf", "omega", "ha"])
def test_stencil_matrix_reproduces_images(
    d1_handle, d1_omega_handle, d1_ha_handle, d1_oracle, which, degree
):
    handle = {"rbf": d1_handle, "omega": d1_omega_handle, "ha": d1_ha_handle}[which]
    if which == "ha":
        reference = _hochschild_reference(handle, degree)
    else:
        reference = d1_oracle[degree]
    _assert_matrix_reproduces_images(handle, degree, reference)


def test_d1_rbf_degree_three_golden(d1):
    # Frozen from tests/oracles.py NaiveFamilyComplex(D1).dims(3), which is
    # too slow to recompute here.
    handle = rbf_complex(d1["operator"], degree_cap=3)
    assert tuple(cohomology_dims(handle, 3)) == (256, 48, 48, 0)


# -- differential() on inputs the matrix tests do not reach ---------------------


def test_twisted_family_differential_matches_oracle(twisted_family_handle):
    # The matrix tests stop at degree 1, which never applies q to an
    # argument; one seeded random member of degree 2 does (the whole basis
    # would take the oracle about a minute).
    handle = twisted_family_handle
    rng = random.Random(5)
    vectors = handle.basis_vectors(2)
    coeffs = [rng.randint(-9, 9) for _ in vectors]
    member = handle.unflatten(
        2, tuple(sum(c * x for c, x in zip(coeffs, column)) for column in zip(*vectors))
    )
    image = handle.differential(member)
    assert list(handle.flatten(image)) == _oracle_reference(handle.operator, 2)(member)


def test_differential_rejects_a_non_member(twisted_family_handle):
    handle = twisted_family_handle
    out = handle.basis_vectors(1)
    free = {max(i for i, e in enumerate(v) if e) for v in out}
    col = min(set(range(handle.raw_dim(1))) - free)
    vec = unit_vector(handle.raw_dim(1), col)
    generic = omega_complex(handle.omega_algebra, handle.omega_module)
    for h in (handle, generic):
        with pytest.raises(InputError, match="membership"):
            h.differential(h.unflatten(1, vec))


def test_differential_rejects_a_misshapen_cochain(d1_ha_handle, twisted_triangular_algebra):
    twisted = ha_complex(twisted_triangular_algebra, regular_bimodule(twisted_triangular_algebra))
    for handle in (d1_ha_handle, twisted):
        raw = handle.raw_dim(1)
        zeros = (Fraction(0),) * raw
        # Same number of entries as a degree-1 cochain, wrong layout.
        for table in ({(): Tensor((raw,), zeros)}, {(0,): Tensor(handle.tensor_shape(1), zeros)}):
            cochain = Cochain("HA", 1, handle.source_dim, handle.target_dim, table)
            with pytest.raises(InputError, match="shape"):
                handle.differential(cochain)
