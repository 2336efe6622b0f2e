from fractions import Fraction
from itertools import product

import pytest

from oracles import dendriform_family_law_holds
from rbfam.errors import InputError, PreconditionError
from rbfam.family import (
    HomNSAlgebra,
    HomNSFamilyAlgebra,
    HomTridendFamily,
    OmegaAssocAlgebra,
    OmegaBimodule,
    as_ns_algebra,
    check_hom_ns,
    check_hom_ns_family,
    check_ns_family_morphism,
    check_ns_morphism,
    check_omega_assoc,
    check_omega_bimodule,
    check_tridend_family,
    constant_ns_family,
    ns_family_from_operator,
    ns_family_from_tridend,
    ns_family_pack,
    omega_assoc_from_ns_family,
    operator_bimodule,
    total_product_algebra,
    tridend_from_weighted_rbf,
    yau_twist_ns_family,
)
from rbfam import homalg
from rbfam.homalg import check_hom_algebra
from rbfam.linalg import Matrix, Tensor, tensor_column, unit_vector, vadd
from rbfam.operators import WeightedRBFamily
from rbfam.semigroups import builtin


def zero_ns(dim=2):
    z = Tensor.zero((dim, dim, dim))
    return HomNSAlgebra(dim=dim, prec=z, succ=z, vee=z, p=Matrix.identity(dim))


def weighted_identity(d1, weight):
    return WeightedRBFamily(
        algebra=d1["base_algebra"],
        omega=d1["omega"],
        weight=weight,
        maps=(Matrix.identity(2), Matrix.identity(2)),
    )


def test_zero_ns_passes():
    report = check_hom_ns(zero_ns())
    assert report.passed
    assert any("dendriform" in note for note in report.notes)


def dual_number_weight_zero_family(omega):
    """Integration-like operator on the dual numbers: T(1) = eps, T(eps) = 0.

    A genuine weight-0 Rota-Baxter family with nonzero induced products.
    """
    from rbfam.homalg import HomAlgebra

    mu = Tensor.from_nested([[[1, 0], [0, 0]], [[0, 1], [1, 0]]], 3)
    algebra = HomAlgebra(dim=2, mu=mu, p=Matrix.identity(2))
    t = Matrix.from_rows([[0, 0], [1, 0]])
    return WeightedRBFamily(
        algebra=algebra, omega=omega, weight=Fraction(0), maps=(t,) * omega.size
    )


def test_dendriform_viewed_as_ns_passes(d1):
    # weight-zero family gives a Hom-dendriform family; packing it yields
    # an NS algebra with a vanishing last product
    weighted = dual_number_weight_zero_family(d1["omega"])
    tridend = tridend_from_weighted_rbf(weighted)
    assert tridend.dot.is_zero()
    assert not all(t.is_zero() for t in tridend.prec)
    family = ns_family_from_tridend(tridend)
    packed = ns_family_pack(family)
    report = check_hom_ns(packed)
    assert report.passed
    assert any("dendriform" in note for note in report.notes)


def test_perturbed_vee_fails_long_law(d1):
    family = ns_family_from_operator(d1["operator"])
    packed = ns_family_pack(family)
    bump = Tensor.from_function(
        packed.vee.shape, lambda k, i, j: 1 if (k, i, j) == (0, 1, 1) else 0
    )
    broken = HomNSAlgebra(
        dim=packed.dim, prec=packed.prec, succ=packed.succ, vee=packed.vee.add(bump), p=packed.p
    )
    report = check_hom_ns(broken)
    assert not report.passed
    assert not report.law("(x*y) v p(z) + (x v y) < p(z) = p(x) > (y v z) + p(x) v (y*z)").ok


def test_constant_family_passes(d1):
    ns = _trivial_ns(d1)
    family = constant_ns_family(ns, d1["omega"])
    assert check_hom_ns_family(family).passed


def _trivial_ns(d1):
    from rbfam.homalg import tensor_semigroup_algebra
    from rbfam.operators import identity_packing_family

    base = d1["base_algebra"]
    trivial = builtin("trivial")
    _, _, cocycle = tensor_semigroup_algebra(base, trivial)
    operator = identity_packing_family(base, trivial, cocycle)
    return as_ns_algebra(ns_family_from_operator(operator))


def test_zero_operator_gives_zero_family(d1):
    from rbfam.operators import TwistedRBFamily

    zero = TwistedRBFamily(
        cocycle=d1["cocycle"],
        omega=d1["omega"],
        maps=(Matrix.zero(4, 2), Matrix.zero(4, 2)),
    )
    family = ns_family_from_operator(zero)
    assert all(t.is_zero() for t in family.prec)
    assert all(t.is_zero() for t in family.succ)
    assert all(t.is_zero() for row in family.vee for t in row)
    assert check_hom_ns_family(family).passed


def test_nijenhuis_splitting_recovers_direct_products(nijenhuis_search, d1):
    """The splitting of the induced identity family reproduces
    x <_a y = x.N_a y, x >_a y = N_a x.y, x v_ab y = -N_ab(x.y)."""
    from rbfam.operators import nijenhuis_induced_data

    algebra = d1["base_algebra"]
    nontrivial = [
        f for f in nijenhuis_search if not all(m.is_identity() or m.is_zero() for m in f.maps)
    ]
    family = nontrivial[0]
    split = ns_family_from_operator(nijenhuis_induced_data(family).operator)
    omega = family.omega
    for a in omega.elements():
        for i, j in product(range(2), repeat=2):
            x, y = unit_vector(2, i), unit_vector(2, j)
            assert tensor_column(split.prec[a], (i, j)) == algebra.product(
                x, family.maps[a].apply(y)
            )
            assert tensor_column(split.succ[a], (i, j)) == algebra.product(
                family.maps[a].apply(x), y
            )
    for a, b in product(omega.elements(), repeat=2):
        n_ab = family.maps[omega.mul(a, b)]
        for i, j in product(range(2), repeat=2):
            expected = tuple(-c for c in n_ab.apply(algebra.basis_product(i, j)))
            assert tensor_column(split.vee[a][b], (i, j)) == expected


def test_family_perturbation_fails(d1):
    family = ns_family_from_operator(d1["operator"])
    bump = Tensor.from_function((2, 2, 2), lambda k, i, j: 1 if (k, i, j) == (1, 0, 1) else 0)
    vee = tuple(
        tuple(t.add(bump) if (a, b) == (0, 1) else t for b, t in enumerate(row))
        for a, row in enumerate(family.vee)
    )
    broken = HomNSFamilyAlgebra(
        dim=family.dim, omega=family.omega, prec=family.prec, succ=family.succ, vee=vee, p=family.p
    )
    assert not check_hom_ns_family(broken).passed


# -- tridendriform ------------------------------------------------------------


def test_zero_tridend_passes(d1):
    z = Tensor.zero((2, 2, 2))
    family = HomTridendFamily(
        dim=2, omega=d1["omega"], prec=(z, z), succ=(z, z), dot=z, p=Matrix.identity(2)
    )
    assert check_tridend_family(family).passed


def test_tridend_from_weighted_zero_maps(d1):
    family = WeightedRBFamily(
        algebra=d1["base_algebra"],
        omega=d1["omega"],
        weight=Fraction(7),
        maps=(Matrix.zero(2, 2), Matrix.zero(2, 2)),
    )
    tridend = tridend_from_weighted_rbf(family)
    assert all(t.is_zero() for t in tridend.prec)
    assert all(t.is_zero() for t in tridend.succ)
    assert tridend.dot.entries == d1["base_algebra"].mu.scale(Fraction(7)).entries
    assert check_tridend_family(tridend).passed


def test_tridend_from_weight_minus_one_identity(d1):
    tridend = tridend_from_weighted_rbf(weighted_identity(d1, Fraction(-1)))
    mu = d1["base_algebra"].mu
    assert tridend.prec[0].entries == mu.entries
    assert tridend.succ[1].entries == mu.entries
    assert tridend.dot.entries == mu.neg().entries
    assert check_tridend_family(tridend).passed


def test_tridend_perturbation_fails(d1):
    tridend = tridend_from_weighted_rbf(weighted_identity(d1, Fraction(-1)))
    bump = Tensor.from_function((2, 2, 2), lambda k, i, j: 1 if (k, i, j) == (0, 0, 0) else 0)
    broken = HomTridendFamily(
        dim=2,
        omega=tridend.omega,
        prec=tridend.prec,
        succ=tridend.succ,
        dot=tridend.dot.add(bump),
        p=tridend.p,
    )
    assert not check_tridend_family(broken).passed


def test_cor_weighted_to_ns_family(d1):
    """Composite route: x v_{a,b} y = w x.y for a weighted family."""
    weight = Fraction(-1)
    tridend = tridend_from_weighted_rbf(weighted_identity(d1, weight))
    family = ns_family_from_tridend(tridend)
    assert check_hom_ns_family(family).passed
    scaled = d1["base_algebra"].mu.scale(weight)
    for row in family.vee:
        for t in row:
            assert t.entries == scaled.entries


# -- pair-indexed associative algebras ------------------------------------------


def test_zero_omega_assoc_passes(d1):
    z = Tensor.zero((2, 2, 2))
    algebra = OmegaAssocAlgebra(
        dim=2, omega=d1["omega"], prod=((z, z), (z, z)), p=Matrix.identity(2)
    )
    assert check_omega_assoc(algebra).passed


def test_total_product_formula_matches_operator(d1):
    operator = d1["operator"]
    family = ns_family_from_operator(operator)
    total = omega_assoc_from_ns_family(family)
    assert check_omega_assoc(total).passed
    module, phi = operator.bimodule, operator.cocycle
    for a, b in product(range(2), repeat=2):
        for u_i, v_i in product(range(2), repeat=2):
            u, v = unit_vector(2, u_i), unit_vector(2, v_i)
            ru = operator.maps[a].apply(u)
            rv = operator.maps[b].apply(v)
            expected = vadd(
                vadd(module.act_l(ru, v), module.act_r(u, rv)), phi.apply(ru, rv)
            )
            assert tensor_column(total.prod[a][b], (u_i, v_i)) == expected


def test_constant_family_total_product_is_index_free(d1):
    ns = _trivial_ns(d1)
    family = constant_ns_family(ns, d1["omega"])
    total = omega_assoc_from_ns_family(family)
    base = total.prod[0][0].entries
    for row in total.prod:
        for t in row:
            assert t.entries == base
    flat = total_product_algebra(ns)
    assert flat.mu.entries == base
    assert check_hom_algebra(flat).passed


def test_omega_assoc_perturbation_fails(d1):
    family = ns_family_from_operator(d1["operator"])
    total = omega_assoc_from_ns_family(family)
    bump = Tensor.from_function((2, 2, 2), lambda k, i, j: 1 if (k, i, j) == (0, 1, 0) else 0)
    prod = tuple(
        tuple(t.add(bump) if (a, b) == (1, 1) else t for b, t in enumerate(row))
        for a, row in enumerate(total.prod)
    )
    broken = OmegaAssocAlgebra(dim=2, omega=total.omega, prod=prod, p=total.p)
    assert not check_omega_assoc(broken).passed


# -- pair-indexed bimodules ------------------------------------------------------


def test_zero_omega_bimodule_passes(d1):
    family = ns_family_from_operator(d1["operator"])
    total = omega_assoc_from_ns_family(family)
    zl = Tensor.zero((0, 2, 0))
    zr = Tensor.zero((0, 0, 2))
    module = OmegaBimodule(
        parent=total,
        dim=0,
        left=((zl, zl), (zl, zl)),
        right=((zr, zr), (zr, zr)),
        q=Matrix.zero(0, 0),
    )
    assert check_omega_bimodule(module).passed


def test_operator_bimodule_passes_and_perturbation_fails(d1):
    module = operator_bimodule(d1["operator"])
    assert check_omega_bimodule(module).passed
    bump = Tensor.from_function((4, 4, 2), lambda k, i, a: 1 if (k, i, a) == (0, 0, 0) else 0)
    right = tuple(
        tuple(t.add(bump) if (x, y) == (0, 1) else t for y, t in enumerate(row))
        for x, row in enumerate(module.right)
    )
    broken = OmegaBimodule(
        parent=module.parent, dim=module.dim, left=module.left, right=right, q=module.q
    )
    report = check_omega_bimodule(broken)
    assert not report.passed
    assert not report.law("p(x) .l_a,bg (u .r_b,g y) = (x .l_ab u) .r_ab,g p(y)").ok


# -- packing -----------------------------------------------------------------------


def test_pack_trivial_omega_is_identity(d1):
    ns = _trivial_ns(d1)
    family = constant_ns_family(ns, builtin("trivial"))
    packed = ns_family_pack(family)
    assert packed.prec.entries == ns.prec.entries
    assert packed.succ.entries == ns.succ.entries
    assert packed.vee.entries == ns.vee.entries


def test_pack_zero_family(d1):
    z = Tensor.zero((2, 2, 2))
    family = HomNSFamilyAlgebra(
        dim=2,
        omega=d1["omega"],
        prec=(z, z),
        succ=(z, z),
        vee=((z, z), (z, z)),
        p=Matrix.identity(2),
    )
    packed = ns_family_pack(family)
    assert packed.prec.is_zero() and packed.succ.is_zero() and packed.vee.is_zero()
    assert check_hom_ns(packed).passed


def test_pack_operator_family_and_morphism(d1):
    family = ns_family_from_operator(d1["operator"])
    packed = ns_family_pack(family)
    assert check_hom_ns(packed).passed
    # a multiplicative involution of the base algebra is a family morphism;
    # its packing is a morphism of the packed NS algebras
    f = Matrix.from_rows([[1, 0], [0, -1]])
    assert check_ns_family_morphism(f, family, family).passed
    fbar = homalg._block_repeat(f, family.omega.size)
    assert check_ns_morphism(fbar, packed, packed).passed


def test_remark_total_product_of_packed(d1):
    family = ns_family_from_operator(d1["operator"])
    packed = ns_family_pack(family)
    assert check_hom_algebra(total_product_algebra(packed)).passed


def test_vee_zero_reduces_to_dendriform_subsystem(d1):
    tridend = tridend_from_weighted_rbf(dual_number_weight_zero_family(d1["omega"]))
    family = ns_family_from_tridend(tridend)
    assert check_hom_ns_family(family).passed
    assert dendriform_family_law_holds(family)
    # perturbing one indexed product must break both views the same way
    bump = Tensor.from_function((2, 2, 2), lambda k, i, j: 1 if (k, i, j) == (0, 0, 1) else 0)
    broken = HomNSFamilyAlgebra(
        dim=2,
        omega=family.omega,
        prec=(family.prec[0].add(bump), family.prec[1]),
        succ=family.succ,
        vee=family.vee,
        p=family.p,
    )
    assert check_hom_ns_family(broken).passed == dendriform_family_law_holds(broken) == False


# -- Yau twists ----------------------------------------------------------------------


def test_yau_twist_identity_keeps_products(d1):
    family = ns_family_from_operator(d1["operator"])
    twisted = yau_twist_ns_family(family, Matrix.identity(2))
    assert twisted.prec[0].entries == family.prec[0].entries
    assert twisted.p.entries == family.p.entries
    assert check_hom_ns_family(twisted).passed


def test_yau_twist_zero_map(d1):
    family = ns_family_from_operator(d1["operator"])
    twisted = yau_twist_ns_family(family, Matrix.zero(2, 2))
    assert all(t.is_zero() for t in twisted.prec)
    assert twisted.p.is_zero()
    assert check_hom_ns_family(twisted).passed


def test_yau_twist_idempotent_found_by_search(d1):
    family = ns_family_from_operator(d1["operator"])
    grid = [Fraction(0), Fraction(1), Fraction(-1), Fraction(1, 2), Fraction(-1, 2)]
    found = []
    for entries in product(grid, repeat=4):
        m = Matrix(2, 2, entries)
        if m.is_identity() or m.is_zero():
            continue
        if m.mul(m).entries != m.entries:
            continue
        if check_ns_family_morphism(m, family, family).passed:
            found.append(m)
    assert found, "no idempotent structure-preserving endomorphism found"
    for m in found:
        twisted = yau_twist_ns_family(family, m)
        assert check_hom_ns_family(twisted).passed
        assert twisted.p.entries == m.entries  # base p is the identity


def test_yau_twist_rejects_non_morphism(d1):
    family = ns_family_from_operator(d1["operator"])
    with pytest.raises(PreconditionError):
        yau_twist_ns_family(family, Matrix.from_rows([[1, 1], [0, 1]]))


def test_as_ns_algebra_needs_trivial_omega(d1):
    family = ns_family_from_operator(d1["operator"])
    with pytest.raises(InputError):
        as_ns_algebra(family)


def test_ns_family_morphism_rejects_a_different_semigroup(d1, d2):
    # Same dimension, C2 against the boolean monoid: no verdict, an input error.
    source = ns_family_from_operator(d1["operator"])
    target = ns_family_from_operator(d2["operator"])
    with pytest.raises(InputError, match="same semigroup"):
        check_ns_family_morphism(Matrix.identity(2), source, target)
    smaller = constant_ns_family(zero_ns(2), builtin("trivial"))
    with pytest.raises(InputError, match="same semigroup"):
        check_ns_family_morphism(Matrix.identity(2), source, smaller)


def test_ns_morphism_checkers_reject_a_misshapen_map(d1):
    family = ns_family_from_operator(d1["operator"])
    with pytest.raises(InputError, match="f must be 2x2, got 3x3"):
        check_ns_family_morphism(Matrix.identity(3), family, family)
    with pytest.raises(InputError, match="f must be 2x2, got 2x3"):
        check_ns_morphism(Matrix.zero(2, 3), zero_ns(2), zero_ns(2))
