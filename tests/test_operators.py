import hashlib
import random
from fractions import Fraction
from itertools import product

import pytest

from oracles import relative_family_law_holds
from rbfam import linalg
from rbfam.errors import InputError, PreconditionError
from rbfam.homalg import (
    HomAlgebra,
    check_bimodule,
    check_hom_algebra,
    check_two_cocycle,
    regular_bimodule,
    tensor_semigroup_algebra,
    zero_cocycle,
)
from rbfam.linalg import Matrix, Tensor, unit_vector, vadd
from rbfam.operators import (
    NijenhuisFamily,
    OperatorMorphism,
    TwistedRBFamily,
    WeightedRBFamily,
    check_nijenhuis_family,
    check_operator_morphism,
    check_twisted_rbf,
    check_weighted_rbf,
    graph_check,
    identity_packing_family,
    nijenhuis_induced_data,
    pack_operator,
    search_nijenhuis_families,
)
from rbfam.semigroups import builtin


def c2_group_algebra():
    mu = Tensor.from_nested([[[1, 0], [0, 1]], [[0, 1], [1, 0]]], 3)
    return HomAlgebra(dim=2, mu=mu, p=Matrix.identity(2))


def d0_operator(map_entries=0):
    algebra = HomAlgebra(dim=1, mu=Tensor((1, 1, 1), (Fraction(1),)), p=Matrix.identity(1))
    module = regular_bimodule(algebra)
    cocycle = zero_cocycle(module)
    mat = Matrix(1, 1, (Fraction(map_entries),))
    return TwistedRBFamily(cocycle=cocycle, omega=builtin("trivial"), maps=(mat,))


def test_zero_family_passes(d1):
    zero = TwistedRBFamily(
        cocycle=d1["cocycle"],
        omega=d1["omega"],
        maps=(Matrix.zero(4, 2), Matrix.zero(4, 2)),
    )
    assert check_twisted_rbf(zero).passed


def test_identity_packing_family_passes_both_omegas():
    algebra = c2_group_algebra()
    for omega in (builtin("cyclic", 2), builtin("boolean_monoid")):
        _, _, cocycle = tensor_semigroup_algebra(algebra, omega)
        family = identity_packing_family(algebra, omega, cocycle)
        assert check_twisted_rbf(family).passed


def test_identity_on_scalar_line_fails_one_vs_two():
    report = check_twisted_rbf(d0_operator(1))
    assert not report.passed
    law = report.law("R_a u . R_b v = R_ab(R_a u .l v + u .r R_b v + phi(R_a u, R_b v))")
    assert law.violation_count == 1
    # LHS u.v against RHS 2 u.v leaves -u.v on the basis pair
    assert law.violations[0].residual == (Fraction(-1),)


def test_missing_map_rejected(d1):
    with pytest.raises(InputError):
        TwistedRBFamily(cocycle=d1["cocycle"], omega=d1["omega"], maps=(Matrix.zero(4, 2),))


def test_twisted_map_shape_message_names_the_shape_received(d1):
    with pytest.raises(InputError, match=r"^map 1 must be 4x2, got 2x4$"):
        TwistedRBFamily(cocycle=d1["cocycle"], omega=d1["omega"], maps=(Matrix.zero(4, 2), Matrix.zero(2, 4)))


def test_nijenhuis_map_shape_message_names_the_shape_received(d1):
    with pytest.raises(InputError, match=r"^map 1 must be 2x2, got 2x3$"):
        NijenhuisFamily(algebra=d1["base_algebra"], omega=d1["omega"], maps=(Matrix.zero(2, 2), Matrix.zero(2, 3)))


def test_weighted_map_shape_message_names_the_shape_received(d1):
    with pytest.raises(InputError, match=r"^map 0 must be 2x2, got 1x2$"):
        WeightedRBFamily(
            algebra=d1["base_algebra"], omega=d1["omega"], weight=0, maps=(Matrix.zero(1, 2), Matrix.zero(2, 2))
        )


# -- Nijenhuis families -----------------------------------------------------


def test_nijenhuis_identity_and_zero_pass(d1):
    algebra = d1["base_algebra"]
    omega = d1["omega"]
    for mat in (Matrix.identity(2), Matrix.zero(2, 2)):
        family = NijenhuisFamily(algebra=algebra, omega=omega, maps=(mat, mat))
        assert check_nijenhuis_family(family).passed


def test_nijenhuis_search_contains_scalar_families(nijenhuis_search, d1):
    found = nijenhuis_search
    assert all(check_nijenhuis_family(f).passed for f in found)

    def is_scalar(mat, c):
        return all(
            mat.at(i, j) == (c if i == j else 0) for i in range(2) for j in range(2)
        )

    # equal-scalar families N_a = c id survive; unequal scalars cannot
    for c in (Fraction(0), Fraction(1), Fraction(-1), Fraction(1, 2)):
        assert any(is_scalar(f.maps[0], c) and is_scalar(f.maps[1], c) for f in found)
    for f in found:
        m0, m1 = f.maps
        if all(m.at(0, 1) == 0 and m.at(1, 0) == 0 and m.at(0, 0) == m.at(1, 1) for m in (m0, m1)):
            assert m0.at(0, 0) == m1.at(0, 0)


def test_nijenhuis_search_cap():
    algebra = c2_group_algebra()
    with pytest.raises(InputError):
        search_nijenhuis_families(algebra, builtin("cyclic", 2), cap=10)


def test_nijenhuis_search_accepts_a_generator_grid(d1):
    algebra, omega = d1["base_algebra"], d1["omega"]
    grid = (Fraction(0), Fraction(1))
    found = search_nijenhuis_families(algebra, omega, (g for g in grid))
    assert repr(found) == repr(search_nijenhuis_families(algebra, omega, grid))
    assert len(found) == 8


def _count_and_digest(found):
    return len(found), hashlib.sha256(repr(found).encode()).hexdigest()


# Both goldens were frozen from the search while it enumerated every candidate.
def test_nijenhuis_search_golden(nijenhuis_search):
    assert _count_and_digest(nijenhuis_search) == (
        40,
        "ff7c95f11b9667c0ec6c8c9b5e73ba47c27ed28018a29a0410560c932b61ea24",
    )


def test_nijenhuis_search_golden_of_the_benchmark_grid(d1):
    # D1 over C2 with grid (0, 1, -1), as the verdict-stream benchmark runs it.
    grid = (Fraction(0), Fraction(1), Fraction(-1))
    found = search_nijenhuis_families(d1["base_algebra"], d1["omega"], grid=grid)
    assert _count_and_digest(found) == (
        25,
        "527d1236d756ed8ea7655b383f8f4286e74f394435b95a45e11eece4b9a167b1",
    )


def test_search_and_graph_check_apply_no_matrix_per_tuple(d1, monkeypatch):
    # Both read integer tables once per call and contract them directly:
    # neither reaches the body of Matrix.apply and multilinear_apply.
    algebra, omega, operator = d1["base_algebra"], d1["omega"], d1["operator"]
    grid = (Fraction(0), Fraction(1), Fraction(-1))
    search_nijenhuis_families(algebra, omega, grid=grid)
    graph_check(operator)
    calls = []
    applied = linalg._applied
    monkeypatch.setattr(linalg, "_applied", lambda *args: calls.append(args) or applied(*args))
    assert len(search_nijenhuis_families(algebra, omega, grid=grid)) == 25
    assert graph_check(operator).passed
    assert calls == []


def test_unequal_scalars_fail(d1):
    family = NijenhuisFamily(
        algebra=d1["base_algebra"],
        omega=d1["omega"],
        maps=(Matrix.identity(2), Matrix.zero(2, 2)),
    )
    assert not check_nijenhuis_family(family).passed


# -- weighted families ------------------------------------------------------


def test_weighted_zero_passes(d1):
    family = WeightedRBFamily(
        algebra=d1["base_algebra"],
        omega=d1["omega"],
        weight=Fraction(5, 3),
        maps=(Matrix.zero(2, 2), Matrix.zero(2, 2)),
    )
    assert check_weighted_rbf(family).passed


def test_weighted_identity_weight_minus_one_passes(d1):
    family = WeightedRBFamily(
        algebra=d1["base_algebra"],
        omega=d1["omega"],
        weight=Fraction(-1),
        maps=(Matrix.identity(2), Matrix.identity(2)),
    )
    assert check_weighted_rbf(family).passed


def test_weighted_identity_weight_zero_fails_on_scalar_line():
    algebra = HomAlgebra(dim=1, mu=Tensor((1, 1, 1), (Fraction(1),)), p=Matrix.identity(1))
    family = WeightedRBFamily(
        algebra=algebra, omega=builtin("trivial"), weight=Fraction(0), maps=(Matrix.identity(1),)
    )
    report = check_weighted_rbf(family)
    assert not report.passed
    law = report.law("T_a x . T_b y = T_ab(T_a x . y + x . T_b y + w x.y)")
    assert law.violations[0].residual == (Fraction(-1),)


# -- morphisms ----------------------------------------------------------------


def test_identity_morphism_passes(d1):
    operator = d1["operator"]
    m = OperatorMorphism(
        source=operator, target=operator, psi=Matrix.identity(4), phi=Matrix.identity(2)
    )
    assert check_operator_morphism(m).passed


def test_zero_morphism_passes(d1):
    operator = d1["operator"]
    m = OperatorMorphism(
        source=operator, target=operator, psi=Matrix.zero(4, 4), phi=Matrix.zero(2, 2)
    )
    assert check_operator_morphism(m).passed


def test_identity_pair_against_perturbed_target_fails(d1):
    operator = d1["operator"]
    perturbed_maps = (operator.maps[0].add(Matrix.from_rows([[1, 0], [0, 0], [0, 0], [0, 0]])), operator.maps[1])
    perturbed = TwistedRBFamily(cocycle=operator.cocycle, omega=operator.omega, maps=perturbed_maps)
    m = OperatorMorphism(
        source=operator, target=perturbed, psi=Matrix.identity(4), phi=Matrix.identity(2)
    )
    report = check_operator_morphism(m)
    assert not report.passed
    assert not report.law("psi o R_a = R'_a o phi").ok


def test_morphism_needs_same_omega(d1, d2):
    with pytest.raises(InputError):
        OperatorMorphism(
            source=d1["operator"],
            target=d2["operator"],
            psi=Matrix.identity(4),
            phi=Matrix.identity(2),
        )


# -- graph characterization ---------------------------------------------------


def test_graph_check_zero_family(d1):
    zero = TwistedRBFamily(
        cocycle=d1["cocycle"],
        omega=d1["omega"],
        maps=(Matrix.zero(4, 2), Matrix.zero(4, 2)),
    )
    assert graph_check(zero).passed


def test_graph_check_agrees_on_identity_family(d1):
    operator = d1["operator"]
    assert graph_check(operator).passed == check_twisted_rbf(operator).passed is True


def test_graph_check_fails_where_direct_fails():
    operator = d0_operator(1)
    direct = check_twisted_rbf(operator)
    graph = graph_check(operator)
    assert not direct.passed and not graph.passed
    containment = graph.law("Gr(R_a) . Gr(R_b) inside Gr(R_ab)")
    assert containment.violation_count == 1


def test_graph_agreement_on_random_candidates(d1):
    rng = random.Random(2024)
    grid = [Fraction(0), Fraction(1), Fraction(-1), Fraction(1, 2), Fraction(2)]
    for _ in range(25):
        maps = tuple(
            Matrix(4, 2, tuple(rng.choice(grid) for _ in range(8))) for _ in range(2)
        )
        cand = TwistedRBFamily(cocycle=d1["cocycle"], omega=d1["omega"], maps=maps)
        assert graph_check(cand).passed == check_twisted_rbf(cand).passed


# -- packings ------------------------------------------------------------------


def test_pack_trivial_omega_keeps_map():
    operator = d0_operator(0)
    packed = pack_operator(operator)
    assert packed.omega.size == 1
    assert packed.maps[0].entries == operator.maps[0].entries
    assert check_twisted_rbf(packed).passed


def test_pack_zero_is_zero(d1):
    zero = TwistedRBFamily(
        cocycle=d1["cocycle"],
        omega=d1["omega"],
        maps=(Matrix.zero(4, 2), Matrix.zero(4, 2)),
    )
    packed = pack_operator(zero)
    assert packed.maps[0].is_zero()
    assert check_twisted_rbf(packed).passed


def test_pack_identity_family_passes(d1):
    packed = pack_operator(d1["operator"])
    assert packed.omega.size == 1
    assert packed.bimodule.dim == 4 and packed.algebra.dim == 8
    assert check_twisted_rbf(packed).passed


def test_pack_rejects_failing_input():
    with pytest.raises(PreconditionError):
        pack_operator(d0_operator(1))


# -- Nijenhuis induced data -----------------------------------------------------


def test_nijenhuis_identity_reduces_to_plain_packing(d1):
    algebra, omega = d1["base_algebra"], d1["omega"]
    family = NijenhuisFamily(
        algebra=algebra, omega=omega, maps=(Matrix.identity(2), Matrix.identity(2))
    )
    data = nijenhuis_induced_data(family)
    packed, module, cocycle = tensor_semigroup_algebra(algebra, omega)
    assert data.algebra.mu.entries == packed.mu.entries
    assert data.module.left.entries == module.left.entries
    assert data.module.right.entries == module.right.entries
    assert data.cocycle.phi.entries == cocycle.phi.entries


def test_nijenhuis_zero_gives_zero_products(d1):
    family = NijenhuisFamily(
        algebra=d1["base_algebra"],
        omega=d1["omega"],
        maps=(Matrix.zero(2, 2), Matrix.zero(2, 2)),
    )
    data = nijenhuis_induced_data(family)
    assert data.algebra.mu.is_zero()
    assert data.cocycle.phi.is_zero()
    assert check_twisted_rbf(data.operator).passed


def test_nijenhuis_induced_outputs_pass_for_one_searched_family(nijenhuis_search):
    # the full loop over every searched family runs in the acceptance suite
    nontrivial = [
        f
        for f in nijenhuis_search
        if not all(m.is_identity() for m in f.maps) and not all(m.is_zero() for m in f.maps)
    ]
    family = nontrivial[0]
    data = nijenhuis_induced_data(family)
    assert check_hom_algebra(data.algebra).passed
    assert check_bimodule(data.module).passed
    assert check_two_cocycle(data.cocycle).passed
    assert check_twisted_rbf(data.operator).passed


def test_nijenhuis_induced_rejects_failing_input(d1):
    family = NijenhuisFamily(
        algebra=d1["base_algebra"],
        omega=d1["omega"],
        maps=(Matrix.identity(2), Matrix.zero(2, 2)),
    )
    with pytest.raises(PreconditionError):
        nijenhuis_induced_data(family)


# -- degenerations ---------------------------------------------------------------


def test_twist_free_families_match_independent_evaluator(d1):
    """With a vanishing cocycle the family law reduces to the twist-free one."""
    algebra = d1["base_algebra"]
    omega = d1["omega"]
    packed, module, _ = tensor_semigroup_algebra(algebra, omega)
    phi0 = zero_cocycle(module)
    rng = random.Random(99)
    grid = [Fraction(0), Fraction(1), Fraction(-1)]
    seen_pass = 0
    for k in range(40):
        if k == 0:
            maps = (Matrix.zero(4, 2), Matrix.zero(4, 2))
        else:
            maps = tuple(
                Matrix(4, 2, tuple(rng.choice(grid) for _ in range(8))) for _ in range(2)
            )
        cand = TwistedRBFamily(cocycle=phi0, omega=omega, maps=maps)
        verdict = check_twisted_rbf(cand).passed
        assert verdict == relative_family_law_holds(cand)
        seen_pass += verdict
    assert seen_pass >= 1


def test_trivial_omega_equals_single_operator_law(d1):
    """Families over the one-element semigroup satisfy the plain operator law."""
    algebra = d1["base_algebra"]
    trivial = builtin("trivial")
    packed, module, cocycle = tensor_semigroup_algebra(algebra, trivial)
    rng = random.Random(7)
    grid = [Fraction(0), Fraction(1), Fraction(-1), Fraction(1, 2)]
    for k in range(30):
        mat = Matrix(2, 2, tuple(rng.choice(grid) for _ in range(4)))
        cand = TwistedRBFamily(cocycle=cocycle, omega=trivial, maps=(mat,))
        # single-operator law spelled out inline, no family indexing
        ok = True
        for a, b in product(range(2), repeat=2):
            u, v = unit_vector(2, a), unit_vector(2, b)
            ru, rv = mat.apply(u), mat.apply(v)
            lhs = packed.product(ru, rv)
            inner = vadd(
                vadd(module.act_l(ru, v), module.act_r(u, rv)), cocycle.apply(ru, rv)
            )
            if lhs != tuple(mat.apply(inner)):
                ok = False
        # p = q = id here, so equivariance always holds; the family check
        # verdict must equal the inline single-operator law
        assert check_twisted_rbf(cand).passed == ok
