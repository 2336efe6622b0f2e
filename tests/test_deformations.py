import random
from fractions import Fraction

import pytest

from rbfam.cohomology import differential_matrix, ha_complex, rbf_complex
from rbfam.deformations import (
    LinearDeformation,
    check_equivalence,
    check_infinitesimal,
    check_nijenhuis_element,
    deform_ns_family,
    rbf_delta0_matrices,
    rigidity_probe,
    trivialize_cocycle,
)
from rbfam.errors import InputError, MissingUnitError, PreconditionError
from rbfam.homalg import HomAlgebra, HomBimodule, regular_bimodule, tensor_semigroup_algebra, zero_cocycle
from rbfam.linalg import Matrix, Tensor, kernel_basis, unit_vector
from rbfam.operators import TwistedRBFamily, identity_packing_family
from rbfam.semigroups import builtin


def zero_deformation(operator, order=3):
    n, d = operator.algebra.dim, operator.bimodule.dim
    return LinearDeformation(
        base=operator, direction=(Matrix.zero(n, d),) * operator.omega.size, order=order
    )


def d0_operator():
    algebra = HomAlgebra(dim=1, mu=Tensor((1, 1, 1), (Fraction(1),)), p=Matrix.identity(1))
    module = regular_bimodule(algebra)
    return TwistedRBFamily(
        cocycle=zero_cocycle(module), omega=builtin("trivial"), maps=(Matrix.zero(1, 1),)
    )


def test_zero_direction_passes_everything(d1):
    deformation = zero_deformation(d1["operator"])
    report = check_infinitesimal(deformation)
    assert report.passed and report.order2.passed and report.cocycle_route_ok


def test_d0_any_direction_is_order_one_cocycle():
    operator = d0_operator()
    deformation = LinearDeformation(base=operator, direction=(Matrix(1, 1, (Fraction(1),)),))
    report = check_infinitesimal(deformation)
    # order 1 passes (the degree-1 differential vanishes identically) while
    # the order-2 coefficient obstructs: the flag stays separate
    assert report.passed
    assert report.cocycle_route_ok
    assert not report.order2.passed


def test_direction_must_be_equivariant(twisted_triangular_algebra):
    module = regular_bimodule(twisted_triangular_algebra)
    operator = TwistedRBFamily(
        cocycle=zero_cocycle(module), omega=builtin("trivial"), maps=(Matrix.zero(3, 3),)
    )
    bad = Matrix(3, 3, tuple(
        Fraction(1) if (i, j) == (0, 1) else Fraction(0) for i in range(3) for j in range(3)
    ))
    with pytest.raises(InputError):
        LinearDeformation(base=operator, direction=(bad,))


def test_order_one_matches_kernel_membership(d1, d1_handle):
    rng = random.Random(17)
    m1 = differential_matrix(d1_handle, 1)
    grid = [Fraction(0), Fraction(1), Fraction(-1), Fraction(1, 2)]
    for _ in range(20):
        direction = tuple(
            Matrix(4, 2, tuple(rng.choice(grid) for _ in range(8))) for _ in range(2)
        )
        deformation = LinearDeformation(base=d1["operator"], direction=direction)
        report = check_infinitesimal(deformation)
        coeffs = []
        for mat in direction:
            coeffs.extend(mat.entries)
        in_kernel = all(not c for c in m1.apply(tuple(coeffs)))
        assert report.passed == in_kernel == report.cocycle_route_ok


def test_deform_ns_family_zero_direction(d1):
    report = deform_ns_family(zero_deformation(d1["operator"]))
    assert report.passed
    assert report.ns_axioms.passed and report.total_product.passed


def test_deform_ns_family_non_cocycle_direction(d1):
    direction = (
        Matrix.from_rows([[1, 0], [0, 0], [0, 0], [0, 0]]),
        Matrix.zero(4, 2),
    )
    deformation = LinearDeformation(base=d1["operator"], direction=direction)
    with pytest.raises(PreconditionError):
        deform_ns_family(deformation)
    report = deform_ns_family(deformation, strict=False)
    assert not report.order1.passed
    assert not report.passed
    vee_law = report.ns_axioms.law(
        "p(x) >_a (y v_bg z) + p(x) v_a,bg (y*z) = (x v_ab y) <_g p(z) + (x*y) v_ab,g p(z)"
    )
    assert not vee_law.ok


def test_coboundary_directions_are_infinitesimal(twisted_triangular_algebra):
    """delta0 of any fixed element generates an order-1 deformation, on an
    instance where those coboundaries are genuinely nonzero."""
    from itertools import product

    from rbfam.homalg import tensor_semigroup_algebra
    from rbfam.operators import identity_packing_family
    from rbfam.semigroups import builtin

    omega = builtin("cyclic", 2)
    packed, _, cocycle = tensor_semigroup_algebra(twisted_triangular_algebra, omega)
    operator = identity_packing_family(twisted_triangular_algebra, omega, cocycle)
    handle = rbf_complex(operator, degree_cap=1)
    nonzero = 0
    for c in product((0, 1, -1), repeat=4):
        x = [Fraction(0)] * 6
        x[0], x[2], x[3], x[5] = (Fraction(v) for v in c)
        x = tuple(x)
        if packed.p.apply(x) != x:
            continue
        delta = rbf_delta0_matrices(handle, x)
        if all(m.is_zero() for m in delta):
            continue
        nonzero += 1
        deformation = LinearDeformation(base=operator, direction=tuple(delta))
        assert check_infinitesimal(deformation).passed
    assert nonzero > 0


def test_nijenhuis_coboundaries_are_infinitesimal(d1, d1_handle):
    """Every Nijenhuis element yields an order-1 deformation through delta0."""
    for i in range(4):
        x = unit_vector(4, i)
        assert check_nijenhuis_element(x, d1["operator"]).passed
        delta = rbf_delta0_matrices(d1_handle, x)
        deformation = LinearDeformation(base=d1["operator"], direction=tuple(delta))
        assert check_infinitesimal(deformation).passed


# -- Nijenhuis elements -----------------------------------------------------------


def test_zero_element_is_nijenhuis(d1):
    assert check_nijenhuis_element((0, 0, 0, 0), d1["operator"]).passed


def test_every_element_is_nijenhuis_on_the_scalar_line():
    operator = d0_operator()
    for value in (Fraction(0), Fraction(1), Fraction(-7, 3)):
        assert check_nijenhuis_element((value,), operator).passed


def test_central_idempotent_on_d1(d1):
    # e0 (x) alpha0 is a central idempotent of the packed algebra
    assert check_nijenhuis_element(unit_vector(4, 0), d1["operator"]).passed


def test_matrix_units_break_the_square_law(matrix_algebra_operator):
    # basis order (E11, E12, E21, E22); x = E12 has [x,E21][x,E21] != 0
    x = unit_vector(4, 1)
    report = check_nijenhuis_element(x, matrix_algebra_operator)
    assert not report.passed
    law = report.law("(x.a).(x.b) - (x.a).(b.x) - (a.x).(x.b) + (a.x).(b.x) = 0")
    assert not law.ok


def test_wrong_length_rejected(d1, d1_handle):
    with pytest.raises(InputError):
        check_nijenhuis_element((Fraction(1),), d1["operator"])
    with pytest.raises(InputError):
        rbf_delta0_matrices(d1_handle, (1,))


# -- equivalence ----------------------------------------------------------------


def test_identity_equivalence(d1):
    deformation = zero_deformation(d1["operator"])
    report = check_equivalence(deformation, deformation, (0, 0, 0, 0))
    assert report.passes_mod_t2 and report.passes_all_orders


def test_nijenhuis_element_gives_trivial_equivalence(d1, d1_handle):
    operator = d1["operator"]
    x = unit_vector(4, 2)
    assert check_nijenhuis_element(x, operator).passed
    delta = rbf_delta0_matrices(d1_handle, x)
    deformation = LinearDeformation(base=operator, direction=tuple(delta))
    trivial = zero_deformation(operator)
    report = check_equivalence(deformation, trivial, x)
    assert report.passes_mod_t2
    assert report.conditions.law("R1 - R1bar = delta0(x) entrywise").ok


def test_non_nijenhuis_element_obstructs_at_order_two(matrix_algebra_operator):
    operator = matrix_algebra_operator
    x = unit_vector(4, 1)  # E12: fails the square law
    deformation = zero_deformation(operator)
    report = check_equivalence(deformation, deformation, x)
    assert report.passes_mod_t2  # order-t conditions hold in the associative case
    assert not report.passes_all_orders
    assert not report.conditions.law("(i) psi^t multiplicative @ t^2").ok


def test_equivalence_requires_fixed_element(twisted_triangular_algebra):
    module = regular_bimodule(twisted_triangular_algebra)
    operator = TwistedRBFamily(
        cocycle=zero_cocycle(module), omega=builtin("trivial"), maps=(Matrix.zero(3, 3),)
    )
    deformation = zero_deformation(operator)
    # e1 is scaled by the structure map, not fixed
    with pytest.raises(PreconditionError):
        check_equivalence(deformation, deformation, unit_vector(3, 1))


def test_equivalence_requires_same_base(d1, d2):
    with pytest.raises(InputError):
        check_equivalence(
            zero_deformation(d1["operator"]),
            zero_deformation(d2["operator"]),
            (0, 0, 0, 0),
        )


# -- trivialization ----------------------------------------------------------------


def test_trivialize_zero_cocycle(d1):
    operator = d1["operator"]
    zero_maps = [Matrix.zero(4, 2), Matrix.zero(4, 2)]
    result = trivialize_cocycle(operator, zero_maps)
    assert result.found
    assert result.solution == (0, 0, 0, 0)
    # delta0 vanishes identically on the commutative packed data, so the
    # whole fixed-point space solves the system
    assert len(result.kernel) == 4
    assert result.solution_nijenhuis
    assert result.witness == (0, 0, 0, 0)


def test_trivialize_reports_nontrivial_class():
    operator = d0_operator()
    result = trivialize_cocycle(operator, [Matrix(1, 1, (Fraction(1),))])
    assert not result.found


def test_trivialize_rejects_non_cocycle(d1):
    bad = [Matrix.from_rows([[1, 0], [0, 0], [0, 0], [0, 0]]), Matrix.zero(4, 2)]
    with pytest.raises(InputError):
        trivialize_cocycle(d1["operator"], bad)


def test_trivialize_rejects_ha_cochain(d1):
    f = ha_complex(d1["algebra"], d1["bimodule"]).basis(1)[0]
    with pytest.raises(InputError, match="twisted-family cochain"):
        trivialize_cocycle(d1["operator"], f)


@pytest.mark.parametrize("count", [1, 3])
def test_trivialize_rejects_wrong_matrix_count(d1, count):
    # D1 is indexed by the two elements of C2.
    with pytest.raises(InputError, match="one direction matrix per semigroup element is required"):
        trivialize_cocycle(d1["operator"], [Matrix.zero(4, 2)] * count)


# -- rigidity ------------------------------------------------------------------------


def test_rigidity_zero_module_is_vacuously_met(d1):
    algebra = d1["base_algebra"]
    module = HomBimodule(
        parent=algebra,
        dim=0,
        left=Tensor.zero((0, 2, 0)),
        right=Tensor.zero((0, 0, 2)),
        q=Matrix.zero(0, 0),
    )
    operator = TwistedRBFamily(
        cocycle=zero_cocycle(module), omega=builtin("trivial"), maps=(Matrix.zero(2, 0),)
    )
    report = rigidity_probe(operator)
    assert report.verdict == "sufficient condition met"
    assert report.dims.dim_z == 0


def test_rigidity_inconclusive_on_scalar_line():
    operator = d0_operator()
    report = rigidity_probe(operator)
    assert report.verdict == "inconclusive"
    assert report.dims.dim_h == 1
    assert not report.outcomes[0]["trivialized"]


def test_rigidity_d1(d1):
    report = rigidity_probe(d1["operator"])
    assert report.verdict == "sufficient condition met"
    assert report.dims.dim_z == 0


def test_rigidity_without_a_unit_trivializes_nothing(d1):
    # Over left_zero(2) the complex starts at degree 1: B^1 = 0, so each of
    # the four cocycles is reported untrivialized, while trivialize_cocycle,
    # which asks for delta0, still refuses.
    base, omega = d1["base_algebra"], builtin("left_zero", 2)
    operator = identity_packing_family(base, omega, tensor_semigroup_algebra(base, omega)[2])
    report = rigidity_probe(operator)
    assert tuple(report.dims) == (16, 4, 0, 4)
    assert report.outcomes == ({"trivialized": False, "nijenhuis": False, "witness": None},) * 4
    assert report.verdict == "inconclusive"
    assert "the semigroup has no unit: the complex starts at degree 1, so B^1 = 0" in report.notes
    handle = rbf_complex(operator)
    cocycle = handle.unflatten(1, handle.combine(1, kernel_basis(differential_matrix(handle, 1))[0]))
    with pytest.raises(MissingUnitError):
        trivialize_cocycle(operator, cocycle)
