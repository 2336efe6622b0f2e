"""Golden reports of instances with violations, for every checker with an
intertwining law ``out o T = T' o (in x ... x in)``.

Each case pins the full ``to_dict()`` JSON of one such instance, with a
small ``max_violations`` so that the order of the first violations, their
where-keys and their residuals are pinned as well as the counts.  The
goldens in ``goldens/intertwining_reports.json`` were frozen from the
hand-written law loops, before those laws moved onto
``reports.intertwining_cases``; a failure here means a report changed, and
the fix belongs in the code, not in the golden file.
"""
import json
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest

from rbfam.deformations import LinearDeformation, check_equivalence
from rbfam.family import (
    HomNSAlgebra,
    HomTridendFamily,
    check_hom_ns,
    check_hom_ns_family,
    check_ns_family_morphism,
    check_ns_morphism,
    check_omega_assoc,
    check_omega_bimodule,
    check_tridend_family,
    ns_family_from_operator,
    omega_assoc_from_ns_family,
    operator_bimodule,
)
from rbfam.homalg import (
    AlgebraMorphism,
    HomAlgebra,
    HomBimodule,
    TwoCocycle,
    check_algebra_morphism,
    check_bimodule,
    check_hom_algebra,
    check_two_cocycle,
    regular_bimodule,
    tensor_semigroup_algebra,
    zero_cocycle,
)
from rbfam.linalg import Matrix, Tensor, block_diag, unit_vector
from rbfam.operators import (
    NijenhuisFamily,
    OperatorMorphism,
    TwistedRBFamily,
    WeightedRBFamily,
    check_nijenhuis_family,
    check_operator_morphism,
    check_twisted_rbf,
    check_weighted_rbf,
    identity_packing_family,
)
from rbfam.semigroups import builtin

GOLDEN_PATH = Path(__file__).parent / "goldens" / "intertwining_reports.json"
MAX = 3

# A 3x3 map that neither commutes with p = diag(1, 2, 1) nor preserves the
# twisted triangular product, and a dense 3x3 map for the morphisms.
SHEAR = Matrix.from_rows([[1, 1, 0], [0, 2, 0], [0, 0, 1]])
DENSE = Matrix.from_rows([[1, 2, 0], [0, 1, Fraction(1, 2)], [1, 0, -1]])


def _block_map(mat, copies):
    return block_diag([mat] * copies)


def _twisted_c2(tri):
    omega = builtin("cyclic", 2)
    _, _, cocycle = tensor_semigroup_algebra(tri, omega)
    return identity_packing_family(tri, omega, cocycle)


def _hom_algebra(ctx):
    tri = ctx["tri"]
    return check_hom_algebra(HomAlgebra(dim=3, mu=tri.mu, p=SHEAR), MAX)


def _bimodule(ctx):
    tri = ctx["tri"]
    module = HomBimodule(parent=tri, dim=3, left=tri.mu, right=tri.mu, q=Matrix.identity(3))
    return check_bimodule(module, MAX)


def _two_cocycle_not_equivariant(ctx):
    module = regular_bimodule(ctx["tri"])
    phi = Tensor.from_function((3, 3, 3), lambda k, i, j: 1 if (k + i + 2 * j) % 3 == 0 else 0)
    return check_two_cocycle(TwoCocycle(host=module, phi=phi), MAX)


def _two_cocycle_equivariant(ctx):
    # phi(E11, E11) = E22 commutes with q = p = diag(1, 2, 1) but is no cocycle.
    phi = Tensor.from_function((3, 3, 3), lambda k, i, j: 1 if (k, i, j) == (2, 0, 0) else 0)
    return check_two_cocycle(TwoCocycle(host=regular_bimodule(ctx["tri"]), phi=phi), MAX)


def _algebra_morphism(ctx):
    tri = ctx["tri"]
    return check_algebra_morphism(AlgebraMorphism(source=tri, target=tri, psi=DENSE), MAX)


def _ns_algebra(ctx):
    tri = ctx["tri"]
    ns = HomNSAlgebra(dim=3, prec=tri.mu, succ=tri.mu.scale(2), vee=tri.mu.neg(), p=SHEAR)
    return check_hom_ns(ns, MAX)


def _ns_family(ctx):
    fam = ns_family_from_operator(ctx["op"])
    return check_hom_ns_family(replace(fam, p=SHEAR), MAX)


def _tridend_family(ctx):
    fam = ns_family_from_operator(ctx["op"])
    tri = HomTridendFamily(
        dim=3, omega=fam.omega, prec=fam.prec, succ=fam.succ, dot=ctx["tri"].mu, p=SHEAR
    )
    return check_tridend_family(tri, MAX)


def _omega_assoc(ctx):
    total = omega_assoc_from_ns_family(ns_family_from_operator(ctx["op"]))
    return check_omega_assoc(replace(total, p=SHEAR), MAX)


def _omega_bimodule(ctx):
    module = operator_bimodule(ctx["op"])
    return check_omega_bimodule(replace(module, q=_block_map(SHEAR, 2)), MAX)


def _ns_family_morphism(ctx):
    fam = ns_family_from_operator(ctx["op"])
    return check_ns_family_morphism(DENSE, fam, fam, max_violations=6)


def _ns_morphism(ctx):
    tri = ctx["tri"]
    ns = HomNSAlgebra(dim=3, prec=tri.mu, succ=tri.mu.scale(2), vee=tri.mu.neg(), p=tri.p)
    return check_ns_morphism(DENSE, ns, ns, max_violations=4)


def _twisted_rbf(ctx):
    op = ctx["op"]
    maps = (op.maps[0].add(op.maps[1]), op.maps[1].scale(2).sub(op.maps[0]))
    maps = tuple(m.mul(SHEAR) for m in maps)
    return check_twisted_rbf(replace(op, maps=maps), MAX)


def _nijenhuis_family(ctx):
    fam = NijenhuisFamily(algebra=ctx["tri"], omega=builtin("cyclic", 2), maps=(SHEAR, DENSE))
    return check_nijenhuis_family(fam, MAX)


def _weighted_rbf(ctx):
    fam = WeightedRBFamily(
        algebra=ctx["tri"], omega=builtin("cyclic", 2), weight=Fraction(1, 2), maps=(DENSE, SHEAR)
    )
    return check_weighted_rbf(fam, MAX)


def _operator_morphism_d1(ctx):
    op = ctx["d1"]["operator"]
    psi = Matrix.from_rows([[1, 1, 0, 0], [0, 1, 0, 0], [0, 0, 2, 0], [1, 0, 0, 1]])
    phi = Matrix.from_rows([[0, 1], [1, 1]])
    return check_operator_morphism(OperatorMorphism(source=op, target=op, psi=psi, phi=phi), MAX)


def _operator_morphism_twisted(ctx):
    op = ctx["op"]
    psi = _block_map(DENSE, 2)
    return check_operator_morphism(OperatorMorphism(source=op, target=op, psi=psi, phi=SHEAR), MAX)


def _zero_deformation(op):
    n, d = op.algebra.dim, op.bimodule.dim
    return LinearDeformation(base=op, direction=(Matrix.zero(n, d),) * op.omega.size)


def _equivalence_non_nijenhuis(ctx):
    op = ctx["matrix_op"]
    deformation = _zero_deformation(op)
    return check_equivalence(deformation, deformation, unit_vector(4, 1), max_violations=MAX)


def _equivalence_directions_differ(ctx):
    # On the zero operator every equivariant direction passes order 1, and
    # this one differs from the zero direction by no coboundary.
    op = ctx["matrix_op"]
    direction = Matrix.from_rows([[0, 1, 0, 0], [0, 0, 0, 0], [0, 0, 0, 2], [1, 0, 0, 0]])
    other = LinearDeformation(base=op, direction=(direction,))
    x = unit_vector(4, 3)
    return check_equivalence(_zero_deformation(op), other, x, max_violations=MAX)


def _equivalence_twisted(ctx):
    module = regular_bimodule(ctx["tri"])
    op = TwistedRBFamily(cocycle=zero_cocycle(module), omega=builtin("trivial"), maps=(Matrix.zero(3, 3),))
    swap = Matrix.from_rows([[0, 0, 1], [0, 1, 0], [1, 0, 0]])
    other = LinearDeformation(base=op, direction=(swap,))
    return check_equivalence(_zero_deformation(op), other, unit_vector(3, 0), max_violations=MAX)


CASES = {
    "check_hom_algebra": _hom_algebra,
    "check_bimodule": _bimodule,
    "check_two_cocycle/not_equivariant": _two_cocycle_not_equivariant,
    "check_two_cocycle/equivariant": _two_cocycle_equivariant,
    "check_algebra_morphism": _algebra_morphism,
    "check_hom_ns": _ns_algebra,
    "check_hom_ns_family": _ns_family,
    "check_tridend_family": _tridend_family,
    "check_omega_assoc": _omega_assoc,
    "check_omega_bimodule": _omega_bimodule,
    "check_ns_family_morphism": _ns_family_morphism,
    "check_ns_morphism": _ns_morphism,
    "check_twisted_rbf": _twisted_rbf,
    "check_nijenhuis_family": _nijenhuis_family,
    "check_weighted_rbf": _weighted_rbf,
    "check_operator_morphism/d1": _operator_morphism_d1,
    "check_operator_morphism/twisted_c2": _operator_morphism_twisted,
    "check_equivalence/non_nijenhuis_element": _equivalence_non_nijenhuis,
    "check_equivalence/directions_differ": _equivalence_directions_differ,
    "check_equivalence/twisted_triangular": _equivalence_twisted,
}


@pytest.fixture(scope="module")
def ctx(d1, twisted_triangular_algebra, matrix_algebra_operator):
    return {
        "d1": d1,
        "tri": twisted_triangular_algebra,
        "op": _twisted_c2(twisted_triangular_algebra),
        "matrix_op": matrix_algebra_operator,
    }


@pytest.fixture(scope="module")
def goldens():
    return json.loads(GOLDEN_PATH.read_text())


def report_json(report):
    # Key order is kept: it is the order in which render() prints a where-dict.
    return json.dumps(report.to_dict(), indent=1)


def test_goldens_cover_every_case(goldens):
    assert sorted(goldens) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_matches_golden(name, ctx, goldens):
    golden = goldens[name]
    laws = golden["conditions"]["laws"] if "conditions" in golden else golden["laws"]
    assert any(law["violation_count"] for law in laws)
    assert report_json(CASES[name](ctx)) == json.dumps(golden, indent=1)
