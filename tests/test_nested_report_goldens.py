"""Golden reports of nested-product laws that ``test_report_goldens`` leaves
unpinned.

A nested-product law is a signed sum of terms outer(first x, inner(y, z))
and outer(inner(x, y), last z), such as Hom-associativity or the bimodule
law p(x).l (u.r y) = (x.l u).r p(y).  The intertwining goldens never make
that mixed bimodule law fail, and none of them has residuals over the
truncated ring K[t]/(t^2).  Each case here pins the full ``to_dict()`` JSON
of one instance with such violations.  The goldens in
``goldens/nested_reports.json`` were frozen from the hand-written law
loops, before those laws moved onto ``reports.nested_cases``; a failure
here means a report changed, and the fix belongs in the code, not in the
golden file.
"""
import json
from dataclasses import replace
from pathlib import Path

import pytest

from rbfam.deformations import LinearDeformation, deform_ns_family
from rbfam.family import check_omega_bimodule, operator_bimodule
from rbfam.homalg import HomBimodule, check_bimodule, tensor_semigroup_algebra
from rbfam.linalg import Matrix, Tensor
from rbfam.operators import identity_packing_family
from rbfam.semigroups import builtin

GOLDEN_PATH = Path(__file__).parent / "goldens" / "nested_reports.json"
MAX = 3
LEFT_RIGHT = "p(x).l (u.r y) = (x.l u).r p(y)"
OMEGA_LEFT_RIGHT = "p(x) .l_a,bg (u .r_b,g y) = (x .l_ab u) .r_ab,g p(y)"


def _twisted_c2(tri):
    omega = builtin("cyclic", 2)
    _, _, cocycle = tensor_semigroup_algebra(tri, omega)
    return identity_packing_family(tri, omega, cocycle)


def _bimodule_left_right(ctx):
    # Left action the product, right action a rotated 0/1 tensor: the two
    # actions no longer commute up to p.
    tri = ctx["tri"]
    right = Tensor.from_function((3, 3, 3), lambda k, i, j: 1 if (k + 2 * i + j) % 3 == 0 else 0)
    module = HomBimodule(parent=tri, dim=3, left=tri.mu, right=right, q=tri.p)
    return check_bimodule(module, MAX)


def _omega_bimodule_left_right(ctx):
    # Doubling the (0, 0) left action breaks every law that compares it
    # with the (0, 1) action.
    module = operator_bimodule(ctx["op"])
    left = module.left
    return check_omega_bimodule(replace(module, left=((left[0][0].scale(2), left[0][1]), left[1])), MAX)


def _deform_d1(ctx):
    direction = (Matrix.from_rows([[1, 0], [0, 0], [0, 0], [0, 0]]), Matrix.zero(4, 2))
    deformation = LinearDeformation(base=ctx["d1"]["operator"], direction=direction)
    return deform_ns_family(deformation, strict=False, max_violations=MAX)


def _deform_twisted_c2(ctx):
    op = ctx["op"]
    deformation = LinearDeformation(base=op, direction=(op.maps[1], op.maps[1].scale(-1)))
    return deform_ns_family(deformation, strict=False, max_violations=MAX)


CASES = {
    "check_bimodule/left_right": _bimodule_left_right,
    "check_omega_bimodule/left_right": _omega_bimodule_left_right,
    "deform_ns_family/d1_non_cocycle": _deform_d1,
    "deform_ns_family/twisted_c2": _deform_twisted_c2,
}


@pytest.fixture(scope="module")
def ctx(d1, twisted_triangular_algebra):
    return {"d1": d1, "tri": twisted_triangular_algebra, "op": _twisted_c2(twisted_triangular_algebra)}


@pytest.fixture(scope="module")
def goldens():
    return json.loads(GOLDEN_PATH.read_text())


def report_json(report):
    # Key order is kept: it is the order in which render() prints a where-dict.
    return json.dumps(report.to_dict(), indent=1)


def _laws(golden):
    if "ns_axioms" in golden:
        return golden["ns_axioms"]["laws"] + golden["total_product"]["laws"]
    return golden["laws"]


def test_goldens_cover_every_case(goldens):
    assert sorted(goldens) == sorted(CASES)


def test_goldens_pin_the_unpinned_violations(goldens):
    for name in ("check_bimodule/left_right", "check_omega_bimodule/left_right"):
        law = LEFT_RIGHT if name.startswith("check_bimodule") else OMEGA_LEFT_RIGHT
        (pinned,) = [entry for entry in goldens[name]["laws"] if entry["law"] == law]
        assert pinned["violation_count"] and pinned["violations"]
    for name in ("deform_ns_family/d1_non_cocycle", "deform_ns_family/twisted_c2"):
        residuals = [
            c for law in _laws(goldens[name]) for v in law["violations"] for c in v["residual"]
        ]
        assert any("(mod t^2)" in c for c in residuals)


@pytest.mark.parametrize("name", sorted(CASES))
def test_nested_report_matches_golden(name, ctx, goldens):
    assert report_json(CASES[name](ctx)) == json.dumps(goldens[name], indent=1)
