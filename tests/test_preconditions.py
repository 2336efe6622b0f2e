"""Every construction checks its inputs once per object, through one path.

A failing precondition raises ``PreconditionError`` with a pinned message
and the failing report; a pass is cached per object, so an object handed to
several constructions is checked once; a failure is never cached.
"""
import json
import re
import sys
from collections import Counter
from dataclasses import replace
from fractions import Fraction

import pytest

from rbfam import reports
from rbfam.cli import main
from rbfam.cohomology import ha_complex, omega_complex, rbf_complex, transport_cochain
from rbfam.deformations import (
    LinearDeformation,
    check_equivalence,
    check_infinitesimal,
    deform_ns_family,
    rigidity_probe,
    trivialize_cocycle,
)
from rbfam.errors import PreconditionError
from rbfam.family import (
    HomNSAlgebra,
    ns_family_from_operator,
    ns_family_from_tridend,
    ns_family_pack,
    omega_assoc_from_ns_family,
    operator_bimodule,
    total_product_algebra,
    tridend_from_weighted_rbf,
    yau_twist_ns_family,
)
from rbfam.homalg import (
    HomAlgebra,
    HomBimodule,
    TwoCocycle,
    check_bimodule,
    check_hom_algebra,
    check_two_cocycle,
    regular_bimodule,
    semidirect_product,
    tensor_bimodule,
    tensor_semigroup_algebra,
    zero_cocycle,
)
from rbfam.linalg import Matrix, Tensor
from rbfam.operators import (
    NijenhuisFamily,
    OperatorMorphism,
    WeightedRBFamily,
    check_twisted_rbf,
    graph_check,
    nijenhuis_induced_data,
    pack_operator,
)
from rbfam.workspace import desk_instance, dump_workspace


@pytest.fixture()
def fresh_cache(monkeypatch):
    """An empty validation cache for the test, the shared one restored after."""
    cache = {}
    monkeypatch.setattr(reports, "_VALIDATION_CACHE", cache)
    return cache


def count_runs(monkeypatch, *functions):
    """Count the calls of each function through every rbfam module binding it."""
    counts = Counter()
    for fn in functions:
        def counted(*args, _fn=fn, **kwargs):
            counts[_fn.__name__] += 1
            return _fn(*args, **kwargs)

        for module in list(sys.modules.values()):
            if getattr(module, "__name__", "").startswith("rbfam") and getattr(
                module, fn.__name__, None
            ) is fn:
                monkeypatch.setattr(module, fn.__name__, counted)
    return counts


HOST_CHECKERS = (check_hom_algebra, check_bimodule, check_two_cocycle, check_twisted_rbf)


# -- one check per object ---------------------------------------------------------


def test_graph_check_checks_the_cocycle_once(fresh_cache, monkeypatch):
    operator = desk_instance("D1")["operator"]
    counts = count_runs(monkeypatch, *HOST_CHECKERS)
    assert graph_check(operator).passed
    assert counts == {"check_hom_algebra": 1, "check_bimodule": 1, "check_two_cocycle": 1}


def test_pack_operator_checks_each_host_once(fresh_cache, monkeypatch):
    operator = desk_instance("D1")["operator"]
    counts = count_runs(monkeypatch, *HOST_CHECKERS)
    pack_operator(operator)
    assert counts == {
        "check_hom_algebra": 1,
        "check_bimodule": 1,
        "check_two_cocycle": 1,
        "check_twisted_rbf": 1,
    }


def test_constructions_share_one_check_of_the_operator(fresh_cache, monkeypatch):
    operator = desk_instance("D1")["operator"]
    counts = count_runs(monkeypatch, *HOST_CHECKERS)
    pack_operator(operator)
    graph_check(operator)
    ns_family_from_operator(operator)
    operator_bimodule(operator)
    rbf_complex(operator)
    assert set(counts.values()) == {1}
    assert len(counts) == len(HOST_CHECKERS)


def test_failures_are_never_cached(fresh_cache, monkeypatch):
    bad = _bad_algebra()
    counts = count_runs(monkeypatch, check_hom_algebra)
    for _ in range(2):
        with pytest.raises(PreconditionError):
            regular_bimodule(bad)
    assert counts["check_hom_algebra"] == 2
    assert id(bad) not in fresh_cache


def _zero_deformation(operator):
    n, d = operator.algebra.dim, operator.bimodule.dim
    return LinearDeformation(base=operator, direction=(Matrix.zero(n, d),) * operator.omega.size)


def test_check_equivalence_builds_one_complex_handle(monkeypatch):
    # Both order-1 checks and the coboundary law share one handle, and so
    # one operator bimodule.
    deformation = _zero_deformation(desk_instance("D1")["operator"])
    counts = count_runs(monkeypatch, rbf_complex, operator_bimodule)
    assert check_equivalence(deformation, deformation, (0, 0, 1, 0)).passes_mod_t2
    assert counts == {"rbf_complex": 1, "operator_bimodule": 1}


def test_trivialize_cocycle_builds_one_operator_bimodule(monkeypatch):
    # The Nijenhuis-element checks of the solution and of both shifts along
    # each of the four kernel vectors read the actions off the one handle.
    operator = desk_instance("D1")["operator"]
    zero_maps = [Matrix.zero(4, 2)] * 2
    counts = count_runs(monkeypatch, rbf_complex, operator_bimodule)
    result = trivialize_cocycle(operator, zero_maps)
    assert result.found and len(result.kernel) == 4
    assert counts == {"rbf_complex": 1, "operator_bimodule": 1}


def test_each_call_assembles_one_complex_per_family(monkeypatch):
    # Each public call derives the complex from its operator once and reuses
    # it inside the call; transport needs one per end of the morphism.
    operator = desk_instance("D1")["operator"]
    zero = _zero_deformation(operator)
    identity = OperatorMorphism(
        source=operator, target=operator, psi=Matrix.identity(4), phi=Matrix.identity(2)
    )
    f = rbf_complex(operator).basis(1)[5]
    calls = {
        "check_infinitesimal": (lambda: check_infinitesimal(zero), 1),
        "deform_ns_family": (lambda: deform_ns_family(zero), 1),
        "check_equivalence": (lambda: check_equivalence(zero, zero, (0, 0, 0, 0)), 1),
        "trivialize_cocycle": (lambda: trivialize_cocycle(operator, [Matrix.zero(4, 2)] * 2), 1),
        "rigidity_probe": (lambda: rigidity_probe(desk_instance("D0")["operator"]), 1),
        "transport_cochain": (lambda: transport_cochain(identity, f), 2),
    }
    counts = count_runs(monkeypatch, rbf_complex)
    results = {}
    for name, (call, expected) in calls.items():
        counts.clear()
        results[name] = call()
        assert counts["rbf_complex"] == expected, name
    # dim Z^1 = 1 on D0, so the probe trivialized one cocycle on its complex.
    assert results["rigidity_probe"].dims.dim_z == 1


def test_rbf_complex_reuses_the_bimodule_parent(d1):
    handle = rbf_complex(d1["operator"])
    assert handle.omega_module.parent is handle.omega_algebra
    assert handle.omega_algebra == omega_assoc_from_ns_family(ns_family_from_operator(d1["operator"]))


# -- every construction rejects a failing input ------------------------------------


def _bad_algebra():
    mu = Tensor.from_nested([[[1, 0], [0, 1]], [[0, 1], [1, 0]]], 3)
    return HomAlgebra(dim=2, mu=mu, p=Matrix.from_rows([[1, 0], [0, 2]]))


def _bad_bimodule():
    """D0's regular bimodule with the left action doubled (as in D0.json with left [[["2"]]])."""
    algebra = HomAlgebra(dim=1, mu=Tensor((1, 1, 1), (Fraction(1),)), p=Matrix.identity(1))
    return replace(regular_bimodule(algebra), left=Tensor((1, 1, 1), (Fraction(2),)))


def _semidirect_over_bad_algebra():
    """The 0-dimensional bimodule, whose laws hold over any algebra, with its zero cocycle."""
    algebra = _bad_algebra()
    module = HomBimodule(
        parent=algebra,
        dim=0,
        left=Tensor.zero((0, algebra.dim, 0)),
        right=Tensor.zero((0, 0, algebra.dim)),
        q=Matrix.zero(0, 0),
    )
    return semidirect_product(module, zero_cocycle(module))


def _bad_cocycle(d1):
    module = d1["bimodule"]
    shape = (module.dim, module.parent.dim, module.parent.dim)
    return TwoCocycle(host=module, phi=Tensor.from_function(shape, lambda *kij: int(kij == (0, 0, 0))))


def _bad_operator(d1):
    operator = d1["operator"]
    return replace(operator, maps=tuple(m.scale(2) for m in operator.maps))


def _bad_ns_family(d1):
    family = ns_family_from_operator(d1["operator"])
    return replace(family, p=family.p.scale(2))


def _weighted(d1, weight):
    return WeightedRBFamily(d1["base_algebra"], d1["omega"], weight, (Matrix.identity(2),) * 2)


def _bad_tridend(d1):
    family = tridend_from_weighted_rbf(_weighted(d1, Fraction(-1)))
    return replace(family, dot=family.dot.scale(2))


def _bad_morphism(d1):
    operator = d1["operator"]
    n, d = operator.algebra.dim, operator.bimodule.dim
    return OperatorMorphism(operator, operator, Matrix.identity(n).scale(2), Matrix.identity(d))


def _bad_total(d1):
    total = omega_assoc_from_ns_family(ns_family_from_operator(d1["operator"]))
    return replace(total, p=total.p.scale(2))


def _bad_operator_module(d1):
    module = operator_bimodule(d1["operator"])
    return replace(module, q=module.q.scale(2))


# (construction call on D1's objects, pinned subject of the failing check)
CASES = {
    "regular_bimodule": (lambda d1: regular_bimodule(_bad_algebra()), "hom-algebra"),
    "semidirect_product-algebra": (lambda d1: _semidirect_over_bad_algebra(), "hom-algebra"),
    "semidirect_product-bimodule": (
        lambda d1: semidirect_product(_bad_bimodule(), zero_cocycle(_bad_bimodule())),
        "hom-bimodule",
    ),
    "semidirect_product-cocycle": (
        lambda d1: semidirect_product(d1["bimodule"], _bad_cocycle(d1)),
        "two-cocycle",
    ),
    "tensor_semigroup_algebra": (
        lambda d1: tensor_semigroup_algebra(_bad_algebra(), d1["omega"]),
        "hom-algebra",
    ),
    "tensor_bimodule-bimodule": (
        lambda d1: tensor_bimodule(zero_cocycle(_bad_bimodule()), d1["omega"]),
        "hom-bimodule",
    ),
    "tensor_bimodule-cocycle": (
        lambda d1: tensor_bimodule(_bad_cocycle(d1), d1["omega"]),
        "two-cocycle",
    ),
    "pack_operator": (lambda d1: pack_operator(_bad_operator(d1)), "twisted Rota-Baxter family"),
    "nijenhuis_induced_data": (
        lambda d1: nijenhuis_induced_data(
            NijenhuisFamily(d1["base_algebra"], d1["omega"], (Matrix.identity(2), Matrix.zero(2, 2)))
        ),
        "Nijenhuis family",
    ),
    "transport_cochain": (
        lambda d1: transport_cochain(_bad_morphism(d1), rbf_complex(d1["operator"]).basis(1)[0]),
        "operator morphism",
    ),
    "ns_family_from_operator": (
        lambda d1: ns_family_from_operator(_bad_operator(d1)),
        "twisted Rota-Baxter family",
    ),
    "operator_bimodule": (
        lambda d1: operator_bimodule(_bad_operator(d1)),
        "twisted Rota-Baxter family",
    ),
    "rbf_complex": (lambda d1: rbf_complex(_bad_operator(d1)), "twisted Rota-Baxter family"),
    "check_infinitesimal": (
        lambda d1: check_infinitesimal(_zero_deformation(_bad_operator(d1))),
        "base twisted Rota-Baxter family",
    ),
    "check_equivalence": (
        lambda d1: check_equivalence(
            _zero_deformation(_bad_operator(d1)), _zero_deformation(_bad_operator(d1)), (0,) * 4
        ),
        "base twisted Rota-Baxter family",
    ),
    "ns_family_pack": (lambda d1: ns_family_pack(_bad_ns_family(d1)), "Hom-NS family algebra"),
    "omega_assoc_from_ns_family": (
        lambda d1: omega_assoc_from_ns_family(_bad_ns_family(d1)),
        "Hom-NS family algebra",
    ),
    "yau_twist_ns_family-family": (
        lambda d1: yau_twist_ns_family(_bad_ns_family(d1), Matrix.identity(2)),
        "Hom-NS family algebra",
    ),
    "yau_twist_ns_family-endomorphism": (
        lambda d1: yau_twist_ns_family(
            ns_family_from_operator(d1["operator"]), Matrix.identity(2).scale(2)
        ),
        "structure-preserving endomorphism",
    ),
    "tridend_from_weighted_rbf": (
        lambda d1: tridend_from_weighted_rbf(_weighted(d1, Fraction(0))),
        "weighted Rota-Baxter family",
    ),
    "ns_family_from_tridend": (
        lambda d1: ns_family_from_tridend(_bad_tridend(d1)),
        "Hom-tridendriform family algebra",
    ),
    "total_product_algebra": (
        lambda d1: total_product_algebra(
            HomNSAlgebra(
                1, Tensor((1, 1, 1), (Fraction(1),)), Tensor((1, 1, 1), (Fraction(1),)),
                Tensor.zero((1, 1, 1)), Matrix.identity(1),
            )
        ),
        "Hom-NS algebra",
    ),
    "ha_complex-algebra": (
        lambda d1: ha_complex(_bad_algebra(), regular_bimodule(d1["algebra"])),
        "hom-algebra",
    ),
    "ha_complex-bimodule": (
        lambda d1: ha_complex(_bad_bimodule().parent, _bad_bimodule()),
        "hom-bimodule",
    ),
    "omega_complex-algebra": (
        lambda d1: omega_complex(_bad_total(d1), operator_bimodule(d1["operator"])),
        "pair-indexed algebra",
    ),
    "omega_complex-bimodule": (
        lambda d1: omega_complex(_bad_operator_module(d1).parent, _bad_operator_module(d1)),
        "pair-indexed bimodule",
    ),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_construction_rejects_failing_input(case, d1):
    build, subject = CASES[case]
    with pytest.raises(PreconditionError, match=f"^{re.escape(subject)} fails its axiom check$") as exc:
        build(d1)
    assert exc.value.report is not None and not exc.value.report.passed


# -- the command line --------------------------------------------------------------


@pytest.fixture()
def broken_d0_file(tmp_path):
    data = json.loads(dump_workspace(desk_instance("D0")))
    data["objects"]["bimodule"]["left"] = [[["2"]]]
    path = tmp_path / "D0_broken.json"
    path.write_text(json.dumps(data))
    return str(path)


def test_cli_semidirect_rejects_failing_bimodule(broken_d0_file, capsys):
    assert main(["check", broken_d0_file, "--object", "bimodule"]) == 1
    capsys.readouterr()
    code = main(["induce", broken_d0_file, "--object", "cocycle", "--what", "semidirect"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert "precondition failed: hom-bimodule fails its axiom check" in captured.err
