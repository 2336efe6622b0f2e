import json
import time
from fractions import Fraction
from pathlib import Path

import pytest

from rbfam.cli import main
from rbfam.errors import InputError
from rbfam.homalg import HomAlgebra, HomBimodule, regular_bimodule, tensor_semigroup_algebra
from rbfam.linalg import Matrix, Tensor
from rbfam.operators import identity_packing_family
from rbfam.semigroups import builtin
from rbfam.workspace import DESK_NAMES, _Names, desk_instance, dump_workspace, load_workspace


@pytest.fixture()
def d1_file(tmp_path):
    path = tmp_path / "D1.json"
    dump_workspace(desk_instance("D1"), path)
    return str(path)


@pytest.fixture()
def d0_file(tmp_path):
    path = tmp_path / "D0.json"
    dump_workspace(desk_instance("D0"), path)
    return str(path)


# -- round trips -----------------------------------------------------------------


@pytest.mark.parametrize("name", DESK_NAMES)
def test_desk_round_trip(name):
    named = desk_instance(name)
    text = dump_workspace(named)
    ws = load_workspace(text)
    for obj_name, obj in named.items():
        assert ws.get(obj_name) == obj
    assert dump_workspace({n: ws.get(n) for n in named}) == text


def test_deformation_and_candidate_round_trip(d1_file):
    data = json.loads(Path(d1_file).read_text())
    zeros = [["0", "0"]] * 4
    data["objects"]["D"] = {
        "kind": "deformation",
        "base": "operator",
        "direction": {"0": zeros, "1": zeros},
        "order": 3,
        "other": "Dbar",
        "element": ["0", "0", "1", "0"],
    }
    data["objects"]["Dbar"] = {
        "kind": "deformation",
        "base": "operator",
        "direction": {"0": zeros, "1": zeros},
        "order": 3,
    }
    data["objects"]["x"] = {
        "kind": "nijenhuis_candidate",
        "operator": "operator",
        "vector": ["1", "0", "0", "0"],
    }
    ws = load_workspace(data)
    doc = ws.get("D")
    assert doc.other == "Dbar" and doc.element == (0, 0, Fraction(1), 0)
    named = {n: ws.get(n) for n in data["objects"]}
    again = load_workspace(json.loads(dump_workspace(named)))
    assert again.get("x") == ws.get("x")
    assert again.get("D") == ws.get("D")


def test_induced_objects_round_trip(d1):
    from rbfam.family import ns_family_from_operator, omega_assoc_from_ns_family, operator_bimodule

    family = ns_family_from_operator(d1["operator"])
    total = omega_assoc_from_ns_family(family)
    module = operator_bimodule(d1["operator"])
    named = {
        "omega": d1["omega"],
        "fam": family,
        "total": total,
        "module": module,
    }
    ws = load_workspace(json.loads(dump_workspace(named)))
    assert ws.get("fam") == family
    assert ws.get("total") == total
    assert ws.get("module") == module


def test_cochain_round_trip(d1_file):
    data = json.loads(Path(d1_file).read_text())
    zeros = [["0", "0"]] * 4
    data["objects"]["f"] = {
        "kind": "cochain",
        "complex": "rbf",
        "operator": "operator",
        "degree": 1,
        "table": {"0": zeros, "1": zeros},
    }
    ws = load_workspace(data)
    named = {n: ws.get(n) for n in data["objects"]}
    again = load_workspace(json.loads(dump_workspace(named)))
    assert again.get("f") == ws.get("f")


def test_zero_extent_arrays_round_trip():
    # A 0-dimensional algebra under a 2-dimensional bimodule: mu and p have
    # no entries, left is 2x0x2 and right 2x2x0, so every axis length must
    # come from the shape, not from the entries.
    algebra = HomAlgebra(dim=0, mu=Tensor((0, 0, 0), ()), p=Matrix(0, 0, ()))
    module = HomBimodule(
        parent=algebra,
        dim=2,
        left=Tensor((2, 0, 2), ()),
        right=Tensor((2, 2, 0), ()),
        q=Matrix.identity(2),
    )
    named = {"algebra": algebra, "bimodule": module}
    text = dump_workspace(named)
    doc = json.loads(text)["objects"]
    assert (doc["algebra"]["mu"], doc["algebra"]["p"]) == ([], [])
    assert doc["bimodule"]["left"] == [[], []]
    assert doc["bimodule"]["right"] == [[[], []], [[], []]]
    ws = load_workspace(text)
    assert ws.get("algebra") == algebra and ws.get("bimodule") == module
    assert dump_workspace({n: ws.get(n) for n in named}) == text


def _algebra(c):
    mu = Tensor.from_nested([[[c, 0], [0, c]], [[0, c], [c, 0]]], 3)
    return HomAlgebra(dim=2, mu=mu, p=Matrix.identity(2))


def test_dump_reference_is_first_equal_name():
    algebra = _algebra(1)
    copy = _algebra(1)
    assert copy == algebra and copy is not algebra
    # An equal copy under an earlier name wins over the object itself.
    named = {"copy": copy, "algebra": algebra, "module": regular_bimodule(algebra)}
    assert json.loads(dump_workspace(named))["objects"]["module"]["algebra"] == "copy"
    named = {"algebra": algebra, "copy": copy, "module": regular_bimodule(copy)}
    assert json.loads(dump_workspace(named))["objects"]["module"]["algebra"] == "algebra"


def test_dump_reference_scans_unhashable_objects():
    class Unhashable:
        __hash__ = None

        def __eq__(self, other):
            return other == 3

    # An earlier object that cannot be hashed but equals the target still wins.
    names = _Names({"u": Unhashable(), "three": 3, "list": [3]})
    assert names.ref(3, "x") == "u"
    assert names.ref([3], "x") == "list"
    assert _Names({"list": [3], "three": 3}).ref([3], "x") == "list"
    with pytest.raises(InputError, match="the x to be present"):
        names.ref(4, "x")


def test_dump_is_linear_in_the_number_of_references():
    named = {}
    for i in range(800):
        algebra = _algebra(i + 1)
        named[f"a{i}"] = algebra
        named[f"m{i}"] = regular_bimodule(algebra)
    start = time.perf_counter()
    doc = json.loads(dump_workspace(named))
    elapsed = time.perf_counter() - start
    assert doc["objects"]["m799"]["algebra"] == "a799"
    assert elapsed < 1.0


# -- strictness ---------------------------------------------------------------------


def test_unknown_field_rejected(d1_file):
    data = json.loads(Path(d1_file).read_text())
    data["objects"]["omega"]["extra"] = 1
    with pytest.raises(InputError):
        load_workspace(data)


def test_undefined_reference_rejected(d1_file):
    data = json.loads(Path(d1_file).read_text())
    data["objects"]["bimodule"]["algebra"] = "missing"
    with pytest.raises(InputError):
        load_workspace(data)


def test_reference_cycle_rejected(d1_file):
    data = json.loads(Path(d1_file).read_text())
    zeros = [["0", "0"]] * 4
    for a, b in (("D", "E"), ("E", "D")):
        data["objects"][a] = {
            "kind": "deformation",
            "base": "operator",
            "direction": {"0": zeros, "1": zeros},
            "order": 3,
            "other": b,
        }
    with pytest.raises(InputError):
        load_workspace(data)


def test_scalars_must_be_strings(d1_file):
    data = json.loads(Path(d1_file).read_text())
    data["objects"]["algebra"]["p"][0][0] = 1
    with pytest.raises(InputError):
        load_workspace(data)
    data["objects"]["algebra"]["p"][0][0] = 0.5
    with pytest.raises(InputError):
        load_workspace(data)


def test_unknown_kind_rejected():
    with pytest.raises(InputError):
        load_workspace({"objects": {"x": {"kind": "mystery"}}})


# -- CLI ------------------------------------------------------------------------------


def run_cli(*argv):
    return main(list(argv))


def test_cli_catalog_and_check(tmp_path, capsys):
    outdir = tmp_path / "catalog"
    assert run_cli("catalog", str(outdir)) == 0
    capsys.readouterr()
    for name in DESK_NAMES:
        assert (outdir / f"{name}.json").exists()
    assert run_cli("check", str(outdir / "D1.json"), "--object", "operator") == 0
    out = capsys.readouterr().out
    assert "PASS" in out


def test_cli_check_failing_object_exits_one(tmp_path, capsys):
    data = json.loads(dump_workspace(desk_instance("D1")))
    # break hom-associativity by scaling one structure constant
    data["objects"]["algebra"]["mu"][0][1][1] = "2"
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(data))
    assert run_cli("check", str(path), "--object", "algebra") == 1
    out = capsys.readouterr().out
    assert "FAIL" in out


def test_cli_check_malformed_rational_exits_two(tmp_path, capsys):
    data = json.loads(dump_workspace(desk_instance("D0")))
    data["objects"]["algebra"]["mu"][0][0][0] = "1/0"
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    assert run_cli("check", str(path), "--object", "algebra") == 2


def test_cli_check_json_output(d1_file, capsys):
    assert run_cli("check", d1_file, "--object", "cocycle", "--json") == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["passed"] is True
    assert any(law["law"].startswith("q phi") for law in doc["laws"])


def test_cli_induce_round_trip(d1_file, tmp_path, capsys):
    assert run_cli("induce", d1_file, "--object", "operator", "--what", "ns_family") == 0
    out = capsys.readouterr().out
    derived = tmp_path / "derived.json"
    derived.write_text(out)
    assert run_cli("check", str(derived), "--object", "operator_ns_family") == 0


def test_cli_induce_pack_operator(d1_file, tmp_path, capsys):
    assert run_cli("induce", d1_file, "--object", "operator", "--what", "pack_operator") == 0
    out = capsys.readouterr().out
    derived = tmp_path / "packed.json"
    derived.write_text(out)
    assert run_cli("check", str(derived), "--object", "operator_packed") == 0


def test_cli_induce_unknown_what(d1_file, capsys):
    assert run_cli("induce", d1_file, "--object", "operator", "--what", "mystery") == 2
    assert capsys.readouterr().err == (
        "error: unknown --what; expected one of semidirect, tensor_omega, ns_family, "
        "tridend, omega_assoc, pack_ns, pack_operator, operator_bimodule, "
        "nijenhuis_data, yau\n"
    )


@pytest.mark.parametrize(
    "what,needs",
    [
        ("semidirect", "a two_cocycle"),
        ("tensor_omega", "a hom_algebra"),
        ("ns_family", "a twisted_rbf"),
        ("tridend", "a weighted_rbf"),
        ("omega_assoc", "an ns_family"),
        ("pack_ns", "an ns_family"),
        ("pack_operator", "a twisted_rbf"),
        ("operator_bimodule", "a twisted_rbf"),
        ("nijenhuis_data", "a nijenhuis_family"),
        ("yau", "an ns_family"),
    ],
)
def test_cli_induce_refuses_the_wrong_kind(d1_file, capsys, what, needs):
    # The kind is checked first: yau names its kind before asking for --with.
    assert run_cli("induce", d1_file, "--object", "omega", "--what", what) == 2
    assert capsys.readouterr().err == f"error: --what {what} needs {needs} object\n"


def test_cli_induce_yau_needs_with(d1_file, tmp_path, capsys):
    assert run_cli("induce", d1_file, "--object", "operator", "--what", "ns_family") == 0
    ns_path = tmp_path / "ns.json"
    ns_path.write_text(capsys.readouterr().out)
    assert run_cli("induce", str(ns_path), "--object", "operator_ns_family", "--what", "yau") == 2
    assert capsys.readouterr().err == "error: --what yau needs --with NAME of a linear_map\n"


@pytest.fixture()
def enriched_d1_file(tmp_path):
    data = json.loads(dump_workspace(desk_instance("D1")))
    eye = [["1", "0"], ["0", "1"]]
    data["objects"]["N"] = {
        "kind": "nijenhuis_family",
        "algebra": "base_algebra",
        "omega": "omega",
        "maps": {"0": eye, "1": eye},
    }
    data["objects"]["T"] = {
        "kind": "weighted_rbf",
        "algebra": "base_algebra",
        "omega": "omega",
        "weight": "-1",
        "maps": {"0": eye, "1": eye},
    }
    path = tmp_path / "D1x.json"
    path.write_text(json.dumps(data))
    return str(path)


@pytest.mark.parametrize(
    "what,obj,check_obj,extra",
    [
        ("tensor_omega", "base_algebra", "base_algebra_tensor_omega", ["--with", "omega"]),
        ("semidirect", "cocycle", "cocycle_semidirect", []),
        ("tridend", "T", "T_tridend", []),
        ("operator_bimodule", "operator", "operator_operator_bimodule", []),
        ("nijenhuis_data", "N", "N_induced_operator", []),
    ],
)
def test_cli_induce_kinds_round_trip(enriched_d1_file, tmp_path, capsys, what, obj, check_obj, extra):
    assert run_cli("induce", enriched_d1_file, "--object", obj, "--what", what, *extra) == 0
    out = capsys.readouterr().out
    derived = tmp_path / f"{what}.json"
    derived.write_text(out)
    assert run_cli("check", str(derived), "--object", check_obj) == 0


def test_cli_induce_second_stage_and_yau(d1_file, tmp_path, capsys):
    assert run_cli("induce", d1_file, "--object", "operator", "--what", "ns_family") == 0
    doc = json.loads(capsys.readouterr().out)
    ns_path = tmp_path / "ns.json"
    ns_path.write_text(json.dumps(doc))
    assert run_cli("induce", str(ns_path), "--object", "operator_ns_family", "--what", "omega_assoc") == 0
    oa_path = tmp_path / "oa.json"
    oa_path.write_text(capsys.readouterr().out)
    assert run_cli("check", str(oa_path), "--object", "operator_ns_family_omega_assoc") == 0
    capsys.readouterr()
    assert run_cli("induce", str(ns_path), "--object", "operator_ns_family", "--what", "pack_ns") == 0
    pk_path = tmp_path / "pk.json"
    pk_path.write_text(capsys.readouterr().out)
    assert run_cli("check", str(pk_path), "--object", "operator_ns_family_packed_ns") == 0
    capsys.readouterr()
    doc["objects"]["m"] = {"kind": "linear_map", "entries": [["1/2", "1/2"], ["1/2", "1/2"]]}
    with_map = tmp_path / "ns_map.json"
    with_map.write_text(json.dumps(doc))
    assert (
        run_cli("induce", str(with_map), "--object", "operator_ns_family", "--what", "yau", "--with", "m")
        == 0
    )
    yau_path = tmp_path / "yau.json"
    yau_path.write_text(capsys.readouterr().out)
    assert run_cli("check", str(yau_path), "--object", "operator_ns_family_yau") == 0


def test_cli_cohomology(d0_file, d1_file, capsys):
    assert run_cli("cohomology", d0_file, "--object", "operator", "--degree", "1", "--json") == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc == {"complex": "rbf", "degree": 1, "dimC": 1, "dimZ": 1, "dimB": 0, "dimH": 1}
    assert run_cli("cohomology", d1_file, "--object", "bimodule", "--degree", "1", "--json") == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["complex"] == "ha"


def test_cli_cohomology_above_cap_exits_two(d1_file, capsys):
    assert run_cli("cohomology", d1_file, "--object", "operator", "--degree", "7") == 2
    err = capsys.readouterr().err
    assert "estimated" in err or "cap" in err


def test_cli_max_entries_overrides_degree_cap(d0_file, capsys):
    # everything on the scalar line is one-dimensional, so degree 3 is cheap
    # once the caller grants an explicit entry budget
    assert (
        run_cli(
            "cohomology",
            d0_file,
            "--object",
            "operator",
            "--degree",
            "3",
            "--max-entries",
            "100000",
            "--json",
        )
        == 0
    )
    doc = json.loads(capsys.readouterr().out)
    assert doc["dimH"] == 1


def test_cli_dims_walk_only_the_requested_degree(d1_file, capsys):
    # The dimensions at degree 5 walk the degree-5 stencil (raw(6) = 16384
    # rows x 5^2 = 409600 steps) and never the degree-6 one (2359296 steps),
    # so a budget of 2 * 10^6 admits them.
    argv = ["cohomology", d1_file, "--object", "operator", "--degree", "5", "--max-entries", "2000000"]
    assert run_cli(*argv, "--json") == 0
    doc = json.loads(capsys.readouterr().out)
    assert [doc[k] for k in ("dimC", "dimZ", "dimB", "dimH")] == [4096, 816, 816, 0]


def test_cli_deform_modes(d1_file, tmp_path, capsys):
    data = json.loads(Path(d1_file).read_text())
    zeros = [["0", "0"]] * 4
    data["objects"]["D"] = {
        "kind": "deformation",
        "base": "operator",
        "direction": {"0": zeros, "1": zeros},
        "order": 3,
        "other": "Dbar",
        "element": ["0", "0", "1", "0"],
    }
    data["objects"]["Dbar"] = {
        "kind": "deformation",
        "base": "operator",
        "direction": {"0": zeros, "1": zeros},
        "order": 3,
    }
    data["objects"]["x"] = {
        "kind": "nijenhuis_candidate",
        "operator": "operator",
        "vector": ["1", "0", "0", "0"],
    }
    path = tmp_path / "deform.json"
    path.write_text(json.dumps(data))
    assert run_cli("deform", str(path), "--object", "D", "--mode", "infinitesimal") == 0
    capsys.readouterr()
    assert run_cli("deform", str(path), "--object", "D", "--mode", "ns_family") == 0
    capsys.readouterr()
    assert run_cli("deform", str(path), "--object", "D", "--mode", "equivalence", "--json") == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["passes_mod_t2"] is True
    assert run_cli("deform", str(path), "--object", "x", "--mode", "nijenhuis") == 0
    capsys.readouterr()
    assert run_cli("deform", str(path), "--object", "D", "--mode", "trivialize", "--json") == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["found"] is True
    assert run_cli("deform", str(path), "--object", "operator", "--mode", "rigidity", "--json") == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["verdict"] == "sufficient condition met"


def test_cli_trivialize_prints_the_witness_as_rationals(d1_file, tmp_path, capsys):
    data = json.loads(Path(d1_file).read_text())
    zeros = [["0", "0"]] * 4
    data["objects"]["D"] = {"kind": "deformation", "base": "operator", "direction": {"0": zeros, "1": zeros}, "order": 3}
    path = tmp_path / "deform.json"
    path.write_text(json.dumps(data))
    assert run_cli("deform", str(path), "--object", "D", "--mode", "trivialize") == 0
    assert capsys.readouterr().out.splitlines() == [
        "trivializing element found; kernel dimension 4",
        "nijenhuis witness: (0, 0, 0, 0)",
    ]


def test_cli_deform_missing_base_exits_two(tmp_path, capsys):
    data = {
        "objects": {
            "D": {
                "kind": "deformation",
                "base": "nowhere",
                "direction": {"0": [["0"]]},
                "order": 3,
            }
        }
    }
    path = tmp_path / "dangling.json"
    path.write_text(json.dumps(data))
    assert run_cli("deform", str(path), "--object", "D", "--mode", "infinitesimal") == 2


def test_cli_verify_suite_passes(d0_file, capsys):
    assert run_cli("verify-suite", d0_file) == 0
    out = capsys.readouterr().out
    assert "properties hold" in out


def test_cli_verify_suite_empty_warns(tmp_path, capsys):
    path = tmp_path / "empty.json"
    path.write_text(json.dumps({"objects": {}}))
    assert run_cli("verify-suite", str(path)) == 0
    out = capsys.readouterr().out
    assert "WARNING" in out


def test_cli_verify_suite_corrupted_exits_one(tmp_path, capsys):
    data = json.loads(dump_workspace(desk_instance("D0")))
    data["objects"]["algebra"]["mu"][0][0][0] = "2"
    path = tmp_path / "corrupt.json"
    path.write_text(json.dumps(data))
    assert run_cli("verify-suite", str(path), "--json") == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["passed"] is False
    assert doc["first_failing"]


@pytest.fixture()
def left_zero_file(tmp_path):
    """D1's base algebra packed over left_zero(2), a semigroup without a unit."""
    base, omega = desk_instance("D1")["base_algebra"], builtin("left_zero", 2)
    op = identity_packing_family(base, omega, tensor_semigroup_algebra(base, omega)[2])
    path = tmp_path / "left_zero.json"
    objects = {"omega": omega, "base_algebra": base, "algebra": op.algebra, "bimodule": op.bimodule}
    dump_workspace({**objects, "cocycle": op.cocycle, "operator": op}, path)
    return str(path)


def test_cli_rigidity_without_a_unit_exits_zero(left_zero_file, capsys):
    assert run_cli("deform", left_zero_file, "--object", "operator", "--mode", "rigidity", "--json") == 0
    doc = json.loads(capsys.readouterr().out)
    assert [doc[k] for k in ("dim_c1", "dim_z1", "dim_b1", "verdict")] == [16, 4, 0, "inconclusive"]
    assert [o["trivialized"] for o in doc["outcomes"]] == [False] * 4
    assert run_cli("cohomology", left_zero_file, "--object", "operator", "--degree", "0") == 2


UNIT_FREE_NOTE = "  note: no unit in the semigroup: the complex starts at degree 1, so dimB = 0"


def test_cli_cohomology_notes_where_a_complex_without_a_unit_starts(left_zero_file, tmp_path, capsys):
    assert run_cli("induce", left_zero_file, "--object", "operator", "--what", "operator_bimodule") == 0
    derived = tmp_path / "left_zero_bimodule.json"
    derived.write_text(capsys.readouterr().out)
    for path, obj, tag in ((left_zero_file, "operator", "rbf"), (str(derived), "operator_operator_bimodule", "omega")):
        assert run_cli("cohomology", path, "--object", obj, "--degree", "1") == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == f"{tag} complex, degree 1: dim C = 16, dim Z = 4, dim B = 0, dim H = 4"
        assert UNIT_FREE_NOTE in lines
        assert run_cli("cohomology", path, "--object", obj, "--degree", "0") == 2
        assert capsys.readouterr().err == "error: degree-0 cohomology needs a unit in the semigroup\n"
    # The Hochschild-type complex has no semigroup grading: it starts at degree 0.
    for degree in ("0", "1"):
        assert run_cli("cohomology", left_zero_file, "--object", "bimodule", "--degree", degree) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith(f"ha complex, degree {degree}:")
        assert UNIT_FREE_NOTE not in lines


def test_cli_verify_suite_without_a_unit_passes(left_zero_file, capsys):
    assert run_cli("verify-suite", left_zero_file, "--json") == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["passed"] is True
    assert len(doc["properties"]) == 12
    assert all(p["ok"] for p in doc["properties"])


# -- the deformation order field ----------------------------------------------------


def _deformation_file(tmp_path, desk, direction, order):
    data = json.loads(dump_workspace(desk_instance(desk)))
    data["objects"]["D"] = {
        "kind": "deformation",
        "base": "operator",
        "direction": {str(a): m for a, m in enumerate(direction)},
        "order": order,
    }
    path = tmp_path / f"{desk}-order-{order}.json"
    path.write_text(json.dumps(data))
    return str(path)


def test_order_two_still_computes_the_t2_coefficient(tmp_path, capsys):
    # R = 0 on D0 and R1 = 1: the t^2 coefficient R1 u . R1 v - R1(R1 u v + u R1 v)
    # is -1, whatever order the document records.
    flags = []
    for order in (2, 3):
        path = _deformation_file(tmp_path, "D0", [[["1"]]], order)
        assert run_cli("deform", path, "--object", "D", "--mode", "infinitesimal", "--json") == 0
        flags.append(json.loads(capsys.readouterr().out)["order2_flag"]["passed"])
    assert flags == [False, False]


def test_huge_order_changes_nothing_and_stays_fast(tmp_path, capsys):
    zeros = [["0", "0"]] * 4
    outputs = []
    for order in (3, 10**7):
        path = _deformation_file(tmp_path, "D1", [zeros, zeros], order)
        start = time.perf_counter()
        assert run_cli("deform", path, "--object", "D", "--mode", "infinitesimal", "--json") == 0
        elapsed = time.perf_counter() - start
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    assert elapsed < 1.0
