"""Hostile workspace input and the loader's cochain membership check.

Every case goes through the CLI, a malformed linear map through the loader
as well.  Bad input must end in exit code 2 with a
message on stderr, never in a traceback.
"""
import json

import pytest

from rbfam.cli import main
from rbfam.errors import InputError
from rbfam.homalg import tensor_semigroup_algebra
from rbfam.operators import identity_packing_family
from rbfam.semigroups import builtin
from rbfam.workspace import desk_instance, dump_workspace, load_workspace

EXIT_INPUT_ERROR = 2


def _write(tmp_path, data, name="ws.json"):
    path = tmp_path / name
    path.write_text(data if isinstance(data, str) else json.dumps(data))
    return str(path)


def _check_exits_two(capsys, path, obj, message):
    assert main(["check", path, "--object", obj]) == EXIT_INPUT_ERROR
    err = capsys.readouterr().err
    assert message in err
    return err


def test_non_string_reference_exits_two(tmp_path, capsys):
    data = json.loads(dump_workspace(desk_instance("D1")))
    data["objects"]["bimodule"]["algebra"] = ["algebra"]
    path = _write(tmp_path, data)
    _check_exits_two(capsys, path, "bimodule", "object references must be names")


def test_deeply_nested_document_exits_two(tmp_path, capsys):
    depth = 10**5
    path = _write(tmp_path, '{"objects": ' + "[" * depth + "]" * depth + "}")
    _check_exits_two(capsys, path, "x", "workspace is not valid JSON: nesting too deep")


@pytest.fixture(scope="module")
def twisted_c2_doc(twisted_triangular_algebra):
    """The identity packing family of the twisted triangular algebra over C2:
    p = diag(1, 2, 1, 1, 2, 1) on L and q = diag(1, 2, 1) on V."""
    omega = builtin("cyclic", 2)
    packed, module, cocycle = tensor_semigroup_algebra(twisted_triangular_algebra, omega)
    operator = identity_packing_family(twisted_triangular_algebra, omega, cocycle)
    named = {
        "omega": omega,
        "algebra": packed,
        "bimodule": module,
        "cocycle": cocycle,
        "operator": operator,
    }
    return json.loads(dump_workspace(named))


def _with_cochain(doc, degree, table):
    data = json.loads(json.dumps(doc))
    data["objects"]["f"] = {
        "kind": "cochain",
        "complex": "rbf",
        "operator": "operator",
        "degree": degree,
        "table": table,
    }
    return data


def test_member_cochains_load(tmp_path, capsys, twisted_c2_doc):
    fixed = ["1", "0", "0", "0", "0", "1"]
    path = _write(tmp_path, _with_cochain(twisted_c2_doc, 0, {"": fixed}))
    assert main(["check", path, "--object", "f"]) == 0
    # The packing family's own maps e_i -> e_{3a+i} satisfy p o f_a = f_a o q.
    table = {
        str(a): [["1" if r == 3 * a + c else "0" for c in range(3)] for r in range(6)]
        for a in (0, 1)
    }
    path = _write(tmp_path, _with_cochain(twisted_c2_doc, 1, table), "member1.json")
    assert main(["check", path, "--object", "f"]) == 0
    capsys.readouterr()


def test_degree_zero_non_member_exits_two(tmp_path, capsys, twisted_c2_doc):
    # p doubles e_1, so the unit vector e_1 is not fixed.
    vector = ["0", "1", "0", "0", "0", "0"]
    path = _write(tmp_path, _with_cochain(twisted_c2_doc, 0, {"": vector}))
    err = _check_exits_two(
        capsys, path, "f", "degree-0 cochain is not fixed by the structure map"
    )
    assert err.strip() == (
        "error: objects['f']: degree-0 cochain is not fixed by the structure map"
    )


def test_degree_one_non_member_exits_two(tmp_path, capsys, twisted_c2_doc):
    # f_0 sends e_1 to e_0: p(f_0(e_1)) = e_0 but f_0(q(e_1)) = 2 e_0.
    zero = [["0"] * 3 for _ in range(6)]
    bad = [row[:] for row in zero]
    bad[0][1] = "1"
    path = _write(tmp_path, _with_cochain(twisted_c2_doc, 1, {"0": bad, "1": zero}))
    err = _check_exits_two(capsys, path, "f", "cochain violates the membership constraint")
    assert err.strip() == "error: objects['f']: cochain violates the membership constraint"


# -- malformed kinds, indices and scalars -------------------------------------------


def _d1_with(tmp_path, edit):
    data = json.loads(dump_workspace(desk_instance("D1")))
    edit(data["objects"])
    return _write(tmp_path, data)


@pytest.mark.parametrize("kind", [["hom_algebra"], {"hom_algebra": 1}])
def test_unhashable_kind_exits_two(tmp_path, capsys, kind):
    path = _d1_with(tmp_path, lambda objects: objects["base_algebra"].update(kind=kind))
    err = _check_exits_two(capsys, path, "algebra", "has unknown kind")
    assert err.strip() == f"error: object 'base_algebra' has unknown kind {kind!r}"


def test_semigroup_row_that_is_not_a_list_exits_two(tmp_path, capsys):
    path = _write(tmp_path, {"objects": {"omega": {"kind": "semigroup", "size": 1, "table": [5]}}})
    err = _check_exits_two(capsys, path, "omega", "expected a row")
    assert err.strip() == "error: objects['omega'].table[0]: expected a row of 1 entries"


@pytest.mark.parametrize("entry", [0.5, "0"])
def test_non_integer_semigroup_entry_exits_two(tmp_path, capsys, entry):
    table = {"kind": "semigroup", "size": 1, "table": [[entry]]}
    path = _write(tmp_path, {"objects": {"omega": table}})
    err = _check_exits_two(capsys, path, "omega", "out of range")
    assert err.strip() == f"error: table[0][0] = {entry!r} out of range 0..0"


def test_float_dimension_exits_two(tmp_path, capsys):
    path = _d1_with(tmp_path, lambda objects: objects["base_algebra"].update(dim=1.0))
    err = _check_exits_two(capsys, path, "base_algebra", "expected an integer")
    assert err.strip() == "error: objects['base_algebra'].dim: expected an integer >= 0"


def test_string_degree_exits_two(tmp_path, capsys, twisted_c2_doc):
    data = _with_cochain(twisted_c2_doc, 1, {})
    data["objects"]["f"]["degree"] = "1"
    err = _check_exits_two(capsys, _write(tmp_path, data), "f", "expected an integer")
    assert err.strip() == "error: objects['f'].degree: expected an integer >= 0"


@pytest.mark.parametrize("scalar", [1, 0.5, ["1"], None])
def test_non_string_scalar_exits_two(tmp_path, capsys, scalar):
    def edit(objects):
        objects["base_algebra"]["p"][0][0] = scalar

    path = _d1_with(tmp_path, edit)
    err = _check_exits_two(capsys, path, "base_algebra", "scalars must be rational literals")
    assert err.strip() == (
        "error: objects['base_algebra'].p[0]: scalars must be rational literals as strings, "
        f"got {scalar!r}"
    )


@pytest.mark.parametrize("closed", [False, True])
def test_long_reference_chain_loads_or_exits_two(tmp_path, capsys, closed):
    # 5000 deformations, each naming the next as 'other': deeper than the
    # interpreter's recursion limit.  Closing the chain makes it a cycle.
    data = json.loads(dump_workspace(desk_instance("D0")))
    count = 5000
    for i in range(count):
        data["objects"][f"D{i}"] = {
            "kind": "deformation",
            "base": "operator",
            "direction": {"0": [["0"]]},
            "order": 3,
            "other": f"D{(i + 1) % count}",
        }
    if not closed:
        del data["objects"][f"D{count - 1}"]["other"]
    path = _write(tmp_path, data)
    if closed:
        err = _check_exits_two(capsys, path, "D0", "reference cycle")
        assert err.strip() == "error: reference cycle through object 'D0'"
    else:
        assert main(["check", path, "--object", "D0"]) == 0
        capsys.readouterr()


# -- linear maps -------------------------------------------------------------------


@pytest.mark.parametrize("entries", [[[]], [[], []], ["1", "2"]])
def test_linear_map_that_is_not_a_nonempty_matrix_is_refused(entries):
    data = json.loads(dump_workspace(desk_instance("D1")))
    data["objects"]["m"] = {"kind": "linear_map", "entries": entries}
    with pytest.raises(InputError) as err:
        load_workspace(data).get("m")
    assert str(err.value) == "objects['m'].entries: expected a nonempty matrix"


@pytest.mark.parametrize("entries", [[[]], [[], []], ["1", "2"]])
def test_linear_map_that_is_not_a_nonempty_matrix_exits_two(tmp_path, capsys, entries):
    path = _d1_with(tmp_path, lambda objects: objects.update(m={"kind": "linear_map", "entries": entries}))
    err = _check_exits_two(capsys, path, "m", "expected a nonempty matrix")
    assert err.strip() == "error: objects['m'].entries: expected a nonempty matrix"
