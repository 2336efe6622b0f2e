"""A frozen transcript of the command line: stdout, stderr and exit code.

``goldens/cli_transcript.json`` lists, for every argument vector that
``transcript_cases`` yields, what ``rbfam`` printed on stdout and stderr and
the code it exited with.  The cases cover:

- ``deform``: every mode, and an unknown one, on every object of the deform
  document (D1 plus the deformations D and Dbar, the candidate x and the
  families N, T and T0 of CI's deform document, a deformation E that is
  not a cocycle, a zero and a nonzero degree-1 rbf cochain, a degree-2 rbf
  cochain and an ha cochain), in text and ``--json``, and the rigidity
  probe on the ``left_zero`` packing below, which is inconclusive;
- ``verify-suite``: D0-D2, D1's base algebra packed over ``left_zero(2)``,
  the deform document, an empty workspace and a corrupted one;
- ``cohomology``: every object of D1 and of the ``left_zero`` packing and
  its induced bimodule, the wrong-kind and degree-cap messages included;
- ``check`` on every object of the deform document, and ``induce`` with an
  unknown ``--what`` and a wrong kind;
- ``rbfam --help``, each subcommand's ``--help`` and three usage errors.

Every case runs in one process, one after another, as a script calling
``main`` would.  The golden was frozen before the command line's dispatch
moved onto tables; a failure here means an output or an exit code changed,
and the fix belongs in the code, not in the golden file.
"""
import io
import json
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from rbfam.cli import main
from rbfam.homalg import tensor_semigroup_algebra
from rbfam.operators import identity_packing_family
from rbfam.semigroups import builtin
from rbfam.workspace import DESK_NAMES, desk_instance, dump_workspace

GOLDENS = Path(__file__).parent / "goldens"
TRANSCRIPT_PATH = GOLDENS / "cli_transcript.json"

MODES = ("infinitesimal", "ns_family", "equivalence", "nijenhuis", "trivialize", "rigidity", "no_such_mode")
SUBCOMMANDS = ("check", "induce", "cohomology", "deform", "verify-suite", "catalog")


def _deform_document():
    """CI's deform document, a deformation E that fails, and four rbf and ha cochains."""
    data = json.loads(dump_workspace(desk_instance("D1")))
    zeros = {"0": [["0", "0"]] * 4, "1": [["0", "0"]] * 4}
    unit = {"0": [["1", "0"]] + [["0", "0"]] * 3, "1": [["0", "0"]] * 4}
    eye = [["1", "0"], ["0", "1"]]
    data["objects"].update(
        {
            "D": {
                "kind": "deformation",
                "base": "operator",
                "direction": zeros,
                "order": 3,
                "other": "Dbar",
                "element": ["0", "0", "1", "0"],
            },
            "Dbar": {"kind": "deformation", "base": "operator", "direction": zeros, "order": 3},
            "E": {"kind": "deformation", "base": "operator", "direction": unit, "order": 3},
            "x": {"kind": "nijenhuis_candidate", "operator": "operator", "vector": ["1", "0", "0", "0"]},
            "N": {"kind": "nijenhuis_family", "algebra": "base_algebra", "omega": "omega", "maps": {"0": eye, "1": eye}},
            "T": {
                "kind": "weighted_rbf",
                "algebra": "base_algebra",
                "omega": "omega",
                "weight": "-1",
                "maps": {"0": eye, "1": eye},
            },
            "T0": {
                "kind": "weighted_rbf",
                "algebra": "base_algebra",
                "omega": "omega",
                "weight": "0",
                "maps": {"0": eye, "1": eye},
            },
        }
    )
    kinds = json.loads((GOLDENS / "workspace_all_kinds.json").read_text())["objects"]
    for name, source in (("c1", "f_rbf1"), ("c2", "f_rbf2"), ("h1", "f_ha1")):
        data["objects"][name] = kinds[source]
    data["objects"]["z1"] = {**kinds["f_rbf1"], "table": zeros}
    return data


def _left_zero():
    """D1's base algebra packed over left_zero(2), a semigroup without a unit."""
    base, omega = desk_instance("D1")["base_algebra"], builtin("left_zero", 2)
    op = identity_packing_family(base, omega, tensor_semigroup_algebra(base, omega)[2])
    objects = {"omega": omega, "base_algebra": base, "algebra": op.algebra, "bimodule": op.bimodule}
    return json.loads(dump_workspace({**objects, "cocycle": op.cocycle, "operator": op}))


def write_documents(directory):
    """Write every document the cases read into ``directory``."""
    documents = {name: json.loads(dump_workspace(desk_instance(name))) for name in DESK_NAMES}
    documents["deform"] = _deform_document()
    documents["left_zero"] = _left_zero()
    documents["empty"] = {"objects": {}}
    corrupt = json.loads(json.dumps(documents["D0"]))
    corrupt["objects"]["algebra"]["mu"][0][0][0] = "2"
    documents["corrupt"] = corrupt
    for name, doc in documents.items():
        (directory / f"{name}.json").write_text(json.dumps(doc))
    return documents


def transcript_cases(documents):
    """Yield every argument vector of the transcript, in the order it runs."""
    deform = documents["deform"]["objects"]
    for mode in MODES:
        for name in deform:
            for json_flag in ((), ("--json",)):
                yield ("deform", "deform.json", "--object", name, "--mode", mode, *json_flag)
    for json_flag in ((), ("--json",)):
        yield ("deform", "left_zero.json", "--object", "operator", "--mode", "rigidity", *json_flag)
    for doc in ("D0", "D1", "D2", "left_zero", "deform", "empty", "corrupt"):
        for json_flag in ((), ("--json",)):
            yield ("verify-suite", f"{doc}.json", *json_flag)
    cohomology = [("D1", name, degree) for name in documents["D1"]["objects"] for degree in ("0", "1", "2")]
    cohomology += [("left_zero", name, degree) for name in ("operator", "bimodule") for degree in ("0", "1")]
    cohomology += [("left_zero_bimodule", "operator_operator_bimodule", degree) for degree in ("0", "1")]
    cohomology += [("D1", "operator", "7")]
    for doc, name, degree in cohomology:
        for json_flag in ((), ("--json",)):
            yield ("cohomology", f"{doc}.json", "--object", name, "--degree", degree, *json_flag)
    yield ("cohomology", "D0.json", "--object", "operator", "--degree", "3", "--max-entries", "100000", "--json")
    for name in deform:
        yield ("check", "deform.json", "--object", name)
    yield ("induce", "deform.json", "--object", "operator", "--what", "no_such_kind")
    yield ("induce", "deform.json", "--object", "operator", "--what", "semidirect")
    yield ("--help",)
    for sub in SUBCOMMANDS:
        yield (sub, "--help")
    yield ()
    yield ("no_such_command",)
    yield ("deform", "deform.json", "--object", "D")


def run(argv):
    """Run ``main(argv)`` and return its stdout, stderr and exit code."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return {"argv": list(argv), "stdout": out.getvalue(), "stderr": err.getvalue(), "code": code}


def transcript(directory):
    """Run every case in ``directory`` and return the list of results."""
    documents = write_documents(directory)
    # The bimodule the left_zero packing induces is read by the cohomology cases.
    induced = run(("induce", "left_zero.json", "--object", "operator", "--what", "operator_bimodule"))
    (directory / "left_zero_bimodule.json").write_text(induced["stdout"])
    return [run(argv) for argv in transcript_cases(documents)]


@pytest.fixture(scope="module")
def transcript_pair(tmp_path_factory):
    directory = tmp_path_factory.mktemp("cli_transcript")
    with pytest.MonkeyPatch.context() as mp:
        mp.chdir(directory)
        mp.setenv("COLUMNS", "80")
        actual = transcript(directory)
    return actual, json.loads(TRANSCRIPT_PATH.read_text())


def test_transcript_covers_the_same_cases(transcript_pair):
    actual, golden = transcript_pair
    assert [r["argv"] for r in actual] == [r["argv"] for r in golden]


def test_transcript_matches_golden(transcript_pair):
    actual, golden = transcript_pair
    changed = [a["argv"] for a, g in zip(actual, golden) if a != g]
    assert changed == []
    assert actual == golden


def test_transcript_exercises_every_exit_code(transcript_pair):
    _, golden = transcript_pair
    assert {r["code"] for r in golden} == {0, 1, 2}
