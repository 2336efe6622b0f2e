"""Deformation reports and ``rbfam deform`` output, pinned in full.

``goldens/deformation_reports.json`` holds two tables.

``reports`` maps a case to the ``to_dict()`` JSON (key order kept) and the
``render()`` text of one report: ``check_infinitesimal``,
``deform_ns_family`` (strict, and with strict=False), ``check_equivalence``,
``trivialize_cocycle`` and ``rigidity_probe`` on D0, D1, D2, the scalar
line (the one-dimensional algebra with R = 0), the identity-packing family
of the Yau-twisted triangular algebra over C2 (whose two degree-1 cocycles
are both trivialized) and D1's base algebra packed over left_zero(2), a
semigroup without a unit.  A case that raises ``PreconditionError`` pins
the message and the render of the attached report instead.

``cli`` maps an argument list to the stdout, stderr and exit code of
``rbfam``: ``deform`` in every mode, with and without ``--json``, and
``check`` on a ``deformation`` and a ``nijenhuis_candidate``.  The document
is the deform document of the CI smoke test (D1 plus two zero deformations
D and Dbar, the candidate x and the families N, T and T0) with one more
deformation F, whose direction R1_0 = E_00 fails the order-1 identity.

The goldens were frozen before the reports moved onto one shared frame,
except two later entries: the ``render()`` of ``trivialize_cocycle``, which
had none before, and the ``deform --mode trivialize`` witness line, which
now prints rationals instead of ``Fraction`` reprs.  A failure here means
an output changed, and the fix belongs in the code, not in the golden file.
"""
import contextlib
import io
import json
from fractions import Fraction
from functools import cache
from pathlib import Path

import pytest

from conftest import _yau_twisted_triangular
from rbfam.cli import main
from rbfam.cohomology import differential_matrix, rbf_complex
from rbfam.deformations import (
    LinearDeformation,
    check_equivalence,
    check_infinitesimal,
    deform_ns_family,
    rigidity_probe,
    trivialize_cocycle,
)
from rbfam.errors import PreconditionError
from rbfam.homalg import HomAlgebra, regular_bimodule, tensor_semigroup_algebra, zero_cocycle
from rbfam.linalg import Matrix, Tensor, kernel_basis, unit_vector
from rbfam.operators import TwistedRBFamily, identity_packing_family
from rbfam.semigroups import builtin
from rbfam.workspace import desk_instance, dump_workspace

GOLDEN_PATH = Path(__file__).parent / "goldens" / "deformation_reports.json"


def _packed(base, omega):
    return identity_packing_family(base, omega, tensor_semigroup_algebra(base, omega)[2])


def _scalar_line():
    algebra = HomAlgebra(dim=1, mu=Tensor((1, 1, 1), (Fraction(1),)), p=Matrix.identity(1))
    return TwistedRBFamily(
        cocycle=zero_cocycle(regular_bimodule(algebra)), omega=builtin("trivial"), maps=(Matrix.zero(1, 1),)
    )


@cache
def _operators():
    return {
        "D0": desk_instance("D0")["operator"],
        "D1": desk_instance("D1")["operator"],
        "D2": desk_instance("D2")["operator"],
        "scalar_line": _scalar_line(),
        "triangular/cyclic": _packed(_yau_twisted_triangular(), builtin("cyclic", 2)),
        "left_zero": _packed(desk_instance("D1")["base_algebra"], builtin("left_zero", 2)),
    }


def _deformation(op, direction=None):
    n, d = op.algebra.dim, op.bimodule.dim
    if direction is None:
        direction = (Matrix.zero(n, d),) * op.omega.size
    return LinearDeformation(base=op, direction=tuple(direction))


def _e00(op):
    """R1_0 = E_00 and every other R1_a = 0."""
    n, d = op.algebra.dim, op.bimodule.dim
    first = Matrix(n, d, tuple(Fraction(int(i == 0)) for i in range(n * d)))
    return _deformation(op, (first,) + (Matrix.zero(n, d),) * (op.omega.size - 1))


def _cocycles(op):
    handle = rbf_complex(op)
    return [handle.unflatten(1, handle.combine(1, v)) for v in kernel_basis(differential_matrix(handle, 1))]


def _report_cases():
    ops = _operators()
    cases = {}
    # Directions that pass order 1 (zero everywhere; the scalar line's
    # identity, whose order-2 flag fails) and that fail it (E_00 on D1 and D2).
    directions = {name: _deformation(op) for name, op in ops.items()}
    directions["scalar_line/identity"] = _deformation(ops["scalar_line"], (Matrix.identity(1),))
    directions["D0/identity"] = _deformation(ops["D0"], (Matrix.identity(1),))
    directions["D1/e00"] = _e00(ops["D1"])
    directions["D2/e00"] = _e00(ops["D2"])
    for name, deformation in directions.items():
        cases[f"infinitesimal/{name}"] = lambda df=deformation: check_infinitesimal(df)
        cases[f"ns_family/{name}/strict"] = lambda df=deformation: deform_ns_family(df)
        cases[f"ns_family/{name}/lax"] = lambda df=deformation: deform_ns_family(df, strict=False)
    elements = {
        "D0": unit_vector(1, 0),
        "D1": (0, 0, 1, 0),
        "D2": unit_vector(4, 1),
        "scalar_line": unit_vector(1, 0),
        "triangular/cyclic": unit_vector(6, 0),
    }
    for name, x in elements.items():
        zero = directions[name]
        cases[f"equivalence/{name}"] = lambda df=zero, x=x: check_equivalence(df, df, x)
    cases["equivalence/D1/e00"] = lambda: check_equivalence(directions["D1/e00"], directions["D1"], (0, 0, 1, 0))
    cases["equivalence/scalar_line/identity"] = lambda: check_equivalence(
        directions["scalar_line/identity"], directions["scalar_line"], unit_vector(1, 0)
    )
    for name in ("D0", "D1", "D2", "scalar_line", "triangular/cyclic"):
        cases[f"trivialize/{name}/zero"] = lambda df=directions[name]: trivialize_cocycle(df.base, df.direction)
    cases["trivialize/scalar_line/identity"] = lambda: trivialize_cocycle(ops["scalar_line"], (Matrix.identity(1),))
    for i in range(2):
        cases[f"trivialize/triangular/cyclic/cocycle{i}"] = lambda i=i: trivialize_cocycle(
            ops["triangular/cyclic"], _cocycles(ops["triangular/cyclic"])[i]
        )
    for name, op in ops.items():
        cases[f"rigidity/{name}"] = lambda op=op: rigidity_probe(op)
    return cases


REPORT_CASES = _report_cases()


def report_golden(case):
    """{"to_dict", "render"} of a report, or {"raises", "report"} when it
    raises ``PreconditionError``."""
    try:
        report = case()
    except PreconditionError as exc:
        return {"raises": str(exc), "report": exc.report.render() if exc.report is not None else None}
    # Key order is kept: it is the order in which render() prints a where-dict.
    return {"to_dict": json.dumps(report.to_dict(), indent=1), "render": report.render()}


def _deform_document(path):
    """The CI deform document, plus the failing deformation F."""
    data = json.loads(dump_workspace(desk_instance("D1")))
    zeros = [["0", "0"]] * 4
    e00 = [["1", "0"]] + [["0", "0"]] * 3
    eye = [["1", "0"], ["0", "1"]]
    data["objects"]["D"] = {
        "kind": "deformation",
        "base": "operator",
        "direction": {"0": zeros, "1": zeros},
        "order": 3,
        "other": "Dbar",
        "element": ["0", "0", "1", "0"],
    }
    data["objects"]["Dbar"] = {"kind": "deformation", "base": "operator", "direction": {"0": zeros, "1": zeros}, "order": 3}
    data["objects"]["x"] = {"kind": "nijenhuis_candidate", "operator": "operator", "vector": ["1", "0", "0", "0"]}
    data["objects"]["N"] = {"kind": "nijenhuis_family", "algebra": "base_algebra", "omega": "omega", "maps": {"0": eye, "1": eye}}
    data["objects"]["T"] = {
        "kind": "weighted_rbf",
        "algebra": "base_algebra",
        "omega": "omega",
        "weight": "-1",
        "maps": {"0": eye, "1": eye},
    }
    data["objects"]["T0"] = {
        "kind": "weighted_rbf",
        "algebra": "base_algebra",
        "omega": "omega",
        "weight": "0",
        "maps": {"0": eye, "1": eye},
    }
    data["objects"]["F"] = {
        "kind": "deformation",
        "base": "operator",
        "direction": {"0": e00, "1": zeros},
        "order": 3,
        "other": "Dbar",
        "element": ["0", "0", "1", "0"],
    }
    path.write_text(json.dumps(data))


MODES = ("infinitesimal", "ns_family", "equivalence", "nijenhuis", "trivialize", "rigidity")
CLI_CASES = (
    [("deform", obj, mode, *flag) for obj in ("D", "F") for mode in MODES for flag in ((), ("--json",))]
    + [("deform", "x", "nijenhuis", *flag) for flag in ((), ("--json",))]
    + [("deform", "operator", "rigidity", *flag) for flag in ((), ("--json",))]
    + [("check", obj, *flag) for obj in ("D", "F", "x") for flag in ((), ("--json",))]
)


def case_name(case):
    return " ".join(case)


def run_case(path, case):
    """(stdout, stderr, exit code) of ``rbfam`` on one CLI case."""
    command, obj, *rest = case
    argv = [command, str(path), "--object", obj]
    if command == "deform":
        argv += ["--mode", rest[0]]
        rest = rest[1:]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv + list(rest))
    return {"stdout": out.getvalue(), "stderr": err.getvalue(), "exit": code}


@pytest.fixture(scope="module")
def goldens():
    return json.loads(GOLDEN_PATH.read_text())


@pytest.fixture(scope="module")
def deform_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("deform") / "deform.json"
    _deform_document(path)
    return path


def test_goldens_cover_every_case(goldens):
    assert sorted(goldens["reports"]) == sorted(REPORT_CASES)
    assert sorted(goldens["cli"]) == sorted(map(case_name, CLI_CASES))


@pytest.mark.parametrize("name", sorted(REPORT_CASES))
def test_report_matches_golden(name, goldens):
    assert report_golden(REPORT_CASES[name]) == goldens["reports"][name]


@pytest.mark.parametrize("case", CLI_CASES, ids=case_name)
def test_cli_matches_golden(case, deform_file, goldens):
    assert run_case(deform_file, case) == goldens["cli"][case_name(case)]
