"""The command line's one parser and its late-bound dispatch tables.

``rbfam.cli`` builds its parser once per process and reads every command
through tables whose entries look their targets up by name when they run.
So a wrapper installed on ``cli.cmd_*`` or ``cli.rbf_complex`` after the
first call (as ``bench/tracer.py`` installs its spans) sees every later
call, and one process running several commands prints what fresh
processes print.
"""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import rbfam
from rbfam import cli
from rbfam.workspace import desk_instance, dump_workspace
from test_cli_transcript import run

COHOMOLOGY = ("cohomology", "D0.json", "--object", "operator", "--degree", "1")
CALLS = [
    ("cmd_check", ("check", "D0.json", "--object", "operator")),
    ("cmd_induce", ("induce", "D0.json", "--object", "operator", "--what", "operator_bimodule")),
    ("cmd_cohomology", COHOMOLOGY),
    ("cmd_deform", ("deform", "D0.json", "--object", "operator", "--mode", "rigidity")),
    ("rbf_complex", COHOMOLOGY),
]


@pytest.fixture()
def desk_dir(tmp_path, monkeypatch):
    dump_workspace(desk_instance("D0"), tmp_path / "D0.json")
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("COLUMNS", "80")
    return tmp_path


@pytest.mark.parametrize("target,argv", CALLS, ids=[target for target, _ in CALLS])
def test_a_name_rebound_after_the_first_call_sees_the_next(desk_dir, monkeypatch, target, argv):
    first = run(argv)
    assert first["code"] == 0
    calls = []
    original = getattr(cli, target)

    def counting(*args, **kwargs):
        calls.append(target)
        return original(*args, **kwargs)

    monkeypatch.setattr(cli, target, counting)
    assert run(argv) == first
    assert calls == [target]


def test_one_process_prints_what_fresh_processes_print(desk_dir):
    argvs = [
        COHOMOLOGY,
        ("deform", "D0.json", "--object", "operator"),
        ("check", "D0.json", "--object", "operator", "--json"),
    ]
    src = str(Path(rbfam.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    script = "import sys; from rbfam.cli import main; sys.exit(main(sys.argv[1:]))"
    fresh = []
    for argv in argvs:
        done = subprocess.run(
            [sys.executable, "-c", script, *argv], cwd=desk_dir, env=env, capture_output=True, text=True, timeout=120
        )
        fresh.append({"argv": list(argv), "stdout": done.stdout, "stderr": done.stderr, "code": done.returncode})
    assert [r["code"] for r in fresh] == [0, 2, 0]
    assert json.loads(fresh[2]["stdout"])["passed"] is True
    assert [run(argv) for argv in argvs] == fresh
