"""Generated hostile workspace documents through every subcommand.

A Hypothesis strategy makes one structure-aware mutation of a catalog
document (D0-D2) or of the deform document (D1 plus two deformations, a
Nijenhuis candidate and three families): it replaces a leaf by a hostile
value, deletes a key, adds an extra key, changes an object's kind, points a
reference at an object of another kind, or makes a list one entry too short
or too long.  Each mutated document then runs in process through ``check``,
``verify-suite``, ``cohomology --degree 1``, ``induce`` and ``deform``.
Every run must end in exit code 0, 1 or 2 without an exception, print a
message on stderr when it exits 2, and finish within a wall-time bound.
The seed is fixed (``derandomize``), so the same documents run every time.
"""
import contextlib
import copy
import io
import json
import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from rbfam.cli import main
from rbfam.workspace import KINDS, dump_workspace, desk_instance

WALL_BOUND_S = 20.0

# Long, malformed and non-string literals, and literals that load but
# break the structure they sit in.
HOSTILE = (
    "0",
    "-1",
    "2",
    "1/2",
    "1" * 5000,
    "1/" + "1" * 5000,
    "1/0",
    "1//2",
    " 1",
    "",
    "x",
    "1e3",
    "nan",
    1.5,
    float("inf"),
    True,
    False,
    None,
    [],
    {},
    [[["1"]]],
    0,
    -1,
    10**30,
)


def _deform_document():
    """D1 with the objects the deform subcommand reads: deformations D and
    Dbar (D carries the element e_2), a Nijenhuis candidate x, the identity
    Nijenhuis family N, the identity weighted family T of weight -1, and T0
    of weight 0, which fails its identity."""
    doc = json.loads(dump_workspace(desk_instance("D1")))
    zeros = {"0": [["0", "0"]] * 4, "1": [["0", "0"]] * 4}
    eye = [["1", "0"], ["0", "1"]]
    doc["objects"].update(
        D={"kind": "deformation", "base": "operator", "direction": zeros, "order": 3,
           "other": "Dbar", "element": ["0", "0", "1", "0"]},
        Dbar={"kind": "deformation", "base": "operator", "direction": zeros, "order": 3},
        x={"kind": "nijenhuis_candidate", "operator": "operator", "vector": ["1", "0", "0", "0"]},
        N={"kind": "nijenhuis_family", "algebra": "base_algebra", "omega": "omega",
           "maps": {"0": eye, "1": eye}},
        T={"kind": "weighted_rbf", "algebra": "base_algebra", "omega": "omega", "weight": "-1",
           "maps": {"0": eye, "1": eye}},
        T0={"kind": "weighted_rbf", "algebra": "base_algebra", "omega": "omega", "weight": "0",
            "maps": {"0": eye, "1": eye}},
    )
    # A round trip, so that no two fields share one list.
    return json.loads(json.dumps(doc))


DOCUMENTS = {name: json.loads(dump_workspace(desk_instance(name))) for name in ("D0", "D1", "D2")}
DOCUMENTS["deform"] = _deform_document()

INDUCE = (
    ("operator", "operator_bimodule"),
    ("operator", "ns_family"),
    ("operator", "pack_operator"),
    ("cocycle", "semidirect"),
    ("base_algebra", "tensor_omega", "--with", "omega"),
    ("N", "nijenhuis_data"),
    ("T", "tridend"),
)
DEFORM = (
    ("operator", "rigidity"),
    ("D", "infinitesimal"),
    ("D", "ns_family"),
    ("D", "equivalence"),
    ("D", "trivialize"),
    ("D", "rigidity"),
    ("x", "nijenhuis"),
)


def _nodes(node, path=()):
    """(path, node) for the node and everything below it, depth first."""
    yield path, node
    if isinstance(node, dict):
        for key, child in node.items():
            yield from _nodes(child, path + (key,))
    elif isinstance(node, list):
        for i, child in enumerate(node):
            yield from _nodes(child, path + (i,))


def _at(doc, path):
    for step in path:
        doc = doc[step]
    return doc


def _references(doc):
    """Paths of string fields that name another object of the document."""
    objects = doc["objects"]
    return [
        path
        for path, node in _nodes(objects, ("objects",))
        if len(path) == 3 and path[2] != "kind" and isinstance(node, str) and node in objects
    ]


@st.composite
def mutations(draw):
    """(document name, mutated document, description) for one mutation."""
    name = draw(st.sampled_from(sorted(DOCUMENTS)))
    doc = copy.deepcopy(DOCUMENTS[name])
    nodes = list(_nodes(doc))
    kind = draw(
        st.sampled_from(("leaf", "delete", "extra", "kind", "reference", "length"))
    )
    if kind == "leaf":
        path = draw(st.sampled_from([p for p, n in nodes if p and not isinstance(n, (dict, list))]))
        value = draw(st.sampled_from(HOSTILE))
        _at(doc, path[:-1])[path[-1]] = value
        return name, doc, f"{path} = {str(value)[:20]!r}"
    if kind in ("delete", "extra"):
        path = draw(st.sampled_from([p for p, n in nodes if isinstance(n, dict) and n]))
        node = _at(doc, path)
        if kind == "delete":
            key = draw(st.sampled_from(sorted(node)))
            del node[key]
            return name, doc, f"del {path + (key,)}"
        node[draw(st.sampled_from(("extra", "0", "kind_")))] = draw(st.sampled_from(HOSTILE))
        return name, doc, f"extra key at {path}"
    objects = doc["objects"]
    if kind == "kind":
        obj = draw(st.sampled_from(sorted(objects)))
        new = draw(st.sampled_from(sorted(set(KINDS) - {objects[obj]["kind"]})))
        objects[obj]["kind"] = new
        return name, doc, f"{obj}.kind = {new!r}"
    if kind == "reference":
        path = draw(st.sampled_from(_references(doc)))
        current = objects[_at(doc, path)]["kind"]
        target = draw(st.sampled_from(sorted(o for o in objects if objects[o]["kind"] != current)))
        _at(doc, path[:-1])[path[-1]] = target
        return name, doc, f"{path} -> {target!r}"
    path = draw(st.sampled_from([p for p, n in nodes if isinstance(n, list) and n]))
    node = _at(doc, path)
    if draw(st.booleans()):
        node.pop()
    else:
        node.append(copy.deepcopy(node[-1]))
    return name, doc, f"resized list at {path}"


def _commands(draw, path, names):
    """One argv per subcommand, with the objects, targets and modes drawn."""
    flag = ["--json"] if draw(st.booleans()) else []
    what = draw(st.sampled_from(INDUCE))
    obj, mode = draw(st.sampled_from(DEFORM))
    return [
        ["check", path, "--object", draw(st.sampled_from(names)), *flag],
        ["verify-suite", path, *flag],
        ["cohomology", path, "--object", draw(st.sampled_from(("operator", "bimodule", *names))),
         "--degree", "1", *flag],
        ["induce", path, "--object", what[0], "--what", *what[1:]],
        ["deform", path, "--object", obj, "--mode", mode, *flag],
    ]


def run_mutation(data, path):
    """Write one drawn mutation to ``path`` and run every subcommand on it."""
    name, doc, described = data.draw(mutations())
    with open(path, "w") as handle:
        json.dump(doc, handle)
    for argv in _commands(data.draw, str(path), sorted(DOCUMENTS[name]["objects"])):
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        elapsed = time.perf_counter() - start
        where = f"{argv[0]} on {described}"
        assert code in (0, 1, 2), where
        assert code != 2 or err.getvalue().strip(), where
        assert elapsed < WALL_BOUND_S, where


@pytest.fixture(scope="module")
def document_path(tmp_path_factory):
    return tmp_path_factory.mktemp("hostile") / "mutated.json"


@settings(
    max_examples=100,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(data=st.data())
def test_hostile_documents_exit_cleanly(data, document_path):
    run_mutation(data, document_path)
