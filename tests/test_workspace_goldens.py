"""Golden workspace documents: the dump of every kind and the loader's messages.

``goldens/workspace_all_kinds.json`` is the dump of one document that holds
an object of every one of the 17 kinds, built on the desk instance D1; its
cochains include rbf, ha and omega ones and degree-0 ones.
``goldens/workspace_loader_messages.json`` maps each case
"<object>.<field>/<corruption>" to the ``InputError`` message the loader
raises on that document with one field corrupted (or ``null`` when the
document still loads).  Both were frozen before the per-kind loaders and
writers were folded into one kind table; a failure here means the document
layout or a message changed, and the fix belongs in the code, not in the
golden files.
"""
import json
from fractions import Fraction
from pathlib import Path

import pytest

from rbfam.deformations import LinearDeformation
from rbfam.errors import InputError
from rbfam.family import (
    ns_family_from_operator,
    ns_family_pack,
    operator_bimodule,
    tridend_from_weighted_rbf,
)
from rbfam.linalg import Matrix, Tensor
from rbfam.operators import NijenhuisFamily, OperatorMorphism, WeightedRBFamily
from rbfam.workspace import (
    DeformationDoc,
    LinearMapDoc,
    NijenhuisCandidate,
    WorkspaceCochain,
    desk_instance,
    dump_workspace,
    load_workspace,
)

GOLDENS = Path(__file__).parent / "goldens"
DUMP_PATH = GOLDENS / "workspace_all_kinds.json"
MESSAGES_PATH = GOLDENS / "workspace_loader_messages.json"

# The linear map "endo" is referenced by no field, so naming it is a
# reference to an object of the wrong kind wherever a reference is expected.
CORRUPTIONS = {
    "null": None,
    "int": 7,
    "bad_string": "bogus",
    "empty_list": [],
    "empty_dict": {},
    "nested_list": [[["1"]]],
    "keyed_dict": {"0": "1"},
    "wrong_kind_ref": "endo",
}

# A list or dict "kind" made the loader raise a TypeError instead of an
# InputError when the goldens were frozen; tests/test_workspace_input.py
# pins its message now.
UNHASHABLE = ("empty_list", "empty_dict", "nested_list", "keyed_dict")


def _pinned(case):
    field, label = case.split(".", 1)[1].split("/")
    return not (field == "kind" and label in UNHASHABLE)


def _entries(rows, cols, seed):
    return tuple(
        Fraction((seed + 3 * i + j) % 7 - 3, 1 + (i + j) % 2)
        for i in range(rows)
        for j in range(cols)
    )


def _matrix(rows, cols, seed):
    return Matrix(rows, cols, _entries(rows, cols, seed))


def _cochain(tag, host, degree, tgt, src, keys):
    table = {}
    for seed, key in enumerate(keys):
        shape = (tgt,) + (src,) * degree
        table[key] = Tensor(shape, _entries(tgt, src**degree, seed))
    return WorkspaceCochain(complex=tag, host=host, degree=degree, table=table)


def all_kinds():
    """D1 plus one object of every other kind; p = q = id, so every cochain is a member."""
    named = dict(desk_instance("D1"))
    omega, base, operator = named["omega"], named["base_algebra"], named["operator"]
    algebra, module = named["algebra"], named["bimodule"]
    weighted = WeightedRBFamily(
        algebra=base, omega=omega, weight=Fraction(-1), maps=(Matrix.identity(2),) * 2
    )
    ns = ns_family_from_operator(operator)
    op_module = operator_bimodule(operator)
    direction = (Matrix.zero(4, 2), Matrix.zero(4, 2))
    deformation = LinearDeformation(base=operator, direction=direction, order=3)
    named.update(
        {
            "nijenhuis": NijenhuisFamily(
                algebra=base, omega=omega, maps=(_matrix(2, 2, 1), _matrix(2, 2, 2))
            ),
            "weighted": weighted,
            "morphism": OperatorMorphism(
                source=operator, target=operator, psi=Matrix.identity(4), phi=_matrix(2, 2, 3)
            ),
            "ns_packed": ns_family_pack(ns),
            "ns": ns,
            "tridend": tridend_from_weighted_rbf(weighted),
            "total": op_module.parent,
            "op_module": op_module,
            "deformation": DeformationDoc(
                deformation=deformation, other="deformation_bar", element=(Fraction(1, 2), 0, 0, 1)
            ),
            "deformation_bar": DeformationDoc(deformation=deformation, other=None, element=None),
            "candidate": NijenhuisCandidate(
                operator=operator, vector=(Fraction(-2), 0, Fraction(3, 4), 1)
            ),
            "endo": LinearMapDoc(matrix=_matrix(2, 3, 4)),
            "f_rbf0": _cochain("rbf", (operator,), 0, 4, 2, [()]),
            "f_rbf1": _cochain("rbf", (operator,), 1, 4, 2, [(0,), (1,)]),
            "f_rbf2": _cochain("rbf", (operator,), 2, 4, 2, [(0, 0), (0, 1), (1, 0), (1, 1)]),
            "f_ha0": _cochain("ha", (algebra, module), 0, 2, 4, [()]),
            "f_ha1": _cochain("ha", (algebra, module), 1, 2, 4, [()]),
            "f_omega0": _cochain("omega", (op_module.parent, op_module), 0, 4, 2, [()]),
            "f_omega1": _cochain("omega", (op_module.parent, op_module), 1, 4, 2, [(0,), (1,)]),
        }
    )
    return named


def corrupted_documents(data):
    """Yield (case, document) for every field of every object, each corrupted
    in every way of CORRUPTIONS and deleted."""
    for name, doc in data["objects"].items():
        for field in doc:
            for label, value in list(CORRUPTIONS.items()) + [("deleted", KeyError)]:
                copy = json.loads(json.dumps(data))
                if value is KeyError:
                    del copy["objects"][name][field]
                else:
                    copy["objects"][name][field] = value
                yield f"{name}.{field}/{label}", copy


def loader_message(document):
    try:
        load_workspace(document)
    except InputError as exc:
        return str(exc)
    return None


@pytest.fixture(scope="module")
def golden_text():
    return DUMP_PATH.read_text()


@pytest.fixture(scope="module")
def golden_messages():
    return json.loads(MESSAGES_PATH.read_text())


def test_dump_of_every_kind_matches_golden(golden_text):
    assert dump_workspace(all_kinds()) + "\n" == golden_text


def test_golden_holds_every_kind(golden_text):
    kinds = {doc["kind"] for doc in json.loads(golden_text)["objects"].values()}
    assert len(kinds) == 17
    complexes = {
        (doc["complex"], doc["degree"])
        for doc in json.loads(golden_text)["objects"].values()
        if doc["kind"] == "cochain"
    }
    assert {("ha", 0), ("omega", 0), ("rbf", 0), ("ha", 1), ("omega", 1)} <= complexes


def test_reload_and_dump_is_byte_identical(golden_text):
    ws = load_workspace(golden_text)
    assert dump_workspace({name: ws.get(name) for name in ws.objects}) + "\n" == golden_text


def test_reload_gives_equal_objects(golden_text):
    named = all_kinds()
    ws = load_workspace(golden_text)
    for name, obj in named.items():
        assert ws.get(name) == obj, name


def test_messages_cover_every_case(golden_text, golden_messages):
    cases = {case for case, _ in corrupted_documents(json.loads(golden_text)) if _pinned(case)}
    assert set(golden_messages) == cases


def test_loader_messages_match_golden(golden_text, golden_messages):
    changed = {}
    for case, document in corrupted_documents(json.loads(golden_text)):
        if not _pinned(case):
            continue
        message = loader_message(document)
        if message != golden_messages[case]:
            changed[case] = (golden_messages[case], message)
    assert changed == {}
