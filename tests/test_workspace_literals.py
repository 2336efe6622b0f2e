"""Each distinct rational literal is parsed once per workspace load.

``load_workspace`` keeps the literals it has parsed in a dict of its own,
successes only: a second load parses them again, and a bad literal that
follows good copies of itself elsewhere fails with the message and path it
always had.
"""
import json

import pytest

from rbfam import workspace
from rbfam.errors import InputError
from rbfam.workspace import desk_instance, dump_workspace, load_workspace


def _literals(node):
    if isinstance(node, str):
        yield node
    elif isinstance(node, list):
        for child in node:
            yield from _literals(child)
    elif isinstance(node, dict):
        for child in node.values():
            yield from _literals(child)


@pytest.fixture
def parsed(monkeypatch):
    calls = []
    parse = workspace.parse_rational

    def counting(text, where=None):
        calls.append(text)
        return parse(text, where)

    monkeypatch.setattr(workspace, "parse_rational", counting)
    return calls


def test_a_load_parses_each_distinct_literal_once(parsed):
    doc = json.loads(dump_workspace(desk_instance("D1")))
    cocycle = doc["objects"]["cocycle"]
    distinct = set(_literals(cocycle["phi"])) | set(_literals(doc["objects"]["algebra"]["mu"]))
    loaded = load_workspace(doc)
    assert sorted(parsed) == sorted(set(parsed)) and distinct <= set(parsed)
    assert len(parsed) < len(list(_literals(cocycle["phi"])))
    assert "literals" not in vars(loaded)
    # A second load keeps nothing of the first.
    first = list(parsed)
    load_workspace(doc)
    assert parsed[len(first):] == first


def test_a_bad_literal_after_good_copies_fails_where_it_stands(parsed):
    doc = json.loads(dump_workspace(desk_instance("D1")))
    mu = doc["objects"]["algebra"]["mu"]
    mu[1][1][0] = "1/0"
    with pytest.raises(InputError, match="zero denominator"):
        load_workspace(doc)
    mu[1][1][0] = ["1"]
    with pytest.raises(InputError) as caught:
        load_workspace(doc)
    assert str(caught.value).startswith("objects['algebra'].mu[1][1]: scalars must be rational literals")
