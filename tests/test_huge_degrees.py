"""Huge degrees end in exit code 2 with a message, quickly and in little memory.

Cochain sizes grow exponentially with the degree, so every size is counted
arithmetically and checked against the cap or budget before anything is
listed, and no message prints an unbounded number.  The last cases are
documents the loader refuses: an integer literal or a rational literal too
long to convert, and a file that is not UTF-8.  Every case goes through the
CLI.
"""
import json
import time

import pytest

from rbfam.cli import main
from rbfam.family import operator_bimodule
from rbfam.workspace import desk_instance, dump_workspace

EXIT_INPUT_ERROR = 2
HUGE = 10**6


@pytest.fixture(scope="module")
def d1_doc():
    d1 = desk_instance("D1")
    module = operator_bimodule(d1["operator"])
    named = dict(d1, total_product=module.parent, operator_bimodule=module)
    return json.loads(dump_workspace(named))


@pytest.fixture()
def d1_path(tmp_path, d1_doc):
    path = tmp_path / "D1.json"
    path.write_text(json.dumps(d1_doc))
    return str(path)


def _exits_two_quickly(capsys, argv):
    start = time.perf_counter()
    code = main(argv)
    elapsed = time.perf_counter() - start
    err = capsys.readouterr().err
    assert code == EXIT_INPUT_ERROR
    assert elapsed < 1.0
    assert err.startswith("error: ") and len(err) < 200
    return err.strip()


@pytest.mark.parametrize("obj", ["operator", "bimodule", "operator_bimodule"])
def test_huge_degree_is_over_the_cap(d1_path, capsys, obj):
    argv = ["cohomology", d1_path, "--object", obj, "--degree", str(HUGE)]
    err = _exits_two_quickly(capsys, argv)
    assert err == (
        f"error: degree {HUGE} exceeds the cap 2 "
        "(more than 1000000000000000000 raw entries at the next degree)"
    )


@pytest.mark.parametrize("obj", ["operator", "bimodule", "operator_bimodule"])
def test_huge_degree_is_over_the_budget(d1_path, capsys, obj):
    argv = ["cohomology", d1_path, "--object", obj, "--degree", str(HUGE), "--max-entries", "100000"]
    err = _exits_two_quickly(capsys, argv)
    assert err == (
        f"error: degree {HUGE} needs more than 1000000000000000000 tensor entries, "
        "beyond the budget 100000"
    )


@pytest.mark.parametrize(
    "obj, message",
    [
        ("operator", "error: degree 3 exceeds the cap 2 (estimated 1024 raw entries at the next degree)"),
        ("bimodule", "error: degree 3 exceeds the cap 2 (estimated 512 raw entries at the next degree)"),
    ],
)
def test_small_degree_cap_messages_are_kept(d1_path, capsys, obj, message):
    assert _exits_two_quickly(capsys, ["cohomology", d1_path, "--object", obj, "--degree", "3"]) == message


@pytest.mark.parametrize(
    "budget, message",
    [
        ("100", "error: degree 3 needs about 256 tensor entries, beyond the budget 100"),
        # The dims path builds no dense basis: the stencil walk (1024 rows x 3^2) is refused.
        ("5000", "error: degree 3 needs a stencil walk of about 9216 steps, beyond the budget 5000"),
    ],
)
def test_small_degree_budget_messages_are_kept(d1_path, capsys, budget, message):
    argv = ["cohomology", d1_path, "--object", "operator", "--degree", "3", "--max-entries", budget]
    assert _exits_two_quickly(capsys, argv) == message


def test_stencil_walk_counts_against_the_budget(tmp_path, capsys):
    # Every D0 cochain space has one raw coordinate, so the sizes stay under
    # any budget; the stencil walk (raw(n+1) rows x n merged slots x n-long
    # argument lists) grows quadratically and is what the budget refuses.
    path = tmp_path / "D0.json"
    path.write_text(dump_workspace(desk_instance("D0")))
    argv = ["cohomology", str(path), "--object", "operator", "--degree", "5000", "--max-entries", "10"]
    assert _exits_two_quickly(capsys, argv) == (
        "error: degree 5000 needs a stencil walk of about 25000000 steps, beyond the budget 10"
    )


# References of each complex's cochains, and the target dimension: a table
# with that many empty rows reaches the row-width check.
COCHAIN_HOSTS = {
    "rbf": ({"operator": "operator"}, 4),
    "ha": ({"algebra": "algebra", "bimodule": "bimodule"}, 2),
    "omega": ({"algebra": "total_product", "bimodule": "operator_bimodule"}, 4),
}


@pytest.mark.parametrize("complex_tag", sorted(COCHAIN_HOSTS))
def test_huge_degree_cochain_document_exits_two(tmp_path, capsys, d1_doc, complex_tag):
    refs, rows = COCHAIN_HOSTS[complex_tag]
    data = json.loads(json.dumps(d1_doc))
    data["objects"]["f"] = dict(
        refs, kind="cochain", complex=complex_tag, degree=HUGE, table={"": [[]] * rows}
    )
    path = tmp_path / "ws.json"
    path.write_text(json.dumps(data))
    err = _exits_two_quickly(capsys, ["check", str(path), "--object", "f"])
    assert err == (
        "error: objects['f'].degree: a cochain of this degree has more than 10000000 entries"
    )


def test_overlong_integer_literal_exits_two(tmp_path, capsys, d1_doc):
    # Python refuses to convert an integer literal of over 4300 digits.
    huge_literal = '"f": {"kind": "cochain", "degree": ' + "9" * 5000 + "}, "
    text = json.dumps(d1_doc).replace('"objects": {', '"objects": {' + huge_literal, 1)
    path = tmp_path / "ws.json"
    path.write_text(text)
    err = _exits_two_quickly(capsys, ["check", str(path), "--object", "f"])
    assert err == "error: workspace is not valid JSON: an integer literal is too long"


@pytest.mark.parametrize("literal", ["1" * 5000, "1/" + "7" * 5000])
def test_overlong_rational_literal_exits_two(tmp_path, capsys, d1_doc, literal):
    # The same limit, reached by a rational literal (a JSON string) in an entry.
    data = json.loads(json.dumps(d1_doc))
    data["objects"]["algebra"]["p"][1][0] = literal
    path = tmp_path / "ws.json"
    path.write_text(json.dumps(data))
    err = _exits_two_quickly(capsys, ["check", str(path), "--object", "algebra"])
    assert err == f"error: objects['algebra'].p[1]: rational literal of {len(literal)} characters is too long"


def test_file_that_is_not_utf8_exits_two(tmp_path, capsys):
    path = tmp_path / "ws.json"
    path.write_bytes(b'{"objects": {"\xff": 1}}')
    err = _exits_two_quickly(capsys, ["check", str(path), "--object", "f"])
    assert err.startswith("error: cannot read workspace: 'utf-8' codec can't decode byte 0xff")

