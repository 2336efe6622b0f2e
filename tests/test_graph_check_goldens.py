"""Golden reports of ``operators.graph_check``: residuals, where-keys and
counts, not only verdicts.

Candidates are the shipped and the zero family of each desk instance
D0-D2, seeded families on D0-D2 with entries from {0, 1, -1, 1/2, 2, -1/3},
the identity packing of the twisted-triangular algebra over C2 (p and q
are diag(1, 2, 1), so the (p+q)-stability law can fail) with seeded
families on its hosts, a copy of each shipped family with one entry moved,
and two families over K[t]/(t^2).  Each report is
pinned as its full ``to_dict()`` JSON at ``max_violations`` 1, 3 and 16,
so the order of the first violations is pinned with them.  The goldens in
``goldens/graph_check_reports.json`` were frozen from the body that
applied each graph matrix to each product of graph columns through
``Matrix.apply`` and ``multilinear_apply``; a failure here means a report
changed, and the fix belongs in the code, not in the golden file.
"""
import json
import random
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest

from conftest import _yau_twisted_triangular
from rbfam.homalg import tensor_semigroup_algebra
from rbfam.linalg import Matrix
from rbfam.operators import TwistedRBFamily, graph_check, identity_packing_family
from rbfam.scalars import TruncatedPoly
from rbfam.semigroups import builtin
from rbfam.workspace import desk_instance

GOLDEN_PATH = Path(__file__).parent / "goldens" / "graph_check_reports.json"
GRID = (Fraction(0), Fraction(1), Fraction(-1), Fraction(1, 2), Fraction(2), Fraction(-1, 3))
SEEDED = 4
MAX_VIOLATIONS = (1, 3, 16)
T = TruncatedPoly.t(2)


def _with_maps(operator, maps):
    return TwistedRBFamily(cocycle=operator.cocycle, omega=operator.omega, maps=tuple(maps))


def _seeded_maps(rng, operator):
    n, d = operator.algebra.dim, operator.bimodule.dim
    return [Matrix(n, d, tuple(rng.choice(GRID) for _ in range(n * d))) for _ in operator.maps]


def _triangular_c2():
    tri, omega = _yau_twisted_triangular(), builtin("cyclic", 2)
    _, _, cocycle = tensor_semigroup_algebra(tri, omega)
    return identity_packing_family(tri, omega, cocycle)


def _candidates():
    rng = random.Random(20261020)
    hosts = {inst: desk_instance(inst)["operator"] for inst in ("D0", "D1", "D2")}
    hosts["triangular-c2"] = _triangular_c2()
    out = {}
    for name, op in hosts.items():
        out[f"{name}/shipped"] = op
        out[f"{name}/zero"] = _with_maps(op, [Matrix.zero(m.rows, m.cols) for m in op.maps])
        for k in range(SEEDED):
            out[f"{name}/seeded#{k}"] = _with_maps(op, _seeded_maps(rng, op))
        # One entry of the last map moved by -1/3: passing and violating
        # tuples interleave.
        *rest, last = op.maps
        nudged = replace(last, entries=(last.entries[0] - Fraction(1, 3), *last.entries[1:]))
        out[f"{name}/nudged"] = _with_maps(op, [*rest, nudged])
    # Polynomial maps R_a + t S_a, S_a seeded: a violating tuple's residual
    # mixes polynomial entries, polynomial zeros and rationals.
    for name in ("D1", "triangular-c2"):
        op = hosts[name]
        bumps = _seeded_maps(rng, op)
        maps = [Matrix(m.rows, m.cols, tuple(e + T * s for e, s in zip(m.entries, b.entries))) for m, b in zip(op.maps, bumps)]
        out[f"{name}/poly"] = _with_maps(op, maps)
    return out


CANDIDATES = _candidates()
CASES = [f"{name}/max{k}" for name in CANDIDATES for k in MAX_VIOLATIONS]


def _report_json(case):
    name, k = case.rsplit("/max", 1)
    # Key order is kept: it is the order in which render() prints a where-dict.
    return json.dumps(graph_check(CANDIDATES[name], int(k)).to_dict(), indent=1)


@pytest.fixture(scope="module")
def goldens():
    return json.loads(GOLDEN_PATH.read_text())


def test_goldens_cover_every_case(goldens):
    assert sorted(goldens) == sorted(CASES)


def test_goldens_include_both_laws_failing(goldens):
    failing = {law["law"] for report in goldens.values() for law in report["laws"] if law["violation_count"]}
    assert failing == {"(p+q) Gr(R_a) inside Gr(R_a)", "Gr(R_a) . Gr(R_b) inside Gr(R_ab)"}


@pytest.mark.parametrize("case", CASES)
def test_graph_check_matches_golden(case, goldens):
    assert _report_json(case) == json.dumps(goldens[case], indent=1)
