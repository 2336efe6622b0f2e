"""The three benchmark workloads: seeded inputs, jobs and their references.

A workload's ``setup`` writes its workspace files and returns a list of
jobs.  A job's ``run`` builds its inputs fresh and calls rbfam, as one CLI
call of a user would; its ``check`` compares the answer with a reference
that does not come from the code being timed.  Every pass runs the same
job list, so the exact counters of the traced run repeat pass to pass.
"""
import io
import json
import os
import random
from collections import namedtuple
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

import rbfam.cli
from rbfam import deformations, operators, workspace
from rbfam.deformations import LinearDeformation
from rbfam.homalg import regular_bimodule, tensor_semigroup_algebra
from rbfam.linalg import Matrix
from rbfam.operators import TwistedRBFamily, identity_packing_family
from rbfam.semigroups import builtin
from rbfam.workspace import desk_instance, dump_workspace

import algebra

# Timed calls go through module attributes (operators.graph_check, ...), so
# that the tracer's rebinding of those attributes sees them.

# Frozen in tests/test_acceptance.py from the independent naive oracle
# (degrees 0, 1, 2).  The pair-indexed complex on the induced data must give
# the same numbers (route equivalence).
GOLDEN_RBF_DIMS = {
    "D0": [(1, 1, 0, 1), (1, 1, 0, 1), (1, 1, 0, 1)],
    "D1": [(4, 4, 0, 4), (16, 0, 0, 0), (64, 16, 16, 0)],
    "D2": [(4, 4, 0, 4), (16, 0, 0, 0), (64, 16, 16, 0)],
}
# Pinned: rbfam at the commit that added this benchmark, on the shipped
# bases.  No independent oracle covers the Hochschild-type complex of D1/D2.
PINNED_HA_DESK_DIMS = {1: (8, 0, 0, 0), 2: (32, 8, 8, 0)}
# Twisted-triangular family packed with C2: tests/test_cohomology.py
# (test_constrained_family_complex_with_twisting), degrees 0 and 1.
GOLDEN_TWISTED_C2_DIMS = {0: (4, 2, 0, 2), 1: (20, 2, 2, 0)}
# Pinned: rbfam at the commit that added this benchmark, on the shipped
# (untransported) basis.  Every seeded basis must reproduce them, which is
# the isomorphism-invariance check.
PINNED_TWISTED_BOOL_DIMS = {0: (4, 2, 0, 2), 1: (20, 2, 2, 0)}
PINNED_HA_TRIANGULAR_DIMS = {2: (12, 4, 4, 0), 3: (28, 8, 8, 0)}
# Pinned: number of Nijenhuis families on the D1 base over C2 with entries in
# (0, 1, -1), from rbfam at the commit that added this benchmark.  The
# reference also checks each family with a naive evaluator and requires the
# identity and zero families.
PINNED_NIJENHUIS_FOUND = 25
# dim Z^1 = 0 on D1 and D2 (golden above), so the rigidity verdict holds
# vacuously there; on D0, C^1 = Z^1, so every direction is a cocycle.
RIGIDITY_VERDICT = "sufficient condition met"

CANDIDATE_GRID = (Fraction(0), Fraction(1), Fraction(-1), Fraction(1, 2), Fraction(2))
DIRECTION_GRID = (Fraction(0), Fraction(1), Fraction(-1), Fraction(1, 2))
SEARCH_GRID = (Fraction(0), Fraction(1), Fraction(-1))


# ``run`` builds the inputs and calls rbfam; ``check`` takes its answer.
Job = namedtuple("Job", "name run check")


def cli(*argv):
    """rbfam's CLI in process; returns (exit code, stdout)."""
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = rbfam.cli.main([str(a) for a in argv])
    return code, out.getvalue()


def _dims_doc(tag, degree, dims):
    return {"complex": tag, "degree": degree, "dimC": dims[0], "dimZ": dims[1], "dimB": dims[2], "dimH": dims[3]}


def _cohomology_job(name, path, obj, degree, tag, dims, extra=()):
    expected = _dims_doc(tag, degree, dims)

    def run():
        code, out = cli("cohomology", path, "--object", obj, "--degree", degree, "--json", *extra)
        return code, json.loads(out) if code == 0 else out

    def check(answer):
        return answer == (0, expected)

    return Job(name, run, check)


# ---------------------------------------------------------------------------
# desk-cohomology


def setup_desk(workdir, rng, tiny=False):
    cli("catalog", workdir)
    jobs = []
    for inst in ("D1",) if tiny else ("D1", "D2"):
        desk = os.path.join(workdir, f"{inst}.json")
        induced = os.path.join(workdir, f"{inst}_omega.json")
        code, out = cli("induce", desk, "--object", "operator", "--what", "operator_bimodule")
        if code != 0:
            raise RuntimeError(f"induce on {inst} exited with {code}")
        with open(induced, "w", encoding="utf-8") as fh:
            fh.write(out)
        for degree in (1,) if tiny else (1, 2):
            rbf = GOLDEN_RBF_DIMS[inst][degree]
            jobs.append(_cohomology_job(f"{inst}/rbf/{degree}", desk, "operator", degree, "rbf", rbf))
            jobs.append(_cohomology_job(f"{inst}/omega/{degree}", induced, "operator_operator_bimodule", degree, "omega", rbf))
            jobs.append(_cohomology_job(f"{inst}/ha/{degree}", desk, "bimodule", degree, "ha", PINNED_HA_DESK_DIMS[degree]))
    rng.shuffle(jobs)
    return jobs


# ---------------------------------------------------------------------------
# twisted-constrained


def setup_twisted(workdir, rng, tiny=False):
    # Each family is moved into two seeded bases.  Degree 0 runs on both,
    # degree 1 on the first: the cheap jobs then outnumber the rest, so the
    # median and the tail rank fall inside one kind of job.
    base = algebra.yau_twisted_triangular()
    jobs = []
    for tag, omega, golden in (
        ("C2", builtin("cyclic", 2), GOLDEN_TWISTED_C2_DIMS),
        ("bool", builtin("boolean_monoid"), PINNED_TWISTED_BOOL_DIMS),
    ):
        _, _, cocycle = tensor_semigroup_algebra(base, omega)
        family = identity_packing_family(base, omega, cocycle)
        for copy in range(1 if tiny else 2):
            op = algebra.transport_family(family, rng)
            path = os.path.join(workdir, f"twisted_{tag}_{copy}.json")
            dump_workspace(
                {"omega": op.omega, "algebra": op.algebra, "bimodule": op.bimodule, "cocycle": op.cocycle, "operator": op},
                path,
            )
            for degree in (0,) if tiny or copy else (0, 1):
                jobs.append(_cohomology_job(f"{tag}/rbf/{degree}#{copy}", path, "operator", degree, "rbf", golden[degree]))
    s, s_inv = algebra.seeded_unimodular(base.dim, rng)
    moved = algebra.transport_algebra(base, s, s_inv)
    path = os.path.join(workdir, "triangular_ha.json")
    dump_workspace({"algebra": moved, "bimodule": regular_bimodule(moved)}, path)
    jobs.append(_cohomology_job("triangular/ha/2", path, "bimodule", 2, "ha", PINNED_HA_TRIANGULAR_DIMS[2]))
    if not tiny:
        # An explicit entry budget lifts the degree cap to 3.
        jobs.append(
            _cohomology_job(
                "triangular/ha/3", path, "bimodule", 3, "ha", PINNED_HA_TRIANGULAR_DIMS[3], ("--max-entries", 10**5)
            )
        )
    return jobs


# ---------------------------------------------------------------------------
# verdict-stream


def _random_maps(rng, grid, count, size):
    return tuple(tuple(rng.choice(grid) for _ in range(size)) for _ in range(count))


def _candidate_job(inst, index, maps, reference):
    def run():
        host = desk_instance(inst)
        n, d = host["algebra"].dim, host["bimodule"].dim
        cand = TwistedRBFamily(
            cocycle=host["cocycle"], omega=host["omega"], maps=tuple(Matrix(n, d, m) for m in maps)
        )
        return operators.check_twisted_rbf(cand).passed, operators.graph_check(cand).passed

    def check(answer):
        if "naive" not in reference:
            reference["naive"] = algebra.family_law_holds(reference["data"], maps)
        return answer == (reference["naive"], reference["naive"])

    return Job(f"{inst}/candidate#{index}", run, check)


def _direction_job(inst, index, direction):
    # dim Z^1 = 0 on D1: only the zero direction is a cocycle.  On D0 every
    # direction is one.
    expected = inst == "D0" or not any(x for m in direction for x in m)

    def run():
        base = desk_instance(inst)["operator"]
        n, d = base.algebra.dim, base.bimodule.dim
        report = deformations.check_infinitesimal(
            LinearDeformation(base=base, direction=tuple(Matrix(n, d, m) for m in direction))
        )
        return report.passed, report.cocycle_route_ok

    def check(answer):
        return answer == (expected, expected)

    return Job(f"{inst}/direction#{index}", run, check)


def _search_job():
    def run():
        d1 = desk_instance("D1")
        found = operators.search_nijenhuis_families(d1["base_algebra"], d1["omega"], grid=SEARCH_GRID)
        return [tuple(tuple(m.entries) for m in f.maps) for f in found]

    def check(answer):
        if len(answer) != PINNED_NIJENHUIS_FOUND or len(set(answer)) != len(answer):
            return False
        one, zero = Fraction(1), Fraction(0)
        if ((one, zero, zero, one),) * 2 not in answer or ((zero,) * 4,) * 2 not in answer:
            return False
        d1 = desk_instance("D1")
        mu = algebra.nested3(d1["base_algebra"].mu)
        table = d1["omega"].table
        return all(
            algebra.nijenhuis_law_holds(mu, table, [[list(m[0:2]), list(m[2:4])] for m in fam]) for fam in answer
        )

    return Job("D1/nijenhuis-search", run, check)


def _round_trip_jobs(workdir, inst, index):
    desk = os.path.join(workdir, f"{inst}.json")
    dumped = os.path.join(workdir, f"{inst}_roundtrip{index}.json")
    kinds = {
        "omega": "semigroup",
        "operator_total_product": "omega_assoc",
        "operator_operator_bimodule": "omega_bimodule",
    }

    def induce():
        code, out = cli("induce", desk, "--object", "operator", "--what", "operator_bimodule")
        with open(dumped, "w", encoding="utf-8") as fh:
            fh.write(out)
        return code, sorted(json.loads(out)["objects"])

    def reload():
        return workspace.load_workspace(dumped).kinds

    def check():
        code, out = cli("check", dumped, "--object", "operator_operator_bimodule", "--json")
        return code, json.loads(out)["passed"]

    def deform():
        code, out = cli("deform", desk, "--object", "operator", "--mode", "rigidity", "--json")
        doc = json.loads(out)
        return code, doc["verdict"], doc["dim_c1"], doc["dim_z1"]

    c1, z1 = GOLDEN_RBF_DIMS[inst][1][:2]
    return [
        Job(f"{inst}/induce#{index}", induce, lambda a: a == (0, sorted(kinds))),
        Job(f"{inst}/reload#{index}", reload, lambda a: a == kinds),
        Job(f"{inst}/check#{index}", check, lambda a: a == (0, True)),
        Job(f"{inst}/deform#{index}", deform, lambda a: a == (0, RIGIDITY_VERDICT, c1, z1)),
    ]


def setup_verdict(workdir, rng, tiny=False):
    cli("catalog", workdir)
    jobs = []
    per_instance = {"D0": 8, "D1": 24, "D2": 24}
    for inst, count in per_instance.items():
        if tiny:
            count = 2
        desk = desk_instance(inst)
        op = desk["operator"]
        n, d, m = op.algebra.dim, op.bimodule.dim, op.omega.size
        reference_data = {"data": algebra.FamilyData(op)}
        # The shipped family and the zero family pass; the rest are drawn.
        candidates = [tuple(tuple(x.entries) for x in op.maps), ((Fraction(0),) * (n * d),) * m]
        while len(candidates) < count:
            candidates.append(_random_maps(rng, CANDIDATE_GRID, m, n * d))
        for i, maps in enumerate(candidates):
            jobs.append(_candidate_job(inst, i, maps, dict(reference_data)))
    for inst, count in (("D1", 2 if tiny else 24), ("D0", 2 if tiny else 6)):
        op = desk_instance(inst)["operator"]
        n, d, m = op.algebra.dim, op.bimodule.dim, op.omega.size
        directions = [((Fraction(0),) * (n * d),) * m]
        while len(directions) < count:
            directions.append(_random_maps(rng, DIRECTION_GRID, m, n * d))
        jobs.extend(_direction_job(inst, i, direction) for i, direction in enumerate(directions))
    jobs.append(_search_job())
    # Three round trips per instance put the tail rank inside the rigidity
    # jobs rather than on the edge between two kinds of job.
    for index in range(1 if tiny else 3):
        for inst in ("D2",) if tiny else ("D1", "D2"):
            jobs.extend(_round_trip_jobs(workdir, inst, index))
    return jobs


# Seconds one pass takes at the reference speed, at the commit that added
# this benchmark; --seconds divided by this sets the number of passes.
NOMINAL_PASS_S = {
    "desk-cohomology": 6.0,
    "twisted-constrained": 12.5,
    "verdict-stream": 7.0,
}

WORKLOADS = {
    "desk-cohomology": setup_desk,
    "twisted-constrained": setup_twisted,
    "verdict-stream": setup_verdict,
}

# Layers each workload must exercise, as tuples of tracer groups of which
# at least one must record calls: a traced run fails when none does, which
# catches a wrapper that no longer sits on the path.  Elimination is one
# layer, so a change that replaces solve by another elimination still passes.
LAYER_GUARD = {
    "desk-cohomology": [
        ("cohomology.differential",),
        ("cohomology.matrix",),
        ("linalg.multilinear",),
        ("homalg.hochschild",),
        ("reports.ensure_valid",),
        ("cli.cohomology",),
        ("workspace.load",),
    ],
    "twisted-constrained": [
        ("cohomology.basis",),
        ("linalg.rank", "linalg.kernel_basis", "linalg.solve"),
        ("cohomology.differential",),
    ],
    "verdict-stream": [
        ("operators.check_twisted_rbf",),
        ("operators.graph_check",),
        ("operators.search",),
        ("family.construct",),
        ("family.check",),
        ("deformations.infinitesimal",),
        ("deformations.rigidity",),
        ("workspace.load",),
        ("workspace.dump",),
        ("cli.induce",),
        ("cli.check",),
        ("cli.deform",),
        ("reports.ensure_valid",),
    ],
}


def setup(workload, workdir, seed, tiny=False):
    return WORKLOADS[workload](workdir, random.Random(seed), tiny)
