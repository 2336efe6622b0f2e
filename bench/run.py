"""rbfam benchmark: one closed-loop client running seeded workloads in process.

Usage, from the root of a checkout:

    python3 bench/run.py --workload desk-cohomology --seed 1 --seconds 20 --trace 0

A pass runs the workload's fixed job list once; a run makes about
``--seconds`` of passes at the reference speed (see ``passes_for``).  With
``--trace 0`` the last stdout line is a JSON object with the end-to-end
metrics; with ``--trace 1`` untraced and traced passes alternate and it
holds the per-layer metrics.  Every answer is checked against its
reference; a wrong answer or an exception counts as a failed job.
Reported seconds are scaled to a reference machine speed (calibrate.py).

The benchmark imports rbfam from ``src/`` of the checkout it sits in and
from nowhere else; without it, it exits with a nonzero status and prints no result.
"""
import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import calibrate

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_SAMPLES = 5
TAIL_BEYOND = 10
CALIBRATE_EVERY_S = 1.0


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="a reduced job list, for the smoke test")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def import_program():
    src = ROOT / "src"
    if not (src / "rbfam" / "__init__.py").is_file():
        raise SystemExit(f"rbfam sources not found under {src}")
    sys.path[:0] = [str(src), str(BENCH)]


def workdir_for(args):
    path = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    path.mkdir(parents=True, exist_ok=True)
    return path


def setup_probe(args):
    """Child process: time importing rbfam, making the inputs and writing the files."""
    workdir = workdir_for(args)
    try:
        before = calibrate.speed()
        start = perf_counter()
        import workloads

        workloads.setup(args.workload, str(workdir), args.seed, args.tiny)
        elapsed = perf_counter() - start
        print(elapsed, elapsed * (before + calibrate.speed()) / 2)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


def measure_setup(args):
    samples = []
    for _ in range(SETUP_SAMPLES):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe", "--workload", args.workload, "--seed", str(args.seed)]
        if args.tiny:
            cmd.append("--tiny")
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
        if done.returncode != 0:
            raise RuntimeError(f"setup probe failed: {done.stderr.strip()}")
        samples.append([float(x) for x in done.stdout.split()])
    return statistics.median(raw for raw, _ in samples), statistics.median(scaled for _, scaled in samples)


class Runner:
    """Runs passes of a job list and keeps every job's latency and verdict.

    A calibration block runs before the first job of a pass, after its
    last, and between jobs once a second has passed since the previous one.
    The pass's latencies are scaled by the mean speed of its blocks, so
    every reported second is a second at the reference speed.
    """

    def __init__(self, jobs):
        self.jobs = jobs
        self.attempted = 0
        self.failures = []
        self.latencies = {job.name: [] for job in jobs}

    def run_pass(self, tracer=None):
        """One pass; returns (unscaled wall time, speed), wall time being the sum of job latencies."""
        from rbfam import reports

        raw, speeds = [], []
        last_block = None
        for job in self.jobs:
            if last_block is None or perf_counter() - last_block >= CALIBRATE_EVERY_S:
                speeds.append(calibrate.speed())
                last_block = perf_counter()
            # A user's CLI call starts with an empty validation cache.
            cache = getattr(reports, "_VALIDATION_CACHE", None)
            if cache is not None:
                cache.clear()
            if tracer is not None:
                tracer.job = job.name
            start = perf_counter()
            try:
                answer = job.run()
                elapsed = perf_counter() - start
                ok = job.check(answer)
                why = f"unexpected answer {answer!r}"
            except (Exception, SystemExit) as exc:  # a failing job is counted, never fatal
                elapsed = perf_counter() - start
                ok, why = False, f"{type(exc).__name__}: {exc}"
            raw.append(elapsed)
            self.attempted += 1
            if not ok:
                self.failures.append(f"{job.name}: {why}")
        speeds.append(calibrate.speed())
        speed = statistics.mean(speeds)
        for job, elapsed in zip(self.jobs, raw):
            self.latencies[job.name].append(elapsed * speed)
        return sum(raw), speed

    def print_jobs(self):
        """Median latency of each kind of job (the name up to ``#``)."""
        kinds = {}
        for name, values in self.latencies.items():
            kinds.setdefault(name.split("#")[0], []).extend(values)
        for kind, values in sorted(kinds.items(), key=lambda kv: -statistics.median(kv[1])):
            print(f"{'':>14} {kind:<28} {len(values):>4} jobs, median {statistics.median(values):.4g} s")


def tail(latencies):
    """Value at the highest percentile with TAIL_BEYOND samples beyond it."""
    ordered = sorted(latencies)
    rank = max(len(ordered) - TAIL_BEYOND - 1, 0)
    return ordered[rank], 100.0 * (rank + 1) / len(ordered), len(ordered)


def passes_for(args):
    """A fixed number of passes: about --seconds of work at the reference speed.

    Fixing the count, rather than stopping on the clock, keeps the number of
    latency samples, and so the rank the tail percentile falls on, the same
    from run to run.
    """
    import workloads

    return max(1, round(args.seconds / workloads.NOMINAL_PASS_S[args.workload]))


def end_to_end(args, runner, setup):
    passes = [runner.run_pass() for _ in range(passes_for(args))]
    latencies = [t for values in runner.latencies.values() for t in values]
    tail_s, pct, count = tail(latencies)
    failed = len(runner.failures)
    # The median job: each job's latency is its median over the passes.
    # (On desk-cohomology half the jobs are degree 1 and half degree 2, so
    # the median of all samples would sit on the gap between the slowest
    # and the fastest single sample of two kinds of job.)
    metrics = {
        "wall_s": (statistics.median(raw * speed for raw, speed in passes), "s"),
        "job_p50_s": (statistics.median(statistics.median(v) for v in runner.latencies.values()), "s"),
        "job_tail_s": (tail_s, "s"),
        "setup_s": (setup[1], "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "ok_ratio": ((runner.attempted - failed) / runner.attempted, "ratio"),
    }
    speeds = " ".join(f"{speed:.3f}" for _, speed in passes)
    print(f"# {args.workload} seed {args.seed}: {len(passes)} passes of {len(runner.jobs)} jobs; "
          f"seconds are scaled by the calibrated speed of each pass ({speeds})")
    for name, (value, unit) in metrics.items():
        print(f"{name:>14} {value:.6g} {unit}")
    print(f"{'fail_ratio':>14} {failed / runner.attempted:.6g} ({failed} of {runner.attempted} jobs)")
    print(f"{'':>14} job_tail_s is p{pct:.1f} of {count} job latencies")
    print(f"{'':>14} unscaled: wall_s {statistics.median(raw for raw, _ in passes):.6g} s, setup_s {setup[0]:.6g} s")
    runner.print_jobs()
    return metrics, []


# Per-layer metric names by wrapped group: "s" is inclusive seconds per pass,
# "self_s" self seconds per pass, "calls" outermost calls per pass.
PER_LAYER_GROUPS = {
    "cohomology.differential": ["s"],
    "cohomology.matrix": ["self_s"],
    "cohomology.dims": ["s"],
    "cohomology.handle": ["s"],
    "cohomology.basis": ["s"],
    "cohomology.membership": ["s", "calls"],
    "linalg.rank": ["s", "calls"],
    "linalg.kernel_basis": ["s", "calls"],
    "linalg.solve": ["s", "calls"],
    "linalg.multilinear": ["s", "calls"],
    "homalg.hochschild": ["s", "calls"],
    "homalg.check": ["s"],
    "reports.ensure_valid": ["s", "calls"],
    "operators.check_twisted_rbf": ["s"],
    "operators.graph_check": ["s"],
    "operators.search": ["s"],
    "family.construct": ["s"],
    "family.check": ["s"],
    "deformations.infinitesimal": ["s"],
    "deformations.rigidity": ["s"],
    "workspace.load": ["s"],
    "workspace.dump": ["s"],
    "cli.cohomology": ["s"],
    "cli.induce": ["s"],
    "cli.check": ["s"],
    "cli.deform": ["s"],
}


def per_layer(args, runner):
    import tracer as tracing
    import workloads

    tracer = tracing.Tracer()
    plain, traced, snaps, spans = [], [], [], []
    for _ in range(max(1, passes_for(args) // 2)):
        plain.append(runner.run_pass())
        tracer.reset()
        tracer.install()
        try:
            traced.append(runner.run_pass(tracer))
        finally:
            tracer.uninstall()
        snaps.append(dict(tracer.snapshot(), speed=traced[-1][1]))
        spans.extend(s + (len(traced),) for s in tracer.spans)

    for name in tracer.missing:
        print(f"note: {name} does not exist and is not traced", file=sys.stderr)
    problems = []
    counts = [tracing.exact_counts(s) for s in snaps]
    if any(c != counts[0] for c in counts):
        problems.append(f"exact counts differ between passes: {counts}")
    for groups in workloads.LAYER_GUARD[args.workload]:
        if any(sum(s["calls"].get(g, 0) for g in groups) == 0 for s in snaps):
            problems.append(f"layer {' or '.join(groups)} recorded no calls on {args.workload}")

    # Seconds are per pass, scaled by the calibrated speed; counts are per pass;
    # shares are self seconds over the traced passes' wall time.
    k = len(snaps)
    raw_wall = sum(raw for raw, _ in traced)

    def seconds(kind, group):
        return sum(s[kind].get(group, 0.0) * s["speed"] for s in snaps) / k

    def share(kind, groups):
        return sum(s[kind].get(g, 0.0) for s in snaps for g in groups) / raw_wall

    def count(name, kind="counts"):
        return sum(s[kind].get(name, 0) for s in snaps) / k

    def ratio(num, den):
        return num / den if den else 0.0

    metrics = {}
    for group, kinds in PER_LAYER_GROUPS.items():
        for kind in kinds:
            if kind == "s":
                metrics[f"{group}.s"] = (seconds("incl", group), "s")
            elif kind == "self_s":
                metrics[f"{group}.self_s"] = (seconds("self", group), "s")
            elif kind == "calls":
                metrics[f"{group}.calls"] = (count(group, "calls"), "count")
    metrics["cohomology.differential.evals"] = (count("cohomology.differential", "calls"), "count")
    for name in (
        "cohomology.matrix.misses",
        "cohomology.basis.misses",
        "cohomology.basis.constraint_cells",
        "linalg.elim.cells",
        "operators.search.candidates",
        "operators.search.found",
        "workspace.load.bytes",
        "workspace.dump.bytes",
    ):
        metrics[name] = (count(name), "B" if name.endswith("bytes") else "count")
    metrics["linalg.multilinear.unit_arg_ratio"] = (
        ratio(count("linalg.multilinear.unit_args"), count("linalg.multilinear", "calls")),
        "ratio",
    )
    metrics["reports.ensure_valid.hit_ratio"] = (
        ratio(count("reports.ensure_valid.hits"), count("reports.ensure_valid", "calls")),
        "ratio",
    )
    for layer, groups in tracing.LAYERS.items():
        metrics[f"share.{layer}"] = (share("self", groups), "ratio")
    metrics["share.untraced"] = (1 - sum(s["top_level_s"] for s in snaps) / raw_wall, "ratio")
    metrics["share.cohomology.differential_incl"] = (share("incl", ["cohomology.differential"]), "ratio")
    metrics["share.cohomology.diff_matrix"] = (share("self", ["cohomology.differential", "cohomology.matrix"]), "ratio")
    metrics["trace.overhead_ratio"] = (
        statistics.median(raw * speed for raw, speed in traced) / statistics.median(raw * speed for raw, speed in plain) - 1,
        "ratio",
    )

    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    span_path = out_dir / f"spans-{args.workload}-seed{args.seed}.jsonl"
    tracing.write_spans(span_path, spans)
    print(f"# {args.workload} seed {args.seed}: {len(plain)} untraced and {len(traced)} traced passes, "
          f"{len(spans)} spans in {span_path.relative_to(ROOT)}")
    for name, (value, unit) in sorted(metrics.items()):
        print(f"{name:>40} {value:.6g} {unit}")
    return metrics, problems


def main(argv=None):
    args = parse_args(argv)
    import_program()
    if args.setup_probe:
        return setup_probe(args)
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; expected one of {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    setup_s = measure_setup(args) if args.trace == 0 else None
    workdir = workdir_for(args)
    try:
        runner = Runner(workloads.setup(args.workload, str(workdir), args.seed, args.tiny))
        gc.collect()  # the passes start without setup's garbage
        if args.trace == 0:
            metrics, problems = end_to_end(args, runner, setup_s)
        else:
            metrics, problems = per_layer(args, runner)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for line in runner.failures[:20] + problems:
        print(f"FAILED {line}", file=sys.stderr)
    result = {
        "correct": not runner.failures and not problems,
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
