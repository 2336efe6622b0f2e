"""Spans and counters around rbfam's public functions, from outside the package.

``Tracer.install`` replaces each wrapped function in every ``rbfam``
module that binds it, under whatever name that module imported it, and the
wrapped methods on ``ComplexHandle``.  ``uninstall`` puts the originals
back.  Each wrapped call records a span (group, function, start, end,
parent span, job id) in memory; self time is a span's duration minus the
time covered by its children.  ``linalg.multilinear`` is called millions of
times, so it is aggregated into counters without span records.

Inclusive time and call counts of a group count only its outermost calls,
so a group that calls itself (a method calling the module function of the
same name) is not counted twice.
"""
import inspect
import json
import os
import sys
from collections import defaultdict
from time import perf_counter

import rbfam
import rbfam.cli
from rbfam import reports
from rbfam.cohomology import ComplexHandle

# (module, attribute, group).  Attributes missing at this commit are skipped
# and reported; the layer guard then catches a layer that records nothing.
FUNCTIONS = [
    ("cli", "cmd_cohomology", "cli.cohomology"),
    ("cli", "cmd_induce", "cli.induce"),
    ("cli", "cmd_check", "cli.check"),
    ("cli", "cmd_deform", "cli.deform"),
    ("workspace", "load_workspace", "workspace.load"),
    ("workspace", "dump_workspace", "workspace.dump"),
    ("reports", "ensure_valid", "reports.ensure_valid"),
    ("cohomology", "rbf_complex", "cohomology.handle"),
    ("cohomology", "ha_complex", "cohomology.handle"),
    ("cohomology", "omega_complex", "cohomology.handle"),
    ("cohomology", "cohomology_dims", "cohomology.dims"),
    ("cohomology", "differential_matrix", "cohomology.matrix"),
    ("cohomology", "rbf_differential", "cohomology.differential"),
    ("cohomology", "omega_differential", "cohomology.differential"),
    ("cohomology", "cochain_basis", "cohomology.basis"),
    ("linalg", "rank", "linalg.rank"),
    ("linalg", "kernel_basis", "linalg.kernel_basis"),
    ("linalg", "solve", "linalg.solve"),
    ("linalg", "multilinear_apply", "linalg.multilinear"),
    ("homalg", "hochschild_differential", "homalg.hochschild"),
    ("homalg", "check_hom_algebra", "homalg.check"),
    ("homalg", "check_bimodule", "homalg.check"),
    ("homalg", "check_two_cocycle", "homalg.check"),
    ("operators", "check_twisted_rbf", "operators.check_twisted_rbf"),
    ("operators", "graph_check", "operators.graph_check"),
    ("operators", "search_nijenhuis_families", "operators.search"),
    ("family", "ns_family_from_operator", "family.construct"),
    ("family", "omega_assoc_from_ns_family", "family.construct"),
    ("family", "operator_bimodule", "family.construct"),
    ("family", "ns_family_pack", "family.construct"),
    ("family", "check_omega_assoc", "family.check"),
    ("family", "check_omega_bimodule", "family.check"),
    ("family", "check_hom_ns", "family.check"),
    ("family", "check_hom_ns_family", "family.check"),
    ("deformations", "check_infinitesimal", "deformations.infinitesimal"),
    ("deformations", "rigidity_probe", "deformations.rigidity"),
]

METHODS = [
    ("differential", "cohomology.differential"),
    ("differential_matrix", "cohomology.matrix"),
    ("basis_vectors", "cohomology.basis"),
    ("basis", "cohomology.basis"),
    ("_constraint_matrix", "cohomology.basis"),
    ("membership_ok", "cohomology.membership"),
]

# Groups counted without span records.
AGGREGATE_ONLY = {"linalg.multilinear"}

# Layers by module, for self-time shares.  Elimination and the multilinear
# kernel are separate layers of linalg.
LAYERS = {
    "cli": ["cli.cohomology", "cli.induce", "cli.check", "cli.deform"],
    "workspace": ["workspace.load", "workspace.dump"],
    "reports": ["reports.ensure_valid"],
    "cohomology": [
        "cohomology.handle",
        "cohomology.dims",
        "cohomology.matrix",
        "cohomology.differential",
        "cohomology.basis",
        "cohomology.membership",
    ],
    "linalg.elim": ["linalg.rank", "linalg.kernel_basis", "linalg.solve"],
    "linalg.kernel": ["linalg.multilinear"],
    "homalg": ["homalg.hochschild", "homalg.check"],
    "operators": ["operators.check_twisted_rbf", "operators.graph_check", "operators.search"],
    "family": ["family.construct", "family.check"],
    "deformations": ["deformations.infinitesimal", "deformations.rigidity"],
}


def _is_unit(v):
    nonzero = [x for x in v if x]
    return len(nonzero) == 1 and nonzero[0] == 1


def _source_bytes(source):
    if isinstance(source, dict):
        return len(json.dumps(source).encode())
    if isinstance(source, (str, os.PathLike)) and os.path.exists(source):
        return os.path.getsize(source)
    if isinstance(source, str):
        return len(source.encode())
    return 0


class Tracer:
    def __init__(self):
        self.job = None
        self.missing = []
        self._saved = []
        self._stack = []
        self._open = defaultdict(int)
        self.reset()

    def reset(self):
        """Start a fresh collection (one traced pass)."""
        self.calls = defaultdict(int)
        self.incl = defaultdict(float)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)
        self.spans = []
        self.top_level_s = 0.0

    # -- hooks: extra counters read from a call's arguments and result --------

    def _hooks(self, group, attr, fn):
        counts = self.counts
        if group == "linalg.multilinear":
            def pre(args, kwargs):
                if all(_is_unit(v) for v in args[1]):
                    counts["linalg.multilinear.unit_args"] += 1
            return pre, None
        if group in ("linalg.rank", "linalg.kernel_basis", "linalg.solve"):
            def pre(args, kwargs):
                counts["linalg.elim.cells"] += args[0].rows * args[0].cols
            return pre, None
        if group == "reports.ensure_valid":
            def pre(args, kwargs):
                cache = getattr(reports, "_VALIDATION_CACHE", None)
                hit = cache.get(id(args[0])) if cache is not None else None
                if hit is not None and hit[0] is args[0]:
                    counts["reports.ensure_valid.hits"] += 1
            return pre, None
        if fn.__qualname__ == "ComplexHandle.differential_matrix":
            def pre(args, kwargs):
                if args[1] not in args[0]._matrix:
                    counts["cohomology.matrix.misses"] += 1
            return pre, None
        if attr == "basis_vectors":
            def pre(args, kwargs):
                if args[1] not in args[0]._basis:
                    counts["cohomology.basis.misses"] += 1
            return pre, None
        if attr == "_constraint_matrix":
            def post(result):
                counts["cohomology.basis.constraint_cells"] += result.rows * result.cols
            return None, post
        if group == "operators.search":
            sig = inspect.signature(fn)

            def pre(args, kwargs):
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                a = bound.arguments
                counts["operators.search.candidates"] += len(a["grid"]) ** (a["omega"].size * a["algebra"].dim ** 2)

            def post(result):
                counts["operators.search.found"] += len(result)
            return pre, post
        if group == "workspace.load":
            def pre(args, kwargs):
                counts["workspace.load.bytes"] += _source_bytes(args[0] if args else kwargs["source"])
            return pre, None
        if group == "workspace.dump":
            def post(result):
                counts["workspace.dump.bytes"] += len(result.encode())
            return None, post
        return None, None

    # -- wrapping ---------------------------------------------------------------

    def _wrap(self, fn, group, attr):
        pre, post = self._hooks(group, attr, fn)
        stack, open_groups = self._stack, self._open
        record = group not in AGGREGATE_ONLY
        tracer = self
        name = fn.__qualname__

        def wrapper(*args, **kwargs):
            if pre is not None:
                pre(args, kwargs)
            outermost = open_groups[group] == 0
            open_groups[group] += 1
            frame = [0.0]
            stack.append(frame)
            parent = stack[-2][1] if len(stack) > 1 and len(stack[-2]) > 1 else None
            if record:
                span_id = len(tracer.spans)
                frame.append(span_id)
                tracer.spans.append(None)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                open_groups[group] -= 1
                dur = end - start
                tracer.self_s[group] += dur - frame[0]
                if stack:
                    stack[-1][0] += dur
                else:
                    tracer.top_level_s += dur
                if outermost:
                    tracer.calls[group] += 1
                    tracer.incl[group] += dur
                if record:
                    tracer.spans[span_id] = (span_id, group, name, start, end, parent, tracer.job)
            if post is not None:
                post(result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self):
        modules = [m for n, m in list(sys.modules.items()) if n == "rbfam" or n.startswith("rbfam.")]
        self.missing = []
        for modname, attr, group in FUNCTIONS:
            orig = getattr(getattr(rbfam, modname), attr, None)
            if orig is None:
                self.missing.append(f"{modname}.{attr}")
                continue
            wrapper = self._wrap(orig, group, attr)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is orig:
                        self._saved.append((module, key, orig))
                        setattr(module, key, wrapper)
        for attr, group in METHODS:
            orig = ComplexHandle.__dict__.get(attr)
            if orig is None:
                self.missing.append(f"ComplexHandle.{attr}")
                continue
            self._saved.append((ComplexHandle, attr, orig))
            setattr(ComplexHandle, attr, self._wrap(orig, group, attr))

    def uninstall(self):
        for owner, key, orig in reversed(self._saved):
            setattr(owner, key, orig)
        self._saved = []

    # -- results ------------------------------------------------------------------

    def snapshot(self):
        """Per-pass totals: calls, inclusive and self seconds, counters."""
        return {
            "calls": dict(self.calls),
            "incl": dict(self.incl),
            "self": dict(self.self_s),
            "counts": dict(self.counts),
            "top_level_s": self.top_level_s,
        }


def exact_counts(snap):
    """The counters that must repeat exactly between passes and runs on one seed."""
    c, n = snap["calls"], snap["counts"]
    return {
        "cohomology.differential.evals": c.get("cohomology.differential", 0),
        "linalg.solve.calls": c.get("linalg.solve", 0),
        "linalg.elim.cells": n.get("linalg.elim.cells", 0),
        "operators.search.candidates": n.get("operators.search.candidates", 0),
        "workspace.load.bytes": n.get("workspace.load.bytes", 0),
        "workspace.dump.bytes": n.get("workspace.dump.bytes", 0),
    }


def write_spans(path, spans):
    with open(path, "w", encoding="utf-8") as fh:
        for sid, group, name, start, end, parent, job, pass_no in spans:
            record = {"pass": pass_no, "id": sid, "group": group, "fn": name, "start": start, "end": end, "parent": parent, "job": job}
            fh.write(json.dumps(record) + "\n")
