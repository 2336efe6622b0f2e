"""Structured pass/fail reports shared by every axiom checker.

A checker evaluates each law on all basis tuples (in lexicographic order)
and records the first ``max_violations`` offending tuples together with the
residual vector, plus the total violation count.  Axiom failure is a report
outcome, never an exception.

Ordering contract: a case's where-dict lists its prefix keys first (the
semigroup indices and operation labels of the law), then one key per input
axis; cases come in lexicographic order of the input basis tuple, the
order of ``itertools.product``.  The first violations of a report, and so
its JSON, depend on that order.

An intertwining law ``out o T = T' o (in_1 x ... x in_n)`` (multiplicativity
of a structure map, a morphism condition, cochain membership) is checked
through ``intertwining_cases`` and nowhere else.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product as iproduct

from .linalg import Matrix, Tensor, multilinear_apply, tensor_column, vsub
from .scalars import format_scalar

DEFAULT_MAX_VIOLATIONS = 16


@dataclass(frozen=True)
class Violation:
    where: dict
    residual: tuple


@dataclass(frozen=True)
class LawCheck:
    law: str
    ok: bool
    violations: tuple
    violation_count: int


@dataclass
class CheckReport:
    subject: str
    laws: list = field(default_factory=list)
    notes: list = field(default_factory=list)

    @property
    def passed(self):
        return all(law.ok for law in self.laws)

    def law(self, name):
        for law in self.laws:
            if law.law == name:
                return law
        raise KeyError(name)

    def to_dict(self):
        return {
            "subject": self.subject,
            "passed": self.passed,
            "laws": [
                {
                    "law": law.law,
                    "ok": law.ok,
                    "violation_count": law.violation_count,
                    "violations": [
                        {
                            "where": dict(v.where),
                            "residual": [format_scalar(c) for c in v.residual],
                        }
                        for v in law.violations
                    ],
                }
                for law in self.laws
            ],
            "notes": list(self.notes),
        }

    def render(self):
        lines = [f"{'PASS' if self.passed else 'FAIL'}  {self.subject}"]
        for law in self.laws:
            mark = "ok " if law.ok else "FAIL"
            lines.append(f"  [{mark}] {law.law}")
            if not law.ok:
                shown = len(law.violations)
                lines.append(f"        {law.violation_count} violating tuple(s), first {shown}:")
                for v in law.violations:
                    where = ", ".join(f"{k}={v.where[k]}" for k in v.where)
                    residual = "(" + ", ".join(format_scalar(c) for c in v.residual) + ")"
                    lines.append(f"        at {where}: residual {residual}")
        for note in self.notes:
            lines.append(f"  note: {note}")
        return "\n".join(lines)


def require_pass(report, what):
    """Raise PreconditionError when an upstream structure fails its check."""
    from .errors import PreconditionError

    if not report.passed:
        raise PreconditionError(f"{what} fails its axiom check", report=report)
    return report


# Precondition results are cached per object so that hot loops (randomized
# candidate sweeps, per-degree differentials) do not re-verify the same host
# structures.  Keys pin the object itself, so ids stay valid.
_VALIDATION_CACHE = {}
_VALIDATION_CACHE_LIMIT = 1024


def ensure_valid(obj, checker, what):
    key = id(obj)
    hit = _VALIDATION_CACHE.get(key)
    if hit is not None and hit[0] is obj:
        return
    require_pass(checker(obj), what)
    if len(_VALIDATION_CACHE) >= _VALIDATION_CACHE_LIMIT:
        _VALIDATION_CACHE.clear()
    _VALIDATION_CACHE[key] = (obj,)


def intertwining_cases(out, src, tgt, ins, names, where=None):
    """Cases of the law out o src = tgt o (ins[0] x ... x ins[n-1]) for ``run_law``.

    ``src`` and ``tgt`` are coefficient tensors with n input axes (a
    ``Matrix`` is the n = 1 case, read as its row-major (rows, cols)
    tensor); ``out`` and each of ``ins`` are matrices.  For every basis
    tuple idx of ``src``'s input axes, in lexicographic order, yields one
    (case, residual) pair: case is a new dict of the ``where`` keys
    followed by zip(names, idx), and the residual is
    out(src[:, idx]) - tgt(ins[0] e_idx[0], ..., ins[n-1] e_idx[n-1]).
    With n = 0 the one residual is out(u) - v for the vectors u of ``src``
    and v of ``tgt``.  Entries may be any exact scalars.
    """
    src, tgt = _as_tensor(src), _as_tensor(tgt)
    cols = [[m.column(j) for j in range(m.cols)] for m in ins]
    prefix = where or {}
    for idx in iproduct(*(range(d) for d in src.shape[1:])):
        case = dict(prefix)
        case.update(zip(names, idx))
        lhs = out.apply(tensor_column(src, idx))
        rhs = multilinear_apply(tgt, [c[j] for c, j in zip(cols, idx)])
        yield case, vsub(lhs, rhs)


def _as_tensor(t):
    return Tensor((t.rows, t.cols), t.entries) if isinstance(t, Matrix) else t


def run_law(report, name, cases, max_violations=DEFAULT_MAX_VIOLATIONS):
    """Evaluate one law. ``cases`` yields (where, residual vector) pairs."""
    violations = []
    count = 0
    for where, residual in cases:
        if any(residual):
            count += 1
            if len(violations) < max_violations:
                violations.append(Violation(where=where, residual=tuple(residual)))
    report.laws.append(
        LawCheck(law=name, ok=count == 0, violations=tuple(violations), violation_count=count)
    )
    return count == 0
