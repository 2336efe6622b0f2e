"""Structured pass/fail reports shared by every axiom checker.

A checker evaluates each law on all basis tuples (in lexicographic order)
and records the first ``max_violations`` offending tuples together with the
residual vector, plus the total violation count.  Axiom failure is a report
outcome, never an exception.

A construction that needs its input to satisfy an axiom system checks it
through ``ensure_valid`` and nowhere else: a failing check raises
``PreconditionError`` carrying the report, and a pass is cached per object.
The one exception is a relation between two objects (an endomorphism that
must preserve a given family), which no single-object cache key can hold;
it goes through ``require_pass`` directly.

Ordering contract: a case's where-dict lists its prefix keys first (the
semigroup indices and operation labels of the law), then one key per input
axis; cases come in lexicographic order of the input basis tuple, the
order of ``itertools.product``.  The first violations of a report, and so
its JSON, depend on that order.

An intertwining law ``out o T = T' o (in_1 x ... x in_n)`` (multiplicativity
of a structure map, a morphism condition, cochain membership) is checked
through ``intertwining_cases`` or its sides ``intertwining_sides``.  That
includes a law read off one coefficient of such a law over K[t]/(t^k):
the Nijenhuis-element laws are coefficients of the morphism laws of the
trivial pair (phi^t, psi^t).  It also includes the family identities
(twisted Rota-Baxter, Nijenhuis, weighted Rota-Baxter): on each pair
(a, b) the identity is M_ab o total_ab = mu o (M_a x M_b) against the
composed induced total product, with residual rhs - lhs, so the where-keys
and residuals are those of the identity evaluated per basis pair.

A nested-product law is a signed sum of terms outer(first x, inner(y, z))
and outer(inner(x, y), last z), with a structure map on the outer slot
(Hom-associativity, the bimodule laws, the 2-cocycle identity and their
split NS, tridendriform and pair-indexed forms).  It is checked through
``nested_cases`` and nowhere else: its cases come in ``itertools.product``
order of the basis triple (i, j, k), the where-dict lists the prefix keys
and then one key per slot of the triple, and the residual is the signed
sum of the terms, so it is lhs - rhs when the terms of the law's left side
carry +1 and those of its right side -1.

Both primitives compute a law's sides as whole composed tensors, through
``linalg._compose``: out o T and T' o (in_1 x ... x in_n), and per first
index i each nested term outer o (first e_i x inner) or
outer o (inner(e_i, -) x last).  A residual is the difference or signed
sum of entries of those tensors, read off in the order above.  An entry
fed by a product of nonzero factors keeps that sum's type even when it
cancels to 0, every other entry is ``ZERO``, so each residual entry is a
``TruncatedPoly`` or a ``Fraction`` exactly as when each tuple was
contracted on its own.  Three per-tuple paths stay, each an
independent second route that must not share the composed computation:
``homalg.hochschild_differential`` (in degree 2 its terms are the
compositions of the direct 2-cocycle identity), the direct stencil of the
family differential (``operators.twisted_inner_sum``, cross-checked
against the generic route on the induced bimodule), and
``operators.search_nijenhuis_families``: it binds one map at a time and
tests each basis tuple as soon as its maps are bound, so most prefixes
fail on an early tuple, and composing every law side in full per
candidate would cost more than the search.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product as iproduct
from math import prod

from .errors import InputError, PreconditionError
from .linalg import ZERO, Tensor, _as_tensor, _compose, vadd, vsub
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
    if not report.passed:
        raise PreconditionError(f"{what} fails its axiom check", report=report)
    return report


# Every structure precondition goes through ensure_valid, so each object is
# checked once however many constructions, checkers and per-degree
# differentials take it as input.  Only passes are cached; a failing object
# is checked again on every call.  Keys pin the object itself, so ids stay
# valid.
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
    prefix = where or {}
    for idx, lhs, rhs in intertwining_sides(out, src, tgt, ins):
        case = dict(prefix)
        case.update(zip(names, idx))
        yield case, vsub(lhs, rhs)


def intertwining_sides(out, src, tgt, ins):
    """(idx, lhs, rhs) of ``intertwining_cases``, in the same order.

    lhs and rhs are the columns at idx of the composed tensors out o src
    and tgt o (ins[0] x ... x ins[n-1]).  For a yes/no (cochain
    membership) that needs neither a where-dict nor a residual: the law
    holds when lhs == rhs on every idx.
    """
    lhs = _compose(out, [src])
    rhs = _compose(tgt, ins)
    if lhs.shape != rhs.shape:
        raise InputError(f"law sides of shapes {lhs.shape} and {rhs.shape}")
    inner = prod(lhs.shape[1:])
    for flat, idx in enumerate(iproduct(*(range(d) for d in lhs.shape[1:]))):
        yield idx, lhs.entries[flat::inner], rhs.entries[flat::inner]


def nested_cases(first, last, terms, names, where=None):
    """Cases of the nested-product law sum of sign * term = 0 for ``run_law``.

    ``first`` and ``last`` are matrices; each term is (sign, outer, inner,
    left) with sign +1 or -1 and outer, inner coefficient tensors with two
    input axes.  On the basis triple (i, j, k) the term is
    outer(inner(e_i, e_j), last e_k) when ``left`` is true and
    outer(first e_i, inner(e_j, e_k)) otherwise; i runs over the columns of
    ``first``, k over those of ``last`` and j over the shared middle axis.
    Triples come in ``itertools.product`` order; each yields one
    (case, residual) pair, case a new dict of the ``where`` keys followed by
    zip(names, (i, j, k)) and residual the signed sum of the terms.  Entries
    may be any exact scalars.

    For each i, every term is composed as one tensor over (j, k):
    outer o (inner[:, i, :] x last) or outer o (first e_i x inner).
    """
    _, outer0, inner0, left0 = terms[0]
    middle = inner0.shape[2] if left0 else inner0.shape[1]
    shape = (outer0.shape[0], middle, last.cols)
    first, last = _as_tensor(first), _as_tensor(last)
    inner_size = prod(shape[1:])
    prefix = where or {}
    for i in range(first.shape[1]):
        residual = (ZERO,) * prod(shape)
        for sign, outer, inner, left in terms:
            if left:
                if inner.shape[1] != first.shape[1]:
                    raise InputError(f"inner tensor of shape {inner.shape} for {first.shape[1]} first indices")
                term = _compose(outer, [_at_first_input(inner, i), last])
            else:
                term = _compose(outer, [_at_first_input(first, i), inner])
            if term.shape != shape:
                raise InputError(f"nested term of shape {term.shape}, expected {shape}")
            residual = vadd(residual, term.entries) if sign > 0 else vsub(residual, term.entries)
        for flat, (j, k) in enumerate(iproduct(range(middle), range(shape[2]))):
            case = dict(prefix)
            case.update(zip(names, (i, j, k)))
            yield case, residual[flat::inner_size]


def _at_first_input(t, i):
    """t[:, i, ...]: the tensor ``t`` with its first input index fixed at i."""
    d, n, rest = t.shape[0], t.shape[1], prod(t.shape[2:])
    entries = t.entries
    return Tensor(
        t.shape[:1] + t.shape[2:],
        tuple(e for k in range(d) for e in entries[(k * n + i) * rest : (k * n + i + 1) * rest]),
    )


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
