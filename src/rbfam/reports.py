"""Structured pass/fail reports shared by every axiom checker.

A checker evaluates each law on all basis tuples (in lexicographic order)
and records the first ``max_violations`` offending tuples together with the
residual vector, plus the total violation count.  Axiom failure is a report
outcome, never an exception.

Every verdict report shares one frame, ``Report``: JSON {"subject",
"passed", <parts>, "notes"}, and text that is a ``PASS``/``FAIL  <title>``
header, the report's body lines and one ``  note: ...`` line per note.  The
rigidity report has no subject and no verdict, so it shares only
``note_lines``.

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
through ``intertwining_cases``, or, for a yes/no, through its residual
state ``intertwining_residual``.  That includes a law read off one
coefficient of such a law over K[t]/(t^k): the Nijenhuis-element laws are
coefficients of the morphism laws of the trivial pair (phi^t, psi^t).  The
family identities (twisted Rota-Baxter, Nijenhuis, weighted Rota-Baxter)
are intertwining laws too: on each pair (a, b) the identity is
M_ab o total_ab = mu o (M_a x M_b) against the composed induced total
product.  They are read through ``signed_cases`` as the two-term sum
mu o (M_a x M_b) - M_ab o total_ab, so the where-keys and residuals
(rhs - lhs) are those of the identity evaluated per basis pair.

A nested-product law is a signed sum of terms outer(first x, inner(y, z))
and outer(inner(x, y), last z), with a structure map on the outer slot
(Hom-associativity, the bimodule laws, the 2-cocycle identity and their
split NS, tridendriform and pair-indexed forms).  It is checked through
``nested_cases`` and nowhere else: its cases come in ``itertools.product``
order of the basis triple (i, j, k), the where-dict lists the prefix keys
and then one key per slot of the triple, and the residual is the signed
sum of the terms, so it is lhs - rhs when the terms of the law's left side
carry +1 and those of its right side -1.

Integer residual states.  Every primitive reads its residual off one
kernel, ``linalg._signed_state``, the signed sum of whole compositions:
out o T - T' o (in_1 x ... x in_n) for an intertwining law, each nested
term composed whole as outer o (inner x last) or outer o (first x inner),
and any other sum of compositions through ``signed_cases``.  When every
input has an integer view, the residual is one sparse state
{flat index: integer numerator} over D, the lcm of the terms' products of
scales.  The entry-type rule: a residual entry is ``Fraction(v, D)`` where
its numerator v is nonzero and ``ZERO`` elsewhere, and a residual column
with no nonzero entry is one shared (ZERO,) * d tuple.  A ``TruncatedPoly``
entry anywhere runs the same loop on the entries themselves, with
multipliers +-1 and no denominator: an entry fed by a product of nonzero
factors keeps that sum's type even when it cancels to 0, and every other
entry is ``ZERO``.  Either way each residual entry is a ``TruncatedPoly``
or a ``Fraction`` exactly as when each tuple was contracted on its own.
A nested law's state covers all (i, j, k) at once, d * I * J * K entries
at most.

Three per-tuple paths stay, each an independent second route that must
not share the composed computation: ``homalg.hochschild_differential``
(in degree 2 its terms are the compositions of the direct 2-cocycle
identity; it contracts hoisted integer columns per basis tuple with
``linalg._contract``, the kernel of ``multilinear_apply``, and never calls
``_signed_state`` or its tensor forms), the direct stencil of the family
differential (``operators.twisted_inner_sum``, cross-checked against the
generic route on the induced bimodule), and
``operators.search_nijenhuis_families``: it binds one map at a time and
tests each basis tuple as soon as its maps are bound, so most prefixes
fail on an early tuple, and composing every law side in full per
candidate would cost more than the search.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product as iproduct
from math import prod

from .errors import InputError, PreconditionError
from .linalg import ZERO, _signed_state
from .scalars import format_scalar, format_vector

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


def note_lines(notes):
    return [f"  note: {note}" for note in notes]


class Report:
    """A subclass has ``subject``, ``passed`` and ``notes`` and supplies
    ``parts()``, its JSON keys between "passed" and "notes", and ``lines()``,
    its body; ``title`` heads the text and is the subject unless overridden."""

    @property
    def title(self):
        return self.subject

    def to_dict(self):
        return {"subject": self.subject, "passed": self.passed, **self.parts(), "notes": list(self.notes)}

    def render(self):
        header = f"{'PASS' if self.passed else 'FAIL'}  {self.title}"
        return "\n".join([header, *self.lines(), *note_lines(self.notes)])


@dataclass
class CheckReport(Report):
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

    def parts(self):
        laws = [
            {
                "law": law.law,
                "ok": law.ok,
                "violation_count": law.violation_count,
                "violations": [
                    {"where": dict(v.where), "residual": [format_scalar(c) for c in v.residual]}
                    for v in law.violations
                ],
            }
            for law in self.laws
        ]
        return {"laws": laws}

    def lines(self):
        lines = []
        for law in self.laws:
            mark = "ok " if law.ok else "FAIL"
            lines.append(f"  [{mark}] {law.law}")
            if not law.ok:
                shown = len(law.violations)
                lines.append(f"        {law.violation_count} violating tuple(s), first {shown}:")
                for v in law.violations:
                    where = ", ".join(f"{k}={v.where[k]}" for k in v.where)
                    lines.append(f"        at {where}: residual {format_vector(v.residual)}")
        return lines


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
    ``Matrix`` is the n = 1 case, read in place through its shape
    (rows, cols)); ``out`` and each of ``ins`` are matrices.  For every basis
    tuple idx of ``src``'s input axes, in lexicographic order, yields one
    (case, residual) pair: case is a new dict of the ``where`` keys
    followed by zip(names, idx), and the residual is
    out(src[:, idx]) - tgt(ins[0] e_idx[0], ..., ins[n-1] e_idx[n-1]).
    With n = 0 the one residual is out(u) - v for the vectors u of ``src``
    and v of ``tgt``.  Entries may be any exact scalars.
    """
    yield from _cases(intertwining_residual(out, src, tgt, ins), names, where)


def intertwining_residual(out, src, tgt, ins):
    """(state, den, shape): the residual out o src - tgt o (ins[0] x ... x
    ins[n-1]) of ``intertwining_cases`` as one sparse state.

    A ``Matrix`` ``src`` or ``tgt`` is read in place through its shape
    (rows, cols), with no copy into a ``Tensor``.  ``shape`` is (d, *input
    extents of src) and ``state`` maps flat indices over it to numerators
    over ``den`` (entries themselves when ``den`` is None).  For a yes/no
    (cochain membership) that needs neither a where-dict nor a residual
    column: the law holds when every value is 0.
    """
    src_shape, tgt_shape = src.shape, tgt.shape
    ins_shapes = [(m.rows, m.cols) for m in ins]
    shape = (out.rows, *src_shape[1:])
    if (
        out.cols != src_shape[0]
        or tgt_shape[1:] != tuple(r for r, _ in ins_shapes)
        or shape != (tgt_shape[0], *(c for _, c in ins_shapes))
    ):
        raise InputError(
            f"law sides {(out.rows, out.cols)} o {src_shape} and {tgt_shape} o {ins_shapes} do not match"
        )
    return _signed_state([(1, out, [src]), (-1, tgt, ins)])


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

    Each term is composed whole, outer o (inner x last) or
    outer o (first x inner), in one signed sum over (i, j, k).
    """
    _, outer0, inner0, left0 = terms[0]
    middle = inner0.shape[2] if left0 else inner0.shape[1]
    d, count = outer0.shape[0], first.cols
    for _, outer, inner, left in terms:
        e = inner.shape[0] if inner.shape else -1
        if left:
            want = ((d, e, last.rows), (e, count, middle))
        else:
            want = ((d, first.rows, e), (e, middle, last.cols))
        if (outer.shape, inner.shape) != want:
            raise InputError(f"nested term of shapes {outer.shape} and {inner.shape}, expected {want}")
    composed = [(sign, outer, [inner, last] if left else [first, inner]) for sign, outer, inner, left in terms]
    yield from _cases(_signed_state(composed), names, where)


def signed_cases(terms, names, where=None):
    """Cases of the law sum of sign * outer o (parts...) = 0 for ``run_law``,
    over the terms (sign, outer, parts) of ``linalg._signed_state``, which
    checks their shapes: one (case, residual) pair per input tuple, in
    lexicographic order, case a new dict of the ``where`` keys followed by
    zip(names, tuple)."""
    yield from _cases(_signed_state(terms), names, where)


def _cases(residual, names, where):
    """The (case, residual column) pairs of a residual (state, den, shape),
    shape = (d, *inputs), one per input tuple in row-major order.

    An entry is ``Fraction(v, den)`` for a nonzero numerator v, or the
    state's own value when ``den`` is None (entries, not numerators: a
    ``TruncatedPoly`` keeps its type, even when it cancels to 0); every
    other entry is ``ZERO``.  A column with no such entry is one shared
    (ZERO,) * d tuple.
    """
    state, den, shape = residual
    d, inner = shape[0], prod(shape[1:])
    columns = {}
    for flat, v in state.items():
        if den is not None:
            if not v:
                continue
            v = Fraction(v, den)
        k, c = divmod(flat, inner)
        column = columns.get(c)
        if column is None:
            column = columns[c] = [ZERO] * d
        column[k] = v
    zero = (ZERO,) * d
    prefix = where or {}
    for c, idx in enumerate(iproduct(*(range(e) for e in shape[1:]))):
        column = columns.get(c)
        case = dict(prefix)
        case.update(zip(names, idx))
        yield case, zero if column is None else tuple(column)


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
