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
state ``intertwining_residual``.  The family identities (twisted
Rota-Baxter, Nijenhuis, weighted Rota-Baxter) are intertwining laws too:
on each pair (a, b) the identity is M_ab o total_ab = mu o (M_a x M_b)
against the composed induced total product, one residual block per pair,
the two-term sum mu o (M_a x M_b) - M_ab o total_ab.  ``residual_cases``
reads such blocks, so the where-keys and residuals (rhs - lhs) are those
of the identity evaluated per basis pair.  A law read off one coefficient
in t (the deformation laws, and the Nijenhuis-element laws as
coefficients of the morphism laws of the trivial pair (phi^t, psi^t)) is
a block too, its state interpolated from evaluations at rational t.

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
and the family identity's two terms.  When every input has an integer
view, the residual is one sparse state {flat index: integer numerator}
over D, the lcm of the terms' products of scales.  The entry-type rule: a
residual entry is ``Fraction(v, D)`` where its numerator v is nonzero and
``ZERO`` elsewhere, and a residual column with no nonzero entry is one
shared (ZERO,) * d tuple.  A ``TruncatedPoly`` entry anywhere multiplies
the entries themselves, with no denominator: an entry fed by a product
with a polynomial factor is a ``TruncatedPoly`` even when it cancels or
truncates to 0, one fed by rational products only is a ``Fraction``, and
every other entry is ``ZERO``.  A nested law's state covers all (i, j, k)
at once, d * I * J * K entries at most.

Verdicts read off states.  ``intertwining_cases``, ``nested_cases`` and
``residual_cases`` return a ``Cases``, and ``chained_cases`` joins several
(one law per semigroup index, say) into one: iterating it yields the (case,
residual) pairs above, block by block, computing each block on first read
and raising where a block raises, as a generator would.
``run_law`` reads its residual states instead: it counts the violating
input tuples off their nonzero values and builds a where-dict, a residual
column and its ``Fraction``s only for the first ``max_violations``
violations, so a passing law builds none.  ``check_two_cocycle`` compares
its direct residual with d2 on integer numerators (``disagreeing_case``)
and builds the where-dict of the first disagreeing triple only to raise.

Four second routes stay apart, each an independent route that must not
share the composed computation, and none calls ``_signed_state`` or its
tensor forms: ``homalg.hochschild_differential`` (in degree 2 its terms are
the compositions of the direct 2-cocycle identity), ``operators.graph_check``
(products of graph columns inside the twisted semidirect product),
``operators.search_nijenhuis_families`` (it binds one map at a time and
tests each basis tuple as soon as its maps are bound, so most prefixes fail
on an early tuple, and composing every law side in full per candidate would
cost more than the search), and the direct stencil of the family
differential (``operators.twisted_inner_sum``, cross-checked against the
generic route on the induced bimodule).  The Hochschild route contracts one
slot at a time with its own loop (``homalg._slot``): it reads each array
once through ``scaled``, forms each term's partial contraction once
(left o (p^(n-1) x I), right o (I x p^(n-1)) and, per merged slot i,
f o (p^(x i-1) x I x p^(x n-i))), meets it with f or mu over nonzero
entries into one sparse state of integer numerators over one denominator,
and checks membership on the same states.  ``graph_check`` and the search
read each array once per call as an integer table (its ``scaled`` values
or sparse ``columns``), contract per basis tuple with ``linalg._contract``,
the kernel of ``multilinear_apply``, building the support of a vector they
read many times once (``linalg._supports``), and compare or keep integer
numerators over one denominator: an entry is read (``linalg._read``) only
where a result or a violation needs one.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product as iproduct
from math import gcd, prod

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
    return Cases(_block(intertwining_residual, (out, src, tgt, ins), names, where))


def intertwining_residual(out, src, tgt, ins):
    """(state, den, shape): the residual out o src - tgt o (ins[0] x ... x
    ins[n-1]) of ``intertwining_cases`` as one sparse state.

    A ``Matrix`` ``src`` or ``tgt`` is read in place through its shape
    (rows, cols), with no copy into a ``Tensor``.  ``shape`` is (d, *input
    extents of src) and ``state`` maps flat indices over it to numerators
    over ``den`` (entries themselves when ``den`` is None).  For a yes/no
    (cochain membership) that needs neither a where-dict nor a residual
    column: the law holds when every value is 0.  Sides whose shapes do
    not fit raise the ``InputError`` of ``_signed_state``, which checks
    them.
    """
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
    may be any exact scalars.  The residual is ``nested_residual``'s.
    """
    return Cases(_block(nested_residual, (first, last, terms), names, where))


def nested_residual(first, last, terms):
    """(state, den, shape): the residual of ``nested_cases`` as one sparse
    state, each term composed whole, outer o (inner x last) or
    outer o (first x inner), in one signed sum over (i, j, k).  Terms whose
    shapes do not fit raise ``InputError``."""
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
    return _signed_state(composed)


def residual_cases(blocks):
    """Cases of residual blocks for ``run_law``, block by block: each block
    is (residual, names, where), a residual (state, den, shape) of
    ``linalg._signed_state`` with its where-keys, read as
    ``intertwining_cases`` reads one."""
    return Cases(blocks)


def chained_cases(sources):
    """One ``Cases`` of the blocks of fresh ``Cases`` sources, in order; the
    sources are read lazily, as chaining their pairs would read them."""
    return Cases(block for cases in sources for block in cases._blocks)


class Cases:
    """The (case, residual column) pairs of residual blocks: what
    ``intertwining_cases``, ``nested_cases``, ``residual_cases`` and
    ``chained_cases`` return.

    ``blocks`` is an iterable of (residual, names, where), read lazily,
    block by block: iterating yields the pairs of ``_cases`` for each block
    in turn and raises where reading a block raises, as a generator would.
    ``run_law`` reads the blocks' states instead (``_violations``), so a
    passing law builds no where-dict, column or ``Fraction``.
    """

    __slots__ = ("_blocks", "_pairs")

    def __init__(self, blocks):
        self._blocks, self._pairs = blocks, None

    def __iter__(self):
        if self._pairs is None:
            self._pairs = _pairs(self._blocks)
        return self._pairs

    def __next__(self):
        return next(iter(self))

    def violations(self, limit):
        """(count, violations) of the blocks not yet read: the number of
        violating input tuples and the first ``limit`` of them as
        ``Violation``s, each what iterating would have yielded for it."""
        if self._pairs is not None:  # partly iterated: count the rest
            return _count(self._pairs, limit)
        self._pairs = iter(())
        count, violations = 0, []
        for residual, names, where in self._blocks:
            count += _violations(residual, names, where, limit, violations)
        return count, violations


def _block(residual, args, names, where):
    """One block (residual(*args), names, where), computed on first read."""
    yield residual(*args), names, where


def _pairs(blocks):
    for residual, names, where in blocks:
        yield from _cases(residual, names, where)


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


def _violations(residual, names, where, limit, out):
    """The number of violating input tuples of a residual (state, den,
    shape); the first of them, up to ``limit`` in ``out`` in all, are
    appended to ``out`` as the ``Violation``s ``_cases`` would have yielded
    (where-dict and residual column), read off the state.  An input tuple
    violates when a value of its column is nonzero (a nonzero numerator, or
    an entry that is not falsy when den is None)."""
    state, den, shape = residual
    if not any(state.values()):
        return 0
    d, extents = shape[0], shape[1:]
    inner = prod(extents)
    bad = sorted({flat % inner for flat, v in state.items() if v})
    for c in bad[: max(limit - len(out), 0)]:
        column = []
        for k in range(d):
            v = state.get(k * inner + c)
            if v is None or (den is not None and not v):
                column.append(ZERO)
            else:
                column.append(v if den is None else Fraction(v, den))
        out.append(Violation(where=_where(where, names, c, extents), residual=tuple(column)))
    return len(bad)


def _where(prefix, names, c, extents):
    """The where-dict of input tuple number c (row-major over ``extents``):
    the ``prefix`` keys, then zip(names, the tuple)."""
    idx = []
    for e in reversed(extents):
        c, i = divmod(c, e)
        idx.append(i)
    case = dict(prefix or {})
    case.update(zip(names, reversed(idx)))
    return case


def _count(cases, limit):
    """(count, violations) of (where, residual vector) pairs, one by one."""
    violations = []
    count = 0
    for where, residual in cases:
        if any(residual):
            count += 1
            if len(violations) < limit:
                violations.append(Violation(where=where, residual=tuple(residual)))
    return count, violations


def disagreeing_case(residual, tensor, names):
    """The where-dict of the first input tuple at which a residual (state,
    den, shape) and a tensor of its shape differ, or None when they agree
    entry by entry.  On integer views the two are compared as numerators
    (v / den against w / scale); otherwise entry by entry, the residual's
    entries read as ``_cases`` reads them."""
    state, den, shape = residual
    view = tensor.integer_view
    if den is None or view is None:
        entries = ((ZERO if v is None else v) for v in map(state.get, range(len(tensor.entries))))
        if den is not None:
            entries = (Fraction(v, den) if v else ZERO for v in entries)
        bad = [flat for flat, (e, v) in enumerate(zip(tensor.entries, entries)) if e != v]
    else:
        scale, ints = view
        g = gcd(scale, den)
        a, b = scale // g, den // g
        get = state.get
        bad = [flat for flat, w in enumerate(ints) if w * b != get(flat, 0) * a]
    if not bad:
        return None
    extents = shape[1:]
    return _where(None, names, min(flat % prod(extents) for flat in bad), extents)


def run_law(report, name, cases, max_violations=DEFAULT_MAX_VIOLATIONS):
    """Evaluate one law. ``cases`` yields (where, residual vector) pairs; a
    ``Cases`` is read off its residual states."""
    if isinstance(cases, Cases):
        count, violations = cases.violations(max_violations)
    else:
        count, violations = _count(cases, max_violations)
    report.laws.append(
        LawCheck(law=name, ok=count == 0, violations=tuple(violations), violation_count=count)
    )
    return count == 0
