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
through ``intertwining_cases``, or, for a yes/no, through its residual
state ``intertwining_residual``.  That includes a law read off one
coefficient of such a law over K[t]/(t^k): the Nijenhuis-element laws are
coefficients of the morphism laws of the trivial pair (phi^t, psi^t).  It
also includes the family identities (twisted Rota-Baxter, Nijenhuis,
weighted Rota-Baxter): on each pair (a, b) the identity is
M_ab o total_ab = mu o (M_a x M_b) against the composed induced total
product, with residual rhs - lhs, so the where-keys and residuals are
those of the identity evaluated per basis pair.

A nested-product law is a signed sum of terms outer(first x, inner(y, z))
and outer(inner(x, y), last z), with a structure map on the outer slot
(Hom-associativity, the bimodule laws, the 2-cocycle identity and their
split NS, tridendriform and pair-indexed forms).  It is checked through
``nested_cases`` and nowhere else: its cases come in ``itertools.product``
order of the basis triple (i, j, k), the where-dict lists the prefix keys
and then one key per slot of the triple, and the residual is the signed
sum of the terms, so it is lhs - rhs when the terms of the law's left side
carry +1 and those of its right side -1.

Integer residual states.  Both primitives compose a law's sides with
``linalg._compose_state``, the kernel of ``linalg._compose``: out o T and
T' o (in_1 x ... x in_n), and per first index i each nested term
outer o (first e_i x inner) or outer o (inner(e_i, -) x last), its rows
sliced off the law's inputs.  When every input has an integer view, each
side is a sparse state {flat index: integer numerator} over the product of
its inputs' scales; the residual is one state, the sum of each side's
state times sign * (D // den) for D the lcm of the sides' denominators.
The entry-type rule: a residual entry is ``Fraction(v, D)`` where its
numerator v is nonzero and ``ZERO`` elsewhere, and a residual column with
no nonzero entry is one shared (ZERO,) * d tuple.  A ``TruncatedPoly``
entry anywhere runs the same loop on the entries themselves, with
multipliers +-1 and no denominator: an entry fed by a product of nonzero
factors keeps that sum's type even when it cancels to 0, and every other
entry is ``ZERO``.  Either way each residual entry is a ``TruncatedPoly``
or a ``Fraction`` exactly as when each tuple was contracted on its own.

Three per-tuple paths stay, each an independent second route that must
not share the composed computation: ``homalg.hochschild_differential``
(in degree 2 its terms are the compositions of the direct 2-cocycle
identity; it contracts hoisted integer columns per basis tuple with
``linalg._contract``, the kernel of ``multilinear_apply``, and never calls
``_compose`` or ``_compose_state``), the direct stencil of the family
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
from .linalg import ZERO, _compose_state, _multipliers, _nonzeros, _rows, _values
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
    ``Matrix`` is the n = 1 case, read in place through its shape
    (rows, cols)); ``out`` and each of ``ins`` are matrices.  For every basis
    tuple idx of ``src``'s input axes, in lexicographic order, yields one
    (case, residual) pair: case is a new dict of the ``where`` keys
    followed by zip(names, idx), and the residual is
    out(src[:, idx]) - tgt(ins[0] e_idx[0], ..., ins[n-1] e_idx[n-1]).
    With n = 0 the one residual is out(u) - v for the vectors u of ``src``
    and v of ``tgt``.  Entries may be any exact scalars.
    """
    prefix = where or {}
    state, den, shape = intertwining_residual(out, src, tgt, ins)
    indices = iproduct(*(range(d) for d in shape[1:]))
    for idx, residual in zip(indices, _residual_columns(state, den, shape)):
        case = dict(prefix)
        case.update(zip(names, idx))
        yield case, residual


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
    scales, values = _values((out, src, tgt, *ins))
    dens = None if scales is None else (scales[0] * scales[1], prod(scales[2:]))
    (lhs_m, rhs_m), den = _multipliers((1, -1), dens)
    lhs = [_rows(values[1], out.cols, prod(shape[1:]))]
    rhs = [_rows(v, m.rows, m.cols) for m, v in zip(ins, values[3:])]
    sides = [
        (lhs_m, (out.rows, out.cols), _nonzeros(values[0]), lhs),
        (rhs_m, tgt_shape, _nonzeros(values[2]), rhs),
    ]
    return _signed_state(sides), den, shape


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

    For each i, every term is composed as one state over (j, k):
    outer o (inner[:, i, :] x last) or outer o (first e_i x inner), its
    sliced rows read off the law's integer views, and the states are
    summed over one common denominator.
    """
    _, outer0, inner0, left0 = terms[0]
    middle = inner0.shape[2] if left0 else inner0.shape[1]
    shape = (outer0.shape[0], middle, last.cols)
    count = first.cols
    for _, outer, inner, left in terms:
        e = inner.shape[0] if inner.shape else -1
        if left:
            want = ((shape[0], e, last.rows), (e, count, middle))
        else:
            want = ((shape[0], first.rows, e), (e, middle, last.cols))
        if (outer.shape, inner.shape) != want:
            raise InputError(f"nested term of shapes {outer.shape} and {inner.shape}, expected {want}")
    scales, values = _values([first, last, *(t for _, outer, inner, _ in terms for t in (outer, inner))])
    dens = None
    if scales is not None:
        edges = (scales[1] if left else scales[0] for *_, left in terms)
        dens = [s_outer * s_inner * s for s_outer, s_inner, s in zip(scales[2::2], scales[3::2], edges)]
    multipliers, den = _multipliers([sign for sign, *_ in terms], dens)
    # Row a * count + i of ``firsts`` is first[a][i], and of a left term's
    # inner rows inner[a][i][:]: both are sliced per i.  A right term's
    # inner is one fixed part.
    firsts, _ = _rows(values[0], first.rows * count, 1)
    lasts = _rows(values[1], last.rows, last.cols)
    prepared = []
    for m, term, outer_values, entries in zip(multipliers, terms, values[2::2], values[3::2]):
        _, outer, inner, left = term
        e = inner.shape[0]
        rows = _rows(entries, e * count, middle)[0] if left else _rows(entries, e, middle * last.cols)
        prepared.append((m, outer.shape, _nonzeros(outer_values), rows, left))
    prefix = where or {}
    for i in range(count):
        composed = []
        for m, outer_shape, outer_state, rows, left in prepared:
            heads = range(outer_shape[1])
            if left:
                parts = [([rows[a * count + i] for a in heads], middle), lasts]
            else:
                parts = [([firsts[a * count + i] for a in heads], 1), rows]
            composed.append((m, outer_shape, outer_state, parts))
        state = _signed_state(composed)
        indices = iproduct(range(middle), range(shape[2]))
        for (j, k), residual in zip(indices, _residual_columns(state, den, shape)):
            case = dict(prefix)
            case.update(zip(names, (i, j, k)))
            yield case, residual


def _signed_state(terms):
    """The state of the sum of m * (outer o (parts...)) over the terms
    (m, outer shape, outer state, parts) of ``_compose_state``."""
    acc = {}
    get = acc.get
    for m, shape, state, parts in terms:
        for k, v in _compose_state(shape, state, parts).items():
            w = get(k)
            acc[k] = v * m if w is None else w + v * m
    return acc


def _residual_columns(state, den, shape):
    """The columns of a residual state over ``shape`` = (d, *inputs), one
    tuple per input tuple in row-major order.

    An entry is ``Fraction(v, den)`` for a nonzero numerator v, or the
    state's own value when ``den`` is None (entries, not numerators: a
    ``TruncatedPoly`` keeps its type, even when it cancels to 0); every
    other entry is ``ZERO``.  A column with no such entry is one shared
    (ZERO,) * d tuple.
    """
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
    for c in range(inner):
        column = columns.get(c)
        yield zero if column is None else tuple(column)


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
