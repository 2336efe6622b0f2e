"""Signed sums of compositions held to the bodies that summed their own terms.

Derandomized Hypothesis properties hold ``reports.nested_cases``,
``reports.intertwining_residual``, ``linalg._compose``, ``_compose_sum``
(against each term composed on its own and chained through ``neg``,
``add`` and ``sub``), the first- and
last-term maps of ``cohomology._rbf_stencil`` and
``family.operator_bimodule`` to the bodies frozen in ``oracles``
(``first_index_nested_cases``, ``sided_intertwining_residual``,
``single_compose``, ``chained_rbf_ends``, ``chained_operator_bimodule``):
the same ``repr``, so an entry's type counts as much as its value, or the
same exception type and message.  The one exception: sides of an
intertwining law that do not fit raise the ``InputError`` of
``linalg._signed_state``, not the message of the frozen body's own check.
A further property holds ``run_law``, which reads a law's residual states,
to ``run_law`` on the same law's listed (case, residual) pairs: the same
violations, count and exception at violation limits 0, 1, 3 and the
default, for one law and for laws joined by ``reports.chained_cases``.

Inputs are raw ints, mixed int/``Fraction`` entries and long rationals
(numerators of about 300 digits), polynomials over K[t]/(t^2) and
K[t]/(t^3) (nilpotent products, zero polynomials and terms repeated with
the opposite sign, so sums cancel), 0-dimensional axes and vector (n = 0)
laws, shapes that do not fit now and then, and the host laws, stencil end
maps and induced bimodules of the seeded transports of the
twisted-triangular packings over C2 and the boolean monoid.
"""
from dataclasses import replace
from fractions import Fraction
from itertools import chain, product
from math import prod

from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from rbfam.cohomology import _rbf_stencil, differential_matrix, rbf_complex
from rbfam.errors import InputError
from rbfam.family import operator_bimodule
from rbfam.linalg import ONE, ZERO, Matrix, Tensor, _Array, _compose, _compose_sum
from rbfam.reports import (
    DEFAULT_MAX_VIOLATIONS,
    CheckReport,
    chained_cases,
    intertwining_cases,
    intertwining_residual,
    nested_cases,
    run_law,
)
from rbfam.scalars import TruncatedPoly
from rbfam.workspace import desk_instance
from test_law_composition import _nudged, host_laws, transported

NAMES = ("x", "y", "z")
WHERE = {"alpha": 1, "beta": 0}


def _outcome(fn, *args):
    """``repr`` of fn(*args) (a generator is listed first), or the type and
    message of what it raises."""
    try:
        out = fn(*args)
        return repr(list(out) if hasattr(out, "__next__") else out)
    except Exception as exc:
        return type(exc), str(exc)


# ---------------------------------------------------------------------------
# generated inputs


def sum_scalars(order):
    """Scalars biased toward 0 and 1: raw ints, small and long ``Fraction``s
    and, when ``order`` is set, polynomials over K[t]/(t^order) with
    nilpotents and zero polynomials among them."""
    rationals = st.builds(Fraction, st.integers(-3, 3), st.sampled_from((1, 2, 3, 6)))
    long_rationals = st.builds(
        lambda n, sign, d: Fraction(sign * n, d),
        st.integers(10**299, 10**300),
        st.sampled_from((1, -1)),
        st.integers(1, 2**61 - 1),
    )
    options = [st.just(Fraction(0)), st.just(Fraction(1)), st.integers(-2, 2), rationals, long_rationals]
    if order is not None:
        t = TruncatedPoly.t(order)
        nilpotent = st.sampled_from((t, -t, t * t, TruncatedPoly([0], order)))
        options += [
            st.just(TruncatedPoly.constant(1, order)),
            nilpotent,
            nilpotent,
            st.lists(rationals, min_size=order, max_size=order).map(lambda cs: TruncatedPoly(cs, order)),
        ]
    return st.one_of(options)


def array(draw, order, shape, matrix=False):
    """A ``Matrix`` (two extents) or ``Tensor`` of ``shape``: dense, or each
    input column a unit or zero vector with a raw-int, ``Fraction`` or
    constant-polynomial 1."""
    if draw(st.booleans()):
        entries = tuple(draw(st.lists(sum_scalars(order), min_size=prod(shape), max_size=prod(shape))))
    else:
        d_out, inner = shape[0], prod(shape[1:])
        one = draw(st.sampled_from([1, ONE] + ([] if order is None else [TruncatedPoly.constant(1, order)])))
        picks = [draw(st.integers(-1, d_out - 1)) for _ in range(inner)]
        entries = tuple(one if picks[j] == k else ZERO for k in range(d_out) for j in range(inner))
    return Matrix(*shape, entries) if matrix else Tensor(shape, entries)


dims = st.integers(0, 3)


def extent(draw, e):
    """``e``, or, one time in eight, another extent (a shape mismatch)."""
    return draw(dims) if draw(st.integers(0, 7)) == 0 else e


@st.composite
def nested_laws(draw):
    """first, last, terms of a nested law on triples (i, j, k); now and then
    a term is repeated with the opposite sign, or a shape does not fit."""
    order = draw(st.sampled_from((None, None, 2, 3)))
    d, i, j, k, a, b = (draw(dims) for _ in range(6))
    first, last = array(draw, order, (a, i), True), array(draw, order, (b, k), True)
    terms = []
    for _ in range(draw(st.integers(1, 3))):
        sign, left, e = draw(st.sampled_from((1, -1))), draw(st.booleans()), draw(dims)
        if left:
            outer, inner = array(draw, order, (d, e, extent(draw, b))), array(draw, order, (e, extent(draw, i), j))
        else:
            outer, inner = array(draw, order, (d, extent(draw, a), e)), array(draw, order, (e, j, extent(draw, k)))
        terms.append((sign, outer, inner, left))
        if draw(st.integers(0, 3)) == 0:
            terms.append((-sign, outer, inner, left))
    return first, last, terms


@st.composite
def intertwining_laws(draw):
    """out, src, tgt, ins of out o src = tgt o (ins[0] x ... x ins[n-1]),
    n = 0 included; src and tgt are matrices at times when n = 1."""
    order = draw(st.sampled_from((None, None, 2, 3)))
    n = draw(st.integers(0, 3))
    d_out, d_src = draw(dims), draw(dims)
    d_in = [draw(dims) for _ in range(n)]
    d_tgt = [draw(dims) for _ in range(n)]
    out = array(draw, order, (d_out, d_src), True)
    src = array(draw, order, (extent(draw, d_src), *d_in))
    tgt = array(draw, order, (extent(draw, d_out), *d_tgt))
    ins = [array(draw, order, (extent(draw, t), d), True) for t, d in zip(d_tgt, d_in)]
    if n == 1 and draw(st.booleans()):
        src, tgt = Matrix(*src.shape, src.entries), Matrix(*tgt.shape, tgt.entries)
    return out, src, tgt, ins


@st.composite
def compositions(draw):
    """(outer, parts) for one composition; a part is a ``Matrix`` or a
    ``Tensor`` with 0-2 trailing extents, now and then one that does not
    fit its slot."""
    order = draw(st.sampled_from((None, None, 2, 3)))
    m = draw(st.integers(0, 2))
    shape = tuple(draw(st.lists(dims, min_size=m + 1, max_size=m + 1)))
    outer = array(draw, order, shape, m == 1 and draw(st.booleans()))
    parts = []
    for a in shape[1:]:
        if draw(st.booleans()):
            parts.append(array(draw, order, (extent(draw, a), draw(dims)), True))
        else:
            tail = tuple(draw(st.lists(dims, min_size=0, max_size=2)))
            parts.append(array(draw, order, (extent(draw, a), *tail)))
    return outer, parts


@st.composite
def composition_sums(draw):
    """Terms (sign, outer, parts) of one output shape (d, *ins): each term
    splits ``ins`` over 1-2 parts (none when ``ins`` is empty), a part with
    one trailing extent is at times a ``Matrix``; now and then a term is
    repeated with the opposite sign, or a part does not fit its slot."""
    order = draw(st.sampled_from((None, None, 2, 3)))
    d = draw(dims)
    ins = tuple(draw(st.lists(dims, min_size=0, max_size=3)))
    terms = []
    for _ in range(draw(st.integers(1, 3))):
        m = draw(st.integers(1, 2)) if ins else draw(st.integers(0, 1))
        cuts = sorted(draw(st.lists(st.integers(0, len(ins)), min_size=m - 1, max_size=m - 1))) if m else []
        groups = [ins[a:b] for a, b in zip([0, *cuts], [*cuts, len(ins)])] if m else []
        heads = [draw(dims) for _ in groups]
        outer = array(draw, order, (d, *heads), len(heads) == 1 and draw(st.booleans()))
        parts = [
            array(draw, order, (extent(draw, a), *g), len(g) == 1 and draw(st.booleans()))
            for a, g in zip(heads, groups)
        ]
        sign = draw(st.sampled_from((1, -1)))
        terms.append((sign, outer, parts))
        if draw(st.integers(0, 3)) == 0:
            terms.append((-sign, outer, parts))
    return terms


def chained_sum(terms):
    """The sum as the builders wrote it: each term composed on its own and
    the results chained through ``neg``, ``add`` and ``sub``."""
    total = None
    for sign, outer, parts in terms:
        t = oracles.single_compose(outer, parts)
        if total is None:
            total = t if sign > 0 else t.neg()
        else:
            total = total.add(t) if sign > 0 else total.sub(t)
    return total


# ---------------------------------------------------------------------------
# generated laws and compositions


@settings(max_examples=300, deadline=None, derandomize=True)
@given(case=nested_laws(), where=st.sampled_from((None, WHERE)))
def test_nested_cases_match_first_index_body(case, where):
    first, last, terms = case
    args = (first, last, terms, NAMES, where)
    assert _outcome(nested_cases, *args) == _outcome(oracles.first_index_nested_cases, *args)


def _law_outcome(cases, limit):
    """``repr`` of the ``LawCheck`` that ``run_law`` appends for ``cases``,
    or the type and message of what it raises."""
    report = CheckReport(subject="law")
    try:
        run_law(report, "law", cases, limit)
    except Exception as exc:
        return type(exc), str(exc)
    return repr(report.laws)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    laws=st.lists(
        st.one_of(
            nested_laws().map(lambda case: (nested_cases, case)),
            intertwining_laws().map(lambda case: (intertwining_cases, case)),
        ),
        min_size=1,
        max_size=3,
    ),
    where=st.sampled_from((None, WHERE)),
    limit=st.sampled_from((0, 1, 3, DEFAULT_MAX_VIOLATIONS)),
)
def test_run_law_reads_states_as_it_reads_pairs(laws, where, limit):
    """``run_law`` on laws' residual states, one law or several joined by
    ``chained_cases``, gives the violations, count and exception it gives
    on the listed (case, residual) pairs, and ``chained_cases`` lists the
    pairs of the laws in turn."""

    def sources():
        return [primitive(*case, NAMES, where) for primitive, case in laws]

    try:
        want = _law_outcome(iter(list(chain.from_iterable(sources()))), limit)
    except Exception as exc:
        want = type(exc), str(exc)
    assert _law_outcome(chained_cases(iter(sources())), limit) == want
    if len(laws) == 1:
        assert _law_outcome(sources()[0], limit) == want
    assert _outcome(chained_cases, iter(sources())) == _outcome(chain.from_iterable, sources())


@settings(max_examples=300, deadline=None, derandomize=True)
@given(case=intertwining_laws())
def test_intertwining_residual_matches_sided_body(case):
    got, want = _outcome(intertwining_residual, *case), _outcome(oracles.sided_intertwining_residual, *case)
    if isinstance(want, tuple) and want[1].startswith("law sides "):
        # The residual leaves its shape check to ``_signed_state``: sides
        # that do not fit raise its InputError, about the first term or the
        # pair of terms that does not fit.
        assert got[0] is InputError and got[1].startswith(("cannot compose shape ", "cannot add compositions "))
    else:
        assert got == want


@settings(max_examples=300, deadline=None, derandomize=True)
@given(case=compositions())
def test_compose_matches_single_term_body(case):
    outer, parts = case
    assert _outcome(_compose, outer, parts) == _outcome(oracles.single_compose, outer, parts)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(terms=composition_sums())
def test_compose_sum_matches_chained_terms(terms):
    assert _outcome(_compose_sum, terms) == _outcome(chained_sum, terms)


# ---------------------------------------------------------------------------
# seeded transports


OMEGAS = (("cyclic", 2), ("boolean_monoid", None))


def nudged_operator(operator, nudge):
    """``operator`` with mu moved by 1/2 at row-major ``nudge``, or as is."""
    if nudge is None:
        return operator
    algebra = replace(operator.algebra, mu=_nudged(operator.algebra.mu, nudge))
    module = replace(operator.bimodule, parent=algebra)
    return replace(operator, cocycle=replace(operator.cocycle, host=module))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    omega=st.sampled_from(OMEGAS),
    seed=st.integers(0, 3),
    nudge=st.none() | st.integers(0, 215),
    data=st.data(),
)
def test_transported_laws_match_frozen_bodies(omega, seed, nudge, data):
    operator = nudged_operator(transported(omega, seed), nudge)
    kind, args = data.draw(st.sampled_from([law for law in host_laws(operator) if law[0] != "equivariant"]))
    if kind == "nested":
        assert _outcome(nested_cases, *args) == _outcome(oracles.first_index_nested_cases, *args)
    else:
        out, src, tgt, ins, _ = args
        assert _outcome(intertwining_residual, out, src, tgt, ins) == _outcome(
            oracles.sided_intertwining_residual, out, src, tgt, ins
        )


def poly_maps(operator, order, shift):
    """The maps of ``operator`` over K[t]/(t^order), each entry plus
    ``shift`` * t: with shift 0 a constant lift, which keeps the family a
    twisted Rota-Baxter family."""
    return tuple(
        Matrix(m.rows, m.cols, tuple(TruncatedPoly([e, shift], order) for e in m.entries)) for m in operator.maps
    )


def end_map_operators():
    """Operators whose stencil end maps are compared: D0-D2, the seeded
    transports, and D1 and one transport with polynomial maps."""
    ops = [desk_instance(name)["operator"] for name in ("D0", "D1", "D2")]
    ops += [transported(omega, seed) for omega in OMEGAS for seed in (0, 1)]
    for base in (ops[1], ops[3]):
        for order, shift in ((2, 0), (2, 1), (3, Fraction(-1, 2))):
            ops.append(replace(base, maps=poly_maps(base, order, shift)))
    return ops


def test_rbf_end_maps_match_chained_bodies():
    for operator in end_map_operators():
        omega = operator.omega
        # One store for every degree, as a handle keeps it.
        terms = {}
        for degree in (0, 1, 2):
            stencil = _rbf_stencil(operator, degree, terms)
            first, last = oracles.chained_rbf_ends(operator, degree)
            for key in product(omega.elements(), repeat=degree + 1):
                pi = omega.product(key)
                assert repr(stencil.first(key)) == repr(first(key[0], pi))
                assert repr(stencil.last(key)) == repr(last(key[-1], pi))


def test_operator_bimodules_match_chained_body():
    # Constant polynomial lifts keep the family identity; shifted ones
    # mostly fail it, and both bodies must raise the same error.
    for operator in end_map_operators():
        assert _outcome(operator_bimodule, operator) == _outcome(oracles.chained_operator_bimodule, operator)


def test_rbf_complex_subtracts_no_arrays(monkeypatch):
    # The stencil end maps and the induced actions are one signed sum each,
    # with no entrywise subtraction of composed tensors.
    calls = []
    sub = _Array.sub

    def counting(self, other):
        calls.append(self.shape)
        return sub(self, other)

    monkeypatch.setattr(_Array, "sub", counting)
    differential_matrix(rbf_complex(desk_instance("D1")["operator"]), 1)
    assert calls == []
