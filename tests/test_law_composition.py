"""The law primitives held to their per-tuple bodies, and a dense transport pinned.

Hypothesis properties hold ``reports.intertwining_cases``,
``reports.nested_cases`` and ``homalg.is_equivariant`` to the bodies they
had while they contracted once per basis tuple, frozen in ``oracles``.  The
case order, the where-dicts and the ``repr`` of every residual must be
identical, so an entry's type (``Fraction`` or ``TruncatedPoly``) counts as
much as its value.  Inputs draw ``Fraction`` entries with non-unit
denominators, raw ints and polynomials over K[t]/(t^3) (nilpotent products
and sums that cancel to 0 among them), unit and dense structure maps,
0-dimensional axes and vector (n = 0) intertwining laws, plus the laws of
seeded unimodular transports of the twisted-triangular packings over C2 and
the boolean monoid.

``goldens/dense_transport_reports.json`` pins the ``to_dict()`` of the host
checkers and ``check_twisted_rbf`` on the seeded transport of the
twisted-triangular packing over cyclic(3), and of the host checkers on two
broken copies of it (one entry of ``mu``, or of the cocycle ``phi``, moved
by 1/2).  On the broken ``mu`` the cocycle check stops with a
``RouteMismatchError``, pinned by its type and message.  The golden was
frozen from the per-tuple bodies; a failure here means a report changed,
and the fix belongs in the code, not in the golden file.
"""
import json
import random
from dataclasses import replace
from fractions import Fraction
from functools import lru_cache
from math import prod
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import _yau_twisted_triangular
from rbfam.errors import InputError, WorkbenchError
from rbfam.homalg import check_bimodule, check_hom_algebra, check_two_cocycle, is_equivariant
from rbfam.linalg import Matrix, Tensor
from rbfam.operators import check_twisted_rbf
from rbfam.reports import intertwining_cases, nested_cases
from rbfam.scalars import TruncatedPoly
from rbfam.semigroups import builtin
from test_family_constructions import packed_identity, transport_family

GOLDEN_PATH = Path(__file__).parent / "goldens" / "dense_transport_reports.json"
ORDER = 3
T = TruncatedPoly.t(ORDER)
NAMES = ("x", "y", "z")
WHERE = {"alpha": 1, "beta": 0}


# ---------------------------------------------------------------------------
# generated inputs


def scalars(poly):
    """Entries biased toward 0 and 1: fractions with non-unit denominators,
    raw ints and, when ``poly``, polynomials over K[t]/(t^3)."""
    rationals = st.builds(Fraction, st.integers(-3, 3), st.sampled_from((1, 2, 3, 6)))
    options = [st.just(Fraction(0)), st.just(Fraction(1)), rationals, st.integers(-2, 2)]
    if poly:
        # t * t^2 = 0, and t - t = 0, keep the polynomial type of a zero.
        nilpotent = st.sampled_from((T, -T, T * T, -(T * T), TruncatedPoly([0], ORDER)))
        options += [
            st.just(TruncatedPoly.constant(1, ORDER)),
            nilpotent,
            nilpotent,
            st.lists(rationals, min_size=ORDER, max_size=ORDER).map(lambda cs: TruncatedPoly(cs, ORDER)),
        ]
    return st.one_of(options)


@st.composite
def entries(draw, shape, poly):
    """Row-major entries of ``shape``: dense, or each input column a unit or
    zero vector (a 0/1 structure map or structure-constant tensor)."""
    if draw(st.booleans()):
        return tuple(draw(st.lists(scalars(poly), min_size=prod(shape), max_size=prod(shape))))
    d_out, inner = shape[0], prod(shape[1:])
    ones = [Fraction(1), 1] + ([TruncatedPoly.constant(1, ORDER)] if poly else [])
    one = draw(st.sampled_from(ones))
    picks = [draw(st.integers(-1, d_out - 1)) for _ in range(inner)]
    return tuple(one if picks[j] == k else Fraction(0) for k in range(d_out) for j in range(inner))


def matrix(draw, rows, cols, poly):
    return Matrix(rows, cols, draw(entries((rows, cols), poly)))


def tensor(draw, shape, poly):
    return Tensor(shape, draw(entries(shape, poly)))


dims = st.integers(0, 3)


@st.composite
def intertwining_inputs(draw):
    """out, src, tgt, ins of a law out o src = tgt o (ins[0] x ... x ins[n-1])."""
    poly = draw(st.booleans())
    n = draw(st.integers(0, 3))
    d_out, d_src = draw(dims), draw(dims)
    d_in = [draw(dims) for _ in range(n)]
    d_tgt = [draw(dims) for _ in range(n)]
    out = matrix(draw, d_out, d_src, poly)
    src = tensor(draw, (d_src, *d_in), poly)
    tgt = tensor(draw, (d_out, *d_tgt), poly)
    ins = [matrix(draw, t, d, poly) for t, d in zip(d_tgt, d_in)]
    if n == 1 and draw(st.booleans()):
        src = Matrix(*src.shape, src.entries)
        tgt = Matrix(*tgt.shape, tgt.entries)
    return out, src, tgt, ins


@st.composite
def nested_inputs(draw):
    """first, last, terms of a nested law on triples (i, j, k) of extents I, J, K."""
    poly = draw(st.booleans())
    d, i, j, k, a, b = (draw(dims) for _ in range(6))
    first, last = matrix(draw, a, i, poly), matrix(draw, b, k, poly)
    terms = []
    for _ in range(draw(st.integers(1, 3))):
        sign, left, e = draw(st.sampled_from((1, -1))), draw(st.booleans()), draw(dims)
        if left:
            terms.append((sign, tensor(draw, (d, e, b), poly), tensor(draw, (e, i, j), poly), True))
        else:
            terms.append((sign, tensor(draw, (d, a, e), poly), tensor(draw, (e, j, k), poly), False))
    return first, last, terms


@settings(max_examples=300, deadline=None)
@given(case=intertwining_inputs(), where=st.sampled_from((None, WHERE)))
def test_intertwining_cases_match_frozen_body(case, where):
    out, src, tgt, ins = case
    names = NAMES[: len(ins)]
    new = list(intertwining_cases(out, src, tgt, ins, names, where))
    assert repr(new) == repr(list(oracles.tuple_intertwining_cases(out, src, tgt, ins, names, where)))


@settings(max_examples=300, deadline=None)
@given(case=nested_inputs(), where=st.sampled_from((None, WHERE)))
def test_nested_cases_match_frozen_body(case, where):
    first, last, terms = case
    new = list(nested_cases(first, last, terms, NAMES, where))
    assert repr(new) == repr(list(oracles.tuple_nested_cases(first, last, terms, NAMES, where)))


@st.composite
def membership_inputs(draw):
    """q, p, degree and cochains f; f = 0 and q = p = id make some members."""
    poly = draw(st.booleans())
    d, n, degree = draw(dims), draw(dims), draw(st.integers(0, 3))
    q, p = (Matrix.identity(m) if draw(st.booleans()) else matrix(draw, m, m, poly) for m in (d, n))
    shape = (d,) + (n,) * degree
    tensors = [
        Tensor.zero(shape) if draw(st.booleans()) else tensor(draw, shape, poly)
        for _ in range(draw(st.integers(1, 2)))
    ]
    if degree == 0 and draw(st.booleans()):
        tensors = [f.entries for f in tensors]
    return q, p, degree, tensors


@settings(max_examples=300, deadline=None)
@given(case=membership_inputs())
def test_is_equivariant_matches_frozen_body(case):
    assert is_equivariant(*case) == oracles.tuple_is_equivariant(*case)


def test_shape_mismatches_raise_input_errors():
    p = Matrix.identity(2)
    mu = Tensor.zero((2, 2, 2))
    with pytest.raises(InputError):
        list(intertwining_cases(Matrix.identity(3), mu, mu, [p, p], NAMES[:2]))
    with pytest.raises(InputError):
        list(intertwining_cases(p, mu, mu, [p], NAMES[:1]))
    with pytest.raises(InputError):
        list(nested_cases(p, Matrix.identity(3), [(1, mu, mu, True)], NAMES))
    with pytest.raises(InputError):
        list(nested_cases(p, p, [(1, mu, Tensor.zero((3, 2, 2)), False)], NAMES))


# ---------------------------------------------------------------------------
# dense transports


@lru_cache(maxsize=None)
def transported(omega, seed):
    return transport_family(packed_identity(_yau_twisted_triangular(), builtin(*omega)), random.Random(seed))


def host_laws(operator):
    """(primitive, arguments) of the host and operator laws of ``operator``."""
    A, module, phi = operator.algebra, operator.bimodule, operator.cocycle.phi
    p, q, mu, left, right = A.p, module.q, A.mu, module.left, module.right
    laws = [
        ("intertwining", (p, mu, mu, [p, p], NAMES[:2])),
        ("intertwining", (q, left, left, [p, q], NAMES[:2])),
        ("intertwining", (q, right, right, [q, p], NAMES[:2])),
        ("intertwining", (q, phi, phi, [p, p], NAMES[:2])),
        ("nested", (p, p, [(1, mu, mu, False), (-1, mu, mu, True)], NAMES)),
        ("nested", (q, p, [(1, right, mu, False), (-1, right, right, True)], NAMES)),
        ("nested", (p, p, [(1, left, right, False), (-1, right, left, True)], NAMES)),
        ("nested", (p, q, [(1, left, left, False), (-1, left, mu, True)], NAMES)),
        ("nested", (p, p, [(1, left, phi, False), (-1, right, phi, True), (-1, phi, mu, True), (1, phi, mu, False)], NAMES)),
        ("equivariant", (p, p, 2, [mu])),
        ("equivariant", (q, p, 2, [phi])),
    ]
    for r_a in operator.maps:
        laws.append(("intertwining", (r_a, q, p, [r_a], NAMES[:1])))
        laws.append(("equivariant", (p, q, 1, [r_a])))
    return laws


def _nudged(t, flat):
    """``t`` (a Tensor) with the entry at row-major ``flat`` moved by 1/2."""
    entries = list(t.entries)
    entries[flat] += Fraction(1, 2)
    return Tensor(t.shape, tuple(entries))


@settings(max_examples=40, deadline=None)
@given(
    omega=st.sampled_from((("cyclic", 2), ("boolean_monoid", None))),
    seed=st.integers(0, 3),
    nudge=st.none() | st.integers(0, 215),
    data=st.data(),
)
def test_transported_laws_match_frozen_bodies(omega, seed, nudge, data):
    operator = transported(omega, seed)
    if nudge is not None:
        algebra = replace(operator.algebra, mu=_nudged(operator.algebra.mu, nudge))
        module = replace(operator.bimodule, parent=algebra)
        operator = replace(operator, cocycle=replace(operator.cocycle, host=module))
    kind, args = data.draw(st.sampled_from(host_laws(operator)))
    if kind == "intertwining":
        new, old = intertwining_cases(*args), oracles.tuple_intertwining_cases(*args)
    elif kind == "nested":
        new, old = nested_cases(*args), oracles.tuple_nested_cases(*args)
    else:
        assert is_equivariant(*args) == oracles.tuple_is_equivariant(*args)
        return
    assert repr(list(new)) == repr(list(old))


def _outcome(checker, obj):
    try:
        return checker(obj).to_dict()
    except WorkbenchError as err:
        return {"raised": type(err).__name__, "message": str(err)}


def dense_transport_reports():
    """Reports of the transported cyclic(3) packing and of two broken copies."""
    operator = transported(("cyclic", 3), 0)
    algebra, module, cocycle = operator.algebra, operator.bimodule, operator.cocycle
    broken_algebra = replace(algebra, mu=_nudged(algebra.mu, 1))
    broken_module = replace(module, parent=broken_algebra)
    hosts = {
        "": (algebra, module, cocycle),
        "mu+1/2": (broken_algebra, broken_module, replace(cocycle, host=broken_module)),
        "phi+1/2": (algebra, module, replace(cocycle, phi=_nudged(cocycle.phi, 1))),
    }
    out = {}
    for label, objects in hosts.items():
        for checker, obj in zip((check_hom_algebra, check_bimodule, check_two_cocycle), objects):
            out[f"{label}/{checker.__name__}"] = _outcome(checker, obj)
    out["/check_twisted_rbf"] = check_twisted_rbf(operator).to_dict()
    return out


def test_dense_transport_reports_match_golden():
    assert dense_transport_reports() == json.loads(GOLDEN_PATH.read_text())
