"""The signed-composition kernel held to its body before cached views.

A derandomized Hypothesis property holds ``linalg._signed_state`` to
``oracles.fresh_signed_state``, the body that built every part's sparse
rows and every outer's nonzero state per call and composed every part:
the same ``repr`` of (state, den, shape), so keys that cancel to 0, key
order and value types count as much as the values, or the same exception
type and message.  Each sum is evaluated twice, so a cached view that one
call changed would show in the second.  ``_compose_sum``'s tensor carries
the integer view that ``_integer_view`` reads off its entries.

Parts include identities that a composition may skip (``Matrix.identity``,
int-entry identities, identity-pattern tensors of shape (a, b, c) with
b * c = a) beside ones it may not (2 * I), ``TruncatedPoly`` parts, and
0-extent axes; terms repeat, with either sign, so sums cancel and a term
whose parts are all skipped is added into.

Three deterministic cases pin what the views save: a negated composition
with identities leaves the outer's cached state alone, one
``check_infinitesimal`` on D1 builds the twisted products four times (the
operator's own, kept on it and read again at t = 0, and those of R + t R1
at t = 1, -1 and 2), and ``rbf_complex`` after ``check_twisted_rbf``
builds them no more.
"""
from fractions import Fraction
from math import prod

from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from rbfam import family, operators
from rbfam.cohomology import rbf_complex
from rbfam.deformations import LinearDeformation, check_infinitesimal
from rbfam.linalg import ONE, ZERO, Matrix, Tensor, _compose_sum, _integer_view, _signed_state
from rbfam.operators import check_twisted_rbf
from rbfam.scalars import TruncatedPoly
from rbfam.workspace import desk_instance


def _outcome(fn, *args):
    """``repr`` of fn(*args), or the type and message of what it raises."""
    try:
        return repr(fn(*args))
    except Exception as exc:
        return type(exc), str(exc)


# ---------------------------------------------------------------------------
# generated inputs


def scalars(poly):
    """Small ints and rationals, biased toward 0 and +-1 so that products
    cancel, and now and then a long rational; with ``poly`` also
    polynomials over K[t]/(t^2)."""
    small = st.builds(Fraction, st.integers(-2, 2), st.sampled_from((1, 2, 3)))
    long = st.builds(Fraction, st.integers(10**40, 10**41), st.integers(2, 2**31))
    options = [st.just(ZERO), st.just(ONE), st.integers(-1, 1), small, long]
    if poly:
        options.append(st.lists(small, min_size=2, max_size=2).map(lambda cs: TruncatedPoly(cs, 2)))
    return st.one_of(*options)


def _identity_entries(a, one):
    return tuple(one if k % (a + 1) == 0 else 0 * one for k in range(a * a))


@st.composite
def arrays(draw, shape, poly):
    """An array of ``shape``; when the input extents multiply to the output
    extent, often an identity pattern: ``Matrix.identity``, an int-entry
    identity, a ``Tensor`` identity pattern or 2 * I."""
    a, ins = shape[0], shape[1:]
    if ins and prod(ins) == a and draw(st.integers(0, 2)):
        kind = draw(st.sampled_from(("eye", "ints", "twice")))
        one = {"eye": ONE, "ints": 1, "twice": Fraction(2)}[kind]
        entries = _identity_entries(a, one)
        if len(ins) == 1 and draw(st.booleans()):
            return Matrix.identity(a) if kind == "eye" else Matrix(a, a, entries)
        return Tensor(shape, entries)
    entries = tuple(draw(st.lists(scalars(poly), min_size=prod(shape), max_size=prod(shape))))
    if len(shape) == 2 and draw(st.booleans()):
        return Matrix(*shape, entries)
    return Tensor(shape, entries)


@st.composite
def kernel_sums(draw):
    """Terms (sign, outer, parts) of one output shape (d, *ins): each term
    splits ``ins`` over 0-3 parts, a part's output extent often the product
    of its input extents; now and then a term is repeated with either sign."""
    poly = draw(st.integers(0, 4)) == 0
    d = draw(st.integers(1, 2))
    ins = tuple(draw(st.lists(st.integers(0, 2), min_size=0, max_size=3)))
    terms = []
    for _ in range(draw(st.integers(1, 3))):
        m = draw(st.integers(1, min(3, len(ins)))) if ins else draw(st.integers(0, 1))
        cuts = sorted(draw(st.lists(st.integers(0, len(ins)), min_size=m - 1, max_size=m - 1))) if m else []
        groups = [ins[a:b] for a, b in zip([0, *cuts], [*cuts, len(ins)])] if m else []
        heads = [prod(g) if draw(st.integers(0, 2)) else draw(st.integers(1, 2)) for g in groups]
        outer = draw(arrays((d, *heads), poly))
        parts = [draw(arrays((a, *g), poly)) for a, g in zip(heads, groups)]
        sign = draw(st.sampled_from((1, -1)))
        terms.append((sign, outer, parts))
        if draw(st.integers(0, 2)) == 0:
            terms.append((draw(st.sampled_from((1, -1, sign))), outer, parts))
    return terms


@settings(max_examples=400, deadline=None, derandomize=True)
@given(terms=kernel_sums())
def test_signed_state_matches_the_fresh_body(terms):
    want = _outcome(oracles.fresh_signed_state, terms)
    assert _outcome(_signed_state, terms) == want
    assert _outcome(_signed_state, terms) == want
    assert _outcome(oracles.fresh_signed_state, terms) == want


@settings(max_examples=200, deadline=None, derandomize=True)
@given(terms=kernel_sums())
def test_composed_tensor_carries_the_integer_view_of_its_entries(terms):
    try:
        tensor = _compose_sum(terms)
    except Exception:
        return
    assert tensor.integer_view == _integer_view(tensor.entries)


# ---------------------------------------------------------------------------
# what the views save


def test_identity_patterns_at_scale_one_are_the_parts_skipped():
    pattern = Tensor((4, 2, 2), _identity_entries(4, ONE))
    for eye in (Matrix.identity(3), Matrix(2, 2, (1, 0, 0, 1)), pattern, Matrix(0, 0, ())):
        assert eye.rows_view is None
    for other in (Matrix.identity(2).scale(2), Matrix(2, 2, (0, 1, 1, 0)), Tensor((2, 2, 2), (ONE,) * 8)):
        assert other.rows_view is not None


def test_negated_identity_composition_leaves_the_cached_state_alone():
    t = Tensor((2, 2, 2), tuple(Fraction(k - 3, 2) for k in range(8)))
    eye = Matrix.identity(2)
    terms = [(-1, t, [eye, eye])]
    before = dict(t.state_view)
    first, second = _compose_sum(terms), _compose_sum(terms)
    assert t.state_view == before
    state, den, shape = oracles.fresh_signed_state(terms)
    entries = [ZERO] * prod(shape)
    for k, v in state.items():
        entries[k] = Fraction(v, den)
    assert repr(first) == repr(second) == repr(Tensor(shape, tuple(entries)))
    assert vars(first)["integer_view"] == _integer_view(first.entries)


def _counted_products(monkeypatch):
    """The maps of every ``_twisted_products`` call, wherever it is read from."""
    calls, build = [], operators._twisted_products

    def counted(operator, maps):
        calls.append(maps)
        return build(operator, maps)

    monkeypatch.setattr(operators, "_twisted_products", counted)
    monkeypatch.setattr(family, "_twisted_products", counted, raising=False)
    return calls


def test_check_infinitesimal_builds_the_twisted_products_once_per_point(monkeypatch):
    calls = _counted_products(monkeypatch)
    operator = desk_instance("D1")["operator"]
    n, d = operator.algebra.dim, operator.bimodule.dim
    direction = (Matrix.zero(n, d),) * operator.omega.size
    assert check_infinitesimal(LinearDeformation(base=operator, direction=direction)).passed
    # The operator's own maps first; t = 0 reads them again through the
    # products kept on the operator, and each nonzero point composes afresh.
    assert len(calls) == 4
    assert calls[0] is operator.maps and all(maps is not operator.maps for maps in calls[1:])


def test_rbf_complex_after_check_twisted_rbf_builds_no_products(monkeypatch):
    calls = _counted_products(monkeypatch)
    operator = desk_instance("D1")["operator"]
    assert check_twisted_rbf(operator).passed
    assert len(calls) == 1
    rbf_complex(operator)
    assert len(calls) == 1
