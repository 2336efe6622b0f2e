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

A derandomized property holds ``homalg.hochschild_differential`` to the
body it had while it called ``multilinear_apply`` once per term of each
basis tuple (``oracles.tuple_hochschild_differential``): the same ``repr``
or the same exception type and message, at degrees 0-3, on generated
bimodules (identity, scalar and dense structure maps, rational and
polynomial entries) and on the seeded transports below, nudged ones
included.  ``FROZEN_COCYCLES`` pins the sha256 of the degree-2
differential of phi and of the ``check_two_cocycle`` report of the desk
cocycles D0-D2, the twisted-triangular packings over C2 and the boolean
monoid, and one seeded transport of each packing.

``goldens/dense_transport_reports.json`` pins the ``to_dict()`` of the host
checkers and ``check_twisted_rbf`` on the seeded transport of the
twisted-triangular packing over cyclic(3), and of the host checkers on two
broken copies of it (one entry of ``mu``, or of the cocycle ``phi``, moved
by 1/2).  On the broken ``mu`` the cocycle check stops with a
``RouteMismatchError``, pinned by its type and message.  The golden was
frozen from the per-tuple bodies; a failure here means a report changed,
and the fix belongs in the code, not in the golden file.
"""
import hashlib
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
from rbfam.homalg import (
    HomAlgebra,
    HomBimodule,
    check_bimodule,
    check_hom_algebra,
    check_two_cocycle,
    hochschild_differential,
    is_equivariant,
)
from rbfam.linalg import Matrix, Tensor, kernel_basis
from rbfam.operators import check_twisted_rbf
from rbfam.reports import intertwining_cases, nested_cases
from rbfam.scalars import TruncatedPoly
from rbfam.semigroups import builtin
from rbfam.workspace import desk_instance
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


# ---------------------------------------------------------------------------
# the Hochschild-type differential


def _differential_outcome(differential, module, degree, f):
    try:
        return repr(differential(module, degree, f))
    except WorkbenchError as err:
        return f"{type(err).__name__}: {err}"


def populated(draw, shape, poly):
    """A tensor of ``shape`` with about two entries in three nonzero, drawn
    from a seeded generator: fractions with non-unit denominators, raw ints
    and, when ``poly``, polynomials over K[t]/(t^3)."""
    rng = random.Random(draw(st.integers(0, 2**16)))

    def entry():
        kind = rng.randrange(6 if poly else 4)
        if kind == 0:
            return Fraction(0)
        if kind == 1:
            return rng.choice((1, -2))
        if kind < 4:
            return Fraction(rng.choice((1, -1, 2, -3)), rng.choice((1, 2, 3, 6)))
        return TruncatedPoly([Fraction(rng.randint(-2, 2), rng.choice((1, 2))) for _ in range(ORDER)], ORDER)

    return Tensor(shape, tuple(entry() for _ in range(prod(shape))))


@st.composite
def generated_differential_inputs(draw):
    """module, degree and cochain f on a generated bimodule.

    With identity structure maps every f is a member; with p = c id and
    q = c^degree id every f is a member too, and a nonzero image is not
    (a ``RouteMismatchError``); dense maps mostly reject f.  Now and then f
    has the wrong shape.
    """
    poly = draw(st.booleans())
    n, d, degree = draw(st.integers(1, 3)), draw(st.integers(1, 3)), draw(st.integers(0, 3))
    if draw(st.integers(0, 9)) == 0:
        n, d = draw(st.sampled_from(((0, d), (n, 0))))
    maps = draw(st.sampled_from(("identity", "identity", "scalar", "dense")))
    if maps == "identity":
        p, q = Matrix.identity(n), Matrix.identity(d)
    elif maps == "scalar":
        c = draw(st.sampled_from((Fraction(2), Fraction(-1), Fraction(1, 2))))
        p, q = Matrix.identity(n).scale(c), Matrix.identity(d).scale(c**degree)
    else:
        p, q = matrix(draw, n, n, poly), matrix(draw, d, d, poly)
    structure = tensor if draw(st.booleans()) else populated
    algebra = HomAlgebra(dim=n, mu=structure(draw, (n, n, n), poly), p=p)
    module = HomBimodule(
        parent=algebra, dim=d, left=structure(draw, (d, n, d), poly), right=structure(draw, (d, d, n), poly), q=q
    )
    wrong = draw(st.integers(0, 9)) == 0
    shape = (d + wrong,) + (n,) * degree
    f = Tensor.zero(shape) if draw(st.integers(0, 4)) == 0 else populated(draw, shape, poly)
    if degree == 0:
        f = draw(st.sampled_from((f, f.entries, list(f.entries))))
    return module, degree, f


@st.composite
def transport_differential_inputs(draw):
    """module, degree and cochain f on a seeded transport, nudged or not.

    Degree 2 takes phi, degree 0 a q-fixed vector and degree 1 its image
    under the frozen body (zero when that raises).  Degree 3 is left to the
    generated bimodules: a transport has 6^4 basis tuples there.
    """
    omega = draw(st.sampled_from((("cyclic", 2), ("boolean_monoid", None))))
    operator = transported(omega, draw(st.integers(0, 3)))
    module, phi = operator.bimodule, operator.cocycle.phi
    nudge = draw(st.sampled_from((None, "mu", "phi")))
    if nudge == "mu":
        algebra = operator.algebra
        algebra = replace(algebra, mu=_nudged(algebra.mu, draw(st.integers(0, len(algebra.mu.entries) - 1))))
        module = replace(module, parent=algebra)
    elif nudge == "phi":
        phi = _nudged(phi, draw(st.integers(0, len(phi.entries) - 1)))
    degree = draw(st.integers(0, 2))
    fixed = kernel_basis(module.q.sub(Matrix.identity(module.dim)))
    coefficients = [draw(st.sampled_from((Fraction(0), Fraction(1), Fraction(-2, 3)))) for _ in fixed]
    u = tuple(sum((c * x for c, x in zip(coefficients, column)), Fraction(0)) for column in zip(*fixed))
    if not fixed:
        u = (Fraction(0),) * module.dim
    if degree == 0:
        return module, 0, u
    if degree == 2:
        return module, 2, phi
    try:
        f = oracles.tuple_hochschild_differential(module, 0, u)
    except WorkbenchError:
        f = Tensor.zero((module.dim, module.parent.dim))
    return module, 1, f


@settings(max_examples=200, deadline=None, derandomize=True)
@given(case=st.one_of(generated_differential_inputs(), transport_differential_inputs()))
def test_hochschild_differential_matches_frozen_body(case):
    new = _differential_outcome(hochschild_differential, *case)
    assert new == _differential_outcome(oracles.tuple_hochschild_differential, *case)


FROZEN_COCYCLES = {
    "D0/d2": "e8a651f0c89b45c1d231e76cd139382738b6975053e353c0590b57f9d2821eab",
    "D0/report": "b6909117ec5ba3f9e5562afe4ed167eef30e53c3e09e57c7a633f00db9610b37",
    "D1/d2": "d4cf57d9cd46608e61861a5ce37777c245ca2c236a34832786f04d8e1eaa23c8",
    "D1/report": "b6909117ec5ba3f9e5562afe4ed167eef30e53c3e09e57c7a633f00db9610b37",
    "D2/d2": "d4cf57d9cd46608e61861a5ce37777c245ca2c236a34832786f04d8e1eaa23c8",
    "D2/report": "b6909117ec5ba3f9e5562afe4ed167eef30e53c3e09e57c7a633f00db9610b37",
    "cyclic/packed/d2": "22e737a112add6759dbf50ec37cd0aa1d65ad3d166100be35d5351ea7ec26531",
    "cyclic/packed/report": "b6909117ec5ba3f9e5562afe4ed167eef30e53c3e09e57c7a633f00db9610b37",
    "cyclic/transport/d2": "22e737a112add6759dbf50ec37cd0aa1d65ad3d166100be35d5351ea7ec26531",
    "cyclic/transport/report": "b6909117ec5ba3f9e5562afe4ed167eef30e53c3e09e57c7a633f00db9610b37",
    "boolean_monoid/packed/d2": "22e737a112add6759dbf50ec37cd0aa1d65ad3d166100be35d5351ea7ec26531",
    "boolean_monoid/packed/report": "b6909117ec5ba3f9e5562afe4ed167eef30e53c3e09e57c7a633f00db9610b37",
    "boolean_monoid/transport/d2": "22e737a112add6759dbf50ec37cd0aa1d65ad3d166100be35d5351ea7ec26531",
    "boolean_monoid/transport/report": "b6909117ec5ba3f9e5562afe4ed167eef30e53c3e09e57c7a633f00db9610b37",
}


def frozen_cocycles():
    """The desk cocycles, the twisted-triangular packings and one seeded
    transport of each packing."""
    cocycles = {name: desk_instance(name)["cocycle"] for name in ("D0", "D1", "D2")}
    for omega in (("cyclic", 2), ("boolean_monoid", None)):
        cocycles[f"{omega[0]}/packed"] = packed_identity(_yau_twisted_triangular(), builtin(*omega)).cocycle
        cocycles[f"{omega[0]}/transport"] = transported(omega, 0).cocycle
    return cocycles


def _digest(obj):
    return hashlib.sha256(repr(obj).encode()).hexdigest()


def test_cocycle_differentials_and_reports_match_frozen_digests():
    listing = {}
    for name, cocycle in frozen_cocycles().items():
        listing[f"{name}/d2"] = _digest(hochschild_differential(cocycle.host, 2, cocycle.phi))
        listing[f"{name}/report"] = _digest(check_two_cocycle(cocycle).to_dict())
    assert len(listing) == 14
    assert listing == FROZEN_COCYCLES
