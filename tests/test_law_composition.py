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

``FROZEN_FAILING_REPORTS`` pins, per failing input and checker, the sha256
of the ``to_dict()`` (or the exception) of ``check_hom_algebra``,
``check_bimodule``, ``check_two_cocycle`` and ``check_twisted_rbf`` at
``max_violations`` 1, 3 and the default.  The inputs are D0-D2 and one
seeded transport of each packing (dense p) with one entry of mu, p, the
left action, phi or R_0 moved by 1/2, and with phi plus a degree-2 cochain
that is not a cocycle.  The digests fix the first violations' order, their
where-keys, the residual entries and the violation counts.
"""
import hashlib
import json
import random
import sys
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
from rbfam.cohomology import ha_complex
from rbfam.errors import InputError, RouteMismatchError, WorkbenchError
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
from rbfam.reports import DEFAULT_MAX_VIOLATIONS, intertwining_cases, nested_cases
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


def test_hochschild_differential_composes_nothing():
    """The Hochschild route is the cocycle check's independent second route:
    on dense p, its membership checks included, it never enters the
    composition kernel."""
    kernel = {"_signed_state", "_compose_state", "_compose", "_compose_sum", "intertwining_residual"}
    operator = transported(("cyclic", 2), 1)
    module = operator.bimodule
    cases = [(module, 0, (Fraction(0),) * module.dim), (module, 2, operator.cocycle.phi)]
    cases.append((replace(module, left=_nudged(module.left, 1)), 2, operator.cocycle.phi))
    called = set()

    def record(frame, event, arg):
        if event == "call":
            called.add(frame.f_code.co_name)

    for case in cases:
        sys.setprofile(record)
        try:
            _differential_outcome(hochschild_differential, *case)
        finally:
            sys.setprofile(None)
    assert "hochschild_differential" in called and not called & kernel


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


# ---------------------------------------------------------------------------
# failing host and family reports, pinned per violation limit


def _moved(t, flat):
    """``t`` (a matrix or tensor) with the row-major entry ``flat`` moved by 1/2."""
    entries = list(t.entries)
    entries[flat % len(entries)] += Fraction(1, 2)
    return replace(t, entries=tuple(entries))


def _with_hosts(operator, algebra=None, module=None, phi=None):
    """``operator`` on a new algebra, module or cocycle tensor, rewired so
    the module sits over the algebra and the cocycle on the module."""
    algebra = algebra or operator.algebra
    module = replace(module or operator.bimodule, parent=algebra)
    cocycle = replace(operator.cocycle, host=module, phi=operator.cocycle.phi if phi is None else phi)
    return replace(operator, cocycle=cocycle)


def _non_cocycle(operator):
    """phi plus the first degree-2 basis cochain of the HA complex of the
    operator's bimodule whose differential is not zero: still equivariant,
    so both cocycle routes run, and not a cocycle.  None when every basis
    cochain is a cocycle (on D0)."""
    handle = ha_complex(operator.algebra, operator.bimodule)
    for cochain in handle.basis(2):
        if not handle.differential(cochain).is_zero():
            return operator.cocycle.phi.add(cochain.table[()])
    return None


def failing_operators():
    """Nudged copies of D0-D2 and of one seeded transport of each
    twisted-triangular packing (dense p): one entry of mu, p, the left
    action, phi or R_0 moved by 1/2, and phi plus a non-cocycle."""
    bases = {name: desk_instance(name)["operator"] for name in ("D0", "D1", "D2")}
    for omega in (("cyclic", 2), ("boolean_monoid", None)):
        bases[f"{omega[0]}/transport"] = transported(omega, 0)
    out = {}
    for name, op in bases.items():
        A, module = op.algebra, op.bimodule
        out[f"{name}/mu"] = _with_hosts(op, algebra=replace(A, mu=_moved(A.mu, 1)))
        out[f"{name}/p"] = _with_hosts(op, algebra=replace(A, p=_moved(A.p, 1)))
        out[f"{name}/left"] = _with_hosts(op, module=replace(module, left=_moved(module.left, 1)))
        out[f"{name}/phi"] = _with_hosts(op, phi=_moved(op.cocycle.phi, 1))
        out[f"{name}/map"] = replace(op, maps=(_moved(op.maps[0], 1),) + op.maps[1:])
        phi = _non_cocycle(op)
        if phi is not None:
            out[f"{name}/cochain"] = _with_hosts(op, phi=phi)
    return out


FAILING_CHECKERS = {
    "check_hom_algebra": lambda op, limit: check_hom_algebra(op.algebra, limit),
    "check_bimodule": lambda op, limit: check_bimodule(op.bimodule, limit),
    "check_two_cocycle": lambda op, limit: check_two_cocycle(op.cocycle, limit),
    "check_twisted_rbf": lambda op, limit: check_twisted_rbf(op, limit),
}

FROZEN_FAILING_REPORTS = {
    "D0/mu/check_bimodule": "8575c02b417c4a97f52c58a3db41e3569497788d7718310df92a5adf1b0dcf23",
    "D0/mu/check_twisted_rbf": "01bc3003a5200988af0e41868823184762df5f3dcad3d4ad9f5ab116c7b10336",
    "D0/p/check_hom_algebra": "9d77351a128d3b62dc6e286a7776bae738e0b1c4879a5423038d3c5efd227955",
    "D0/p/check_bimodule": "859950971e713d7ec6d51a7ef278f710e87d7fa3c1e37b7a005c80656746076f",
    "D0/p/check_twisted_rbf": "e98c4e7a777b2293cc277b9a5752a510d6576793b6f027b4d3dfac6c38e0e4bc",
    "D0/left/check_bimodule": "4d2b5a83d3396a47b724350d309beed258c3db8a35a0d0e3cd856cd79b00278b",
    "D0/left/check_twisted_rbf": "01bc3003a5200988af0e41868823184762df5f3dcad3d4ad9f5ab116c7b10336",
    "D0/map/check_twisted_rbf": "c1cc50d40e9ee64cd7ad07962b8c661cb1fb2c24010050a1394cc477ee967c4c",
    "D1/mu/check_hom_algebra": "1c590cae10145ecb260456c146eb113de7b593e164d11b5e248237e6fcd00da1",
    "D1/mu/check_bimodule": "bac94f92ef2d87dcfb041135384a187861b0b5f0d8b08572a0477e80d39d9e83",
    "D1/mu/check_two_cocycle": "3a6230f9dca252f52459223db393f32b27f371437dc552c839d796a6eaa53520",
    "D1/mu/check_twisted_rbf": "e98c4e7a777b2293cc277b9a5752a510d6576793b6f027b4d3dfac6c38e0e4bc",
    "D1/p/check_hom_algebra": "60cf24fdd7463f0c9963e4ec4703d86c4e87692874a6ee14cf8d6399318021fb",
    "D1/p/check_bimodule": "7fe9b3caa42dc9efb3d47b074294b0b06ef49a434a152fbcc8f5fc7983d769b5",
    "D1/p/check_two_cocycle": "b690dda0ac29f4309b09017f015cd930140ea6712fe826af302988284d79b20b",
    "D1/p/check_twisted_rbf": "e98c4e7a777b2293cc277b9a5752a510d6576793b6f027b4d3dfac6c38e0e4bc",
    "D1/left/check_bimodule": "f3fb76a2fc77de60b0a5afd4635b668eb465b5a374afc7908852b8d29634c5d7",
    "D1/left/check_two_cocycle": "a01b7ba6dba3330329f89d6db5092ecf6890efc40a2834b742a9a6251364b2f0",
    "D1/left/check_twisted_rbf": "01bc3003a5200988af0e41868823184762df5f3dcad3d4ad9f5ab116c7b10336",
    "D1/phi/check_two_cocycle": "443bd62cab2125be227d31e66cd1200de599d61dd55d494c1b5dc76ed4b72943",
    "D1/phi/check_twisted_rbf": "af21e5f399795aff1d78198123e3a863ab68d837f96bc4e957b3c949a30c3b2a",
    "D1/map/check_twisted_rbf": "c9d8721c5faaa7204b97d41bf9f75c8b2f3cccb142de8e6b3d7c407cb530ddce",
    "D1/cochain/check_two_cocycle": "d6ef688be37f3983bf2c32a0c95a2ad187eb5e4c32e921a9fc2ff50b0bd8536d",
    "D1/cochain/check_twisted_rbf": "af21e5f399795aff1d78198123e3a863ab68d837f96bc4e957b3c949a30c3b2a",
    "D2/mu/check_hom_algebra": "b2bc5db3987c0237e8a9ca445aa77505080c0e0581035510ec2f70f0f8fab306",
    "D2/mu/check_bimodule": "bac94f92ef2d87dcfb041135384a187861b0b5f0d8b08572a0477e80d39d9e83",
    "D2/mu/check_two_cocycle": "3a6230f9dca252f52459223db393f32b27f371437dc552c839d796a6eaa53520",
    "D2/mu/check_twisted_rbf": "e98c4e7a777b2293cc277b9a5752a510d6576793b6f027b4d3dfac6c38e0e4bc",
    "D2/p/check_hom_algebra": "18b85dce09825b316a5af0c08f61931a9d8220a97f1aac78ef3520f5b78a7dfe",
    "D2/p/check_bimodule": "7fe9b3caa42dc9efb3d47b074294b0b06ef49a434a152fbcc8f5fc7983d769b5",
    "D2/p/check_two_cocycle": "b690dda0ac29f4309b09017f015cd930140ea6712fe826af302988284d79b20b",
    "D2/p/check_twisted_rbf": "e98c4e7a777b2293cc277b9a5752a510d6576793b6f027b4d3dfac6c38e0e4bc",
    "D2/left/check_bimodule": "a6afb67a3355b2f21e067747afd1cf91910c51fe128ab95b98fadec7eee763dc",
    "D2/left/check_two_cocycle": "a01b7ba6dba3330329f89d6db5092ecf6890efc40a2834b742a9a6251364b2f0",
    "D2/left/check_twisted_rbf": "01bc3003a5200988af0e41868823184762df5f3dcad3d4ad9f5ab116c7b10336",
    "D2/phi/check_two_cocycle": "77be71852197841a7ddbfafe4b1042aa646ec31a21a3f7b18fa466d252aa69c0",
    "D2/phi/check_twisted_rbf": "af21e5f399795aff1d78198123e3a863ab68d837f96bc4e957b3c949a30c3b2a",
    "D2/map/check_twisted_rbf": "028bd38c8937e93f417c0d2f42fb2a95dbfbdf08f93a55840b6c944ba0a0ba24",
    "D2/cochain/check_two_cocycle": "3fbdaee1d15344af334ba2cab5aba618c5af8b3c5a9e59229d005e2dd3999e6b",
    "D2/cochain/check_twisted_rbf": "af21e5f399795aff1d78198123e3a863ab68d837f96bc4e957b3c949a30c3b2a",
    "cyclic/transport/mu/check_hom_algebra": "3811c8b4ff9891e231fd50dd53a22b2fe812789a7589e58b311509324818da9e",
    "cyclic/transport/mu/check_bimodule": "19a3fb835db7217d16a4b74f8c996bdfd20cd8b25460bfc74531d3cf3e6d9fdd",
    "cyclic/transport/mu/check_two_cocycle": "381e68b93bf6064fe439791f30b3710456ea3fd875ee5b50c32c1d4d0ee06f4c",
    "cyclic/transport/mu/check_twisted_rbf": "e98c4e7a777b2293cc277b9a5752a510d6576793b6f027b4d3dfac6c38e0e4bc",
    "cyclic/transport/p/check_hom_algebra": "18e75a14cefdeb5bfbfa35cf58fd5ab64382b8115993f134878ca2f856b2a850",
    "cyclic/transport/p/check_bimodule": "ea2442204411ad818cc235602c2fe82f0b71066c05ad09db8dd17ec0ea4a9cad",
    "cyclic/transport/p/check_two_cocycle": "95f363a6bec7fd7fdf43d9ccef366add05d4ba7065fc009d2b6b947b6b094966",
    "cyclic/transport/p/check_twisted_rbf": "e98c4e7a777b2293cc277b9a5752a510d6576793b6f027b4d3dfac6c38e0e4bc",
    "cyclic/transport/left/check_bimodule": "53bdc83cdaf0a00ca22fdba38e2c2e979a0d0dddcbeb7f49836f8ad430a7481c",
    "cyclic/transport/left/check_two_cocycle": "381e68b93bf6064fe439791f30b3710456ea3fd875ee5b50c32c1d4d0ee06f4c",
    "cyclic/transport/left/check_twisted_rbf": "01bc3003a5200988af0e41868823184762df5f3dcad3d4ad9f5ab116c7b10336",
    "cyclic/transport/phi/check_two_cocycle": "2320116b0eb5b9ff5f19d0c1737254bcbaa47d514f585a7db53b5b350be4aa36",
    "cyclic/transport/phi/check_twisted_rbf": "af21e5f399795aff1d78198123e3a863ab68d837f96bc4e957b3c949a30c3b2a",
    "cyclic/transport/map/check_twisted_rbf": "fcfa659d590a41c182ecfbfc58db113ac4982712fe654234d119b667775cf5ae",
    "cyclic/transport/cochain/check_two_cocycle": "9510d1e0861eda095720b60bee948417ca9981f02ea3798b4b66c3b52d3acd26",
    "cyclic/transport/cochain/check_twisted_rbf": "af21e5f399795aff1d78198123e3a863ab68d837f96bc4e957b3c949a30c3b2a",
    "boolean_monoid/transport/mu/check_hom_algebra": "47c2ea14490db1b7fa6a19df109c66b6674ed419c7bd61d6c11777398c20341f",
    "boolean_monoid/transport/mu/check_bimodule": "19a3fb835db7217d16a4b74f8c996bdfd20cd8b25460bfc74531d3cf3e6d9fdd",
    "boolean_monoid/transport/mu/check_two_cocycle": "381e68b93bf6064fe439791f30b3710456ea3fd875ee5b50c32c1d4d0ee06f4c",
    "boolean_monoid/transport/mu/check_twisted_rbf": "e98c4e7a777b2293cc277b9a5752a510d6576793b6f027b4d3dfac6c38e0e4bc",
    "boolean_monoid/transport/p/check_hom_algebra": "9a5127260b0251376216bbb8a6a98126c5b51a5f3c9338a8edc4201c531b3348",
    "boolean_monoid/transport/p/check_bimodule": "ea2442204411ad818cc235602c2fe82f0b71066c05ad09db8dd17ec0ea4a9cad",
    "boolean_monoid/transport/p/check_two_cocycle": "95f363a6bec7fd7fdf43d9ccef366add05d4ba7065fc009d2b6b947b6b094966",
    "boolean_monoid/transport/p/check_twisted_rbf": "e98c4e7a777b2293cc277b9a5752a510d6576793b6f027b4d3dfac6c38e0e4bc",
    "boolean_monoid/transport/left/check_bimodule": "b95168b8e37b479b3e2eded51f724628bae432d1abe1abcdcc6f6a21edd8fb52",
    "boolean_monoid/transport/left/check_two_cocycle": "381e68b93bf6064fe439791f30b3710456ea3fd875ee5b50c32c1d4d0ee06f4c",
    "boolean_monoid/transport/left/check_twisted_rbf": "01bc3003a5200988af0e41868823184762df5f3dcad3d4ad9f5ab116c7b10336",
    "boolean_monoid/transport/phi/check_two_cocycle": "5210f56c35152cd9429b01a35b2a28acb6d3813ff4f1df7d87db097656184d50",
    "boolean_monoid/transport/phi/check_twisted_rbf": "af21e5f399795aff1d78198123e3a863ab68d837f96bc4e957b3c949a30c3b2a",
    "boolean_monoid/transport/map/check_twisted_rbf": "92141bf2eb4296e6faca36304ac643c643de85b381683ff9b861e82335170778",
    "boolean_monoid/transport/cochain/check_two_cocycle": "480f2a250f2652c1728307f0ee07a4fa403317039c70dfa92b87dafc4dcf08a3",
    "boolean_monoid/transport/cochain/check_twisted_rbf": "af21e5f399795aff1d78198123e3a863ab68d837f96bc4e957b3c949a30c3b2a",
}


def failing_report_listing():
    """sha256 of the outcomes at max_violations 1, 3 and the default, per
    failing input and checker; a checker that passes the input is left out."""
    listing = {}
    for name, op in failing_operators().items():
        for checker, run in FAILING_CHECKERS.items():
            outcomes = [_outcome(lambda obj: run(obj, limit), op) for limit in (1, 3, DEFAULT_MAX_VIOLATIONS)]
            if outcomes[-1].get("passed") is not True:
                listing[f"{name}/{checker}"] = _digest(outcomes)
    return listing


def test_failing_reports_match_frozen_digests():
    assert failing_report_listing() == FROZEN_FAILING_REPORTS


# The message of a cocycle-route disagreement, as raised before the direct
# residual was compared with d2 on states: d2 moved at two entries, the one
# of the later triple on output coordinate 0 and the one of the earlier
# triple on the last coordinate, so the message names the earlier triple.
ROUTE_MISMATCHES = {
    "D1": ((0, 37), (1, 5), "cocycle routes disagree at {'x1': 0, 'x2': 1, 'x3': 1}: direct identity vs differential"),
    "cyclic/transport": (
        (0, 150),
        (2, 41),
        "cocycle routes disagree at {'x1': 1, 'x2': 0, 'x3': 5}: direct identity vs differential",
    ),
}


@pytest.mark.parametrize("name", sorted(ROUTE_MISMATCHES))
def test_route_mismatch_names_the_first_disagreeing_triple(name, monkeypatch):
    import rbfam.homalg as homalg

    cocycle = desk_instance(name)["cocycle"] if name == "D1" else transported(("cyclic", 2), 0).cocycle
    *moves, message = ROUTE_MISMATCHES[name]
    differential = homalg.hochschild_differential

    def moved(module, degree, f):
        d2 = differential(module, degree, f)
        inner = len(d2.entries) // d2.shape[0]
        entries = list(d2.entries)
        for k, column in moves:
            entries[k * inner + column] += 1
        return Tensor(d2.shape, tuple(entries))

    monkeypatch.setattr(homalg, "hochschild_differential", moved)
    with pytest.raises(RouteMismatchError) as err:
        check_two_cocycle(cocycle)
    assert str(err.value) == message
