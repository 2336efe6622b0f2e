"""The family identities and induced products held to their per-tuple bodies.

Hypothesis properties hold ``check_twisted_rbf``, ``check_nijenhuis_family``,
``check_weighted_rbf``, ``family_identity_cases``, ``_split_operator``,
``tridend_from_weighted_rbf``, ``operator_bimodule`` and
``yau_twist_ns_family`` to the bodies they had while they evaluated each
family identity once per basis pair, or built each induced product column
by column, frozen in ``oracles``.  Reports must have an identical
``to_dict()`` and ``render()``, cases and constructions an identical
``repr`` (so an entry's type counts as much as its value), and a rejected
input the same error.  Inputs: the desk operators D0-D2 and random grid
candidates on their hosts, passing and failing; seeded unimodular
transports of the twisted-triangular packings over C2 and the boolean
monoid; deformed maps R + t R1 over K[t]/(t^3); weighted families of
weight 0, 1, -1 and 1/2; the Nijenhuis families the grid search finds on
D1 and D2, moved or not, and random failing ones; a 0-dimensional algebra
and a 0-dimensional module.

The Nijenhuis grid search binds one map at a time and tests each basis
tuple on its own; on the whole grid {0, 1} over D1 and D2 it must find
exactly the candidates ``check_nijenhuis_family`` passes, and on small
grids over D0-D2, the empty algebra and the Yau-twisted triangular
algebra it must return the list of the frozen enumerating search.
"""
from dataclasses import replace
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from rbfam.errors import WorkbenchError
from rbfam.family import (
    _split_operator,
    ns_family_from_operator,
    operator_bimodule,
    tridend_from_weighted_rbf,
    yau_twist_ns_family,
)
from rbfam.homalg import HomAlgebra, HomBimodule, TwoCocycle
from rbfam.linalg import Matrix, Tensor
from rbfam.operators import (
    NijenhuisFamily,
    TwistedRBFamily,
    WeightedRBFamily,
    check_nijenhuis_family,
    check_twisted_rbf,
    check_weighted_rbf,
    family_identity_cases,
    nijenhuis_induced_data,
    search_nijenhuis_families,
)
from rbfam.scalars import TruncatedPoly
from rbfam.semigroups import builtin
from rbfam.workspace import desk_instance
from test_law_composition import transported

GRID = (Fraction(0), Fraction(1), Fraction(-1), Fraction(1, 2), Fraction(3))
WEIGHTS = (Fraction(0), Fraction(1), Fraction(-1), Fraction(1, 2))
ALL = 10**6
ORDER = 3


# ---------------------------------------------------------------------------
# instances


def _zero_dimensional_operators():
    """A family into a 0-dimensional algebra, and one on a 0-dimensional module."""
    omega = builtin("cyclic", 2)
    empty = HomAlgebra(dim=0, mu=Tensor((0, 0, 0), ()), p=Matrix(0, 0, ()))
    module = HomBimodule(
        parent=empty, dim=1, left=Tensor((1, 0, 1), ()), right=Tensor((1, 1, 0), ()), q=Matrix.identity(1)
    )
    into_empty = TwistedRBFamily(
        cocycle=TwoCocycle(host=module, phi=Tensor((1, 0, 0), ())), omega=omega, maps=(Matrix(0, 1, ()),) * 2
    )
    line = desk_instance("D0")["algebra"]
    module = HomBimodule(
        parent=line, dim=0, left=Tensor((0, 1, 0), ()), right=Tensor((0, 0, 1), ()), q=Matrix(0, 0, ())
    )
    on_empty = TwistedRBFamily(
        cocycle=TwoCocycle(host=module, phi=Tensor((0, 1, 1), ())), omega=omega, maps=(Matrix(1, 0, ()),) * 2
    )
    return {"empty-algebra": into_empty, "empty-module": on_empty}


def _operators():
    ops = {name: desk_instance(name)["operator"] for name in ("D0", "D1", "D2")}
    ops.update(_zero_dimensional_operators())
    for omega in (("cyclic", 2), ("boolean_monoid", None)):
        for seed in (0, 1):
            ops[f"triangular/{omega[0]}/{seed}"] = transported(omega, seed)
    return ops


OPERATORS = _operators()


def _algebras():
    out = {name: desk_instance(name).get("base_algebra", desk_instance(name)["algebra"]) for name in ("D0", "D1", "D2")}
    out["empty"] = OPERATORS["empty-algebra"].algebra
    return out


ALGEBRAS = _algebras()
OMEGAS = {"D0": builtin("trivial"), "D1": builtin("cyclic", 2), "D2": builtin("boolean_monoid"), "empty": builtin("cyclic", 2)}


def grid_matrix(draw, rows, cols):
    return Matrix(rows, cols, tuple(draw(st.lists(st.sampled_from(GRID), min_size=rows * cols, max_size=rows * cols))))


def _outcome(build):
    """A report's ``to_dict()`` and ``render()``, a construction's ``repr``,
    or the type, message and report of the error it raised."""
    try:
        value = build()
    except WorkbenchError as err:
        report = getattr(err, "report", None)
        return ("raised", type(err).__name__, str(err), report.to_dict() if report is not None else None)
    if hasattr(value, "render"):
        return (value.to_dict(), value.render())
    return repr(value)


# ---------------------------------------------------------------------------
# twisted Rota-Baxter families


@st.composite
def twisted_candidates(draw):
    """A desk or transported operator with its own maps, scaled maps or
    random grid maps on the same hosts."""
    operator = OPERATORS[draw(st.sampled_from(sorted(OPERATORS)))]
    n, d = operator.algebra.dim, operator.bimodule.dim
    kind = draw(st.sampled_from(("own", "scaled", "grid")))
    if kind == "scaled":
        c = draw(st.sampled_from(GRID))
        operator = replace(operator, maps=tuple(r.scale(c) for r in operator.maps))
    elif kind == "grid":
        operator = replace(operator, maps=tuple(grid_matrix(draw, n, d) for _ in operator.maps))
    return operator


@settings(max_examples=60, deadline=None)
@given(operator=twisted_candidates(), max_violations=st.sampled_from((1, 3, ALL)))
def test_twisted_identity_matches_frozen_body(operator, max_violations):
    new = _outcome(lambda: check_twisted_rbf(operator, max_violations))
    assert new == _outcome(lambda: oracles.twisted_rbf_report(operator, max_violations))
    assert repr(_split_operator(operator)) == repr(oracles.split_operator(operator))
    assert _outcome(lambda: operator_bimodule(operator)) == _outcome(lambda: oracles.derived_bimodule(operator))


@settings(max_examples=25, deadline=None, derandomize=True)
@given(data=st.data())
def test_deformed_identity_matches_frozen_body(data):
    # R + t R1 over K[t]/(t^3), with R the operator's maps or grid maps.
    operator = data.draw(twisted_candidates())
    n, d = operator.algebra.dim, operator.bimodule.dim
    maps = tuple(
        Matrix(n, d, tuple(TruncatedPoly([b, c], ORDER) for b, c in zip(r.entries, grid_matrix(data.draw, n, d).entries)))
        for r in operator.maps
    )
    new = list(family_identity_cases(operator, maps))
    assert repr(new) == repr(list(oracles.tuple_family_identity_cases(operator, maps)))
    deformed = replace(operator, maps=maps)
    assert repr(_split_operator(deformed)) == repr(oracles.split_operator(deformed))


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_yau_twist_matches_frozen_body(data):
    operator = OPERATORS[data.draw(st.sampled_from(sorted(OPERATORS)))]
    family = ns_family_from_operator(operator)
    d = family.dim
    kind = data.draw(st.sampled_from(("identity", "zero", "grid")))
    endo = {"identity": Matrix.identity, "zero": lambda d: Matrix.zero(d, d)}.get(
        kind, lambda d: grid_matrix(data.draw, d, d)
    )(d)
    assert _outcome(lambda: yau_twist_ns_family(family, endo)) == _outcome(lambda: oracles.yau_twist(family, endo))


# ---------------------------------------------------------------------------
# weighted and Nijenhuis families


@st.composite
def endo_maps(draw, name):
    algebra, omega = ALGEBRAS[name], OMEGAS[name]
    n = algebra.dim
    kind = draw(st.sampled_from(("identity", "zero", "grid")))
    if kind == "identity":
        return (Matrix.identity(n),) * omega.size
    if kind == "zero":
        return (Matrix.zero(n, n),) * omega.size
    return tuple(grid_matrix(draw, n, n) for _ in range(omega.size))


@settings(max_examples=50, deadline=None)
@given(data=st.data(), weight=st.sampled_from(WEIGHTS), max_violations=st.sampled_from((1, 3, ALL)))
def test_weighted_identity_matches_frozen_body(data, weight, max_violations):
    name = data.draw(st.sampled_from(sorted(ALGEBRAS)))
    family = WeightedRBFamily(
        algebra=ALGEBRAS[name], omega=OMEGAS[name], weight=weight, maps=data.draw(endo_maps(name))
    )
    new = _outcome(lambda: check_weighted_rbf(family, max_violations))
    assert new == _outcome(lambda: oracles.weighted_rbf_report(family, max_violations))
    new = _outcome(lambda: tridend_from_weighted_rbf(family))
    assert new == _outcome(lambda: oracles.tridend_from_weighted(family))


@pytest.fixture(scope="module")
def searched_families():
    grid = (Fraction(0), Fraction(1))
    return {
        name: search_nijenhuis_families(ALGEBRAS[name], OMEGAS[name], grid) for name in ("D1", "D2")
    }


@settings(max_examples=50, deadline=None)
@given(data=st.data(), max_violations=st.sampled_from((1, 3, ALL)))
def test_nijenhuis_identity_matches_frozen_body(searched_families, data, max_violations):
    name = data.draw(st.sampled_from(("D0", "D1", "D2", "empty")))
    if name in searched_families and data.draw(st.booleans()):
        maps = data.draw(st.sampled_from(searched_families[name])).maps
        c, shift = data.draw(st.sampled_from(GRID)), data.draw(st.sampled_from(GRID))
        maps = tuple(m.scale(c).add(Matrix.identity(m.rows).scale(shift)) for m in maps)
    else:
        maps = data.draw(endo_maps(name))
    family = NijenhuisFamily(algebra=ALGEBRAS[name], omega=OMEGAS[name], maps=maps)
    new = _outcome(lambda: check_nijenhuis_family(family, max_violations))
    assert new == _outcome(lambda: oracles.nijenhuis_family_report(family, max_violations))
    assert _outcome(lambda: nijenhuis_induced_data(family)) == _outcome(lambda: oracles.nijenhuis_data(family))


@pytest.mark.parametrize("name, count", [("D1", 8), ("D2", 28)])
def test_search_finds_exactly_the_families_the_checker_passes(name, count):
    algebra, omega = ALGEBRAS[name], OMEGAS[name]
    n, m = algebra.dim, omega.size
    grid = (Fraction(0), Fraction(1))
    found = [f.maps for f in search_nijenhuis_families(algebra, omega, grid)]
    passing = []
    for flat in product(grid, repeat=m * n * n):
        maps = tuple(Matrix(n, n, flat[a * n * n : (a + 1) * n * n]) for a in range(m))
        if check_nijenhuis_family(NijenhuisFamily(algebra=algebra, omega=omega, maps=maps)).passed:
            passing.append(maps)
    assert found == passing
    assert len(found) == count


SEARCH_SEMIGROUPS = (("trivial", None), ("cyclic", 2), ("boolean_monoid", None), ("left_zero", 2), ("right_zero", 2))
SEARCH_VALUES = (
    0, 1, -1, 2, Fraction(0), Fraction(1), Fraction(-1), Fraction(1, 2), Fraction(-1, 2), Fraction(1, 3), Fraction(-2, 3)
)
# The frozen search enumerates len(grid)**(m*n*n) candidates; this bound keeps it fast.
SEARCH_CANDIDATES = 512


@settings(max_examples=60, deadline=None)
@given(
    name=st.sampled_from(sorted(ALGEBRAS) + ["triangular"]),
    semigroup=st.sampled_from(SEARCH_SEMIGROUPS),
    values=st.lists(st.sampled_from(SEARCH_VALUES), max_size=len(SEARCH_VALUES)),
)
# Over this grid 6 of the triangular algebra's 18 Nijenhuis maps do not commute with p.
@example(name="triangular", semigroup=("trivial", None), values=[0, 1])
# A grid whose denominators have lcm 6.
@example(name="D1", semigroup=("trivial", None), values=[Fraction(1, 2), Fraction(-2, 3), 0, 1])
def test_search_matches_brute_force(twisted_triangular_algebra, name, semigroup, values):
    # The triangular algebra's p is not the identity, so the search filters
    # its maps to the p-commutant; grids may repeat a value, mix int and
    # Fraction, or be empty.
    algebra = twisted_triangular_algebra if name == "triangular" else ALGEBRAS[name]
    omega = builtin(*semigroup)
    slots = omega.size * algebra.dim**2
    grid = values[: max(k for k in range(len(values) + 1) if k**slots <= SEARCH_CANDIDATES)]
    found = search_nijenhuis_families(algebra, omega, grid)
    assert repr(found) == repr(oracles.brute_force_nijenhuis_search(algebra, omega, grid))
