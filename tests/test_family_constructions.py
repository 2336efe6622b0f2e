"""Packed family constructions and the deformed splitting, pinned.

``goldens/ns_deformation_reports.json`` holds the ``to_dict()`` of
``deform_ns_family(..., strict=False)`` on D0, D1, D2, the zero family on
the 2x2 matrix units, the identity-packing family of the Yau-twisted
triangular algebra over C2 and over the boolean monoid, and seeded
unimodular transports of D1 and D2.  Each
takes the zero direction, a seeded random degree-1 cocycle and two seeded
random degree-1 cochains (equivariant by construction, mostly not
cocycles); ``max_violations`` is large enough to keep every violation.  The
goldens were frozen from the body that split R + t R1 into its t^0 and
t^1 parts by hand; a failure here means a report changed, and the fix
belongs in the code, not in the golden file.

Hypothesis properties hold ``tensor_semigroup_algebra``,
``nijenhuis_induced_data``, ``pack_operator`` and ``deform_ns_family`` to
their former bodies, frozen in ``oracles``, with ``repr``-identical output.
The Nijenhuis families are grid-searched ones on the C2 group algebra (the
base of D1 and D2), moved by N -> S(cN + l)S^-1 for scalars c, l and the
automorphism S = diag(1, -1), which keeps the family law.
"""
import json
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import _matrix_units_algebra, _yau_twisted_triangular
from rbfam.cohomology import differential_matrix, rbf_complex
from rbfam.deformations import LinearDeformation, deform_ns_family
from rbfam.errors import PreconditionError
from rbfam.homalg import (
    HomAlgebra,
    HomBimodule,
    TwoCocycle,
    regular_bimodule,
    tensor_semigroup_algebra,
    zero_cocycle,
)
from rbfam.linalg import (
    Matrix,
    Tensor,
    invert_matrix,
    kernel_basis,
    multilinear_apply,
)
from rbfam.operators import (
    NijenhuisFamily,
    TwistedRBFamily,
    identity_packing_family,
    nijenhuis_induced_data,
    pack_operator,
    search_nijenhuis_families,
)
from rbfam.semigroups import builtin
from rbfam.workspace import desk_instance

GOLDEN_PATH = Path(__file__).parent / "goldens" / "ns_deformation_reports.json"
GRID = (Fraction(0), Fraction(1), Fraction(-1), Fraction(1, 2), Fraction(3))
ALL = 10**6
RANDOM_COCHAINS = 2
INSTANCES = (
    "D0",
    "D1",
    "D2",
    "matrix_units",
    "triangular/cyclic",
    "triangular/boolean_monoid",
    "D1/transport",
    "D2/transport",
)
SEMIGROUPS = (
    ("trivial", None),
    ("cyclic", 2),
    ("cyclic", 3),
    ("left_zero", 2),
    ("right_zero", 2),
    ("boolean_monoid", None),
)
C2_AUTOMORPHISM = Matrix.from_rows([[1, 0], [0, -1]])


# ---------------------------------------------------------------------------
# instances


def seeded_unimodular(n, rng):
    """S = LU with unit-diagonal triangular factors, and its inverse."""
    def factor(below):
        def entry(i, j):
            if i == j:
                return 1
            return rng.choice((-1, 0, 1, 2)) if (i > j) == below else 0

        return Matrix.from_rows([[entry(i, j) for j in range(n)] for i in range(n)])

    s = factor(True).mul(factor(False))
    return s, invert_matrix(s)


def _transport3(tensor, out, left, right):
    """out o tensor o (left x right)."""
    return oracles.bilinear_tensor(
        (out.rows, left.cols, right.cols),
        lambda i, j: out.apply(multilinear_apply(tensor, [left.column(i), right.column(j)])),
    )


def transport_algebra(algebra, s, s_inv):
    return HomAlgebra(
        dim=algebra.dim,
        mu=_transport3(algebra.mu, s, s_inv, s_inv),
        p=s.mul(algebra.p).mul(s_inv),
    )


def transport_family(operator, rng):
    """Move (L, V, Phi, R_a) along seeded unimodular S on L and U on V."""
    algebra, module = operator.algebra, operator.bimodule
    s, s_inv = seeded_unimodular(algebra.dim, rng)
    u, u_inv = seeded_unimodular(module.dim, rng)
    new_module = HomBimodule(
        parent=transport_algebra(algebra, s, s_inv),
        dim=module.dim,
        left=_transport3(module.left, u, s_inv, u_inv),
        right=_transport3(module.right, u, u_inv, s_inv),
        q=u.mul(module.q).mul(u_inv),
    )
    cocycle = TwoCocycle(host=new_module, phi=_transport3(operator.cocycle.phi, u, s_inv, s_inv))
    maps = tuple(s.mul(r).mul(u_inv) for r in operator.maps)
    return TwistedRBFamily(cocycle=cocycle, omega=operator.omega, maps=maps)


def packed_identity(algebra, omega):
    _, _, cocycle = tensor_semigroup_algebra(algebra, omega)
    return identity_packing_family(algebra, omega, cocycle)


def _operators():
    tri = _yau_twisted_triangular()
    units = _matrix_units_algebra()
    ops = {name: desk_instance(name)["operator"] for name in ("D0", "D1", "D2")}
    ops["matrix_units"] = TwistedRBFamily(
        cocycle=zero_cocycle(regular_bimodule(units)),
        omega=builtin("trivial"),
        maps=(Matrix.zero(4, 4),),
    )
    ops["triangular/cyclic"] = packed_identity(tri, builtin("cyclic", 2))
    ops["triangular/boolean_monoid"] = packed_identity(tri, builtin("boolean_monoid"))
    for seed, name in enumerate(("D1", "D2")):
        ops[f"{name}/transport"] = transport_family(ops[name], random.Random(seed))
    return ops


@pytest.fixture(scope="module")
def operators():
    return _operators()


@pytest.fixture(scope="module")
def handles(operators):
    return {name: rbf_complex(op) for name, op in operators.items()}


def direction_of(handle, operator, coeffs):
    """The degree-1 cochain sum_i coeffs[i] * basis_i as one matrix per index."""
    cochain = handle.unflatten(1, handle.combine(1, coeffs))
    n, d = operator.algebra.dim, operator.bimodule.dim
    return tuple(Matrix(n, d, cochain.table[(a,)].entries) for a in operator.omega.elements())


def golden_directions(name, operator, handle):
    """Zero, a seeded random cocycle and seeded random cochains of degree 1."""
    rng = random.Random(INSTANCES.index(name))
    size = len(handle.supports(1))
    kernel = kernel_basis(differential_matrix(handle, 1))
    weights = [rng.choice(GRID) for _ in kernel]
    cocycle = [sum((w * v[i] for w, v in zip(weights, kernel)), Fraction(0)) for i in range(size)]
    out = {"zero": [Fraction(0)] * size, "cocycle": cocycle}
    for k in range(RANDOM_COCHAINS):
        out[f"random-{k + 1}"] = [rng.choice(GRID) for _ in range(size)]
    return {label: direction_of(handle, operator, c) for label, c in out.items()}


def golden_cases(operators, handles):
    for name in INSTANCES:
        op = operators[name]
        for label, direction in golden_directions(name, op, handles[name]).items():
            yield f"{name}/{label}", LinearDeformation(base=op, direction=direction)


def report_json(report):
    # Key order is kept: it is the order in which render() prints a where-dict.
    return json.dumps(report.to_dict(), indent=1)


@pytest.fixture(scope="module")
def goldens():
    return json.loads(GOLDEN_PATH.read_text())


# ---------------------------------------------------------------------------
# the deformed splitting


def test_goldens_cover_every_case(operators, handles, goldens):
    keys = [key for key, _ in golden_cases(operators, handles)]
    assert sorted(goldens) == sorted(keys)
    assert any(g["passed"] for g in goldens.values())
    assert any(not g["order1"]["passed"] for g in goldens.values())
    violations = [
        law["violation_count"]
        for g in goldens.values()
        for law in g["ns_axioms"]["laws"] + g["total_product"]["laws"]
    ]
    assert sum(violations) > 0


@pytest.mark.parametrize("name", INSTANCES)
def test_report_matches_golden(name, operators, handles, goldens):
    op = operators[name]
    for label, direction in golden_directions(name, op, handles[name]).items():
        deformation = LinearDeformation(base=op, direction=direction)
        report = deform_ns_family(deformation, strict=False, max_violations=ALL)
        assert report_json(report) == json.dumps(goldens[f"{name}/{label}"], indent=1), label


def _outcome(build):
    try:
        report = build()
    except PreconditionError as err:
        return ("raised", str(err), report_json(err.report))
    return (report_json(report), report.render())


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_deformed_splitting_matches_frozen_body(operators, handles, data):
    name = data.draw(st.sampled_from(INSTANCES))
    op, handle = operators[name], handles[name]
    size = len(handle.supports(1))
    coeffs = data.draw(st.lists(st.sampled_from(GRID), min_size=size, max_size=size))
    deformation = LinearDeformation(base=op, direction=direction_of(handle, op, coeffs))
    strict = data.draw(st.booleans())
    max_violations = data.draw(st.sampled_from((1, 3, ALL)))
    new = _outcome(lambda: deform_ns_family(deformation, strict, max_violations))
    old = _outcome(
        lambda: oracles.ns_deformation_report(deformation, strict, max_violations)
    )
    assert new == old


# ---------------------------------------------------------------------------
# the packed constructions


def _algebras():
    tri = _yau_twisted_triangular()
    s, s_inv = seeded_unimodular(3, random.Random(7))
    return {
        "C2": desk_instance("D1")["base_algebra"],
        "triangular": tri,
        "triangular/transport": transport_algebra(tri, s, s_inv),
        "matrix_units": _matrix_units_algebra(),
    }


ALGEBRAS = _algebras()


@settings(max_examples=30, deadline=None)
@given(
    name=st.sampled_from(sorted(ALGEBRAS)),
    semigroup=st.sampled_from(SEMIGROUPS),
    seed=st.none() | st.integers(0, 2**16),
)
def test_packings_match_frozen_bodies(name, semigroup, seed):
    algebra, omega = ALGEBRAS[name], builtin(*semigroup)
    assert repr(tensor_semigroup_algebra(algebra, omega)) == repr(
        oracles.packed_tensor_algebra(algebra, omega)
    )
    if seed is None:
        operator = packed_identity(algebra, omega)
    else:
        # Only the C2 packings are transported: a dense transport of a
        # larger packing takes seconds to validate.
        operator = transport_family(packed_identity(ALGEBRAS["C2"], omega), random.Random(seed))
    assert repr(pack_operator(operator)) == repr(oracles.packed_operator(operator))


@pytest.mark.parametrize("name", INSTANCES)
def test_pack_operator_matches_frozen_body(name, operators):
    operator = operators[name]
    assert repr(pack_operator(operator)) == repr(oracles.packed_operator(operator))


@pytest.fixture(scope="module")
def searched_families():
    grid = (Fraction(0), Fraction(1))
    desks = {name: desk_instance(name) for name in ("D1", "D2")}
    return {
        name: search_nijenhuis_families(desk["base_algebra"], desk["omega"], grid)
        for name, desk in desks.items()
    }


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_nijenhuis_data_matches_frozen_body(searched_families, data):
    family = data.draw(st.sampled_from(searched_families[data.draw(st.sampled_from(("D1", "D2")))]))
    c, shift = data.draw(st.sampled_from(GRID)), data.draw(st.sampled_from(GRID))
    s = C2_AUTOMORPHISM if data.draw(st.booleans()) else Matrix.identity(2)
    maps = tuple(s.mul(m.scale(c).add(Matrix.identity(2).scale(shift))).mul(s) for m in family.maps)
    moved = NijenhuisFamily(algebra=family.algebra, omega=family.omega, maps=maps)
    assert repr(nijenhuis_induced_data(moved)) == repr(oracles.nijenhuis_data(moved))


@pytest.mark.parametrize("semigroup", SEMIGROUPS, ids=lambda s: f"{s[0]}{s[1] or ''}")
@pytest.mark.parametrize("name", sorted(ALGEBRAS))
def test_identity_family_induces_the_tensor_algebra(name, semigroup):
    # With N_a = id the deformed product is x.y + x.y - x.y = x.y, L acts
    # through the product and the cocycle is -x.y: the packing of L itself.
    algebra, omega = ALGEBRAS[name], builtin(*semigroup)
    identity = NijenhuisFamily(
        algebra=algebra, omega=omega, maps=(Matrix.identity(algebra.dim),) * omega.size
    )
    data = nijenhuis_induced_data(identity)
    assert tensor_semigroup_algebra(algebra, omega) == (data.algebra, data.module, data.cocycle)


def test_pack_operator_of_a_zero_dimensional_algebra():
    # The packed map is 0 x (d m): block_diag keeps the column count of
    # blocks without rows.
    algebra = HomAlgebra(dim=0, mu=Tensor((0, 0, 0), ()), p=Matrix(0, 0, ()))
    module = HomBimodule(
        parent=algebra,
        dim=1,
        left=Tensor((1, 0, 1), ()),
        right=Tensor((1, 1, 0), ()),
        q=Matrix.identity(1),
    )
    cocycle = TwoCocycle(host=module, phi=Tensor((1, 0, 0), ()))
    omega = builtin("cyclic", 2)
    operator = TwistedRBFamily(cocycle=cocycle, omega=omega, maps=(Matrix(0, 1, ()),) * 2)
    assert pack_operator(operator).maps == (Matrix(0, 2, ()),)
