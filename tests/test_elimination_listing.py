"""A sha256 listing of constraint kernels, differential matrices, their
elimination and the two CLI-level consumers of both.

Each entry hashes one answer: the constraint block of a degree (shape and
nonzero cells), its kernel (``supports``), the differential matrix (shape
and nonzero cells, read off its column states when it has them), the kernel
of that matrix (``kernel_basis``) and the cohomology dimensions, on two HA
complexes with a non-identity structure map (the Yau-twisted triangular
algebra and its seeded dense basis change), the seeded transports of its
identity packing over C2 and the boolean monoid, and the desk families
D0-D2; then ``rigidity_probe`` on each family and ``verify-suite --json``
on the desk families; and what ``supports`` gives or refuses when a
structure map holds polynomials.
The goldens in ``goldens/elimination_listing.json`` were frozen from the
code that built constraint blocks as dense rows; a failure here means an
answer changed, and the fix belongs in the code, not in the golden file.
"""
import contextlib
import hashlib
import io
import json
import random
from fractions import Fraction
from functools import cache
from pathlib import Path

import pytest

from conftest import _yau_twisted_triangular
from rbfam.cli import main
from rbfam.cohomology import HA, ComplexHandle, cohomology_dims, differential_matrix, ha_complex, rbf_complex
from rbfam.deformations import rigidity_probe
from rbfam.errors import WorkbenchError
from rbfam.homalg import regular_bimodule
from rbfam.linalg import Matrix, kernel_basis
from rbfam.scalars import TruncatedPoly
from rbfam.semigroups import builtin
from rbfam.workspace import desk_instance, dump_workspace
from test_family_constructions import packed_identity, seeded_unimodular, transport_algebra, transport_family

GOLDEN_PATH = Path(__file__).parent / "goldens" / "elimination_listing.json"


@cache
def golden():
    return json.loads(GOLDEN_PATH.read_text())


def _ha(moved):
    base = _yau_twisted_triangular()
    if moved:
        base = transport_algebra(base, *seeded_unimodular(base.dim, random.Random(0)))
    return ha_complex(base, regular_bimodule(base), degree_cap=4)


def _packing(omega):
    return transport_family(packed_identity(_yau_twisted_triangular(), omega), random.Random(0))


DESK = ("D0", "D1", "D2")


def _families():
    return {
        "C2": _packing(builtin("cyclic", 2)),
        "boolean_monoid": _packing(builtin("boolean_monoid")),
        **{name: desk_instance(name)["operator"] for name in DESK},
    }


# (name, handle builder, degrees).  Each range stops below the first degree
# that takes seconds (seeded HA at 4, the packings at 3).
COMPLEXES = [
    ("triangular-ha", lambda: _ha(False), range(5)),
    ("seeded-ha", lambda: _ha(True), range(4)),
    ("C2", lambda: rbf_complex(_families()["C2"], degree_cap=2), range(3)),
    ("boolean_monoid", lambda: rbf_complex(_families()["boolean_monoid"], degree_cap=2), range(3)),
    *((name, lambda name=name: rbf_complex(desk_instance(name)["operator"], degree_cap=4), range(5)) for name in DESK),
]


def _digest(value):
    return hashlib.sha256(repr(value).encode()).hexdigest()


def _cells(m):
    """(rows, cols, the nonzero (row, column, value) by column)."""
    if m.column_states is not None:
        cells = [
            (i, j, v if den is None else Fraction(v, den))
            for j, (state, den) in enumerate(m.column_states)
            for i, v in sorted(state.items())
            if v
        ]
    else:
        cells = sorted(((i, j, e) for i in range(m.rows) for j in range(m.cols) if (e := m.at(i, j))), key=lambda t: t[1::-1])
    return m.rows, m.cols, cells


def complex_listing(make, degrees):
    handle = make()
    out = {}
    for n in degrees:
        out[f"block/{n}"] = _digest(_cells(handle._constraint_matrix(n)))
        out[f"supports/{n}"] = _digest(handle.supports(n))
        m = differential_matrix(handle, n)
        out[f"matrix/{n}"] = _digest(_cells(m))
        out[f"kernel/{n}"] = _digest(kernel_basis(m))
        out[f"dims/{n}"] = repr(tuple(cohomology_dims(handle, n)))
    return out


def family_listing(name, operator, workdir):
    """The rigidity report, and on a desk family the verify-suite output
    (each seeded packing takes seconds there, so it is left out)."""
    out = {"rigidity": _digest(json.dumps(rigidity_probe(operator).to_dict(), sort_keys=True))}
    if name in DESK:
        path = workdir / f"{name}.json"
        objects = {"omega": operator.omega, "algebra": operator.algebra, "bimodule": operator.bimodule}
        dump_workspace({**objects, "cocycle": operator.cocycle, "operator": operator}, str(path))
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = main(["verify-suite", str(path), "--json"])
        out["verify-suite"] = _digest((code, stdout.getvalue()))
    return out


@pytest.mark.parametrize("name, make, degrees", COMPLEXES, ids=[c[0] for c in COMPLEXES])
def test_complex_listing_is_frozen(name, make, degrees):
    assert complex_listing(make, degrees) == golden()["complexes"][name]


def test_family_listing_is_frozen(tmp_path):
    listing = {name: family_listing(name, op, tmp_path) for name, op in _families().items()}
    assert listing == golden()["families"]


def _poly(rows):
    return Matrix.from_rows([[e if isinstance(e, TruncatedPoly) else TruncatedPoly([e, 0], 2) for e in row] for row in rows])


T = TruncatedPoly([0, 1], 2)
# (p, q) of a 2-dimensional HA layout with a polynomial structure map.  The
# identity as polynomials cancels every constraint row to zero polynomials,
# so nothing reaches elimination; t * t = 0 feeds a zero polynomial entry.
POLYNOMIAL_MAPS = {
    "p=diag(1+t,1)": (Matrix.from_rows([[TruncatedPoly([1, 1], 2), 0], [0, 1]]), Matrix.identity(2)),
    "q=[[1,t],[0,1]]": (Matrix.identity(2), _poly([[1, T], [0, 1]])),
    "p=q=id over K[t]/(t^2)": (_poly([[1, 0], [0, 1]]), _poly([[1, 0], [0, 1]])),
    "p=diag(t,1)": (_poly([[T, 0], [0, 1]]), Matrix.identity(2)),
    # A rational q with denominators beside a polynomial p.
    "p=id over K[t]/(t^2), q=[[1/2,1/2],[1/2,1/2]]": (
        _poly([[1, 0], [0, 1]]),
        Matrix.from_rows([[Fraction(1, 2)] * 2] * 2),
    ),
}


def _outcome(handle, degree):
    try:
        return repr(handle.supports(degree))
    except WorkbenchError as exc:
        return f"{type(exc).__name__}: {exc}"


def test_polynomial_structure_maps_keep_their_outcomes():
    listing = {}
    for name, (p, q) in POLYNOMIAL_MAPS.items():
        handle = ComplexHandle(tag=HA, source_dim=2, target_dim=2, source_map=p, target_map=q, omega=None)
        for n in range(3):
            listing[f"{name}/{n}"] = _outcome(handle, n)
    assert listing == golden()["polynomial"]
