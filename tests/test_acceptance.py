"""Acceptance suite: one test per criterion, each printing a verdict line.

All arithmetic is exact; every tolerance is zero.  Golden values were
computed with the independent naive oracle in ``oracles.py`` (different
elimination, different evaluator) before being frozen here; criterion 10
re-runs that oracle bit-for-bit.
"""
import random
import time
from fractions import Fraction

import pytest

from oracles import NaiveFamilyComplex
from rbfam.cohomology import cohomology_dims, differential_matrix, ha_complex, omega_complex
from rbfam.deformations import (
    LinearDeformation,
    check_equivalence,
    check_infinitesimal,
    rbf_delta0_matrices,
    rigidity_probe,
    trivialize_cocycle,
)
from rbfam.family import (
    HomNSAlgebra,
    HomNSFamilyAlgebra,
    HomTridendFamily,
    OmegaAssocAlgebra,
    OmegaBimodule,
    as_ns_algebra,
    check_hom_ns,
    check_hom_ns_family,
    check_omega_assoc,
    check_omega_bimodule,
    check_tridend_family,
    ns_family_from_operator,
    ns_family_from_tridend,
    ns_family_pack,
    omega_assoc_from_ns_family,
    operator_bimodule,
    tridend_from_weighted_rbf,
)
from rbfam.homalg import check_bimodule, check_hom_algebra, check_two_cocycle
from rbfam.linalg import Matrix, Tensor, kernel_basis, rank
from rbfam.operators import (
    TwistedRBFamily,
    WeightedRBFamily,
    check_nijenhuis_family,
    check_twisted_rbf,
    graph_check,
    nijenhuis_induced_data,
    pack_operator,
)
# Golden values, frozen from the naive-oracle run (degrees 0, 1, 2).
GOLDEN_RBF_DIMS = {
    "D0": [(1, 1, 0, 1), (1, 1, 0, 1), (1, 1, 0, 1)],
    "D1": [(4, 4, 0, 4), (16, 0, 0, 0), (64, 16, 16, 0)],
    "D2": [(4, 4, 0, 4), (16, 0, 0, 0), (64, 16, 16, 0)],
}
GOLDEN_D1_RIGIDITY = "sufficient condition met"


def _verdict(number, ok, text):
    print(f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {text}")
    assert ok


@pytest.fixture(scope="module")
def instances(d0, d1, d2):
    return {"D0": d0, "D1": d1, "D2": d2}


@pytest.fixture(scope="module")
def rbf_handles(instances, d0_handle, d1_handle, d2_handle):
    return {"D0": d0_handle, "D1": d1_handle, "D2": d2_handle}


@pytest.fixture(scope="module")
def omega_handles(rbf_handles):
    return {
        name: omega_complex(h.omega_algebra, h.omega_module)
        for name, h in rbf_handles.items()
    }


@pytest.fixture(scope="module")
def ha_handles(instances):
    return {
        name: ha_complex(data["algebra"], data["bimodule"])
        for name, data in instances.items()
    }


def test_criterion_1_differentials_square_to_zero(rbf_handles, omega_handles, ha_handles):
    ok = True
    for name in ("D0", "D1", "D2"):
        start = time.monotonic()
        for tag, handle in (
            ("HA", ha_handles[name]),
            ("OMEGA", omega_handles[name]),
            ("RBF", rbf_handles[name]),
        ):
            for n in (0, 1):
                m_lo = differential_matrix(handle, n)
                m_hi = differential_matrix(handle, n + 1)
                if not m_hi.mul(m_lo).is_zero():
                    ok = False
        elapsed = time.monotonic() - start
        if elapsed >= 60.0:
            ok = False
    _verdict(1, ok, "d o d = 0 for HA/OMEGA/RBF on D0, D1, D2 at n = 0, 1 within budget")


def test_criterion_2_route_equivalence(rbf_handles, omega_handles):
    ok = True
    for n in (1, 2):
        direct = differential_matrix(rbf_handles["D1"], n)
        generic = differential_matrix(omega_handles["D1"], n)
        ok = ok and direct.entries == generic.entries
    _verdict(2, ok, "direct family differential equals the generic route on full C^1, C^2 bases of D1")


def test_criterion_3_packed_cocycle_and_identity_family(instances):
    ok = True
    for name in ("D1", "D2"):
        data = instances[name]
        ok = ok and check_two_cocycle(data["cocycle"]).passed
        ok = ok and check_twisted_rbf(data["operator"]).passed
    _verdict(3, ok, "packed cocycle and identity family pass for the cyclic and boolean semigroups")


def test_criterion_4_nijenhuis_families(nijenhuis_search, d1):
    found = nijenhuis_search
    has_id = any(all(m.is_identity() for m in f.maps) for f in found)
    has_zero = any(all(m.is_zero() for m in f.maps) for f in found)
    ok = has_id and has_zero
    for family in found:
        if not check_nijenhuis_family(family).passed:
            ok = False
            continue
        data = nijenhuis_induced_data(family)
        ok = ok and check_hom_algebra(data.algebra).passed
        ok = ok and check_bimodule(data.module).passed
        ok = ok and check_two_cocycle(data.cocycle).passed
        ok = ok and check_twisted_rbf(data.operator).passed
    _verdict(
        4,
        ok,
        f"all four induced structures pass for every accepted Nijenhuis family ({len(found)} families)",
    )


def test_criterion_5_graph_agreement(instances):
    rng = random.Random(20260810)
    grid = [Fraction(0), Fraction(1), Fraction(-1), Fraction(1, 2), Fraction(2)]
    total = 0
    agreements = 0
    passes_seen = 0
    for name in ("D0", "D1"):
        data = instances[name]
        operator = data["operator"]
        n, d = operator.algebra.dim, operator.bimodule.dim
        candidates = [operator.maps]
        for _ in range(59):
            candidates.append(
                tuple(
                    Matrix(n, d, tuple(rng.choice(grid) for _ in range(n * d)))
                    for _ in range(operator.omega.size)
                )
            )
        for maps in candidates:
            cand = TwistedRBFamily(cocycle=data["cocycle"], omega=data["omega"], maps=maps)
            direct = check_twisted_rbf(cand).passed
            graph = graph_check(cand).passed
            total += 1
            agreements += direct == graph
            passes_seen += direct
    ok = total >= 100 and agreements == total and passes_seen >= 1
    _verdict(5, ok, f"graph and direct verdicts agree on all {total} candidates")


def test_criterion_6_construction_chains(instances):
    ok = True
    # weighted -> tridendriform -> NS family -> pair-indexed associative
    for name in ("D0", "D1", "D2"):
        data = instances[name]
        base = data.get("base_algebra", data["algebra"])
        omega = data["omega"]
        weighted = WeightedRBFamily(
            algebra=base,
            omega=omega,
            weight=Fraction(-1),
            maps=(Matrix.identity(base.dim),) * omega.size,
        )
        tridend = tridend_from_weighted_rbf(weighted)
        ok = ok and check_tridend_family(tridend).passed
        family = ns_family_from_tridend(tridend)
        ok = ok and check_hom_ns_family(family).passed
        ok = ok and check_omega_assoc(omega_assoc_from_ns_family(family)).passed
    # operator -> NS family -> pair-indexed associative -> induced bimodule
    for name in ("D0", "D1", "D2"):
        operator = instances[name]["operator"]
        family = ns_family_from_operator(operator)
        ok = ok and check_hom_ns_family(family).passed
        ok = ok and check_omega_assoc(omega_assoc_from_ns_family(family)).passed
        ok = ok and check_omega_bimodule(operator_bimodule(operator)).passed

    # injected perturbations must be caught by the matching checker
    d1 = instances["D1"]
    operator = d1["operator"]
    bump2 = Tensor.from_function((2, 2, 2), lambda k, i, j: 1 if (k, i, j) == (0, 1, 0) else 0)

    weighted = WeightedRBFamily(
        algebra=d1["base_algebra"],
        omega=d1["omega"],
        weight=Fraction(-1),
        maps=(Matrix.identity(2), Matrix.identity(2)),
    )
    tridend = tridend_from_weighted_rbf(weighted)
    broken_tridend = HomTridendFamily(
        dim=2,
        omega=tridend.omega,
        prec=tridend.prec,
        succ=tridend.succ,
        dot=tridend.dot.add(bump2),
        p=tridend.p,
    )
    ok = ok and not check_tridend_family(broken_tridend).passed

    family = ns_family_from_operator(operator)
    broken_family = HomNSFamilyAlgebra(
        dim=2,
        omega=family.omega,
        prec=family.prec,
        succ=(family.succ[0].add(bump2), family.succ[1]),
        vee=family.vee,
        p=family.p,
    )
    ok = ok and not check_hom_ns_family(broken_family).passed

    total = omega_assoc_from_ns_family(family)
    broken_total = OmegaAssocAlgebra(
        dim=2,
        omega=total.omega,
        prod=((total.prod[0][0].add(bump2), total.prod[0][1]), total.prod[1]),
        p=total.p,
    )
    ok = ok and not check_omega_assoc(broken_total).passed

    module = operator_bimodule(operator)
    bump_right = Tensor.from_function(
        (4, 4, 2), lambda k, i, a: 1 if (k, i, a) == (1, 2, 0) else 0
    )
    broken_module = OmegaBimodule(
        parent=module.parent,
        dim=module.dim,
        left=module.left,
        right=((module.right[0][0].add(bump_right), module.right[0][1]), module.right[1]),
        q=module.q,
    )
    ok = ok and not check_omega_bimodule(broken_module).passed

    packed = ns_family_pack(family)
    bump4 = Tensor.from_function((4, 4, 4), lambda k, i, j: 1 if (k, i, j) == (2, 1, 1) else 0)
    broken_packed = HomNSAlgebra(
        dim=4, prec=packed.prec, succ=packed.succ, vee=packed.vee.add(bump4), p=packed.p
    )
    ok = ok and not check_hom_ns(broken_packed).passed

    _verdict(6, ok, "construction chains map passing inputs to passing outputs; perturbations are caught")


def test_criterion_7_packing_coherence(d1):
    operator = d1["operator"]
    family_route = ns_family_pack(ns_family_from_operator(operator))
    packed_route = as_ns_algebra(ns_family_from_operator(pack_operator(operator)))
    ok = (
        family_route.prec.entries == packed_route.prec.entries
        and family_route.succ.entries == packed_route.succ.entries
        and family_route.vee.entries == packed_route.vee.entries
        and family_route.p.entries == packed_route.p.entries
    )
    _verdict(7, ok, "packing the split family equals splitting the packed operator, entrywise")


def test_criterion_8_deformation_cocycle_link(instances, rbf_handles):
    rng = random.Random(848)
    grid = [Fraction(0), Fraction(1), Fraction(-1), Fraction(1, 2)]
    total = 0
    agreement = 0
    for name in ("D0", "D1"):
        operator = instances[name]["operator"]
        handle = rbf_handles[name]
        m1 = differential_matrix(handle, 1)
        n, d = operator.algebra.dim, operator.bimodule.dim
        for _ in range(60):
            direction = tuple(
                Matrix(n, d, tuple(rng.choice(grid) for _ in range(n * d)))
                for _ in range(operator.omega.size)
            )
            deformation = LinearDeformation(base=operator, direction=direction)
            verdict = check_infinitesimal(deformation).passed
            coeffs = []
            for mat in direction:
                coeffs.extend(mat.entries)
            in_kernel = not any(m1.apply(tuple(coeffs)))
            total += 1
            agreement += verdict == in_kernel
    ok = total >= 100 and agreement == total
    _verdict(8, ok, f"order-1 verdict matches degree-1 kernel membership on all {total} directions")


def test_criterion_9_equivalence_via_nijenhuis(d1, d1_handle):
    operator = d1["operator"]
    m1 = differential_matrix(d1_handle, 1)
    z_basis = kernel_basis(m1)
    produced = []
    # process every degree-1 cocycle basis vector, then the zero cocycle
    basis = d1_handle.basis(1)
    cocycles = []
    for coeffs in z_basis:
        cochain = None
        for c, b in zip(coeffs, basis):
            if c:
                piece = b.scale(c)
                cochain = piece if cochain is None else cochain.add(piece)
        cocycles.append(cochain)
    zero_maps = [Matrix.zero(4, 2), Matrix.zero(4, 2)]
    results = [trivialize_cocycle(operator, f) for f in cocycles]
    results.append(trivialize_cocycle(operator, zero_maps))
    for res in results:
        if not res.found:
            continue
        candidates = [res.solution]
        for v, (plus_ok, minus_ok) in zip(res.kernel, res.shift_nijenhuis):
            if plus_ok:
                candidates.append(tuple(a + b for a, b in zip(res.solution, v)))
            if minus_ok:
                candidates.append(tuple(a - b for a, b in zip(res.solution, v)))
        if res.solution_nijenhuis:
            produced.extend(candidates)
        else:
            produced.extend(candidates[1:])
    ok = len(produced) > 0
    trivial = LinearDeformation(base=operator, direction=(Matrix.zero(4, 2), Matrix.zero(4, 2)))
    for x in produced:
        delta = rbf_delta0_matrices(d1_handle, x)
        deformation = LinearDeformation(base=operator, direction=tuple(delta))
        report = check_equivalence(deformation, trivial, x)
        ok = ok and report.passes_mod_t2
        for alpha, mat in enumerate(delta):
            ok = ok and deformation.direction[alpha].sub(mat).is_zero()
    _verdict(
        9,
        ok,
        f"equivalence to the trivial deformation holds mod t^2 for all {len(produced)} produced Nijenhuis elements",
    )


def test_criterion_10_cohomology_sanity(instances, rbf_handles, omega_handles, ha_handles):
    ok = True
    for name in ("D0", "D1", "D2"):
        for handle in (rbf_handles[name], omega_handles[name], ha_handles[name]):
            for n in (0, 1, 2):
                dims = cohomology_dims(handle, n)
                if dims.dim_c != dims.dim_z + rank(differential_matrix(handle, n)):
                    ok = False
    # D0 family cohomology is one-dimensional in degrees 0..2
    for n in (0, 1, 2):
        if cohomology_dims(rbf_handles["D0"], n).dim_h != 1:
            ok = False
    # frozen golden values against both the package and the naive oracle
    for name in ("D0", "D1", "D2"):
        package_dims = [tuple(cohomology_dims(rbf_handles[name], n)) for n in (0, 1, 2)]
        if package_dims != GOLDEN_RBF_DIMS[name]:
            ok = False
    oracle = NaiveFamilyComplex(instances["D1"]["operator"])
    oracle_dims = [oracle.dims(n) for n in (0, 1, 2)]
    if oracle_dims != GOLDEN_RBF_DIMS["D1"]:
        ok = False
    # golden rigidity verdict, independently implied by dim Z^1 = 0 above
    if rigidity_probe(instances["D1"]["operator"]).verdict != GOLDEN_D1_RIGIDITY:
        ok = False
    _verdict(10, ok, "rank-nullity, D0 dims (1,1,1), and D1 goldens match the naive oracle bit-for-bit")
