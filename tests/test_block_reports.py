"""Failing reports of the laws that reach ``reports.run_law`` as residual
blocks, pinned per violation limit.

``FROZEN_BLOCK_REPORTS`` pins, per failing input and checker, the sha256 of
the ``to_dict()`` (or the exception type and message) at ``max_violations``
1, 3 and the default, as ``test_law_composition.FROZEN_FAILING_REPORTS``
pins the host checkers.  It covers the multiplicativity laws of the NS,
NS-family, tridendriform and NS-morphism checkers (the NS-family morphism
interleaves < and > per (alpha, x, y)), the p-commutation laws of the
Nijenhuis and weighted Rota-Baxter families, the map law of an operator
morphism, ``graph_check`` on every nudged input of
``test_law_composition.failing_operators``, ``check_nijenhuis_element``
with elements that are not Nijenhuis (its commutator law and its t^2
coefficients) and ``check_equivalence`` with a wrong element (its
coboundary law).  The digests fix the first violations' order, their
where-keys, the residual entries and the violation counts.

A guard runs every checker on D0-D2 and on those inputs with ``run_law``
wrapped in each package module, and requires every law to arrive as a
``reports.Cases``: no package law hands ``run_law`` (where, residual)
pairs.
"""
import hashlib
import importlib
import random
from pathlib import Path
from dataclasses import replace
from fractions import Fraction
from functools import lru_cache

from conftest import _matrix_units_algebra, _yau_twisted_triangular
import rbfam
from rbfam.deformations import (
    LinearDeformation,
    check_equivalence,
    check_infinitesimal,
    check_nijenhuis_element,
    deform_ns_family,
)
from rbfam.errors import WorkbenchError
from rbfam.family import (
    HomNSAlgebra,
    HomTridendFamily,
    check_hom_ns,
    check_hom_ns_family,
    check_ns_family_morphism,
    check_ns_morphism,
    check_omega_assoc,
    check_omega_bimodule,
    check_tridend_family,
    ns_family_from_operator,
    omega_assoc_from_ns_family,
    operator_bimodule,
    tridend_from_weighted_rbf,
)
from rbfam.homalg import (
    AlgebraMorphism,
    check_algebra_morphism,
    check_bimodule,
    check_hom_algebra,
    check_two_cocycle,
    regular_bimodule,
    tensor_semigroup_algebra,
    zero_cocycle,
)
from rbfam.linalg import Matrix, block_diag, unit_vector
from rbfam.operators import (
    NijenhuisFamily,
    OperatorMorphism,
    TwistedRBFamily,
    WeightedRBFamily,
    check_nijenhuis_family,
    check_operator_morphism,
    check_twisted_rbf,
    check_weighted_rbf,
    graph_check,
    identity_packing_family,
)
from rbfam.reports import DEFAULT_MAX_VIOLATIONS, run_law
from rbfam.semigroups import builtin
from rbfam.workspace import desk_instance
from test_law_composition import failing_operators

LIMITS = (1, 3, DEFAULT_MAX_VIOLATIONS)
GRID = (Fraction(0), Fraction(1), Fraction(-1), Fraction(1, 2), Fraction(2))

# A 3x3 map that neither commutes with p = diag(1, 2, 1) nor preserves the
# twisted triangular product, and a dense 3x3 map.
SHEAR = Matrix.from_rows([[1, 1, 0], [0, 2, 0], [0, 0, 1]])
DENSE = Matrix.from_rows([[1, 2, 0], [0, 1, Fraction(1, 2)], [1, 0, -1]])


def _packed(algebra, omega):
    _, _, cocycle = tensor_semigroup_algebra(algebra, omega)
    return identity_packing_family(algebra, omega, cocycle)


def _zero_operator(algebra):
    return TwistedRBFamily(
        cocycle=zero_cocycle(regular_bimodule(algebra)), omega=builtin("trivial"), maps=(Matrix.zero(4, 4),)
    )


def _nudged(t, flat):
    """``t`` with the row-major entry ``flat`` moved by 1/2."""
    entries = list(t.entries)
    entries[flat % len(entries)] += Fraction(1, 2)
    return replace(t, entries=tuple(entries))


def _seeded(rng, rows, cols):
    return Matrix(rows, cols, tuple(rng.choice(GRID) for _ in range(rows * cols)))


def _zero_deformation(op):
    n, d = op.algebra.dim, op.bimodule.dim
    return LinearDeformation(base=op, direction=(Matrix.zero(n, d),) * op.omega.size)


def operators():
    """The operators the element and family inputs are built on."""
    tri = _yau_twisted_triangular()
    units = _matrix_units_algebra()
    ops = {name: desk_instance(name)["operator"] for name in ("D1", "D2")}
    ops["tri-c2"] = _packed(tri, builtin("cyclic", 2))
    ops["units"] = _zero_operator(units)
    ops["units-c2"] = _packed(units, builtin("cyclic", 2))
    return ops


def split_inputs():
    """name -> run(limit) for the NS, NS-family, tridendriform and NS-morphism checkers."""
    tri = _yau_twisted_triangular()
    ops = operators()
    ns = HomNSAlgebra(dim=3, prec=tri.mu, succ=tri.mu.scale(2), vee=tri.mu.neg(), p=tri.p)
    fam = ns_family_from_operator(ops["tri-c2"])
    d1 = ns_family_from_operator(ops["D1"])
    d2 = ns_family_from_operator(ops["D2"])
    rng = random.Random(41)
    f2 = _seeded(rng, d1.dim, d1.dim)

    def tridend(source, dot=tri.mu, p=None):
        return HomTridendFamily(
            dim=3, omega=source.omega, prec=source.prec, succ=source.succ, dot=dot, p=p or source.p
        )

    return {
        "tri/check_hom_ns": lambda k: check_hom_ns(ns, k),
        "tri/shear/check_hom_ns": lambda k: check_hom_ns(replace(ns, p=SHEAR), k),
        "tri/vee/check_hom_ns": lambda k: check_hom_ns(replace(ns, vee=_nudged(ns.vee, 5)), k),
        "tri-c2/shear/check_hom_ns_family": lambda k: check_hom_ns_family(replace(fam, p=SHEAR), k),
        "D1/prec/check_hom_ns_family": lambda k: check_hom_ns_family(
            replace(d1, prec=(d1.prec[0], _nudged(d1.prec[1], 3))), k
        ),
        "D2/p/check_hom_ns_family": lambda k: check_hom_ns_family(replace(d2, p=_nudged(d2.p, 1)), k),
        "D2/vee/check_hom_ns_family": lambda k: check_hom_ns_family(
            replace(d2, vee=((d2.vee[0][0], _nudged(d2.vee[0][1], 2)), d2.vee[1])), k
        ),
        "tri-c2/shear/check_tridend_family": lambda k: check_tridend_family(tridend(fam, p=SHEAR), k),
        "tri-c2/dot/check_tridend_family": lambda k: check_tridend_family(tridend(fam, dot=_nudged(tri.mu, 4)), k),
        "tri/dense/check_ns_morphism": lambda k: check_ns_morphism(DENSE, ns, ns, k),
        "tri/shear/check_ns_morphism": lambda k: check_ns_morphism(SHEAR, ns, ns, k),
        "tri-c2/dense/check_ns_family_morphism": lambda k: check_ns_family_morphism(DENSE, fam, fam, k),
        "tri-c2/shear/check_ns_family_morphism": lambda k: check_ns_family_morphism(SHEAR, fam, fam, k),
        "D1/seeded/check_ns_family_morphism": lambda k: check_ns_family_morphism(f2, d1, d1, k),
        "D2/seeded/check_ns_family_morphism": lambda k: check_ns_family_morphism(f2, d2, d2, k),
    }


def operator_inputs():
    """name -> run(limit) for the Nijenhuis, weighted and morphism checkers."""
    tri = _yau_twisted_triangular()
    c2 = builtin("cyclic", 2)
    ops = operators()
    d1 = desk_instance("D1")
    base = d1["base_algebra"]
    rng = random.Random(7)
    pairs = [(_seeded(rng, 2, 2), _seeded(rng, 2, 2)) for _ in range(2)]
    d1_psi = Matrix.from_rows([[1, 1, 0, 0], [0, 1, 0, 0], [0, 0, 2, 0], [1, 0, 0, 1]])
    d1_phi = Matrix.from_rows([[0, 1], [1, 1]])
    twisted = ops["tri-c2"]
    return {
        "tri-c2/check_nijenhuis_family": lambda k: check_nijenhuis_family(NijenhuisFamily(tri, c2, (SHEAR, DENSE)), k),
        "tri-c2/dense/check_nijenhuis_family": lambda k: check_nijenhuis_family(
            NijenhuisFamily(tri, c2, (DENSE, DENSE)), k
        ),
        "D1/seeded/check_nijenhuis_family": lambda k: check_nijenhuis_family(NijenhuisFamily(base, c2, pairs[0]), k),
        "tri-c2/check_weighted_rbf": lambda k: check_weighted_rbf(
            WeightedRBFamily(tri, c2, Fraction(1, 2), (DENSE, SHEAR)), k
        ),
        "tri-c2/shear/check_weighted_rbf": lambda k: check_weighted_rbf(
            WeightedRBFamily(tri, c2, 1, (SHEAR, SHEAR)), k
        ),
        "D1/seeded/check_weighted_rbf": lambda k: check_weighted_rbf(WeightedRBFamily(base, c2, -1, pairs[1]), k),
        "D1/check_operator_morphism": lambda k: check_operator_morphism(
            OperatorMorphism(source=ops["D1"], target=ops["D1"], psi=d1_psi, phi=d1_phi), k
        ),
        "D1/maps/check_operator_morphism": lambda k: check_operator_morphism(
            OperatorMorphism(source=ops["D1"], target=ops["D1"], psi=Matrix.identity(4), phi=d1_phi), k
        ),
        "tri-c2/check_operator_morphism": lambda k: check_operator_morphism(
            OperatorMorphism(source=twisted, target=twisted, psi=block_diag([DENSE] * 2), phi=SHEAR), k
        ),
    }


def element_inputs():
    """name -> run(limit) for ``check_nijenhuis_element`` and
    ``check_equivalence`` with elements that are not Nijenhuis, fixed or of
    the right length."""
    ops = operators()
    rng = random.Random(11)
    runs = {}
    for name, op in ops.items():
        n = op.algebra.dim
        xs = [unit_vector(n, i) for i in range(n)] + [tuple(rng.choice(GRID) for _ in range(n)) for _ in range(2)]
        zero = _zero_deformation(op)
        for i, x in enumerate(xs):
            runs[f"{name}/x{i}/check_nijenhuis_element"] = lambda k, x=x, op=op: check_nijenhuis_element(x, op, k)
            runs[f"{name}/x{i}/check_equivalence"] = lambda k, x=x, zero=zero: check_equivalence(
                zero, zero, x, max_violations=k
            )
    units = ops["units"]
    direction = Matrix.from_rows([[0, 1, 0, 0], [0, 0, 0, 0], [0, 0, 0, 2], [1, 0, 0, 0]])
    other = LinearDeformation(base=units, direction=(direction,))
    for i in range(4):
        runs[f"units/directions/x{i}/check_equivalence"] = lambda k, i=i: check_equivalence(
            _zero_deformation(units), other, unit_vector(4, i), max_violations=k
        )
    runs["D1/short/check_equivalence"] = lambda k: check_equivalence(
        _zero_deformation(ops["D1"]), _zero_deformation(ops["D1"]), (Fraction(1),) * 3, max_violations=k
    )
    return runs


def graph_inputs():
    """name -> run(limit) for ``graph_check`` on the nudged operators."""
    return {f"{name}/graph_check": lambda k, op=op: graph_check(op, k) for name, op in failing_operators().items()}


@lru_cache(maxsize=None)
def failing_inputs():
    return {**split_inputs(), **operator_inputs(), **element_inputs(), **graph_inputs()}


def _outcome(run, limit):
    try:
        return run(limit).to_dict()
    except WorkbenchError as err:
        return {"raised": type(err).__name__, "message": str(err)}


def _digest(obj):
    return hashlib.sha256(repr(obj).encode()).hexdigest()


def block_report_listing():
    """sha256 of the outcomes at max_violations 1, 3 and the default, per
    input; an input whose checker passes it is left out."""
    listing = {}
    for name, run in failing_inputs().items():
        outcomes = [_outcome(run, limit) for limit in LIMITS]
        if outcomes[-1].get("passed") is not True:
            listing[name] = _digest(outcomes)
    return listing


FROZEN_BLOCK_REPORTS = {
    "tri/check_hom_ns": "74c821e0ded2465af4cdc7a3bca1b7295a8699634cb2add03880af1ba8e8eff9",
    "tri/shear/check_hom_ns": "ae3424b6a1319020e0cc3082afa4455b221097fb6862ba764015f2cf50a4f3d6",
    "tri/vee/check_hom_ns": "ff5525af79050dbb747f7ffa743b1245daa472b921e1caaed98eb98b60b12f67",
    "tri-c2/shear/check_hom_ns_family": "5fbd97b7981e5e442e9dfe4397dbd095dbed2a1652580c345c27ef411232fdae",
    "D1/prec/check_hom_ns_family": "b7778f415924508f7e46d5fb7e6b654d7914925bfda0384d26c37aba8ff80997",
    "D2/p/check_hom_ns_family": "546f1625bd44874b5cfdc9ebfe85792b1555c07d4cf19756b4e47bd7f52842e7",
    "D2/vee/check_hom_ns_family": "97d051076f1b717a010483c2ede0f26f495ac2e394784d47072a34fe3c14b5f7",
    "tri-c2/shear/check_tridend_family": "fbd6025af57e288e0de79177f7c91628b56d476beb9a0711d816ce72d7fbb883",
    "tri-c2/dot/check_tridend_family": "4121e1263f0b2fdc7325a3770f08f5b8e0c22bf9174c5427617c7201e3a3774b",
    "tri/dense/check_ns_morphism": "81ddea007ec77b95a9bc314300972baff658e86d3a3b65eec331cf161925d95c",
    "tri/shear/check_ns_morphism": "b07a58f8bce7e1e2bafbb7caad5e5d843016fe298d0df0243ce2a8082a962321",
    "tri-c2/dense/check_ns_family_morphism": "b4f961fb57c9d366edadebe9d47917ce471ad655f0468bdebb122865e73b8cbc",
    "tri-c2/shear/check_ns_family_morphism": "f48bac48ca08c8f3d058c519a4bb5cb2188f1f178e9d71f325dda4b62bbcb5af",
    "D1/seeded/check_ns_family_morphism": "926e881f3d97160838a640e55fa3c5fa36df9db4e5b6149b8f88960d5078aede",
    "D2/seeded/check_ns_family_morphism": "926e881f3d97160838a640e55fa3c5fa36df9db4e5b6149b8f88960d5078aede",
    "tri-c2/check_nijenhuis_family": "4b3fa190fe48518527f89cca2a2ca59e2e18a4c07fd9f8f696400e4535f1eb59",
    "tri-c2/dense/check_nijenhuis_family": "bbecd3e148a4f881c5770f849e16ccc0a1a5a1902a728c22094a6e231c5c122d",
    "D1/seeded/check_nijenhuis_family": "c9be1b8e6e0e3c0494cf50fbfc8c55bd4e93a2542447c4728cc0032aee91fc14",
    "tri-c2/check_weighted_rbf": "0fd805742050a0bfabdeb02f913444beb089d815d13ce748a15ec35073f8d54f",
    "tri-c2/shear/check_weighted_rbf": "494aad22de54bcd91121b3fbe30051936e718745bf4a9897f710e8b95c198f26",
    "D1/seeded/check_weighted_rbf": "ad206e2f1e80b7a2a5f05c444484158da4139f4963fae7366ddcd80fb41ea091",
    "D1/check_operator_morphism": "cbfb00d1f9fba9db622638e5acff3305917a542a5d27a64fc543b327bf2df3c3",
    "D1/maps/check_operator_morphism": "6c8d9fed90febb3512322667f3dae2f29a4bea0454eb12127b68df581ed5c668",
    "tri-c2/check_operator_morphism": "3609fbad5b0db006792e2f6016c28dede88053ceac1d6013d9538dc0a32681b3",
    "tri-c2/x0/check_nijenhuis_element": "76f890856bea90bfd815d3649cd9476321fab64fd49aaf25abec0745bad71e3e",
    "tri-c2/x0/check_equivalence": "c7edcc50d65c0334f4eff682ad4ae5a4f556356da167ba4c0c4e3f54226222bc",
    "tri-c2/x1/check_nijenhuis_element": "2c17feb2de873311282d7e3ab396201351cb6ce25dcd562ce7e4902a1a659952",
    "tri-c2/x1/check_equivalence": "323f65cafff853047109bd14a2ea9a881d534d371d720af929696c0e87a5919d",
    "tri-c2/x2/check_nijenhuis_element": "911e5123b0ce5931568c3d1f00a9d9b5d0590a8df283c50d6b0088650425ad42",
    "tri-c2/x2/check_equivalence": "d429c80a5c59a0fc363fc2b3b65ad9e0d617010a421b8709771c13994df0ded4",
    "tri-c2/x3/check_nijenhuis_element": "76f890856bea90bfd815d3649cd9476321fab64fd49aaf25abec0745bad71e3e",
    "tri-c2/x3/check_equivalence": "fec72f2861e7a74484e286c6bdb62cacb0842132d49aaed9fe4a82816e16e04a",
    "tri-c2/x4/check_nijenhuis_element": "2b01b5e8959817a0c8dbd39d390dff1abfd4580072ba2aa374052468e353760a",
    "tri-c2/x4/check_equivalence": "323f65cafff853047109bd14a2ea9a881d534d371d720af929696c0e87a5919d",
    "tri-c2/x5/check_nijenhuis_element": "911e5123b0ce5931568c3d1f00a9d9b5d0590a8df283c50d6b0088650425ad42",
    "tri-c2/x5/check_equivalence": "eef537bca82eda869849d7e678b45967f8dc48f40a7184fd80c0cf2975c4bf96",
    "tri-c2/x6/check_nijenhuis_element": "bd4e0d29ee4a5cb6bfa824c469e6538731d9f0cd566d7651c94ef32230c7dc59",
    "tri-c2/x6/check_equivalence": "323f65cafff853047109bd14a2ea9a881d534d371d720af929696c0e87a5919d",
    "tri-c2/x7/check_nijenhuis_element": "088e6c77e97b12f1f8c73a3142a68ce2a735108f02f81f997e72a0a0f631f4b1",
    "tri-c2/x7/check_equivalence": "323f65cafff853047109bd14a2ea9a881d534d371d720af929696c0e87a5919d",
    "units/x0/check_nijenhuis_element": "b13ebe8b0e3842959a23e1b741904460c9e442f24152bc377135790538e17fb8",
    "units/x1/check_nijenhuis_element": "d32252ecd189949116c7230eb095e5e9aba07d38ed206bee38735bb88a8b7b23",
    "units/x2/check_nijenhuis_element": "abef7fb91aaf624106db74678d76e5cf15cca42ca189e1223589a31d6f2c0269",
    "units/x3/check_nijenhuis_element": "b13ebe8b0e3842959a23e1b741904460c9e442f24152bc377135790538e17fb8",
    "units/x4/check_nijenhuis_element": "67c831263c4906cc9355050e708a8e1fdd85f0dfae00a24baedeb07914a55d1a",
    "units/x5/check_nijenhuis_element": "7be154194059b7e20d15a53ed988125ed93a8c38c8611809ddc333b22f96a5b8",
    "units-c2/x0/check_nijenhuis_element": "a10cf939d89fa7e6e6378a8a161643ea23986761e53eb5faecde591afe78c289",
    "units-c2/x0/check_equivalence": "fca32cde2010ff1d37f422080c61492c835c388b397a14bd132437252d61933e",
    "units-c2/x1/check_nijenhuis_element": "aa64820a90b9746dd46760f63de778bef405bae13085302e8dbeb93c49efbad9",
    "units-c2/x1/check_equivalence": "afbcdf1af57e2accda98dea09d9006f0315cc5b99cc357f309c78e360b0785a5",
    "units-c2/x2/check_nijenhuis_element": "e436770524c9f4b311d327b2b997687c9db39ab93ca7ddf60c6ac2780af79260",
    "units-c2/x2/check_equivalence": "9669edf434e5d3ae9eef93e634cbc368d370fcaae5c83e19d95e21a7c47c89f6",
    "units-c2/x3/check_nijenhuis_element": "3a402ea3567a8a590cf1768d7d413491face2031d07a91ce086d1264dbdf36f4",
    "units-c2/x3/check_equivalence": "5b92d4c26ae2b99a1b509f35401c124c8db953b88284fd17a021932ba2460965",
    "units-c2/x4/check_nijenhuis_element": "a10cf939d89fa7e6e6378a8a161643ea23986761e53eb5faecde591afe78c289",
    "units-c2/x4/check_equivalence": "8a0bb346dabd1dd794ec980e2e3fa1a9120d2c9a74d1c5aefedfacd6111c964c",
    "units-c2/x5/check_nijenhuis_element": "aa64820a90b9746dd46760f63de778bef405bae13085302e8dbeb93c49efbad9",
    "units-c2/x5/check_equivalence": "a50b79e35a5b4a1320ede50f818761f2a873f4da5a01953ac6ea52ace25c517c",
    "units-c2/x6/check_nijenhuis_element": "e436770524c9f4b311d327b2b997687c9db39ab93ca7ddf60c6ac2780af79260",
    "units-c2/x6/check_equivalence": "844b8696d9afdd6057781e7e35fed56d24e6170d59e42aa0376c4c739289fb62",
    "units-c2/x7/check_nijenhuis_element": "3a402ea3567a8a590cf1768d7d413491face2031d07a91ce086d1264dbdf36f4",
    "units-c2/x7/check_equivalence": "26ec7d793ab17b6c60a42747d7f7f4abf47a2e2324674008cb984243ff9e63ff",
    "units-c2/x8/check_nijenhuis_element": "d9f2d53aebcffaced7981e4c5f67c0302a1df2ef739550d62baf16ba974042b2",
    "units-c2/x8/check_equivalence": "57cd77dce949652ab09fa7a66ef982dd49d7a98b32d3d00156fdf09eafc02c13",
    "units-c2/x9/check_nijenhuis_element": "0969aa91e0c397686171d3b377621ba06194435984757d4f8eeea8e508c19357",
    "units-c2/x9/check_equivalence": "f4b520abc79915d9d9e40cdab1c40bc3e3c43bd577a96c4109ed87b52bd799fb",
    "units/directions/x0/check_equivalence": "a7ed971703b1e791b6526b0b89edaba55b3fec5318edeabaed1b410e912038ec",
    "units/directions/x1/check_equivalence": "256429ded253acee29d522f22069f3587aa9e6eee88f9ca657a76a96b48618e6",
    "units/directions/x2/check_equivalence": "d719b445a10fea292a57f0235c38d05cedbd5886d02acdfd91325e973d3e597a",
    "units/directions/x3/check_equivalence": "6448d285724a16dead976013f425a8cf6d6909c0c9395a5c8809d9d35beb76e1",
    "D1/short/check_equivalence": "c5ef3b3fd5f93889a44bf0eb14f3570257b078d51a1ece4676e3f82196f1dc64",
    "D0/mu/graph_check": "01bc3003a5200988af0e41868823184762df5f3dcad3d4ad9f5ab116c7b10336",
    "D0/p/graph_check": "e98c4e7a777b2293cc277b9a5752a510d6576793b6f027b4d3dfac6c38e0e4bc",
    "D0/left/graph_check": "01bc3003a5200988af0e41868823184762df5f3dcad3d4ad9f5ab116c7b10336",
    "D0/map/graph_check": "d692aabadae6ab309c8a378bb80952ff8f52b2da0a2fd6aa496a8f733fcab382",
    "D1/mu/graph_check": "e98c4e7a777b2293cc277b9a5752a510d6576793b6f027b4d3dfac6c38e0e4bc",
    "D1/p/graph_check": "e98c4e7a777b2293cc277b9a5752a510d6576793b6f027b4d3dfac6c38e0e4bc",
    "D1/left/graph_check": "01bc3003a5200988af0e41868823184762df5f3dcad3d4ad9f5ab116c7b10336",
    "D1/phi/graph_check": "af21e5f399795aff1d78198123e3a863ab68d837f96bc4e957b3c949a30c3b2a",
    "D1/map/graph_check": "a4f890d149d105c1a4dd7b31f9d4259995118ca69a1167f479eb02d3fb1c9c4e",
    "D1/cochain/graph_check": "af21e5f399795aff1d78198123e3a863ab68d837f96bc4e957b3c949a30c3b2a",
    "D2/mu/graph_check": "e98c4e7a777b2293cc277b9a5752a510d6576793b6f027b4d3dfac6c38e0e4bc",
    "D2/p/graph_check": "e98c4e7a777b2293cc277b9a5752a510d6576793b6f027b4d3dfac6c38e0e4bc",
    "D2/left/graph_check": "01bc3003a5200988af0e41868823184762df5f3dcad3d4ad9f5ab116c7b10336",
    "D2/phi/graph_check": "af21e5f399795aff1d78198123e3a863ab68d837f96bc4e957b3c949a30c3b2a",
    "D2/map/graph_check": "db330254b455f11024cedf3f22d61c55a86c0c3a810960f13f41316d5097a153",
    "D2/cochain/graph_check": "af21e5f399795aff1d78198123e3a863ab68d837f96bc4e957b3c949a30c3b2a",
    "cyclic/transport/mu/graph_check": "e98c4e7a777b2293cc277b9a5752a510d6576793b6f027b4d3dfac6c38e0e4bc",
    "cyclic/transport/p/graph_check": "e98c4e7a777b2293cc277b9a5752a510d6576793b6f027b4d3dfac6c38e0e4bc",
    "cyclic/transport/left/graph_check": "01bc3003a5200988af0e41868823184762df5f3dcad3d4ad9f5ab116c7b10336",
    "cyclic/transport/phi/graph_check": "af21e5f399795aff1d78198123e3a863ab68d837f96bc4e957b3c949a30c3b2a",
    "cyclic/transport/map/graph_check": "d4d6412caacb4a49adeb316df970b8c953d6e796a5a8ad5bf080912c6dc7176b",
    "cyclic/transport/cochain/graph_check": "af21e5f399795aff1d78198123e3a863ab68d837f96bc4e957b3c949a30c3b2a",
    "boolean_monoid/transport/mu/graph_check": "e98c4e7a777b2293cc277b9a5752a510d6576793b6f027b4d3dfac6c38e0e4bc",
    "boolean_monoid/transport/p/graph_check": "e98c4e7a777b2293cc277b9a5752a510d6576793b6f027b4d3dfac6c38e0e4bc",
    "boolean_monoid/transport/left/graph_check": "01bc3003a5200988af0e41868823184762df5f3dcad3d4ad9f5ab116c7b10336",
    "boolean_monoid/transport/phi/graph_check": "af21e5f399795aff1d78198123e3a863ab68d837f96bc4e957b3c949a30c3b2a",
    "boolean_monoid/transport/map/graph_check": "1c2f80ea4a2694e0b777369525fb3eb701e1730a7fd17238b9713b184607aaca",
    "boolean_monoid/transport/cochain/graph_check": "af21e5f399795aff1d78198123e3a863ab68d837f96bc4e957b3c949a30c3b2a",
}


def test_block_reports_match_frozen_digests():
    assert block_report_listing() == FROZEN_BLOCK_REPORTS


# ---------------------------------------------------------------------------
# every law reaches run_law as residual blocks

PACKAGE = [
    importlib.import_module(f"rbfam.{path.stem}")
    for path in sorted(Path(rbfam.__file__).parent.glob("*.py"))
    if path.stem != "__init__"
]

# The laws that reached run_law as (where, residual) pairs before they
# moved onto residual blocks; the guard must see each of them.
MOVED_LAWS = {
    "p(x ? y) = p(x) ? p(y) for ? in {<, >, v}",
    "p(x ?_idx y) = p(x) ?_idx p(y)",
    "p(x ? y) = p(x) ? p(y) for every product",
    "f(x ? y) = f(x) ? f(y) for every product",
    "p o N_a = N_a o p",
    "p(T_a x) = T_a p(x)",
    "psi o R_a = R'_a o phi",
    "(p+q) Gr(R_a) inside Gr(R_a)",
    "Gr(R_a) . Gr(R_b) inside Gr(R_ab)",
    "x.(u |>- x - x -<| u) - (u |>- x - x -<| u).x = 0",
    "(x.a).(x.b) - (x.a).(b.x) - (a.x).(x.b) + (a.x).(b.x) = 0",
    "cocycle compatibility @ t^2",
    "left-action compatibility @ t^2",
    "right-action compatibility @ t^2",
    "R1 - R1bar = delta0(x) entrywise",
    "membership + vanishing hochschild differential (independent route)",
}


def desk_checks(name):
    """Every checker on desk instance ``name``, as thunks."""
    op = desk_instance(name)["operator"]
    A, module, omega = op.algebra, op.bimodule, op.omega
    n, d = A.dim, module.dim
    fam = ns_family_from_operator(op)
    ns = HomNSAlgebra(dim=d, prec=fam.prec[0], succ=fam.succ[0], vee=fam.vee[0][0], p=fam.p)
    zero_maps = (Matrix.zero(n, n),) * omega.size
    weighted = WeightedRBFamily(A, omega, 1, zero_maps)
    zero, x = _zero_deformation(op), unit_vector(n, 0)
    eye_n, eye_d = Matrix.identity(n), Matrix.identity(d)
    return [
        lambda: check_hom_algebra(A),
        lambda: check_bimodule(module),
        lambda: check_two_cocycle(op.cocycle),
        lambda: check_algebra_morphism(AlgebraMorphism(source=A, target=A, psi=eye_n)),
        lambda: check_twisted_rbf(op),
        lambda: graph_check(op),
        lambda: check_operator_morphism(OperatorMorphism(source=op, target=op, psi=eye_n, phi=eye_d)),
        lambda: check_nijenhuis_family(NijenhuisFamily(A, omega, zero_maps)),
        lambda: check_weighted_rbf(weighted),
        lambda: check_hom_ns(ns),
        lambda: check_ns_morphism(eye_d, ns, ns),
        lambda: check_hom_ns_family(fam),
        lambda: check_ns_family_morphism(eye_d, fam, fam),
        lambda: check_tridend_family(tridend_from_weighted_rbf(weighted)),
        lambda: check_omega_assoc(omega_assoc_from_ns_family(fam)),
        lambda: check_omega_bimodule(operator_bimodule(op)),
        lambda: check_nijenhuis_element(x, op),
        lambda: check_equivalence(zero, zero, x),
        lambda: check_infinitesimal(zero),
        lambda: deform_ns_family(zero),
    ]


def test_every_law_reaches_run_law_as_blocks(monkeypatch):
    seen = []

    def recording(report, name, cases, *args):
        seen.append((name, type(cases).__name__))
        return run_law(report, name, cases, *args)

    for module in PACKAGE:
        if hasattr(module, "run_law"):
            monkeypatch.setattr(module, "run_law", recording)
    runs = [check for name in ("D0", "D1", "D2") for check in desk_checks(name)]
    runs += [lambda run=run, limit=limit: run(limit) for run in failing_inputs().values() for limit in LIMITS]
    for run in runs:
        try:
            run()
        except WorkbenchError:
            pass
    assert MOVED_LAWS <= {name for name, _ in seen}
    assert sorted({(name, form) for name, form in seen if form != "Cases"}) == []
