"""Frozen differential matrices and raw degree-0 images of the complexes.

Each case pins the sha256 of the ``repr`` of one ``differential_matrix``
(rows, columns and every exact entry), and the listing pins the number of
cases.  The digests were frozen while ``differential_matrix`` still
densified every stencil image and built its matrix through
``Matrix.from_columns``; a failure here means a matrix changed, and the fix
belongs in the code, not in this file.
"""
import hashlib

import pytest

from rbfam.cohomology import differential_matrix, ha_complex, omega_complex, rbf_complex
from rbfam.homalg import regular_bimodule, tensor_semigroup_algebra
from rbfam.linalg import unit_vector
from rbfam.operators import identity_packing_family
from rbfam.semigroups import builtin

FROZEN_MATRICES = {
    "D0/rbf/0": "1a3f89a0868ac0517556a0e995582f1b9cfd12348b7711bc0d1252f99fb70b91",
    "D0/rbf/1": "1a3f89a0868ac0517556a0e995582f1b9cfd12348b7711bc0d1252f99fb70b91",
    "D0/rbf/2": "1a3f89a0868ac0517556a0e995582f1b9cfd12348b7711bc0d1252f99fb70b91",
    "D0/omega/0": "1a3f89a0868ac0517556a0e995582f1b9cfd12348b7711bc0d1252f99fb70b91",
    "D0/omega/1": "1a3f89a0868ac0517556a0e995582f1b9cfd12348b7711bc0d1252f99fb70b91",
    "D0/omega/2": "1a3f89a0868ac0517556a0e995582f1b9cfd12348b7711bc0d1252f99fb70b91",
    "D0/ha/0": "1a3f89a0868ac0517556a0e995582f1b9cfd12348b7711bc0d1252f99fb70b91",
    "D0/ha/1": "be93aae81d37a697d589dabd7ab6e742982aaa446e9298ce18a3fd9ffcd9c255",
    "D0/ha/2": "1a3f89a0868ac0517556a0e995582f1b9cfd12348b7711bc0d1252f99fb70b91",
    "D1/rbf/0": "aa08f00cd291356b740360fb3f13c0613ad4f25f8ca4e6d9c4ae0158cfdfdbcd",
    "D1/rbf/1": "c3cd5bc22dc99c887f80a6a6bb824d32cae497eee324397fe39b6523e82a0060",
    "D1/rbf/2": "855b1928305c0c34a33e505dd5cf9fa6ee8f853a6d99837081c5f2a3d9aac2cd",
    "D1/omega/0": "aa08f00cd291356b740360fb3f13c0613ad4f25f8ca4e6d9c4ae0158cfdfdbcd",
    "D1/omega/1": "c3cd5bc22dc99c887f80a6a6bb824d32cae497eee324397fe39b6523e82a0060",
    "D1/omega/2": "855b1928305c0c34a33e505dd5cf9fa6ee8f853a6d99837081c5f2a3d9aac2cd",
    "D1/ha/0": "a5dadc1886ae6ee1802b755ebe45213a98465eec07e58235f73ef7e311d0bc91",
    "D1/ha/1": "c48fd8feb01593e2884b535820f2b6f83b1d768d222f8e50bc5841bbb1771379",
    "D1/ha/2": "1199ee73fa3167a520b62cb57a461ea6b589ac02d84e940e1f53472ef1a488b3",
    "D2/rbf/0": "aa08f00cd291356b740360fb3f13c0613ad4f25f8ca4e6d9c4ae0158cfdfdbcd",
    "D2/rbf/1": "ebc9a8a75bcc9c82563f316646117da1f96bd1a28134df6e1cc15cb3c0927ad4",
    "D2/rbf/2": "b3626ac6567c28929e472be1f82ad95e6c51869b656e6e21fe1a6bc4f6b7ad26",
    "D2/omega/0": "aa08f00cd291356b740360fb3f13c0613ad4f25f8ca4e6d9c4ae0158cfdfdbcd",
    "D2/omega/1": "ebc9a8a75bcc9c82563f316646117da1f96bd1a28134df6e1cc15cb3c0927ad4",
    "D2/omega/2": "b3626ac6567c28929e472be1f82ad95e6c51869b656e6e21fe1a6bc4f6b7ad26",
    "D2/ha/0": "a5dadc1886ae6ee1802b755ebe45213a98465eec07e58235f73ef7e311d0bc91",
    "D2/ha/1": "1215868a27b7030091b0983ffb4c1a19fc8dc25cf682e380b7c4553f433a6f8f",
    "D2/ha/2": "59dc2e1bcc44222de9c87bc64f21b4c00740e668cf164627dbddc349ed077817",
    "twisted-family/rbf/0": "1fce62ccc9e3a6b9af88e551d5150bc1ccf334cc2ff83a6b5fec0a97ccf683b1",
    "twisted-family/rbf/1": "2d14b706bbfed1698ee4e892fa0bc3fd93e1265b025861579d26d608942971f8",
    "twisted-triangular/ha/0": "3b5830429233f707760e3427329a39c84baea48e5b579f12786b01ccfecc11f1",
    "twisted-triangular/ha/1": "55ee5fc72af54a2f656aa0f373e7c6fa0ce4520350050da44dbcf55c8a5ed641",
    "twisted-triangular/ha/2": "fe71c11e39de0894ae2b0bc480d052293b75b1857ea3c8175e6b2ad282e8eee1",
    "twisted-triangular/ha/3": "92b499d98ffd5953fe2ff34909d7fe9d211d23beee1e0216c2c793e24b07042f",
    "D1/rbf/3": "36ab351eb772dc30ae727c001d68c9fdfd9cf6f09813c51051cde416ec683575",
}

# The list [raw_differential(0, e_i) for each unit vector e_i].
FROZEN_DEGREE_ZERO_IMAGES = {
    "D1": "3ba7bccc520d5c411e5ee80154f1e064491aa7284368f0a5d95070a4232a7906",
    "twisted-family": "549cf8a67b41920c869eee532d194a54e4f9fdbb57aced5582e992ad812a7e66",
}


def _digest(obj):
    return hashlib.sha256(repr(obj).encode()).hexdigest()


@pytest.fixture(scope="module")
def twisted_family(twisted_triangular_algebra):
    """RBF handle of the identity packing family of the Yau-twisted
    triangular algebra over C2."""
    omega = builtin("cyclic", 2)
    _, _, cocycle = tensor_semigroup_algebra(twisted_triangular_algebra, omega)
    operator = identity_packing_family(twisted_triangular_algebra, omega, cocycle)
    return rbf_complex(operator, degree_cap=1)


@pytest.fixture(scope="module")
def d1_degree_three(d1):
    return rbf_complex(d1["operator"], degree_cap=3)


def test_differential_matrices_match_frozen_digests(
    d0, d1, d2, twisted_family, twisted_triangular_algebra, d1_degree_three
):
    listing = {}
    for name, inst in (("D0", d0), ("D1", d1), ("D2", d2)):
        rbf = rbf_complex(inst["operator"])
        handles = {
            "rbf": rbf,
            "omega": omega_complex(rbf.omega_algebra, rbf.omega_module),
            "ha": ha_complex(inst["algebra"], inst["bimodule"]),
        }
        for tag, handle in handles.items():
            for n in (0, 1, 2):
                listing[f"{name}/{tag}/{n}"] = _digest(differential_matrix(handle, n))
    for n in (0, 1):
        listing[f"twisted-family/rbf/{n}"] = _digest(differential_matrix(twisted_family, n))
    algebra = twisted_triangular_algebra
    triangular = ha_complex(algebra, regular_bimodule(algebra), degree_cap=3)
    for n in (0, 1, 2, 3):
        listing[f"twisted-triangular/ha/{n}"] = _digest(differential_matrix(triangular, n))
    listing["D1/rbf/3"] = _digest(differential_matrix(d1_degree_three, 3))
    assert len(listing) == 34
    assert listing == FROZEN_MATRICES


def test_raw_degree_zero_images_match_frozen_digests(d1_degree_three, twisted_family):
    listing = {}
    for name, handle in (("D1", d1_degree_three), ("twisted-family", twisted_family)):
        n = handle.raw_dim(0)
        listing[name] = _digest([handle.raw_differential(0, unit_vector(n, i)) for i in range(n)])
    assert listing == FROZEN_DEGREE_ZERO_IMAGES
