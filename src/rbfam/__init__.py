"""Exact-arithmetic workbench for Hom-associative algebras, semigroup-indexed
twisted Rota-Baxter operator families, their splitting structures,
cohomology and deformations."""

from .cohomology import (
    Cochain,
    CohomologyDims,
    cochain_basis,
    cohomology_dims,
    differential_matrix,
    ha_complex,
    omega_complex,
    rbf_complex,
    transport_cochain,
)
from .deformations import (
    LinearDeformation,
    check_equivalence,
    check_infinitesimal,
    check_nijenhuis_element,
    deform_ns_family,
    rigidity_probe,
    trivialize_cocycle,
)
from .errors import (
    DegreeCapError,
    InputError,
    MissingUnitError,
    PreconditionError,
    RouteMismatchError,
    WorkbenchError,
)
from .family import (
    HomNSAlgebra,
    HomNSFamilyAlgebra,
    HomTridendFamily,
    OmegaAssocAlgebra,
    OmegaBimodule,
    as_ns_algebra,
    check_hom_ns,
    check_hom_ns_family,
    check_ns_family_morphism,
    check_ns_morphism,
    check_omega_assoc,
    check_omega_bimodule,
    check_tridend_family,
    constant_ns_family,
    ns_family_from_operator,
    ns_family_from_tridend,
    ns_family_pack,
    omega_assoc_from_ns_family,
    operator_bimodule,
    total_product_algebra,
    tridend_from_weighted_rbf,
    yau_twist_ns_family,
)
from .homalg import (
    AlgebraMorphism,
    HomAlgebra,
    HomBimodule,
    TwoCocycle,
    check_algebra_morphism,
    check_bimodule,
    check_hom_algebra,
    check_two_cocycle,
    hochschild_differential,
    regular_bimodule,
    semidirect_product,
    tensor_bimodule,
    tensor_semigroup_algebra,
    zero_cocycle,
)
from .linalg import (
    Matrix,
    Tensor,
    kernel_basis,
    multilinear_apply,
    rank,
    solve,
)
from .operators import (
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
    nijenhuis_induced_data,
    pack_operator,
    search_nijenhuis_families,
)
from .scalars import TruncatedPoly, format_rational, parse_rational
from .semigroups import FiniteSemigroup, builtin, validate_semigroup
from .workspace import desk_instance, dump_workspace, load_workspace

__version__ = "0.1.0"
