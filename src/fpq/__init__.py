"""Frobenius-Perron dimensions of quiver representations.

Exact hom/ext computations over the rationals, brick-set enumeration,
spectral certification, closed forms for linear-chain quivers, and tensor
structures induced by weak-bialgebra coproducts on path algebras.
"""

from .bricks import (
    BrickSet,
    DerivedObject,
    band_family,
    band_kronecker,
    band_two_paths,
    brick_set,
    certify_brick_set,
    compatibility_graph,
    derived_hom_dim,
    is_brick,
    is_brick_set,
    maximal_brick_sets,
)
from .engine import (
    FpdReport,
    TensorStructure,
    adjacency,
    fpd_exact,
    fpd_lower_bound,
    fpv_closed_form,
    fpv_empirical,
    from_weak_bialgebra,
    vertexwise,
)
from .errors import (
    BadArrowError,
    BadPathsError,
    CapExceededError,
    CyclicQuiverError,
    DimensionGuardError,
    DuplicateLabelError,
    FpqError,
    IncompleteListError,
    InputError,
    NoConvergenceError,
    NotAQuiverActionError,
    NotTypeAError,
    ShapeError,
    StructureMismatchError,
    UnitNotFoundError,
    WrongQuiverError,
)
from .quiver import (
    Arrow,
    Quiver,
    Representation,
    dim_ext1,
    direct_sum,
    dual,
    euler_form,
    hom_dim,
    hom_space,
    identity_rep,
    is_isomorphic,
    opposite,
    random_acyclic_quiver,
    random_representation,
    simple,
    tensor_vertexwise,
    zero_rep,
)
from .spectral import (
    as_integer,
    gamma_matrix,
    gamma_radius_closed,
    gershgorin_bound,
    spectral_radius,
)
from .typea import (
    IntervalKind,
    OrientationWord,
    SuccOrder,
    all_indecomposables,
    all_intervals,
    all_orientations,
    classify,
    closed_form_fpd,
    interval_rep,
    orientation_of,
    succ_order,
)
from .wba import (
    AxiomReport,
    CoproductSpec,
    PathAlgebra,
    canonical_wba,
    catalog_k2,
    catalog_kronecker,
    check_axioms,
    check_unit,
    equivalent_structures,
    find_unit,
    is_discrete,
    kronecker_quiver,
    perturb_spec,
    tensor_wba,
)

__all__ = [name for name in dir() if not name.startswith("_")]

__version__ = "0.1.0"
