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
    compatibility_graph,
    hom_matrix,
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
    WrongQuiverError,
)
from .quiver import (
    Arrow,
    Quiver,
    Representation,
    dim_ext1,
    dual,
    euler_form,
    hom_dim,
    identity_rep,
    opposite,
    random_acyclic_quiver,
    random_representation,
    simple,
    tensor_vertexwise,
    zero_rep,
)
from .spectral import (
    gamma_matrix,
    gamma_radius_closed,
    integer_radius,
    spectral_radius,
)
from .typea import (
    IntervalKind,
    OrientationWord,
    all_indecomposables,
    all_intervals,
    all_orientations,
    classify,
    closed_form_fpd,
    interval_rep,
    orientation_of,
)

# The weak-bialgebra names resolve on first use (PEP 562), so importing fpq
# or fpq.cli does not load fpq.wba; only the commands that use it do.
_WBA_NAMES = (
    "AxiomReport",
    "CoproductSpec",
    "PathAlgebra",
    "canonical_wba",
    "catalog_k2",
    "catalog_kronecker",
    "check_axioms",
    "is_discrete",
    "kronecker_quiver",
    "perturb_spec",
    "tensor_wba",
)


def __getattr__(name):
    if name == "wba" or name in _WBA_NAMES:
        from importlib import import_module

        wba = import_module(".wba", __name__)
        return wba if name == "wba" else getattr(wba, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = sorted(
    {name for name in dir() if not name.startswith("_")}.union(["wba"], _WBA_NAMES)
)

__version__ = "0.1.0"
