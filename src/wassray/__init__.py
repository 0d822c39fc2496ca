"""Geometry of the order-p Wasserstein space over finitely supported measures on R^d.

Exact discrete optimal transport, displacement geodesics carried by
segment families, ray measures and their validation, exact Busemann
functions and co-rays from their limiting transport problem, the
truncation and limit constructions kept as their oracles, plus a seeded
verification harness and a CLI.
"""

from .busemann import (
    BusemannEstimate,
    BusemannPlan,
    LipschitzReport,
    busemann_exact,
    busemann_value,
    lipschitz_check,
)
from .coray import (
    CorayResult,
    GradientReport,
    SubadditivityReport,
    SubrayReport,
    ViscosityReport,
    busemann_subadditivity_check,
    construct_coray,
    coray_exact,
    coray_gradient_check,
    subray_uniqueness_check,
    viscosity_check,
)
from .errors import (
    CostOverflowError,
    DimensionMismatchError,
    EmptyMeasureError,
    InvalidExponentError,
    MarginalMismatchError,
    MeasureFileError,
    MonotonicityError,
    NonOptimalCouplingError,
    NotARayError,
    TransportSolveError,
    UnitSpeedError,
)
from .io import read_measure, read_ray, write_measure, write_ray
from .measures import DiscreteMeasure, dirac, merge_atoms, same_measure, uniform_measure
from .ot import (
    Coupling,
    TailBoundReport,
    brute_force_ot,
    solve_ot,
    tail_mass_bound_check,
    wasserstein_distance,
)
from .paths import (
    GeodesicLift,
    RayMeasure,
    RayValidationReport,
    glue,
    lift_geodesic,
    make_dirac_ray,
    make_translation_ray,
    ray_section,
    restrict_to_geodesic,
    section,
    validate_ray,
)

__version__ = "0.1.0"

__all__ = [
    "BusemannEstimate",
    "BusemannPlan",
    "CorayResult",
    "Coupling",
    "CostOverflowError",
    "DimensionMismatchError",
    "DiscreteMeasure",
    "EmptyMeasureError",
    "GeodesicLift",
    "GradientReport",
    "InvalidExponentError",
    "LipschitzReport",
    "MarginalMismatchError",
    "MeasureFileError",
    "MonotonicityError",
    "NonOptimalCouplingError",
    "NotARayError",
    "RayMeasure",
    "RayValidationReport",
    "SubadditivityReport",
    "SubrayReport",
    "TailBoundReport",
    "TransportSolveError",
    "UnitSpeedError",
    "ViscosityReport",
    "brute_force_ot",
    "busemann_exact",
    "busemann_subadditivity_check",
    "busemann_value",
    "construct_coray",
    "coray_exact",
    "coray_gradient_check",
    "dirac",
    "glue",
    "lift_geodesic",
    "lipschitz_check",
    "make_dirac_ray",
    "make_translation_ray",
    "merge_atoms",
    "ray_section",
    "read_measure",
    "read_ray",
    "restrict_to_geodesic",
    "same_measure",
    "section",
    "solve_ot",
    "subray_uniqueness_check",
    "tail_mass_bound_check",
    "uniform_measure",
    "validate_ray",
    "viscosity_check",
    "wasserstein_distance",
    "write_measure",
    "write_ray",
]
