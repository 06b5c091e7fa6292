"""Periodic sphere packings over exact rationals.

Parameter space of m-translate periodic point sets, packing invariants
(generalized arithmetical minimum, density), and local-optimality
certificates (perfection, eutaxy, strong eutaxy, improving directions,
floating detection), all carried by exact rational arithmetic.

``periform.certify`` is the function ``certify``, not the module of that
name; import the certificate stages with ``from periform.certify import ...``.
"""

from .catalog import (
    CATALOG_NAMES,
    CatalogEntry,
    fluid_diamond,
    get,
    sublattice_representation,
)
from .certify import (
    BOUNDARY,
    Certificate,
    EXTREME_TRANSLATIONAL,
    EutaxyStatus,
    INCONCLUSIVE,
    INTERIOR,
    ISOLATED_EXTREME,
    NOT_EXTREME,
    OUTSIDE,
    VoronoiDomain,
    certify,
    eutaxy_status,
    floating_components,
    improving_direction,
    periodic_extreme_by_theorem,
    strong_eutaxy,
    translational_criterion,
    uncertainty_space,
    voronoi_domain,
)
from .formats import PFormError, dumps, from_document, loads, to_document
from .improve import ImproveResult, ImproveStep, improve
from .lattices import VecResult, closest_vectors, lll_reduce, shortest_vectors
from .linalg import (
    LDLResult,
    PQF,
    SymForm,
    TangentVector,
    ambient_dim,
    inner,
    ldl,
    rank_span,
)
from .periodic import (
    DensityReport,
    GenMinResult,
    MinRep,
    OverlapError,
    PeriodicForm,
    density,
    generalized_min,
    gradient_p,
    hessian_quadratic,
    rescale_to_min_one,
    unit_ball_volume,
)

__version__ = "0.1.0"

__all__ = [
    "CATALOG_NAMES",
    "BOUNDARY",
    "Certificate",
    "CatalogEntry",
    "DensityReport",
    "EXTREME_TRANSLATIONAL",
    "EutaxyStatus",
    "GenMinResult",
    "INCONCLUSIVE",
    "INTERIOR",
    "ISOLATED_EXTREME",
    "ImproveResult",
    "ImproveStep",
    "LDLResult",
    "MinRep",
    "NOT_EXTREME",
    "OUTSIDE",
    "OverlapError",
    "PFormError",
    "PQF",
    "PeriodicForm",
    "SymForm",
    "TangentVector",
    "VecResult",
    "VoronoiDomain",
    "ambient_dim",
    "certify",
    "closest_vectors",
    "density",
    "dumps",
    "eutaxy_status",
    "floating_components",
    "fluid_diamond",
    "from_document",
    "generalized_min",
    "get",
    "gradient_p",
    "hessian_quadratic",
    "improve",
    "improving_direction",
    "inner",
    "ldl",
    "lll_reduce",
    "loads",
    "periodic_extreme_by_theorem",
    "rank_span",
    "rescale_to_min_one",
    "shortest_vectors",
    "strong_eutaxy",
    "sublattice_representation",
    "to_document",
    "translational_criterion",
    "uncertainty_space",
    "unit_ball_volume",
    "voronoi_domain",
]
