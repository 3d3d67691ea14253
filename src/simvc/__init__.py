"""Exact-computation toolkit for VC dimensions of similarity hypothesis spaces."""

from .bounds import forest_cap, solve_optimal_delta, theorem_bounds
from .engine import vc_exact, vc_naive
from .experiments import (
    CSV_COLUMNS,
    BoundReport,
    exhaustive_search,
    random_search,
    run_report,
    verify_theorem,
)
from .families import (
    FamilySpec,
    enumerate_spaces,
    full_cube,
    k_sparse,
    random_space,
)
from .similarity import (
    lift_hypothesis,
    lift_space,
    lifted_vc,
    pair_domain,
)
from .space import (
    DOMAIN_SIZE_CAP,
    LOAD_DOMAIN_SIZE_CAP,
    HypothesisSpace,
    is_shattered,
    space_from_dict,
    space_to_dict,
)

__version__ = "0.1.0"

__all__ = [
    "BoundReport",
    "CSV_COLUMNS",
    "DOMAIN_SIZE_CAP",
    "FamilySpec",
    "HypothesisSpace",
    "LOAD_DOMAIN_SIZE_CAP",
    "enumerate_spaces",
    "exhaustive_search",
    "forest_cap",
    "full_cube",
    "is_shattered",
    "k_sparse",
    "lift_hypothesis",
    "lift_space",
    "lifted_vc",
    "pair_domain",
    "random_search",
    "random_space",
    "run_report",
    "solve_optimal_delta",
    "space_from_dict",
    "space_to_dict",
    "theorem_bounds",
    "vc_exact",
    "vc_naive",
    "verify_theorem",
]
