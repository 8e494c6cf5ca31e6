"""Score-respecting treaps and B-trees with a benchmark harness."""

from .distributions import (
    Distribution,
    cross_entropy,
    entropy,
    error_measures,
    kl,
    mae,
    noisy_scores,
    perturb,
)
from .dynamic import (
    SCHEMES,
    STRUCTURES,
    CostBreakdown,
    CrudeOracle,
    SequenceStats,
    compute_stats,
    cost_decomposition_check,
    run_dynamic,
)
from .em import (
    BTree,
    DetScoreForest,
    RankForest,
    TierForestBTreap,
    UpdateCost,
)
from .errors import ConfigError, DuplicateKeyError
from .oracle import (
    analytic_expected_depth,
    naive_depths,
    optimal_static_bst_cost,
)
from .priorities import (
    RandomStream,
    composite_priority,
    raw_score_priority,
    single_log_priority,
    tier_value,
)
from .sequences import (
    AccessSequence,
    TraceSpec,
    gen_distribution,
    gen_sequence,
)
from .treap import Treap

__version__ = "0.1.0"

__all__ = [
    "AccessSequence",
    "BTree",
    "ConfigError",
    "CostBreakdown",
    "CrudeOracle",
    "DetScoreForest",
    "Distribution",
    "DuplicateKeyError",
    "RandomStream",
    "RankForest",
    "SCHEMES",
    "STRUCTURES",
    "SequenceStats",
    "TierForestBTreap",
    "TraceSpec",
    "Treap",
    "UpdateCost",
    "analytic_expected_depth",
    "composite_priority",
    "compute_stats",
    "cost_decomposition_check",
    "cross_entropy",
    "entropy",
    "error_measures",
    "gen_distribution",
    "gen_sequence",
    "kl",
    "mae",
    "naive_depths",
    "noisy_scores",
    "optimal_static_bst_cost",
    "perturb",
    "raw_score_priority",
    "run_dynamic",
    "single_log_priority",
    "tier_value",
    "__version__",
]
