"""Dynamic content caching with version-ageing, fetching and waiting costs.

Closed-form threshold solvers, Whittle indices, an index-based caching
policy with baselines, a relaxed-problem lower bound, and a seeded
discrete-event simulator.
"""

from .model import (
    CacheSystemState,
    ContentParams,
    CostModel,
    Diagnostic,
    SingleContentState,
    SystemParams,
    validate,
    zipf_popularity,
)
from .thresholds import ThresholdSet, solve_thresholds
from .whittle import (
    build_content_tables,
    passive_set_member,
    verify_indexability,
    whittle_cached,
    whittle_uncached,
)
from .policies import (
    Action,
    ActionKind,
    PolicyKind,
    build_policy_tables,
    infinite_capacity_decide,
    myopic_decide,
    relaxed_lower_bound,
    static_topm_decide,
    whittle_decide,
)
from .simulator import AgeingMode, SimConfig, SimMetrics, aggregate, run, sweep

__version__ = "0.1.0"
