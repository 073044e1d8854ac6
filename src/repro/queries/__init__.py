"""Query model: first-class query specs and workload generators."""

from repro.queries.io import load_workload, save_workload
from repro.queries.query import (
    PREDICATES,
    RESULT_MODES,
    Query,
    QueryPlan,
    QueryResult,
)
from repro.queries.workloads import (
    WorkloadOp,
    clustered_workload,
    drifting_hotspot_workload,
    hotspot_workload,
    mixed_workload,
    selectivity_sweep,
    sequential_workload,
    side_for_volume_fraction,
    uniform_workload,
)

__all__ = [
    "PREDICATES",
    "Query",
    "QueryPlan",
    "QueryResult",
    "RESULT_MODES",
    "WorkloadOp",
    "clustered_workload",
    "drifting_hotspot_workload",
    "hotspot_workload",
    "load_workload",
    "mixed_workload",
    "save_workload",
    "selectivity_sweep",
    "sequential_workload",
    "side_for_volume_fraction",
    "uniform_workload",
]
