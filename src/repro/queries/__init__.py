"""Query model: first-class query specs and workload generators."""

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
    "mixed_workload",
    "sequential_workload",
    "side_for_volume_fraction",
    "uniform_workload",
]
