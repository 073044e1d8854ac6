"""QUASII reproduction: query-aware spatial incremental indexing.

A from-scratch Python implementation of *QUASII: QUery-Aware Spatial
Incremental Index* (Pavlovic, Sidlauskas, Heinis, Ailamaki — EDBT 2018),
together with every baseline its evaluation compares against: full scan,
STR-bulk-loaded R-Tree, uniform grid (replication and query-extension
variants), static Z-order SFC index, SFCracker, and Mosaic.

Quick start::

    from repro import Query, QuasiiIndex, make_uniform, uniform_workload

    dataset = make_uniform(100_000, seed=42)
    index = QuasiiIndex(dataset.store)
    queries = uniform_workload(dataset.universe, 100, seed=42)
    for result in index.execute_batch(queries):   # refines as it answers
        result.ids, result.count, result.stats, result.seconds
    index.execute(Query(queries[0].window, mode="count")).count
"""

from repro.baselines import (
    MosaicIndex,
    RTreeIndex,
    SFCIndex,
    SFCrackerIndex,
    ScanIndex,
    UniformGridIndex,
)
from repro.core import PAPER_TAU, QuasiiConfig, QuasiiIndex
from repro.datasets import BoxStore, Dataset, make_neuro_like, make_uniform
from repro.geometry import Box
from repro.index import IndexStats, MutableSpatialIndex, SpatialIndex
from repro.queries import (
    PREDICATES,
    RESULT_MODES,
    Query,
    QueryPlan,
    QueryResult,
    WorkloadOp,
    clustered_workload,
    hotspot_workload,
    mixed_workload,
    uniform_workload,
)
from repro.sharding import (
    BatchResult,
    MaintenancePolicy,
    MaintenanceScheduler,
    QueryExecutor,
    ShardedIndex,
)
from repro.telemetry import (
    LatencyHistogram,
    MetricsRegistry,
    Telemetry,
    Tracer,
)
from repro.updates import UpdateBuffer

__version__ = "1.0.0"

__all__ = [
    "PAPER_TAU",
    "PREDICATES",
    "RESULT_MODES",
    "BatchResult",
    "Box",
    "BoxStore",
    "Dataset",
    "IndexStats",
    "LatencyHistogram",
    "MaintenancePolicy",
    "MaintenanceScheduler",
    "MetricsRegistry",
    "MosaicIndex",
    "MutableSpatialIndex",
    "QuasiiConfig",
    "QuasiiIndex",
    "Query",
    "QueryExecutor",
    "QueryPlan",
    "QueryResult",
    "RTreeIndex",
    "SFCIndex",
    "SFCrackerIndex",
    "ScanIndex",
    "ShardedIndex",
    "SpatialIndex",
    "Telemetry",
    "Tracer",
    "UniformGridIndex",
    "UpdateBuffer",
    "WorkloadOp",
    "__version__",
    "clustered_workload",
    "hotspot_workload",
    "make_neuro_like",
    "make_uniform",
    "mixed_workload",
    "uniform_workload",
]
