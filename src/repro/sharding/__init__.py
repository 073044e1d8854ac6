"""The sharded serving engine: spatial partitioning + pruned fan-out.

This package scales the single-process QUASII reproduction out to a
sharded, process-parallel engine by adopting the partition-then-search
architecture of the learned-spatial-index and LiLIS lines of work, while
keeping per-shard incremental cracking intact:

* :mod:`~repro.sharding.partitioner` — the build-time STR row split
  (``assign``) and least-enlargement insert routing (``route``).
* :class:`Shard` — one shard: a private :class:`BoxStore` copy of its
  rows, the QUASII index built over it from the engine's
  ``QuasiiConfig`` and ``max_runs`` (the same values a process worker
  builds its copy from), and the MBB used for query pruning.
* :class:`ShardedIndex` — the engine: the full
  :class:`~repro.index.base.MutableSpatialIndex` contract over K shards
  with pruned fan-out queries, merged + deduplicated results, and
  ownership-routed inserts/deletes.
* :class:`QueryExecutor` / :class:`BatchResult` — batch execution as
  one route → serve → merge pipeline behind two servers: the in-thread
  ``sequential`` one and the ``processes`` pool of :mod:`repro.parallel`,
  which respawns a worker that dies and republishes its shards.
* :class:`WorkloadProfile` / :class:`ShardLoad` — the observed query
  distribution: recent query windows plus per-shard routed-query counts.
* :class:`Rebalancer` / :class:`RebalanceResult` — query-driven shard
  rebalancing: split hot shards along the observed query centroids,
  merge cold ones away, migrate rows while preserving the live multiset
  and the ownership map.
* :class:`MaintenancePolicy` / :class:`MaintenanceScheduler` /
  :class:`MaintenanceReport` — automatic maintenance on the query path:
  dead-fraction-gated compaction plus drift-gated rebalancing, ticked
  by the executors instead of ad-hoc call sites.

Batch throughput, pruning, balance and the two backends head to head are
measured by the ledger's ``sharded-serve`` / ``sharded-churn`` workloads
(``python3 benchmarks/ledger/run.py``).  Rebalancing and serving
through worker SIGKILLs are oracle-checked by the property suite
(``tests/property/test_prop_backends.py``), not timed.
``docs/BENCH.md`` maps each question to its row.
"""

from repro.sharding.executor import BatchResult, QueryExecutor
from repro.sharding.maintenance import (
    MaintenancePolicy,
    MaintenanceReport,
    MaintenanceScheduler,
)
from repro.sharding.rebalancer import (
    RebalanceResult,
    Rebalancer,
    ShardLoad,
    WorkloadProfile,
)
from repro.sharding.shard import Shard
from repro.sharding.sharded_index import ShardedIndex

__all__ = [
    "BatchResult",
    "MaintenancePolicy",
    "MaintenanceReport",
    "MaintenanceScheduler",
    "QueryExecutor",
    "RebalanceResult",
    "Rebalancer",
    "Shard",
    "ShardLoad",
    "ShardedIndex",
    "WorkloadProfile",
]
