"""The sharded serving engine: spatial partitioning + pruned fan-out.

This package scales the single-process QUASII reproduction out to a
sharded, replicated, process-parallel engine by adopting the
partition-then-search architecture of the learned-spatial-index and
LiLIS lines of work, while keeping per-shard incremental cracking
intact:

* :mod:`~repro.sharding.partitioner` — the build-time STR row split
  (``assign``) and least-enlargement insert routing (``route``).
* :class:`Shard` / :class:`ShardReplica` — one shard: ``R >= 1``
  replicas (each a private :class:`BoxStore` copy plus its own index),
  one of them the serving primary and the rest standbys that take over
  when it dies, the MBB used for query pruning, and — iff R > 1 — the
  per-shard :class:`~repro.updates.ledger.UpdateLedger` that is the
  replication stream (ledger-first writes, ledger-replay recovery with
  fingerprint verification).
* :class:`ShardedIndex` — the engine: the full
  :class:`~repro.index.base.MutableSpatialIndex` contract over K shards
  with pruned fan-out queries, merged + deduplicated results,
  ownership-routed inserts/deletes, and the fault seam
  (``replication=``, ``fault_injector=``, kill/recover).
* :class:`QueryExecutor` / :class:`BatchResult` — batch execution as
  one route → serve → merge pipeline behind two servers: the in-thread
  ``sequential`` one and the ``processes`` pool of :mod:`repro.parallel`.
* :class:`WorkloadProfile` / :class:`ShardLoad` — the observed query
  distribution: recent query windows plus per-shard routed-query counts.
* :class:`Rebalancer` / :class:`RebalanceResult` — query-driven shard
  rebalancing: split hot shards along the observed query centroids,
  merge cold ones away, migrate rows while preserving the ledger /
  fingerprint invariants and the ownership map.
* :class:`MaintenancePolicy` / :class:`MaintenanceScheduler` /
  :class:`MaintenanceReport` — automatic maintenance on the query path:
  dead-fraction-gated compaction plus drift-gated rebalancing, ticked
  by the executors instead of ad-hoc call sites.
* :class:`FaultInjector` / :class:`Fault` — deterministic, seed-driven
  replica kills, ticked on the engine's routing path so
  failures are first-class test inputs.

Batch throughput, pruning, balance and the two backends head to head are
measured by the ledger's ``sharded-serve`` / ``sharded-churn`` workloads
(``python3 benchmarks/ledger/run.py``); rebalancing under a drifting
hotspot with skewed ingestion, and serving through replica kills, by
``quasii-bench soak [--chaos]``.  ``docs/BENCH.md`` maps each question to
its row.
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
from repro.sharding.replication import (
    Fault,
    FaultInjector,
    IndexFactory,
    ShardReplica,
)
from repro.sharding.shard import Shard
from repro.sharding.sharded_index import ShardedIndex

__all__ = [
    "BatchResult",
    "Fault",
    "FaultInjector",
    "IndexFactory",
    "MaintenancePolicy",
    "MaintenanceReport",
    "MaintenanceScheduler",
    "QueryExecutor",
    "RebalanceResult",
    "Rebalancer",
    "Shard",
    "ShardLoad",
    "ShardReplica",
    "ShardedIndex",
    "WorkloadProfile",
]
