"""The sharded serving engine: spatial partitioning + pruned fan-out.

This package scales the single-process QUASII reproduction toward the
ROADMAP's production-serving north star by adopting the
partition-then-search architecture of the learned-spatial-index and
LiLIS lines of work, while keeping per-shard incremental cracking
intact:

* :class:`Partitioner` / :class:`STRPartitioner` /
  :class:`RoundRobinPartitioner` — build-time row splits and insert-time
  routing policies (:data:`PARTITIONERS` is the registry).
* :class:`Shard` / :class:`ShardReplica` — one shard: ``R >= 1``
  replicas (each a private :class:`BoxStore` copy plus its own index)
  with least-loaded read routing and automatic failover, the primary's
  store+index, the MBB used for query pruning, and — iff R > 1 — the
  per-shard :class:`~repro.updates.ledger.UpdateLedger` that is the
  replication stream (ledger-first writes, ledger-replay recovery with
  fingerprint verification).
* :class:`ShardedIndex` — the engine: the full
  :class:`~repro.index.base.MutableSpatialIndex` contract over K shards
  with pruned fan-out queries, merged + deduplicated results,
  ownership-routed inserts/deletes, and the fault seam
  (``replication=``, ``fault_injector=``, kill/stall/slow/recover).
* :class:`QueryExecutor` / :class:`BatchResult` — batch execution as
  one route → serve → merge pipeline behind two servers: the in-thread
  ``sequential`` one and the ``processes`` pool of :mod:`repro.parallel`.
* :class:`WorkloadProfile` / :class:`ShardLoad` — the observed query
  distribution: recent query centroids plus per-shard load deltas.
* :class:`Rebalancer` / :class:`RebalanceResult` — query-driven shard
  rebalancing: split hot shards along the observed query centroids,
  merge cold ones away, migrate rows while preserving the ledger /
  fingerprint invariants and the ownership map.
* :class:`MaintenancePolicy` / :class:`MaintenanceScheduler` /
  :class:`MaintenanceReport` — automatic maintenance on the query path:
  dead-fraction-gated compaction plus drift-gated rebalancing, ticked
  by the executors instead of ad-hoc call sites.
* :class:`FaultInjector` / :class:`Fault` — deterministic, seed-driven
  kill/stall/slow faults, ticked on the engine's routing path so
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
from repro.sharding.partitioner import (
    PARTITIONERS,
    Partitioner,
    RoundRobinPartitioner,
    STRPartitioner,
    make_partitioner,
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
    "PARTITIONERS",
    "Partitioner",
    "QueryExecutor",
    "RebalanceResult",
    "Rebalancer",
    "RoundRobinPartitioner",
    "STRPartitioner",
    "Shard",
    "ShardLoad",
    "ShardReplica",
    "ShardedIndex",
    "WorkloadProfile",
    "make_partitioner",
]
