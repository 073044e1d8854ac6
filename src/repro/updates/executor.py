"""Mixed read/write workload execution, timed per operation.

:func:`run_mixed_workload` is the update-subsystem counterpart of
:func:`repro.bench.runner.run_workload`: it drives one
:class:`~repro.index.base.MutableSpatialIndex` through an interleaved
stream of :class:`~repro.queries.workloads.WorkloadOp`, resolving delete
victims deterministically so every index sees the *same* effective
update sequence, and records per-op wall-clock plus the new write
counters (``inserts`` / ``deletes`` / ``merges``).

Delete resolution: a ``delete`` op carries only a count — which live ids
die is decided here, by an RNG seeded from ``(victim_seed, op.seq)`` over
the sorted current live-id set.  Because every index starts from an
identical store copy and ids are reserved in the same order, the victim
sequence (and therefore every query's expected result) is identical
across indexes, which is what lets Scan serve as the correctness oracle.

A :class:`~repro.sharding.maintenance.MaintenancePolicy` can ride along:
the runner then ticks a maintenance scheduler after every operation, so
compaction (any mutable index) and rebalancing (sharded engines) happen
on the workload path exactly as they would in a serving loop — amortized
between operations and charged to ``maintenance_seconds``, never to any
operation's own timing.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.errors import ConfigurationError
from repro.index.base import MutableSpatialIndex
from repro.queries.workloads import WorkloadOp

if TYPE_CHECKING:  # pragma: no cover - layering: sharding sits above updates
    from repro.sharding.maintenance import MaintenancePolicy


@dataclass(frozen=True)
class OpTiming:
    """Measurements for one executed operation."""

    seq: int
    kind: str
    seconds: float
    rows: int  # results returned (query) or batch size (insert/delete)


@dataclass
class MixedRunResult:
    """A full mixed-workload execution for one index.

    ``query_results`` holds each query's sorted id array (in op order) so
    callers can cross-check indexes against the Scan oracle without
    re-running anything.  ``inserts`` / ``deletes`` / ``merges`` /
    ``compactions`` / ``rebalances`` / ``rows_migrated`` are the
    :class:`~repro.index.base.IndexStats` counter deltas over the run;
    ``shards_visited`` / ``shards_pruned`` are nonzero only for sharded
    targets.  ``maintenance_seconds`` is the wall-clock the maintenance
    scheduler spent between operations (0.0 without a policy) — it is
    *excluded* from every per-op timing, so throughput and maintenance
    cost can be priced separately.
    """

    name: str
    timings: list[OpTiming] = field(default_factory=list)
    query_results: list[np.ndarray] = field(default_factory=list)
    inserts: int = 0
    deletes: int = 0
    merges: int = 0
    compactions: int = 0
    rebalances: int = 0
    rows_migrated: int = 0
    shards_visited: int = 0
    shards_pruned: int = 0
    maintenance_seconds: float = 0.0
    final_live: int = 0

    @property
    def n_ops(self) -> int:
        """Number of executed operations."""
        return len(self.timings)

    def total_seconds(self) -> float:
        """Total wall-clock across all operations."""
        return float(sum(t.seconds for t in self.timings))

    def throughput(self) -> float:
        """Operations per second over the whole run."""
        total = self.total_seconds()
        return self.n_ops / total if total > 0 else float("inf")

    def kind_seconds(self, kind: str) -> float:
        """Total wall-clock spent on one op kind."""
        return float(sum(t.seconds for t in self.timings if t.kind == kind))

    def kind_count(self, kind: str) -> int:
        """Number of executed ops of one kind."""
        return sum(1 for t in self.timings if t.kind == kind)

    def mean_query_ms(self) -> float:
        """Mean per-query latency in milliseconds."""
        n = self.kind_count("query")
        return self.kind_seconds("query") / n * 1000 if n else 0.0


def resolve_delete_victims(
    live_ids: np.ndarray, count: int, seq: int, victim_seed: int
) -> np.ndarray:
    """The ids a ``delete`` op kills, given the current live population.

    Deterministic in ``(victim_seed, seq, live_ids)``; clamps to the
    population size so a delete against a nearly-empty store degrades to
    a smaller batch instead of failing.
    """
    count = min(count, live_ids.size)
    if count == 0:
        return np.empty(0, dtype=np.int64)
    rng = np.random.default_rng((victim_seed, seq))
    return rng.choice(np.sort(live_ids), size=count, replace=False)


def apply_write(
    index: MutableSpatialIndex,
    op: WorkloadOp,
    live: np.ndarray,
    seq: int,
    victim_seed: int,
) -> tuple[np.ndarray, np.ndarray, float]:
    """Run one ``insert``/``delete`` op; returns ``(ids, live, seconds)``.

    The one write step every op-stream driver shares: resolve the victims
    (deletes, from ``(victim_seed, seq)`` over ``live``), call the index,
    update the live-id array.  ``seconds`` brackets the
    ``index.insert`` / ``index.delete`` call alone — victim resolution
    sorts the whole live set and the live-set filter scans it, and neither
    is the engine's work.  ``ids`` are the identifiers inserted or
    deleted, for callers that mirror the write elsewhere.
    """
    if op.kind == "insert":
        t0 = time.perf_counter()
        ids = index.insert(op.lo, op.hi)
        seconds = time.perf_counter() - t0
        return ids, np.concatenate([live, ids]), seconds
    if op.kind != "delete":
        raise ConfigurationError(f"unknown workload op kind {op.kind!r}")
    ids = resolve_delete_victims(live, op.count, seq, victim_seed)
    t0 = time.perf_counter()
    index.delete(ids)
    seconds = time.perf_counter() - t0
    return ids, live[~np.isin(live, ids)], seconds


def run_mixed_workload(
    index: MutableSpatialIndex,
    ops: list[WorkloadOp],
    victim_seed: int = 0,
    build: bool = True,
    maintenance: MaintenancePolicy | None = None,
) -> MixedRunResult:
    """Build (optionally) then execute every op against ``index``.

    The executor maintains its own live-id set (seeded from the store)
    purely to resolve delete victims; the index is never consulted for
    membership, so a broken index cannot steer the workload.

    With ``maintenance`` given, a
    :class:`~repro.sharding.maintenance.MaintenanceScheduler` is ticked
    after every operation: compaction and (for sharded engines)
    rebalancing run between operations under the policy's thresholds.
    Their cost lands in ``maintenance_seconds`` and their work in the
    ``compactions`` / ``rebalances`` / ``rows_migrated`` counters, so
    throughput comparisons can price the maintenance separately.
    """
    if not isinstance(index, MutableSpatialIndex):
        raise ConfigurationError(
            f"{type(index).__name__} does not support updates; "
            "use a MutableSpatialIndex"
        )
    if build and not index.is_built:
        index.build()
    scheduler = None
    if maintenance is not None:
        # Imported here: repro.sharding layers *above* repro.updates.
        from repro.sharding.maintenance import MaintenanceScheduler

        scheduler = MaintenanceScheduler(index, maintenance)
    store = index.store
    # Maintained incrementally as a flat array: converting/sorting a
    # Python set per delete op would dominate the harness at scale
    # (victim resolution sorts internally, so order here is free).
    live = store.ids[store.live_rows()].copy()
    before = index.stats.snapshot()
    result = MixedRunResult(name=index.name)
    for op in ops:
        if op.kind == "query":
            t0 = time.perf_counter()
            res = index.execute(op.query)
            elapsed = time.perf_counter() - t0
            result.query_results.append(np.sort(res.ids))
            result.timings.append(OpTiming(op.seq, "query", elapsed, res.count))
        else:
            ids, live, elapsed = apply_write(
                index, op, live, op.seq, victim_seed
            )
            result.timings.append(
                OpTiming(op.seq, op.kind, elapsed, int(ids.size))
            )
        if scheduler is not None:
            scheduler.after_ops(1)
    after = index.stats
    result.inserts = after.inserts - before.inserts
    result.deletes = after.deletes - before.deletes
    result.merges = after.merges - before.merges
    result.compactions = after.compactions - before.compactions
    result.rebalances = after.rebalances - before.rebalances
    result.rows_migrated = after.rows_migrated - before.rows_migrated
    if scheduler is not None:
        result.maintenance_seconds = scheduler.report.seconds
    # Nonzero only for sharded targets (repro.sharding.ShardedIndex):
    # how many shard visits the fan-out paid vs. skipped over the run.
    result.shards_visited = after.shards_visited - before.shards_visited
    result.shards_pruned = after.shards_pruned - before.shards_pruned
    result.final_live = int(live.size)
    return result
