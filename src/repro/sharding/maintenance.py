"""Automatic maintenance on the query path: compaction + rebalancing.

Database cracking's core bargain is that maintenance rides on queries —
no stop-the-world rebuilds, just bounded work amortized over the requests
that need it.  This module extends the bargain to the two maintenance
verbs the update subsystem introduced:

* **Compaction**
  (:meth:`~repro.sharding.sharded_index.ShardedIndex.maybe_compact` /
  :meth:`~repro.index.base.MutableSpatialIndex.compact`) — physically
  reclaim tombstoned rows once the dead fraction crosses a threshold.
* **Rebalancing** (:class:`~repro.sharding.rebalancer.Rebalancer`) —
  split hot shards / merge cold ones once the observed balance or
  query-load skew drifts.

A :class:`MaintenancePolicy` is pure data (thresholds + cadence); a
:class:`MaintenanceScheduler` binds one policy to one index and is
ticked from the query path — the
:class:`~repro.sharding.executor.QueryExecutor` ticks it after every
batch, and :func:`repro.bench.runner.run_workload` after every
operation, replacing ad-hoc ``maybe_compact`` call sites with one
uniform, policy-driven hook.  The scheduler works for *any*
:class:`~repro.index.base.MutableSpatialIndex` (plain indexes get
dead-fraction-gated compaction; sharded engines additionally get
per-shard compaction and rebalancing).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.errors import ConfigurationError
from repro.index.base import MutableSpatialIndex
from repro.sharding.rebalancer import Rebalancer, RebalanceResult
from repro.sharding.sharded_index import ShardedIndex
from repro.telemetry.events import EventLog
from repro.telemetry.tracer import DISABLED, Tracer


@dataclass(frozen=True)
class MaintenancePolicy:
    """Thresholds and cadence for query-path maintenance.

    Attributes
    ----------
    check_every:
        Operations between maintenance checks.  Checks are cheap
        (counter comparisons); the work itself only happens when a
        threshold is crossed, so small values buy responsiveness at
        negligible steady-state cost.
    dead_fraction:
        Tombstoned fraction above which a store (or shard) compacts
        (what ``maybe_compact`` takes).
    rebalance:
        Whether to rebalance sharded engines at all (compaction-only
        policies set this ``False``).
    max_balance:
        Live-row balance factor (max/mean shard size) that triggers a
        rebalancing pass — drifts under skewed *ingestion*.
    max_query_skew:
        Query-load skew (max/mean fan-out executions) that triggers a
        pass — drifts under skewed *traffic*.
    min_queries:
        Profiled queries required before the first pass after (re)build
        or a previous pass; guards against re-tiling on noise.
    recover_replicas:
        Whether maintenance checks heal dead replicas of a sharded
        engine (ledger replay via ``recover_all``; needs
        ``replication > 1``).  Irrelevant for plain indexes; ``False``
        leaves recovery to explicit calls (fault-injection tests want
        the corpse to stay dead).
    """

    check_every: int = 64
    dead_fraction: float = 0.3
    rebalance: bool = True
    max_balance: float = 1.5
    max_query_skew: float = 2.5
    min_queries: int = 64
    recover_replicas: bool = False

    def __post_init__(self) -> None:
        if self.check_every < 1:
            raise ConfigurationError(
                f"check_every must be >= 1, got {self.check_every}"
            )
        if not 0.0 <= self.dead_fraction < 1.0:
            raise ConfigurationError(
                f"dead_fraction must be in [0, 1), got {self.dead_fraction}"
            )
        if self.max_balance < 1.0:
            raise ConfigurationError(
                f"max_balance must be >= 1.0, got {self.max_balance}"
            )
        if self.max_query_skew < 1.0:
            raise ConfigurationError(
                f"max_query_skew must be >= 1.0, got {self.max_query_skew}"
            )
        if self.min_queries < 1:
            raise ConfigurationError(
                f"min_queries must be >= 1, got {self.min_queries}"
            )


@dataclass
class MaintenanceReport:
    """Cumulative outcome of a scheduler's maintenance ticks.

    Attributes
    ----------
    checks:
        Maintenance checks performed (every ``check_every`` ops).
    compaction_passes:
        Checks on which compaction actually reclaimed rows (a sharded
        engine's shard primaries, or a plain index's store).
    rows_reclaimed:
        Rows reclaimed by those compactions — each deleted row counted
        once, where its shard primary drops it (standby copies excluded).
    rebalances:
        Rebalancing passes applied.
    rows_migrated:
        Rows whose owning shard changed across those passes.
    replicas_recovered:
        Dead replicas healed by ledger replay during checks (only with
        ``policy.recover_replicas`` on a sharded engine).
    seconds:
        Wall-clock spent inside maintenance (off the per-query timings;
        the amortized price of staying tight).
    last_rebalance:
        The most recent pass's :class:`RebalanceResult`, if any.
    """

    checks: int = 0
    compaction_passes: int = 0
    rows_reclaimed: int = 0
    rebalances: int = 0
    rows_migrated: int = 0
    replicas_recovered: int = 0
    seconds: float = 0.0
    last_rebalance: RebalanceResult | None = field(default=None, repr=False)


class MaintenanceScheduler:
    """Bind a :class:`MaintenancePolicy` to one index and tick it.

    Executors call :meth:`after_ops` once per executed operation (or
    batch); every ``policy.check_every`` accumulated operations the
    scheduler runs one maintenance check: dead-fraction-gated compaction
    first (reclaiming space also re-tightens shard MBBs, which makes the
    subsequent drift measurement honest), then — for sharded engines
    with ``policy.rebalance`` — one bounded rebalancing pass if the
    observed drift crossed a threshold.  All work is attributed to
    :attr:`report`, never to the caller's per-op timings.
    """

    def __init__(
        self,
        index: MutableSpatialIndex,
        policy: MaintenancePolicy | None = None,
        tracer: Tracer | None = None,
        events: EventLog | None = None,
    ) -> None:
        if not isinstance(index, MutableSpatialIndex):
            raise ConfigurationError(
                f"{type(index).__name__} supports no maintenance verbs; "
                "use a MutableSpatialIndex"
            )
        self._index = index
        self.policy = policy or MaintenancePolicy()
        #: Spans named ``maintenance.check`` / ``maintenance.compact`` /
        #: ``maintenance.rebalance`` trace every pass when a tracer is
        #: given (docs/OBSERVABILITY.md); the shared disabled tracer
        #: keeps the code branch-free otherwise.
        self.tracer = tracer if tracer is not None else DISABLED
        #: Optional event log: work-performing passes emit
        #: ``maintenance.compact`` / ``maintenance.rebalance`` events
        #: mirroring the spans above (attrs + pass duration), so a
        #: structured log can explain a pause without span access.
        self.events = events
        self._rebalancer = (
            Rebalancer(
                self.policy.max_balance,
                self.policy.max_query_skew,
                self.policy.min_queries,
            )
            if self.policy.rebalance and isinstance(index, ShardedIndex)
            else None
        )
        self._pending_ops = 0
        #: Cumulative outcome across all ticks (read it at run end).
        self.report = MaintenanceReport()

    @property
    def index(self) -> MutableSpatialIndex:
        """The index under maintenance."""
        return self._index

    def after_ops(self, count: int = 1) -> bool:
        """Account ``count`` executed operations; maybe run a check.

        Returns ``True`` when a maintenance check ran (not necessarily
        that it did any work).  The cadence is measured in operations,
        not wall-clock, so replays are deterministic.  At most one check
        runs per call — several back-to-back checks with no operations
        in between would observe identical state — but the op counter
        keeps its remainder modulo ``check_every``, so the average
        cadence holds across calls of any batch size.
        """
        self._pending_ops += int(count)
        if self._pending_ops < self.policy.check_every:
            return False
        self._pending_ops %= self.policy.check_every
        self.run()
        return True

    def run(self) -> MaintenanceReport:
        """Run one maintenance check now, regardless of cadence.

        Compaction first, then rebalancing; both are no-ops unless their
        thresholds are crossed.  Returns the cumulative :attr:`report`.
        """
        t0 = time.perf_counter()
        self.report.checks += 1
        index = self._index
        with self.tracer.span("maintenance.check") as check:
            tc = time.perf_counter()
            with self.tracer.span("maintenance.compact") as span:
                if isinstance(index, ShardedIndex):
                    reclaimed = index.maybe_compact(self.policy.dead_fraction)
                else:
                    store = index.store
                    reclaimed = 0
                    if (
                        store.n
                        and store.n_dead / store.n > self.policy.dead_fraction
                    ):
                        reclaimed = index.compact()
                span.set(rows_reclaimed=reclaimed)
            if reclaimed:
                self.report.compaction_passes += 1
                self.report.rows_reclaimed += reclaimed
                if self.events is not None:
                    self.events.emit(
                        "maintenance.compact",
                        rows_reclaimed=reclaimed,
                        seconds=time.perf_counter() - tc,
                        check=self.report.checks,
                    )
            rows_migrated = 0
            if self._rebalancer is not None:
                tr = time.perf_counter()
                with self.tracer.span("maintenance.rebalance") as span:
                    result = self._rebalancer.maybe_rebalance(index)
                    if result is not None:
                        rows_migrated = result.rows_migrated
                    span.set(
                        applied=result is not None, rows_migrated=rows_migrated
                    )
                if result is not None:
                    self.report.rebalances += 1
                    self.report.rows_migrated += result.rows_migrated
                    self.report.last_rebalance = result
                    if self.events is not None:
                        self.events.emit(
                            "maintenance.rebalance",
                            rows_migrated=rows_migrated,
                            seconds=time.perf_counter() - tr,
                            check=self.report.checks,
                        )
            recovered = 0
            if self.policy.recover_replicas and isinstance(index, ShardedIndex):
                # Self-healing: ledger-replay every dead replica back to
                # life.  Last in the check so recovery fingerprints
                # compare against already-compacted, already-rebalanced
                # peers.
                recovered = index.recover_all()
                self.report.replicas_recovered += recovered
            check.set(
                rows_reclaimed=reclaimed,
                rows_migrated=rows_migrated,
                replicas_recovered=recovered,
            )
        self.report.seconds += time.perf_counter() - t0
        return self.report

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"MaintenanceScheduler(index={self._index.name!r}, "
            f"policy={self.policy})"
        )
