"""Automatic maintenance on the query path: compaction.

Database cracking's core bargain is that maintenance rides on queries —
no stop-the-world rebuilds, just bounded work amortized over the requests
that need it.  This module extends the bargain to the maintenance verb
the update subsystem introduced: **compaction**
(:meth:`~repro.sharding.sharded_index.ShardedIndex.maybe_compact` /
:meth:`~repro.index.base.MutableSpatialIndex.compact`), which physically
reclaims tombstoned rows once the dead fraction crosses a threshold.

A :class:`MaintenancePolicy` is pure data (threshold + cadence); a
:class:`MaintenanceScheduler` binds one policy to one index and is
ticked from the query path — the
:class:`~repro.sharding.executor.QueryExecutor` ticks it after every
batch, replacing ad-hoc ``maybe_compact`` call sites with one
uniform, policy-driven hook.  The scheduler works for *any*
:class:`~repro.index.base.MutableSpatialIndex` (plain indexes compact
their store; sharded engines compact each shard past the threshold).
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.index.base import MutableSpatialIndex
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
        Always ``False``.  Query-driven shard rebalancing was removed
        (no drifting-hotspot run at 1M boxes showed it paying for the
        cracked shard indexes each pass threw away); the field stays
        only so existing ``rebalance=False`` call sites keep working,
        and ``True`` is refused.
    """

    check_every: int = 64
    dead_fraction: float = 0.3
    rebalance: bool = False

    def __post_init__(self) -> None:
        if self.check_every < 1:
            raise ConfigurationError(
                f"check_every must be >= 1, got {self.check_every}"
            )
        if not 0.0 <= self.dead_fraction < 1.0:
            raise ConfigurationError(
                f"dead_fraction must be in [0, 1), got {self.dead_fraction}"
            )
        if self.rebalance:
            raise ConfigurationError(
                "rebalance=True is not supported: query-driven shard "
                "rebalancing was removed; maintenance only compacts"
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
        engine's shards, or a plain index's store).
    rows_reclaimed:
        Rows reclaimed by those compactions — each deleted row counted
        once, where its shard drops it.
    seconds:
        Wall-clock spent inside maintenance (off the per-query timings;
        the amortized price of staying tight).
    """

    checks: int = 0
    compaction_passes: int = 0
    rows_reclaimed: int = 0
    seconds: float = 0.0


class MaintenanceScheduler:
    """Bind a :class:`MaintenancePolicy` to one index and tick it.

    Executors call :meth:`after_ops` once per executed operation (or
    batch); every ``policy.check_every`` accumulated operations the
    scheduler runs one maintenance check: dead-fraction-gated compaction
    (which also re-tightens the compacted shards' pruning MBBs).  All
    work is attributed to :attr:`report`, never to the caller's per-op
    timings.
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
        #: One span named ``maintenance.compact`` traces every check
        #: when a tracer is given
        #: (docs/OBSERVABILITY.md); the shared disabled tracer keeps the
        #: code branch-free otherwise.
        self.tracer = tracer if tracer is not None else DISABLED
        #: Optional event log: passes that reclaim rows emit a
        #: ``maintenance.compact`` event mirroring the span above
        #: (attrs + pass duration), so a structured log can explain a
        #: pause without span access.
        self.events = events
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

        A no-op unless a store (or shard) is past the dead-fraction
        threshold.  Returns the cumulative :attr:`report`.
        """
        t0 = time.perf_counter()
        self.report.checks += 1
        index = self._index
        with self.tracer.span("maintenance.compact") as span:
            if isinstance(index, ShardedIndex):
                reclaimed = index.maybe_compact(self.policy.dead_fraction)
            else:
                store = index.store
                reclaimed = 0
                if store.n and store.n_dead / store.n > self.policy.dead_fraction:
                    reclaimed = index.compact()
            span.set(rows_reclaimed=reclaimed)
        seconds = time.perf_counter() - t0
        self.report.seconds += seconds
        if reclaimed:
            self.report.compaction_passes += 1
            self.report.rows_reclaimed += reclaimed
            if self.events is not None:
                self.events.emit(
                    "maintenance.compact",
                    rows_reclaimed=reclaimed,
                    seconds=seconds,
                    check=self.report.checks,
                )
        return self.report

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"MaintenanceScheduler(index={self._index.name!r}, "
            f"policy={self.policy})"
        )
