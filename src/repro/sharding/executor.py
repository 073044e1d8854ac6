"""Batch query execution across shards: one pipeline, two servers.

Serving engines amortize dispatch over *batches*: the
:class:`QueryExecutor` takes a list of range queries and runs every
batch through the same three steps — **route** each query onto the
shards whose MBB it touches (:meth:`ShardedIndex.route_batch`, the
pruning step, on the coordinating thread), **serve** one sub-batch per
routed shard in submission order, and **merge** the partial results
back into batch order.  QUASII answers a query by reorganizing the
store in place, so a reader is a writer and an index is only ever
touched by one thread; the only thing a backend chooses is *who serves*:

``"sequential"``
    The in-thread server (:meth:`ShardedIndex.serve_local`): the
    coordinating thread answers each routed shard's sub-batch in turn.
``"processes"``
    A persistent :class:`~repro.parallel.pool.ProcessPool` of
    ``max_workers`` workers, each answering from warm copies of its
    shards that the pool keeps current by message — the one way shard
    work overlaps.

Both serve each shard's one store+index: the driver's shard store is
what a worker's base is cut from, so a worker that dies is respawned
and handed a new base (:class:`~repro.parallel.pool.ProcessPool`).

An explicit ``backend=`` argument wins; otherwise
``QUASII_EXECUTOR_BACKEND`` is honored when the resolved ``max_workers``
exceeds 1 (single-worker setups keep their sequential contract);
otherwise the executor is sequential.  The variable is validated
whenever it is set.

Passing a :class:`~repro.sharding.maintenance.MaintenancePolicy` makes
the executor the maintenance driver too: after every batch it ticks a
:class:`~repro.sharding.maintenance.MaintenanceScheduler`, which
compacts tombstone-heavy shards — the serving loop needs no ad-hoc ``maybe_compact`` calls sprinkled between
batches.  Maintenance time is charged to the scheduler's report, not to
any batch's ``seconds``.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from types import TracebackType
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.errors import ConfigurationError
from repro.index.base import IndexStats
from repro.queries.query import Query, QueryResult
from repro.sharding.maintenance import MaintenancePolicy, MaintenanceScheduler
from repro.sharding.sharded_index import ShardedIndex
from repro.telemetry import Telemetry
from repro.telemetry.events import EventLog
from repro.telemetry.naming import (
    BATCH_FANOUT_SECONDS,
    BATCH_MERGE_SECONDS,
    BATCH_ROUTE_SECONDS,
    BATCH_SECONDS,
    QUERY_SECONDS,
    SHARD_BATCH_SECONDS,
    record_stats_delta,
)

if TYPE_CHECKING:
    from repro.parallel.pool import ProcessPool

#: The executor's two servers, in escalation order.
BACKENDS = ("sequential", "processes")

#: Environment override consulted when no explicit ``backend=`` is given.
BACKEND_ENV = "QUASII_EXECUTOR_BACKEND"


@dataclass
class BatchResult:
    """Outcome of one executed query batch.

    Attributes
    ----------
    results:
        One id array per query, in batch order (merged + deduplicated;
        empty for count-only queries — their payload lives in
        ``query_results``).
    query_results:
        One full :class:`~repro.queries.query.QueryResult` per query,
        in batch order — counts, boxes, and top-k payloads for
        non-``ids`` modes.
    seconds:
        Wall-clock for the whole batch (planning + fan-out + merge).
    mode:
        The backend that served the batch (one of :data:`BACKENDS`).
    workers:
        Process count used (1 for the in-thread server).
    shard_queries:
        Per-shard number of (query, shard) executions — the fan-out
        profile; its sum can exceed ``len(results)`` when queries span
        shards and be below it when pruning wins.
    shard_seconds:
        Per-shard server wall-clock for this batch's sub-batches, indexed
        by shard id (0.0 for shards the batch never visited).  Each
        sub-batch is timed where it runs — on the coordinating thread or
        inside its worker process — so shard-level skew is measurable on
        both backends: ``sum(shard_seconds)`` is the total work, and
        under ``processes`` ``max(shard_seconds)`` bounds the fan-out
        phase.
    route_seconds / fanout_seconds / merge_seconds:
        Phase timings, recorded on both backends: planning queries onto
        shards (the queueing step), shard sub-batches being served, and
        partial-result assembly.
    """

    results: list[np.ndarray] = field(default_factory=list)
    query_results: list[QueryResult] = field(default_factory=list)
    seconds: float = 0.0
    mode: str = "sequential"
    workers: int = 1
    shard_queries: list[int] = field(default_factory=list)
    shard_seconds: list[float] = field(default_factory=list)
    route_seconds: float = 0.0
    fanout_seconds: float = 0.0
    merge_seconds: float = 0.0

    @property
    def n_queries(self) -> int:
        """Number of executed queries."""
        return len(self.results)

    def throughput(self) -> float:
        """Queries per second over the batch."""
        return self.n_queries / self.seconds if self.seconds > 0 else float("inf")


class QueryExecutor:
    """Run query batches against a :class:`ShardedIndex`.

    Parameters
    ----------
    index:
        The sharded engine; built on first use if necessary.
    max_workers:
        Process pool width — it sizes the ``"processes"`` backend's pool
        and nothing else.  ``None`` uses ``os.cpu_count()`` capped at the
        shard count; ``<= 1`` keeps the executor sequential unless
        ``backend`` says otherwise.
    backend:
        Who serves: one of :data:`BACKENDS` or ``None``.  ``None``
        (default) resolves via the module docstring's rules — the env
        override (:data:`BACKEND_ENV`, honored only when the resolved
        ``max_workers`` exceeds 1), else ``"sequential"``.  The
        ``"processes"`` backend lazily spins up a persistent
        :class:`~repro.parallel.pool.ProcessPool` on first use; call
        :meth:`close` (or use the executor as a context manager) to
        tear it down deterministically.
    maintenance:
        Optional :class:`MaintenancePolicy`; when given, a
        :class:`MaintenanceScheduler` is ticked after every executed
        batch, so compaction rides the serving loop
        (cracking-style) instead of needing ad-hoc call sites.
    telemetry:
        Optional :class:`~repro.telemetry.Telemetry` handle.  When given,
        every batch records latency histograms (whole batch, per query,
        per shard sub-batch, route/fan-out/merge phases) and flows the
        engine's :class:`~repro.index.base.IndexStats` delta into
        ``stats.*`` registry counters; the maintenance scheduler traces
        its passes as spans on ``telemetry.tracer``.  When ``None``
        (default), the only cost on the batch path is one ``is None``
        test — see docs/OBSERVABILITY.md.
    events:
        Optional :class:`~repro.telemetry.events.EventLog`.  Slow-query
        events land here (see ``slow_query_threshold``), and the
        maintenance scheduler mirrors its work-performing passes as
        ``maintenance.*`` events.
    slow_query_threshold:
        Seconds above which an executed query emits a ``slow_query``
        event into ``events``, carrying the query window,
        predicate/mode, its seconds, and the owning batch's fan-out
        profile (per-shard seconds, shards visited/pruned, phase
        split).  ``None`` (default) disables the check entirely; a
        threshold without ``events`` raises ``ConfigurationError``
        (there would be nowhere to emit to).
    """

    def __init__(
        self,
        index: ShardedIndex,
        max_workers: int | None = None,
        backend: str | None = None,
        maintenance: MaintenancePolicy | None = None,
        telemetry: Telemetry | None = None,
        events: EventLog | None = None,
        slow_query_threshold: float | None = None,
    ) -> None:
        if max_workers is not None and max_workers < 0:
            raise ConfigurationError(
                f"max_workers must be >= 0, got {max_workers}"
            )
        if slow_query_threshold is not None and slow_query_threshold < 0:
            raise ConfigurationError(
                "slow_query_threshold must be >= 0 seconds, got "
                f"{slow_query_threshold}"
            )
        if slow_query_threshold is not None and events is None:
            raise ConfigurationError(
                "slow_query_threshold needs an events log to emit into"
            )
        self._index = index
        if max_workers is None:
            max_workers = min(os.cpu_count() or 1, index.n_shards)
        self._max_workers = int(max_workers)
        self._backend = self._resolve_backend(backend)
        self._pool: ProcessPool | None = None
        self._telemetry = (
            telemetry if telemetry is not None and telemetry.enabled else None
        )
        self._events = events
        self._slow_query_threshold = slow_query_threshold
        self._scheduler = (
            MaintenanceScheduler(
                index,
                maintenance,
                tracer=self._telemetry.tracer if self._telemetry else None,
                events=events,
            )
            if maintenance is not None
            else None
        )

    def _resolve_backend(self, requested: str | None) -> str:
        """Settle who serves, at construction time.

        Explicit argument > :data:`BACKEND_ENV` (only when more than one
        worker was resolved — the env knob widens multi-worker setups, it
        never un-sequentializes a deliberate single-worker executor) >
        ``"sequential"``.  Both names are validated whenever they are
        given, so a mistyped or stale variable fails loudly even where
        it would not be honored.
        """
        env = os.environ.get(BACKEND_ENV) or None
        for name, source in ((requested, "backend argument"), (env, BACKEND_ENV)):
            if name is not None and name not in BACKENDS:
                raise ConfigurationError(
                    f"unknown executor backend {name!r} (from {source}); "
                    f"choose from {BACKENDS}"
                )
        backend = requested or (env if self._max_workers > 1 else None)
        return backend or "sequential"

    @property
    def max_workers(self) -> int:
        """Resolved process pool width (only ``processes`` reads it)."""
        return self._max_workers

    @property
    def backend(self) -> str:
        """The resolved server (one of :data:`BACKENDS`)."""
        return self._backend

    @property
    def scheduler(self) -> MaintenanceScheduler | None:
        """The maintenance scheduler (``None`` without a policy)."""
        return self._scheduler

    @property
    def telemetry(self) -> Telemetry | None:
        """The telemetry handle (``None`` when disabled or absent)."""
        return self._telemetry

    @property
    def events(self) -> EventLog | None:
        """The event log (``None`` when absent)."""
        return self._events

    def run(self, queries: Sequence[Query]) -> BatchResult:
        """Execute a batch; returns per-query merged results plus timing.

        ``BatchResult.query_results`` carries the full per-query
        payloads; ``results`` is the id-array view of the same answers.

        With a maintenance policy configured, the scheduler is ticked
        once per executed query *after* the batch completes — its
        compaction work happens between batches and is
        charged to the scheduler's report, never to the batch's
        ``seconds``.
        """
        tel = self._telemetry
        before = self._index.stats.snapshot() if tel is not None else None
        out = self._run_batch(queries)
        if self._scheduler is not None:
            self._scheduler.after_ops(len(queries))
        if tel is not None and before is not None:
            self._record_batch(tel, out, before)
        if (
            self._events is not None
            and self._slow_query_threshold is not None
        ):
            self._log_slow_queries(out)
        return out

    def _record_batch(
        self, tel: Telemetry, out: BatchResult, before: IndexStats
    ) -> None:
        """Flow one batch's timings and stats delta into the registry.

        Runs *after* the maintenance tick so work triggered by this
        batch (compaction) lands in the same stats delta as
        the scheduler's spans.
        """
        reg = tel.registry
        reg.histogram(BATCH_SECONDS).record(out.seconds)
        query_hist = reg.histogram(QUERY_SECONDS)
        for result in out.query_results:
            query_hist.record(result.seconds)
        shard_hist = reg.histogram(SHARD_BATCH_SECONDS)
        for seconds in out.shard_seconds:
            if seconds:
                shard_hist.record(seconds)
        reg.histogram(BATCH_ROUTE_SECONDS).record(out.route_seconds)
        reg.histogram(BATCH_FANOUT_SECONDS).record(out.fanout_seconds)
        reg.histogram(BATCH_MERGE_SECONDS).record(out.merge_seconds)
        record_stats_delta(reg, self._index.stats.delta_since(before))

    def _log_slow_queries(self, out: BatchResult) -> None:
        """Emit one ``slow_query`` event per over-threshold query.

        Payloads carry the whole diagnostic picture a latency histogram
        cannot: the offending window, its predicate/mode, and the
        owning batch's fan-out profile — which shards did the work (and
        for how long), how many were pruned, and how the batch's time
        split across route/fan-out/merge.  Bounded by the event log's
        ring, so a pathological batch cannot balloon memory.
        """
        threshold = self._slow_query_threshold
        visited = sum(1 for n in out.shard_queries if n)
        for result in out.query_results:
            if result.seconds <= threshold:
                continue
            q = result.query
            self._events.emit(
                "slow_query",
                seq=q.seq,
                predicate=q.predicate,
                mode=q.mode,
                window_lo=q.window.lo,
                window_hi=q.window.hi,
                seconds=result.seconds,
                count=result.count,
                batch_mode=out.mode,
                batch_seconds=out.seconds,
                batch_queries=out.n_queries,
                shards_visited=visited,
                shards_pruned=self._index.n_shards - visited,
                shard_seconds=out.shard_seconds,
                route_seconds=out.route_seconds,
                fanout_seconds=out.fanout_seconds,
                merge_seconds=out.merge_seconds,
            )

    @staticmethod
    def _ids_of(result: QueryResult) -> np.ndarray:
        """The id-array view of a result (empty for count-only)."""
        if result.ids is None:
            return np.empty(0, dtype=np.int64)
        return result.ids

    def _run_batch(self, queries: Sequence[Query]) -> BatchResult:
        """Gate, route, serve, merge — the same four steps on both backends.

        Routing and merging run on this thread either way; the backend
        only decides whether the per-shard sub-batches are answered here
        (:meth:`ShardedIndex.serve_local`) or by the worker processes,
        whose ``shard_seconds`` are measured in-process so skew stays
        observable across the boundary.
        """
        index = self._index
        if not index.is_built:
            index.build()
        t0 = time.perf_counter()
        gated = index._gate_batch(queries)
        queues = index.route_batch(gated)
        t_routed = time.perf_counter()
        if self._backend == "processes":
            pool = self._ensure_pool()
            served, workers = pool.run_batch(gated, queues), pool.n_workers
        else:
            served, workers = index.serve_local(gated, queues), 1
        t_joined = time.perf_counter()
        shard_queries = [0] * index.n_shards
        shard_seconds = [0.0] * index.n_shards
        for sid, (idxs, _, seconds) in served.items():
            shard_queries[sid] = len(idxs)
            shard_seconds[sid] = seconds
        query_results = index._assemble_batch(gated, served, t0)
        t_done = time.perf_counter()
        return BatchResult(
            results=[self._ids_of(r) for r in query_results],
            query_results=query_results,
            seconds=t_done - t0,
            mode=self._backend,
            workers=workers,
            shard_queries=shard_queries,
            shard_seconds=shard_seconds,
            route_seconds=t_routed - t0,
            fanout_seconds=t_joined - t_routed,
            merge_seconds=t_done - t_joined,
        )

    def _ensure_pool(self) -> ProcessPool:
        """The persistent process pool, created on first process batch.

        Lazy on purpose: the sequential backend never pays the
        multiprocessing import, and the pool forks only after the
        engine is built (workers inherit a warm interpreter under the
        fork start method).
        """
        if self._pool is None:
            from repro.parallel.pool import ProcessPool

            self._pool = ProcessPool(
                self._index,
                n_workers=max(1, self._max_workers),
                telemetry=self._telemetry,
                events=self._events,
            )
        return self._pool

    def close(self) -> None:
        """Tear down backend resources (the process pool, if started).

        Idempotent; the sequential backend holds nothing, so this is a
        no-op for it.  After closing, the next process-mode
        batch transparently starts a fresh pool.
        """
        if self._pool is not None:
            self._pool.close()
            self._pool = None

    def __enter__(self) -> QueryExecutor:
        return self

    def __exit__(
        self,
        exc_type: type[BaseException] | None,
        exc: BaseException | None,
        tb: TracebackType | None,
    ) -> bool:
        self.close()
        return False
