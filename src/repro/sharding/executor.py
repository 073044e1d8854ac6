"""Batch query execution across shards, on a thread pool or sequentially.

Serving engines amortize dispatch over *batches*: the
:class:`QueryExecutor` takes a list of range queries, plans each one
against the shard MBBs (the pruning step, done on the coordinating
thread so counters never race), then executes with **shard affinity** —
one task per shard, each running that shard's portion of the batch in
submission order.  A shard's index is therefore only ever touched by a
single thread at a time, which makes the scheme safe for *incremental*
shard indexes whose queries physically reorganize their store (QUASII
cracking).  NumPy releases the GIL inside the hot kernels (the
vectorized intersection scans and partition passes), so shard tasks
overlap on multi-core machines; on a single core the pool degrades to
roughly sequential execution plus a small dispatch cost.

``max_workers <= 1`` selects the plain sequential fallback (no threads
at all) — useful as a baseline and on interpreters/platforms where
thread pools are unwanted.

Threads share the GIL; the ``backend`` seam escapes it.  Every executor
resolves to one of three backends — ``"sequential"``, ``"threads"``
(the thread-pooled fan-out above), or ``"processes"`` (a persistent
:class:`~repro.parallel.pool.ProcessPool` serving per-shard sub-batches
from shared-memory snapshots).  An explicit ``backend=`` argument wins;
otherwise ``QUASII_EXECUTOR_BACKEND`` is consulted (only when the
resolved ``max_workers`` exceeds 1, so single-worker setups keep their
sequential contract); otherwise the historical default stands:
``threads`` when ``max_workers > 1``, else ``sequential``.  Engines
with ``replication > 1`` route reads through per-shard replica picks,
which the process tier bypasses by design — asking for
``backend="processes"`` on one raises, and an env-sourced request
quietly downgrades to threads.

Passing a :class:`~repro.sharding.maintenance.MaintenancePolicy` makes
the executor the maintenance driver too: after every batch it ticks a
:class:`~repro.sharding.maintenance.MaintenanceScheduler`, which
compacts tombstone-heavy shards and rebalances drifted ones — the
serving loop needs no ad-hoc ``maybe_compact`` calls sprinkled between
batches.  Maintenance time is charged to the scheduler's report, not to
any batch's ``seconds``.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from types import TracebackType
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.errors import ConfigurationError, QueryError
from repro.index.base import IndexStats
from repro.queries.query import Query, QueryResult, as_query
from repro.queries.range_query import RangeQuery
from repro.sharding.maintenance import MaintenancePolicy, MaintenanceScheduler
from repro.sharding.replication import FaultInjector
from repro.sharding.shard import Shard
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

#: The executor's dispatch backends, in escalation order.
BACKENDS = ("sequential", "threads", "processes")

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
        ``"sequential"``, ``"parallel"`` (thread backend), or
        ``"processes"`` (process backend).
    workers:
        Thread or process count used (1 for the sequential fallback).
    shard_queries:
        Per-shard number of (query, shard) executions — the fan-out
        profile; its sum can exceed ``len(results)`` when queries span
        shards and be below it when pruning wins.
    shard_seconds:
        Per-shard worker wall-clock for this batch's sub-batches, indexed
        by shard id (0.0 for shards the batch never visited).  On the
        thread path each shard task is timed individually (and on the
        process path each worker times its sub-batch in-process), so
        shard-level skew is measurable: ``max(shard_seconds)`` bounds the
        fan-out phase while ``sum(shard_seconds)`` is the total work.
        The sequential fallback runs the engine's native batch (no
        per-shard attribution), so the list stays zeroed there.
    route_seconds / fanout_seconds / merge_seconds:
        Phase timings of the thread/process paths: planning queries onto
        shards (the queueing step), shard tasks in flight, and
        partial-result assembly.  All 0.0 on the sequential path.
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
        Thread (or process) pool width.  ``None`` uses
        ``os.cpu_count()`` capped at the shard count; ``<= 1`` selects
        the sequential fallback unless ``backend`` says otherwise.
    backend:
        Dispatch backend: one of :data:`BACKENDS` or ``None``.
        ``None`` (default) resolves via the module docstring's rules —
        env override first (:data:`BACKEND_ENV`, honored only when the
        resolved ``max_workers`` exceeds 1), then ``"threads"`` /
        ``"sequential"`` by worker count.  The ``"processes"`` backend
        lazily spins up a persistent
        :class:`~repro.parallel.pool.ProcessPool` on first use; call
        :meth:`close` (or use the executor as a context manager) to
        tear it down deterministically.
    maintenance:
        Optional :class:`MaintenancePolicy`; when given, a
        :class:`MaintenanceScheduler` is ticked after every executed
        batch, so compaction and rebalancing ride the serving loop
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
        split).  ``None`` (default) disables the check entirely.
    fault_injector:
        Optional :class:`~repro.sharding.replication.FaultInjector`,
        attached to the engine so deterministic kill/stall/slow faults
        fire on the serving path.  A fault aimed at a replica the
        engine does not have raises when it fires — faults are
        first-class inputs, never silently dropped.
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
        fault_injector: FaultInjector | None = None,
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
        self._index = index
        if max_workers is None:
            max_workers = min(os.cpu_count() or 1, index.n_shards)
        self._max_workers = int(max_workers)
        self._backend = self._resolve_backend(backend, index)
        self._pool: ProcessPool | None = None
        self._telemetry = (
            telemetry if telemetry is not None and telemetry.enabled else None
        )
        self._events = events
        self._slow_query_threshold = slow_query_threshold
        if fault_injector is not None:
            index.attach_fault_injector(fault_injector)
        if events is not None:
            index.attach_event_log(events)
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

    def _resolve_backend(
        self, requested: str | None, index: ShardedIndex
    ) -> str:
        """Settle the dispatch backend at construction time.

        Explicit argument > :data:`BACKEND_ENV` (only when more than one
        worker was resolved — the env knob widens parallel setups, it
        never un-sequentializes a deliberate single-worker executor) >
        the historical worker-count default.  Unknown names raise either
        way; ``processes`` on an engine with ``replication > 1`` raises
        when asked explicitly and downgrades to ``threads`` when the
        env asked, because the process tier serves from driver-published
        snapshots of each shard's primary and would silently bypass
        replica routing and failover.
        """
        explicit = requested is not None
        backend = requested
        if backend is None and self._max_workers > 1:
            backend = os.environ.get(BACKEND_ENV) or None
        if backend is None:
            return "threads" if self._max_workers > 1 else "sequential"
        if backend not in BACKENDS:
            source = "backend argument" if explicit else BACKEND_ENV
            raise ConfigurationError(
                f"unknown executor backend {backend!r} (from {source}); "
                f"choose from {BACKENDS}"
            )
        if backend == "processes" and index.replication > 1:
            if explicit:
                raise ConfigurationError(
                    f"backend='processes' cannot serve {index.name}: "
                    "process workers read driver-published snapshots and "
                    "would bypass replica routing and failover"
                )
            return "threads"
        return backend

    @property
    def max_workers(self) -> int:
        """Resolved thread pool width (1 = sequential fallback)."""
        return self._max_workers

    @property
    def backend(self) -> str:
        """The resolved dispatch backend (one of :data:`BACKENDS`)."""
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

    def run(self, queries: Sequence[Query | RangeQuery]) -> BatchResult:
        """Execute a batch; returns per-query merged results plus timing.

        Accepts first-class :class:`~repro.queries.query.Query` specs or
        legacy :class:`RangeQuery` windows (normalized to
        intersects/ids).  ``BatchResult.query_results`` carries the full
        per-query payloads; ``results`` keeps the legacy id-array view.

        With a maintenance policy configured, the scheduler is ticked
        once per executed query *after* the batch completes — its
        compaction/rebalancing work happens between batches and is
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
        batch (compaction, rebalancing) lands in the same stats delta —
        window attribution in a TimeSeriesRecorder then lines up with
        the scheduler's spans.
        """
        reg = tel.registry
        reg.histogram(BATCH_SECONDS).record(out.seconds)
        query_hist = reg.histogram(QUERY_SECONDS)
        for result in out.query_results:
            query_hist.record(result.seconds)
        if out.mode != "sequential":
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
        pruned = (
            self._index.n_shards - visited
            if out.mode != "sequential"
            else None
        )
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
                shards_pruned=pruned,
                shard_seconds=out.shard_seconds,
                route_seconds=out.route_seconds,
                fanout_seconds=out.fanout_seconds,
                merge_seconds=out.merge_seconds,
            )

    @staticmethod
    def _ids_of(result: QueryResult) -> np.ndarray:
        """The legacy id-array view of a result (empty for count-only)."""
        if result.ids is None:
            return np.empty(0, dtype=np.int64)
        return result.ids

    def _run_batch(
        self, queries: Sequence[Query | RangeQuery]
    ) -> BatchResult:
        index = self._index
        if not index.is_built:
            index.build()
        queries = [as_query(q) for q in queries]
        t0 = time.perf_counter()
        if self._backend == "sequential":
            # The engine's native sequential batch: routing happens inside
            # execute_batch (a second pass here would double-count the
            # prune counters), so shard_queries stays zeroed.
            query_results = index.execute_batch(queries)
            out = BatchResult(
                results=[self._ids_of(r) for r in query_results],
                query_results=query_results,
                mode="sequential",
                workers=1,
                shard_queries=[0] * index.n_shards,
                shard_seconds=[0.0] * index.n_shards,
            )
            out.seconds = time.perf_counter() - t0
            return out
        # Threads and processes share one shape — route on this thread,
        # serve one sub-batch per shard, merge on this thread — and differ
        # only in who does the per-shard labor.
        queues = self._route(queries)
        t_routed = time.perf_counter()
        if self._backend == "processes":
            # shard_seconds carry the worker-measured in-process
            # wall-clock, so skew stays observable across the boundary.
            pool = self._ensure_pool()
            workers, mode = pool.n_workers, "processes"
            served = pool.run_batch(queries, queues)
        else:
            workers, mode = max(1, self._max_workers), "parallel"
            served = self._run_parallel(queries, queues, workers)
        return self._finish_fanout(queries, served, mode, workers, t0, t_routed)

    def _route(self, queries: list[Query]) -> dict[int, list[int]]:
        """Route every query onto shard queues, on the calling thread.

        Shared by the thread and process backends: prune counters and
        the epoch check stay single-threaded, and each shard receives
        its queue in batch order.
        """
        index = self._index
        index._check_epoch()
        queues: dict[int, list[int]] = {}
        for i, q in enumerate(queries):
            # The same dimension gate index.execute() applies — a wrong-d
            # window must raise here too, not broadcast into a nonsense
            # prune mask.
            if q.ndim != index.store.ndim:
                raise QueryError(
                    f"query has {q.ndim} dims, store has {index.store.ndim}"
                )
            for shard in index.plan_shards(q):
                queues.setdefault(shard.sid, []).append(i)
        return queues

    def _run_parallel(
        self, queries: list[Query], queues: dict[int, list[int]], workers: int
    ) -> dict[int, tuple[list[int], list[QueryResult], float]]:
        """The thread backend's labor: one timed task per routed shard."""
        shards = self._index.shards

        def work(
            shard: Shard, idxs: list[int]
        ) -> tuple[list[int], list[QueryResult], float]:
            # One task per shard per batch: the whole sub-batch goes
            # through the shard index's native execute_batch, so shard
            # indexes batch their own candidate matrices / merges.  Each
            # task times itself — pool queueing excluded, so the numbers
            # expose shard skew rather than dispatch order.
            # serving_index() is the replication seam: the shard picks
            # its least-loaded live replica here, once per shard per
            # batch, so the chosen replica stays single-threaded for the
            # whole sub-batch.
            w0 = time.perf_counter()
            sub = shard.serving_index().execute_batch(
                [queries[i] for i in idxs]
            )
            return idxs, sub, time.perf_counter() - w0

        with ThreadPoolExecutor(max_workers=workers) as pool:
            futures = [
                (sid, pool.submit(work, shards[sid], idxs))
                for sid, idxs in queues.items()
            ]
            return {sid: future.result() for sid, future in futures}

    def _finish_fanout(
        self,
        queries: list[Query],
        served: dict[int, tuple[list[int], list[QueryResult], float]],
        mode: str,
        workers: int,
        t0: float,
        t_routed: float,
    ) -> BatchResult:
        """The shared tail of the thread and process backends.

        ``served`` maps shard id to ``(query indexes, sub-batch results,
        worker seconds)``.  Merging is shared with the engine's native
        sequential batch: counters, equal-share seconds, and the
        post-merge wall-clock capture all live in ``_assemble_batch``.
        """
        t_joined = time.perf_counter()
        index = self._index
        partials: dict[int, list[QueryResult]] = {}
        shard_queries = [0] * index.n_shards
        shard_seconds = [0.0] * index.n_shards
        for sid, (idxs, sub, seconds) in served.items():
            shard_queries[sid] = len(idxs)
            shard_seconds[sid] = seconds
            for i, res in zip(idxs, sub):
                partials.setdefault(i, []).append(res)
        query_results = index._assemble_batch(queries, partials, t0)
        t_done = time.perf_counter()
        return BatchResult(
            results=[self._ids_of(r) for r in query_results],
            query_results=query_results,
            seconds=t_done - t0,
            mode=mode,
            workers=workers,
            shard_queries=shard_queries,
            shard_seconds=shard_seconds,
            route_seconds=t_routed - t0,
            fanout_seconds=t_joined - t_routed,
            merge_seconds=t_done - t_joined,
        )

    def _ensure_pool(self) -> ProcessPool:
        """The persistent process pool, created on first process batch.

        Lazy on purpose: the sequential and thread backends never pay
        the multiprocessing import, and the pool forks only after the
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

        Idempotent; the sequential and thread backends hold nothing, so
        this is a no-op for them.  After closing, the next process-mode
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
