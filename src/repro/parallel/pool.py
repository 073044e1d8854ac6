"""The persistent process pool: bases, deltas, dispatch, recovery.

:class:`ProcessPool` is the driver half of the process backend.  It
spawns its workers **once** (fork-preferred — see
:func:`_start_method`) and keeps them warm across batches *and
across writes*.  Shard ``sid`` always goes to worker ``sid % n_workers``
(one process cracks a given shard, ever); per batch and touched shard
the pool:

1. **Brings the worker's copy up to date** (:meth:`ProcessPool._sync`).
   The first touch publishes the shard's *base segment* and arms its op
   log (:attr:`~repro.sharding.shard.Shard.oplog`); afterwards the log
   is drained into a :class:`~repro.parallel.shm.ShardDelta` — inserted
   rows in a small delta segment, deleted ids and compaction markers in
   the message — which the worker replays on its warm index: a write
   costs what it changed.  A full publish recurs only where physical
   identity changes or the worker's state is gone: another shard store
   (a rebalance rebuild), a respawned worker, one that answered
   ``err``, a log that outgrew its base.  The driver's
   shard store, flushed on every sync, stays the authoritative copy; no
   delta history is kept.
2. **Dispatches and collects** — sends the sub-batch, decodes result
   wires into :class:`~repro.queries.query.QueryResult` lists, absorbs
   the workers' histograms into the driver registry, folds their
   work-counter deltas into the engine's ``IndexStats``, and destroys
   the batch's delta segments whether it returns or raises.

A worker that dies mid-service (OOM kill, SIGKILL, segfault) surfaces
as a broken pipe on send or EOF on recv; the pool respawns it, forgets
the bases it had attached, re-dispatches what it still owed (with new
bases, cut from the driver's current state) and emits
``worker.respawn`` — the batch completes with no caller-visible
difference.  Only a worker that keeps dying faster than it can be
respawned raises :class:`~repro.errors.ParallelError`.  The op logs
have one consumer: a second live pool over an armed engine is refused
at its first publish, and :meth:`ProcessPool.close` disarms what it
armed.
"""

from __future__ import annotations

import multiprocessing
import time
from multiprocessing import resource_tracker
from typing import TYPE_CHECKING, Any

from repro.errors import ConfigurationError, ParallelError
from repro.index.base import WORK_COUNTERS
from repro.parallel.shm import (
    SegmentSpec,
    ShardDelta,
    ShardSegment,
    publish_delta,
    publish_segment,
)
from repro.parallel.wire import QueryBatchWire, decode_results, encode_queries
from repro.parallel.worker import ProcessShardWorker, worker_main
from repro.telemetry.naming import WORKER_DISPATCHES, WORKER_RESPAWNS

if TYPE_CHECKING:
    from repro.queries.query import Query, QueryResult
    from repro.sharding.sharded_index import ShardedIndex
    from repro.telemetry import Telemetry
    from repro.telemetry.events import EventLog

__all__ = ["WORKER_NAME_PREFIX", "ProcessPool"]

#: Pipe-level failures that mean "the worker process is gone".
_PIPE_ERRORS = (BrokenPipeError, ConnectionResetError, EOFError, OSError)

#: Respawns tolerated for one worker within one batch before giving up.
_MAX_RESPAWNS_PER_BATCH = 3

#: Worker ``wid``'s process name is this prefix plus the wid.
WORKER_NAME_PREFIX = "quasii-shard-worker-"


def _start_method() -> str:
    """The pool's multiprocessing start method: ``fork`` when the
    platform offers it (workers inherit the imported modules for free —
    spawn pays a full interpreter boot and re-import per worker), else
    the platform default."""
    if "fork" in multiprocessing.get_all_start_methods():
        return "fork"
    return multiprocessing.get_start_method()


class ProcessPool:
    """A persistent pool of shard-serving worker processes.

    Parameters
    ----------
    index:
        The driver-side engine.  The pool never mutates it beyond
        flushing shard update buffers and arming/draining shard op
        logs; all update verbs stay driver-side.
    n_workers:
        Worker process count (>= 1).
    telemetry:
        Optional driver telemetry; worker histograms are absorbed into
        its registry after every batch and ``worker.*`` counters land
        there too.
    events:
        Optional event log for ``worker.spawn`` / ``worker.respawn`` /
        ``worker.refresh`` / ``worker.delta``.
    """

    def __init__(
        self,
        index: ShardedIndex,
        n_workers: int,
        telemetry: Telemetry | None = None,
        events: EventLog | None = None,
    ) -> None:
        # Teardown state first: __del__ runs even when construction
        # raises below, and close() must find a coherent (empty) pool.
        self._segments: dict[int, ShardSegment] = {}
        #: Delta segments of the batch in flight (destroyed at its end).
        self._deltas: list[ShardSegment] = []
        self._versions: dict[int, int] = {}
        self._workers: list[ProcessShardWorker] = []
        self._closed = False
        if n_workers < 1:
            raise ConfigurationError(
                f"process pool needs n_workers >= 1, got {n_workers}"
            )
        self._index = index
        self._telemetry = telemetry
        self._events = events
        self.start_method = _start_method()
        self._ctx = multiprocessing.get_context(self.start_method)
        # Start the driver's resource tracker BEFORE forking: a forked
        # worker inherits (and shares) whatever tracker exists at fork
        # time.  Without this, the first worker to attach a segment
        # starts its own private tracker, whose exit-time "leak"
        # cleanup unlinks driver-owned segments when that worker dies —
        # exactly the crash the respawn path must survive.
        resource_tracker.ensure_running()
        self._workers = [self._spawn_worker(wid) for wid in range(n_workers)]

    # ------------------------------------------------------------------
    # Worker lifecycle
    # ------------------------------------------------------------------
    @property
    def n_workers(self) -> int:
        return len(self._workers)

    @property
    def worker_pids(self) -> list[int | None]:
        """Current worker pids, by wid (test/diagnostic hook)."""
        return [w.pid for w in self._workers]

    def _spawn_worker(self, wid: int) -> ProcessShardWorker:
        parent_conn, child_conn = multiprocessing.Pipe(duplex=True)
        # typeshed models contexts without a Process attribute on the
        # base class; the runtime attribute is the whole point of
        # get_context, so fetch it dynamically.
        process_cls: Any = getattr(self._ctx, "Process")  # noqa: B009
        # Workers always share the driver's resource tracker: fork and
        # forkserver children inherit its pipe fd, and spawn children
        # receive it through multiprocessing's preparation data.  Only a
        # genuinely foreign process (attaching by name from outside this
        # process tree) runs its own tracker and would pass False here.
        process = process_cls(
            target=worker_main,
            args=(child_conn, wid, True),
            name=f"{WORKER_NAME_PREFIX}{wid}",
            daemon=True,
        )
        process.start()
        # The parent's copy of the child end must close, or a dead
        # worker would never surface as EOF on recv.
        child_conn.close()
        worker = ProcessShardWorker(wid, process, parent_conn)
        if self._events is not None:
            self._events.emit(
                "worker.spawn",
                wid=wid,
                pid=worker.pid,
                start_method=self.start_method,
            )
        return worker

    def _respawn(self, wid: int, sids: list[int]) -> None:
        """Replace a dead worker and account for the loss."""
        old = self._workers[wid]
        old_pid = old.pid
        try:
            old.conn.close()
        except OSError:  # pragma: no cover - already torn down
            pass
        join = getattr(old.process, "join", None)
        if join is not None:
            join(timeout=1.0)
        replacement = self._spawn_worker(wid)
        self._workers[wid] = replacement
        # What the dead process had attached and absorbed died with it.
        for sid in [s for s in self._segments if s % self.n_workers == wid]:
            self._drop(sid)
        self._count(WORKER_RESPAWNS)
        if self._events is not None:
            self._events.emit(
                "worker.respawn",
                wid=wid,
                old_pid=old_pid,
                new_pid=replacement.pid,
                sids=sorted(sids),
            )

    # ------------------------------------------------------------------
    # Segment lifecycle
    # ------------------------------------------------------------------
    def _drop(self, sid: int) -> None:
        """Forget shard ``sid``'s base — its worker's copy is gone or
        suspect — so the next touch is a first touch again."""
        segment = self._segments.pop(sid, None)
        if segment is not None:
            segment.destroy()
            self._index.shards[sid].oplog = None

    def _sync(
        self, sid: int
    ) -> tuple[SegmentSpec | None, ShardDelta | None, int]:
        """What shard ``sid``'s worker needs before it may serve:
        ``(new base | None, delta | None, rows the shard owns)``.

        Buffered rows are flushed first either way: a base must hold
        every routed row, and a driver store that physically holds every
        row its worker's does also holds every tombstone the worker's
        does — the worker's id gate never refuses what the driver's
        admitted.  A shard whose store is not the one its base was cut
        from (a rebalance rebuilt it), or whose worker lost its copy
        (:meth:`_drop`), gets a new base.
        """
        shard = self._index.shards[sid]
        store = shard.store
        shard.flush_updates()
        segment = self._segments.get(sid)
        log = shard.oplog
        if segment is None and log is not None:
            raise ParallelError(
                f"shard {sid} is already served by another live process "
                "pool; close() that one before serving from a second"
            )
        if segment is not None and segment.store_token is store and log is not None:
            if not log:
                return None, None, shard.owned_count
            # A delta larger than its base is a new base.
            if sum(int(op[3].size) for op in log) <= segment.spec.n_rows:
                delta, shm = publish_delta(log, sid, segment.spec.version)
                log.clear()
                if delta.rows is not None and shm is not None:
                    self._deltas.append(ShardSegment(delta.rows, shm, None))
                if self._events is not None:
                    self._events.emit(
                        "worker.delta",
                        sid=sid,
                        version=segment.spec.version,
                        ops=len(delta.ops),
                        rows=delta.rows.n_rows if delta.rows else 0,
                        bytes=shm.size if shm else 0,
                    )
                return None, delta, shard.owned_count
        self._drop(sid)
        version = self._versions.get(sid, -1) + 1
        self._versions[sid] = version
        spec, shm = publish_segment(
            store, sid, version, self._index.config, self._index.max_runs
        )
        self._segments[sid] = ShardSegment(spec, shm, store)
        shard.oplog = []
        if self._events is not None:
            self._events.emit(
                "worker.refresh",
                sid=sid,
                version=version,
                rows=spec.n_rows,
                epoch=spec.epoch,
            )
        return spec, None, shard.owned_count

    # ------------------------------------------------------------------
    # Serving
    # ------------------------------------------------------------------
    def run_batch(
        self, queries: list[Query], queues: dict[int, list[int]]
    ) -> dict[int, tuple[list[int], list[QueryResult], float]]:
        """Serve one routed batch: ``sid -> (query idxs, results, seconds)``.

        ``queues`` is the executor's routing product (query indexes per
        shard sid).  Returns, per shard, the decoded sub-batch results
        aligned with its index list plus the worker-measured sub-batch
        wall-clock (the ``shard.batch.seconds`` sample).
        """
        if self._closed:
            raise ParallelError("process pool used after close()")
        if not queues:
            return {}
        sub_queries = {
            sid: [queries[i] for i in idxs] for sid, idxs in queues.items()
        }
        wires = {
            sid: encode_queries(sub) for sid, sub in sub_queries.items()
        }
        pending = set(queues)
        try:
            replies = self._dispatch(wires, pending)
        finally:
            while self._deltas:
                self._deltas.pop().destroy()
            # Left unanswered by a failure: the worker's copy may have
            # missed a delta already drained for it.
            for sid in pending:
                self._drop(sid)
        return self._fold_replies(queues, sub_queries, replies)

    def _dispatch(
        self, wires: dict[int, QueryBatchWire], pending: set[int]
    ) -> dict[int, tuple[Any, ...]]:
        """Sync, send and collect until ``pending`` is empty or a worker
        answers ``err`` (raised once the pipes are drained — a reply
        left behind would answer the next batch)."""
        replies: dict[int, tuple[Any, ...]] = {}
        respawns: dict[int, int] = {}
        failure: str | None = None
        while pending and failure is None:
            by_worker: dict[int, list[int]] = {}
            for sid in sorted(pending):
                by_worker.setdefault(sid % self.n_workers, []).append(sid)
            # Sync every shard before sending any: a failed publish (or
            # a refused second pool) then leaves nothing in a pipe.
            synced = {sid: self._sync(sid) for sid in sorted(pending)}
            dead: set[int] = set()
            for wid, sids in by_worker.items():
                worker = self._workers[wid]
                for sid in sids:
                    try:
                        worker.conn.send(
                            ("batch", sid, *synced[sid], wires[sid])
                        )
                    except _PIPE_ERRORS:
                        dead.add(wid)
                        break
                    self._count(WORKER_DISPATCHES)
            for wid, sids in by_worker.items():
                if wid in dead:
                    continue
                worker = self._workers[wid]
                for _ in sids:
                    try:
                        reply = worker.conn.recv()
                    except _PIPE_ERRORS:
                        dead.add(wid)
                        break
                    sid = int(reply[1])
                    if reply[0] == "err":
                        failure = failure or (
                            f"worker {wid} failed on shard {sid}: {reply[2]}"
                        )
                        continue
                    replies[sid] = reply
                    pending.discard(sid)
            for wid in sorted(dead):
                respawns[wid] = respawns.get(wid, 0) + 1
                if respawns[wid] > _MAX_RESPAWNS_PER_BATCH:
                    raise ParallelError(
                        f"worker {wid} died {respawns[wid]} times in one "
                        f"batch; giving up"
                    )
                owed = [s for s in by_worker.get(wid, []) if s in pending]
                self._respawn(wid, owed)
        if failure is not None:
            raise ParallelError(failure)
        return replies

    def _fold_replies(
        self,
        queues: dict[int, list[int]],
        sub_queries: dict[int, list[Query]],
        replies: dict[int, tuple[Any, ...]],
    ) -> dict[int, tuple[list[int], list[QueryResult], float]]:
        """Decode replies and fold worker telemetry into the driver."""
        work_totals = dict.fromkeys(WORK_COUNTERS, 0)
        out: dict[int, tuple[list[int], list[QueryResult], float]] = {}
        for sid, idxs in queues.items():
            _tag, _sid, wire, batch_seconds, hists, work = replies[sid]
            results = decode_results(wire, sub_queries[sid])
            out[sid] = (idxs, results, float(batch_seconds))
            for name in WORK_COUNTERS:
                work_totals[name] += int(work.get(name, 0))
            if self._telemetry is not None:
                for name, hist in hists.items():
                    self._telemetry.registry.histogram(name).absorb(hist)
        stats = self._index.stats
        for name, total in work_totals.items():
            if total:
                setattr(stats, name, getattr(stats, name) + total)
        return out

    def _count(self, name: str, n: int = 1) -> None:
        if self._telemetry is not None:
            self._telemetry.registry.counter(name).inc(n)

    # ------------------------------------------------------------------
    # Teardown
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Shut workers down, destroy every published segment and disarm
        every shard op log this pool armed.

        After this returns no pool-created name remains in the OS
        shared-memory namespace (the cleanup test attaches by name and
        expects ``FileNotFoundError``), and every worker process has
        exited (joined, or terminated if it ignored shutdown).
        """
        if self._closed:
            return
        self._closed = True
        for worker in self._workers:
            if worker.is_alive():
                try:
                    worker.conn.send(("shutdown",))
                except _PIPE_ERRORS:
                    pass
        deadline = time.monotonic() + 5.0
        for worker in self._workers:
            join = getattr(worker.process, "join", None)
            if join is not None:
                join(timeout=max(0.1, deadline - time.monotonic()))
            if worker.is_alive():  # pragma: no cover - stuck worker
                terminate = getattr(worker.process, "terminate", None)
                if terminate is not None:
                    terminate()
                if join is not None:
                    join(timeout=1.0)
            try:
                worker.conn.close()
            except OSError:  # pragma: no cover - already torn down
                pass
        self._workers = []
        for sid in list(self._segments):
            self._drop(sid)

    def __enter__(self) -> ProcessPool:
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - GC-order dependent
        try:
            self.close()
        except (OSError, ValueError):
            pass
