"""The worker process: take shard bases, absorb deltas, serve sub-batches.

One :func:`worker_main` loop runs per pool process.  A worker owns a
fixed subset of shards (dispatch is ``sid % n_workers``, so a shard is
only ever cracked by a single process — shard affinity extends across
the process boundary) and keeps, per owned shard, one
:class:`~repro.core.quasii.QuasiiIndex` over a store of views into the
base buffer it received (:func:`~repro.parallel.shm.segment_store`),
which keeps *cracking adaptively* from batch to batch and **across
writes** — the warm structure is the whole point of a persistent pool.
The index is built by :func:`~repro.sharding.shard.build_index` from
the ``config`` and ``max_runs`` the base's
:class:`~repro.parallel.shm.SegmentSpec` carries, exactly as the
driver builds its shard's.

A ``batch`` message holds every shard the worker is owed this round.
Besides its queries each carries an optional base segment (the shard's
previous index is dropped and a fresh one built over the new base), an
optional :class:`~repro.parallel.shm.ShardDelta` (the driver shard's
mutations since the previous batch, replayed in order through the
index's public, validating ``insert`` / ``delete`` / ``compact`` — the
same update buffer -> appended run -> tombstone -> compaction-remap
path an in-driver index takes, nothing bespoke), and the driver shard's
``owned_count``, which the worker's live + staged rows must equal
before it serves: a lost or misapplied delta is an ``err`` reply, never
a wrong answer.  Replies carry the result wire plus the sub-batch's
telemetry: fresh per-batch
:class:`~repro.telemetry.metrics.LatencyHistogram` instances (merged
into the driver registry after every batch) and the index work-counter
deltas (folded into the engine's ``IndexStats``), so a process-backend
run is observable exactly like a sequential-backend one.
"""

from __future__ import annotations

import time
from typing import Any, Protocol

import numpy as np

from repro.core.quasii import QuasiiIndex
from repro.errors import ParallelError
from repro.index.base import WORK_COUNTERS
from repro.parallel.shm import SegmentSpec, ShardDelta, segment_store
from repro.parallel.wire import (
    QueryBatchWire,
    decode_queries,
    encode_results,
)
from repro.sharding.shard import build_index
from repro.telemetry.metrics import LatencyHistogram
from repro.telemetry.naming import WORKER_BATCH_SECONDS, WORKER_QUERY_SECONDS

__all__ = ["PipeEndpoint", "ProcessShardWorker", "worker_main"]


class PipeEndpoint(Protocol):
    """The duplex-pipe surface the serving protocol needs.

    Structural on purpose: naming
    :class:`multiprocessing.connection.Connection` in annotations ties
    the code to a typeshed revision (the class grew type parameters),
    while every real pipe end satisfies this protocol unchanged.
    """

    def send(self, obj: Any) -> None: ...

    def recv(self) -> Any: ...

    def close(self) -> None: ...


def _build(base: tuple[SegmentSpec, np.ndarray]) -> QuasiiIndex:
    """The warm local index over a received base, as its spec
    describes it."""
    spec, packed = base
    return build_index(segment_store(spec, packed), spec.config, spec.max_runs)


def _absorb(
    index: QuasiiIndex, delta: ShardDelta | None, owned_count: int
) -> None:
    """Replay the driver shard's mutations; prove the copies agree
    (:class:`ParallelError` unless ``index`` then owns exactly
    ``owned_count`` rows)."""
    if delta is not None:
        if delta.rows is not None:
            rows = segment_store(*delta.rows)
        at_row = at_id = 0
        for kind, size in delta.ops:
            if kind == "insert":
                cut = slice(at_row, at_row + size)
                index.insert(rows.lo[cut], rows.hi[cut], rows.ids[cut])
                at_row += size
            elif kind == "delete":
                index.delete(delta.deleted[at_id : at_id + size])
                at_id += size
            else:
                index.compact()
    store = index.store
    owned = store.live_count + store.staged_count
    if owned != owned_count:
        raise ParallelError(
            f"shard copy owns {owned} rows, the driver's {owned_count}"
        )


def _serve(
    index: QuasiiIndex, wire: QueryBatchWire
) -> tuple[object, float, dict[str, LatencyHistogram], dict[str, int]]:
    """Execute one sub-batch on a shard's warm local index."""
    queries = decode_queries(wire)
    before = index.stats.snapshot()
    w0 = time.perf_counter()
    results = index.execute_batch(queries)
    batch_seconds = time.perf_counter() - w0
    batch_hist = LatencyHistogram()
    batch_hist.record(batch_seconds)
    query_hist = LatencyHistogram()
    for result in results:
        query_hist.record(result.seconds)
    delta = index.stats.delta_since(before)
    work = {name: int(getattr(delta, name)) for name in WORK_COUNTERS}
    reply = encode_results(results, index.store.ndim)
    hists = {
        WORKER_BATCH_SECONDS: batch_hist,
        WORKER_QUERY_SECONDS: query_hist,
    }
    return reply, batch_seconds, hists, work


def worker_main(conn: PipeEndpoint, wid: int) -> None:
    """The worker process entry point (must stay module-level so the
    ``spawn`` start method can import it by qualified name).

    Protocol (requests -> replies, all plain picklable tuples):

    * ``("batch", [(sid, base | None, delta | None, owned_count,
      QueryBatchWire), ...])`` -> one list with, per shard in order,
      ``("ok", sid, ResultBatchWire, batch_seconds, hists, work)`` or
      ``("err", sid, message)``.  A non-``None`` base
      (``(SegmentSpec, packed rows)``) switches the shard to it first;
      then the delta is applied and the owned-row count checked
      (:func:`_absorb`).
    * ``("shutdown",)`` -> ``("bye", wid)`` and the loop exits.

    A worker never exits on a per-shard failure — errors are reported
    to the driver, which decides whether to raise; only a lost pipe
    (driver gone) or a shutdown message ends the loop.
    """
    indexes: dict[int, QuasiiIndex] = {}
    try:
        while True:
            try:
                msg = conn.recv()
            except (EOFError, OSError):  # driver went away
                break
            if msg[0] == "shutdown":
                conn.send(("bye", wid))
                break
            replies: list[tuple[Any, ...]] = []
            for sid, base, delta, owned_count, wire in msg[1]:
                try:
                    if base is not None:
                        # Let go of the old copy before building the new.
                        indexes.pop(sid, None)
                        indexes[sid] = _build(base)
                    index = indexes.get(sid)
                    if index is None:
                        raise RuntimeError(
                            f"worker {wid} has no base for shard {sid}"
                        )
                    _absorb(index, delta, owned_count)
                    reply, batch_seconds, hists, work = _serve(index, wire)
                # The serving loop's one broad catch: any failure must
                # reach the driver as an error reply, not kill the
                # worker and strand the rest of the batch.
                except Exception as exc:  # ql: allow[QL006]
                    replies.append(("err", sid, f"{type(exc).__name__}: {exc}"))
                    continue
                replies.append(("ok", sid, reply, batch_seconds, hists, work))
            conn.send(replies)
    finally:
        conn.close()


class ProcessShardWorker:
    """Driver-side handle for one worker process."""

    __slots__ = ("wid", "process", "conn")

    def __init__(self, wid: int, process: object, conn: PipeEndpoint) -> None:
        self.wid = wid
        self.process = process
        self.conn = conn

    @property
    def pid(self) -> int | None:
        """OS pid of the worker process (``None`` before start)."""
        pid = getattr(self.process, "pid", None)
        return int(pid) if pid is not None else None

    def is_alive(self) -> bool:
        alive = getattr(self.process, "is_alive", None)
        return bool(alive()) if alive is not None else False
