"""The one interleaving strategy the mutation property suites share.

``test_prop_{updates,compaction,sharding,backends}``
all drive an initial dataset through a Hypothesis-drawn interleaving of
queries and mutations; they differ only in which extra op kinds they mix
in and how long the streams get.  This module is the single place that
draws the stream — and the single place that constructs the queries.
A drawn flag puts every box and window corner on a coarse integer
lattice (multiples of :data:`LATTICE`), where a box edge that lies
exactly on a window edge or on a slice or shard bound is common rather
than a measure-zero event; the suites
check each answer against :func:`tests.ledger.closed_box_ids`, a
closed-interval predicate that shares no code with the engine or with
``ScanIndex``, so an open comparison on a boundary fails there even
where Scan's own kernel is the one that went wrong.  It also holds
:func:`shard_union`, the engine-level store the sharded suites check
their ledgers and fingerprints against, :func:`sigkill_worker`, the one
failure the serving tier survives, and :func:`pid_alive`, which checks
that no worker outlives its pool.
"""

from __future__ import annotations

import os
import signal

import numpy as np
from hypothesis import strategies as st

from repro.datasets import BoxStore
from repro.geometry import Box
from repro.queries import Query

UNIVERSE_SIDE = 100.0

#: The op mix every suite starts from (queries twice as likely).
BASE_KINDS = ("query", "query", "insert", "delete")

#: ``(predicate, mode, k)`` of the paper's window query.
WINDOW_SHAPES = (("intersects", "ids", None),)

SEEDS = st.integers(0, 2**31 - 1)

#: Lattice step: eleven values per axis over the universe, so equal
#: coordinates are frequent at the suites' 2..60 rows.
LATTICE = 10.0


def _on_lattice(values: np.ndarray) -> np.ndarray:
    return np.round(values / LATTICE) * LATTICE


@st.composite
def dataset_and_ops(
    draw,
    kinds=BASE_KINDS,
    payloads=None,
    query_shapes=WINDOW_SHAPES,
    min_rows=2,
    max_rows=60,
    max_ops=12,
    max_delete=4,
    ndim=2,
):
    """Draw ``((lo, hi), ops)``: a dataset plus an op interleaving.

    ``ops`` is a list of ``(kind, payload)`` with ``kind`` sampled from
    ``kinds``:

    * ``"query"`` — a :class:`Query` whose shape is sampled from
      ``query_shapes`` and whose ``seq`` is its position among the
      stream's queries;
    * ``"insert"`` — a ``(lo, hi)`` pair of corner matrices;
    * ``"delete"`` — ``(count, victim_seed)``, resolved by the suite
      against its ledger;
    * anything else — drawn from ``payloads[kind]`` when the suite
      supplies a strategy for it, ``None`` otherwise.

    When the drawn lattice flag is set, every corner is rounded to a
    multiple of :data:`LATTICE`.
    """
    payloads = payloads or {}
    n = draw(st.integers(min_rows, max_rows))
    rng = np.random.default_rng(draw(SEEDS))
    snap = _on_lattice if draw(st.booleans()) else np.asarray
    lo = snap(rng.uniform(0, UNIVERSE_SIDE, size=(n, ndim)))
    hi = np.minimum(snap(lo + rng.uniform(0, 10, size=(n, ndim))), UNIVERSE_SIDE)

    n_ops = draw(st.integers(1, max_ops))
    ops = []
    n_queries = 0
    for _ in range(n_ops):
        kind = draw(st.sampled_from(kinds))
        if kind == "query":
            predicate, mode, k = draw(st.sampled_from(query_shapes))
            qlo = snap(rng.uniform(-10, UNIVERSE_SIDE, size=ndim))
            qhi = snap(qlo + rng.uniform(0, 60, size=ndim))
            query = Query(
                Box(tuple(qlo), tuple(qhi)),
                predicate=predicate,
                mode=mode,
                k=k,
                seq=n_queries,
            )
            n_queries += 1
            ops.append(("query", query))
        elif kind == "insert":
            k = draw(st.integers(1, 5))
            blo = snap(rng.uniform(0, UNIVERSE_SIDE, size=(k, ndim)))
            bhi = np.minimum(
                snap(blo + rng.uniform(0, 8, size=(k, ndim))), UNIVERSE_SIDE
            )
            ops.append(("insert", (blo, bhi)))
        elif kind == "delete":
            ops.append(("delete", (draw(st.integers(1, max_delete)), draw(SEEDS))))
        elif kind in payloads:
            ops.append((kind, draw(payloads[kind])))
        else:
            ops.append((kind, None))
    return (lo, hi), ops


def full_window(ndim: int) -> Query:
    """A window past the universe on every side: the whole live set."""
    return Query(
        Box((-1.0,) * ndim, (UNIVERSE_SIDE + 1.0,) * ndim), seq=10_000
    )


def shard_union(engine) -> BoxStore:
    """A sharded engine's rows as one store, without flushing anything.

    Every shard's live rows plus the rows its index still holds
    in an update buffer: the engine keeps no unpartitioned copy, so this
    union is what its live ``(id, box)`` multiset means.
    """
    los, his, ids = [], [], []
    for shard in engine.shards:
        store = shard.store
        live = store.live_rows()
        los.append(store.lo[live])
        his.append(store.hi[live])
        ids.append(store.ids[live])
        buffer = getattr(shard.index, "_buffer", None)
        if buffer is not None:
            los.append(buffer._lo)
            his.append(buffer._hi)
            ids.append(buffer.ids)
    return BoxStore(np.concatenate(los), np.concatenate(his), np.concatenate(ids))


def sigkill_worker(executor, wid: int) -> int | None:
    """SIGKILL worker ``wid`` of a ``processes`` executor's pool and wait
    until it is dead; returns its pid.

    The pool notices at its next send to (or receive from) that worker,
    respawns it and republishes its shards from the driver.  A no-op
    (``None``) where there is no live worker to kill: on ``sequential``,
    before the pool's first batch, and while a killed worker awaits its
    respawn.
    """
    pool = executor._pool
    if pool is None or not pool._workers[wid].is_alive():
        return None
    worker = pool._workers[wid]
    pid = worker.pid
    os.kill(pid, signal.SIGKILL)
    worker.process.join(timeout=5.0)
    return pid


def pid_alive(pid: int) -> bool:
    """Whether process ``pid`` still runs; a zombie (exited, not yet
    reaped by whoever inherited it) does not."""
    if not os.path.isdir("/proc"):
        try:
            os.kill(pid, 0)
        except ProcessLookupError:
            return False
        return True
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii") as stat:
            return stat.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False
