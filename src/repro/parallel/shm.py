"""Packed shard rows: what a worker's base and a delta's inserts carry.

The process tier ships shard rows to a worker by message, inside the
batch it sends that worker (:mod:`repro.parallel.pool`).  A *segment*
is one ``uint8`` buffer holding **packed live rows** — the ``(n, d)``
lower/upper corner matrices followed by the id vector, gathered at
publish time — plus the :class:`SegmentSpec` that describes it.  It
comes in two kinds, made by the same :func:`publish_segment` and read
back by the same :func:`segment_store`:

* A **base** is a shard's whole live multiset at publish (tombstones
  are simply not shipped).  The worker-side
  :class:`~repro.datasets.store.BoxStore` over it starts at epoch 0
  with every row live — a valid store by construction — and the owning
  worker builds its warm index there, from the ``config`` and
  ``max_runs`` its spec carries: the driver's shard index, rebuilt.
* A **delta's rows** are only the rows inserted into a shard since its
  previous batch (:func:`publish_delta`): a write ships what it wrote.

The worker's store is a set of views over the buffer it received, so
the owning worker cracks its base in place — exactly one worker serves
a given shard — until an absorbed delta outgrows it and the store moves
to private buffers (:class:`~repro.datasets.store.BoxStore` never
resizes arrays it was handed).  Nothing here holds an OS resource: a
buffer lives as long as the store over it.

The module keeps the name ``shm`` from when segments were POSIX
shared memory: the layer ledger (``benchmarks/ledger/trace.py``)
traces ``publish_segment`` under this module path.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.core.config import QuasiiConfig
from repro.datasets.store import BoxStore
from repro.errors import ParallelError
from repro.sharding.shard import LedgerOp

__all__ = [
    "SegmentSpec",
    "ShardDelta",
    "publish_delta",
    "publish_segment",
    "segment_nbytes",
    "segment_store",
]

_FLOAT = np.dtype(np.float64)
_INT = np.dtype(np.int64)


@dataclass(frozen=True)
class SegmentSpec:
    """What a worker needs to read one packed shard snapshot.

    Integers only (``config`` is a frozen dataclass of ints) —
    picklable by construction (QL008), and small next to the rows it
    describes.

    Attributes
    ----------
    sid:
        Owning shard id.
    version:
        Monotonic per-shard base version; bumped on every full
        republish (a delta's rows carry the version of their base).
    n_rows:
        Packed live rows in the segment.
    ndim:
        Box dimensionality.
    epoch:
        The source store's epoch at publish time (diagnostic only).
    config, max_runs:
        The engine's shard-index settings, which the worker builds its
        index from (:func:`~repro.sharding.shard.build_index`).
    """

    sid: int
    version: int
    n_rows: int
    ndim: int
    epoch: int
    config: QuasiiConfig | None
    max_runs: int


def segment_nbytes(n_rows: int, ndim: int) -> int:
    """Payload bytes for a packed snapshot: lo + hi + ids."""
    return 2 * n_rows * ndim * _FLOAT.itemsize + n_rows * _INT.itemsize


def _layout(
    buf: np.ndarray, n_rows: int, ndim: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The three column views over a packed buffer (zero-copy)."""
    corner = n_rows * ndim * _FLOAT.itemsize
    lo = np.ndarray((n_rows, ndim), dtype=_FLOAT, buffer=buf, offset=0)
    hi = np.ndarray((n_rows, ndim), dtype=_FLOAT, buffer=buf, offset=corner)
    ids = np.ndarray((n_rows,), dtype=_INT, buffer=buf, offset=2 * corner)
    return lo, hi, ids


def publish_segment(
    store: BoxStore, sid: int, version: int,
    config: QuasiiConfig | None = None, max_runs: int = 8,
) -> tuple[SegmentSpec, np.ndarray]:
    """Pack a store's live rows (tombstones dropped) into a fresh
    ``uint8`` buffer; return its spec, which carries the index
    settings, and the buffer."""
    rows = store.live_rows()
    n_rows = int(rows.size)
    ndim = store.ndim
    packed = np.empty(segment_nbytes(n_rows, ndim), dtype=np.uint8)
    lo, hi, ids = _layout(packed, n_rows, ndim)
    lo[:] = store.lo[rows]
    hi[:] = store.hi[rows]
    ids[:] = store.ids[rows]
    spec = SegmentSpec(
        sid=sid,
        version=version,
        n_rows=n_rows,
        ndim=ndim,
        epoch=store.epoch,
        config=config,
        max_runs=max_runs,
    )
    return spec, packed


def segment_store(spec: SegmentSpec, packed: np.ndarray) -> BoxStore:
    """A worker's :class:`BoxStore` over a received segment's buffer.

    The store's ``lo``/``hi``/``ids`` columns are views into ``packed``
    (``BoxStore`` keeps C-contiguous float64/int64 arrays as handed in),
    so the store is zero-copy over the buffer and cracks it in place.
    """
    if spec.ndim < 1:
        raise ParallelError(f"shard {spec.sid} segment has ndim {spec.ndim}")
    need = segment_nbytes(spec.n_rows, spec.ndim)
    if packed.nbytes < need:
        raise ParallelError(
            f"shard {spec.sid} segment holds {packed.nbytes} bytes, spec "
            f"needs {need}"
        )
    return BoxStore(*_layout(packed, spec.n_rows, spec.ndim))


@dataclass(frozen=True)
class ShardDelta:
    """One shard's drained op log, as it rides a batch message.

    The worker replays ``ops`` — ``(kind, size)`` per log entry — in
    order (a delete may name a row inserted two entries earlier; a
    compaction is what frees a deleted id for reuse): ``"insert"`` takes
    the next ``size`` rows of the ``rows`` segment (``None`` when
    nothing was inserted), ``"delete"`` the next ``size`` ids of
    ``deleted``, ``"compact"`` nothing.
    """

    ops: tuple[tuple[str, int], ...]
    rows: tuple[SegmentSpec, np.ndarray] | None
    deleted: np.ndarray


def publish_delta(
    log: Sequence[LedgerOp], sid: int, version: int
) -> ShardDelta:
    """Pack a shard's op log (:attr:`~repro.sharding.shard.Shard.oplog`)
    for its worker."""
    los = [lo for _, lo, _, _ in log if lo is not None]
    his = [hi for _, _, hi, _ in log if hi is not None]
    inserted = [ids for kind, _, _, ids in log if kind == "insert"]
    deleted = [ids for kind, _, _, ids in log if kind == "delete"]
    rows = None
    if inserted:
        rows = publish_segment(
            BoxStore(
                np.concatenate(los), np.concatenate(his),
                np.concatenate(inserted),
            ),
            sid,
            version,
        )
    return ShardDelta(
        ops=tuple((op[0], int(op[3].size)) for op in log),
        rows=rows,
        deleted=np.concatenate(deleted) if deleted else np.empty(0, dtype=_INT),
    )
