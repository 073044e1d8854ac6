"""Shared-memory segments: zero-copy shard rows across processes.

The process-parallel serving tier re-homes each shard's column data in
POSIX shared memory so worker processes read (and crack) it without a
single row ever crossing a pipe.  A *segment* is one
:class:`~multiprocessing.shared_memory.SharedMemory` block holding
**packed live rows** — the ``(n, d)`` lower/upper corner matrices
followed by the id vector, gathered at publish time — and comes in two
kinds, made by the same :func:`publish_segment` and attached through
the same :meth:`SharedStoreView.attach`:

* A **base segment** is a shard's whole live multiset at publish
  (:meth:`SharedStoreView.live_fingerprint` digests exactly that;
  tombstones are simply not shipped).  The worker-side
  :class:`~repro.datasets.store.BoxStore` over it starts at epoch 0
  with every row live — a valid store by construction — and the owning
  worker builds its warm index there.
* A **delta segment** holds only the rows inserted into a shard since
  its previous batch (:func:`publish_delta`): a write ships what it
  wrote.  The worker copies them out and lets go at once; the driver
  destroys the segment when the batch ends.

The driver never writes into a published segment.  The owning worker
cracks its base in place — exactly one worker serves a given shard, and
permutation preserves the multiset invariant — until an absorbed delta
outgrows the mapping and the store moves to private buffers
(:class:`~repro.datasets.store.BoxStore` never resizes arrays it was
handed).  The driver creates and unlinks every segment
(:meth:`ShardSegment.destroy`; :func:`publish_segment` unlinks one it
fails to fill); unlinking a segment a worker still maps is safe on
POSIX, which is what lets old bases retire without a handshake.

Python < 3.13 registers *attached* segments with the resource tracker
as if the attaching process owned them.  What that requires depends on
whose tracker the attaching process writes to:

* **Shared tracker** (every pool worker: fork/forkserver children
  inherit the driver tracker's pipe fd, spawn children receive it via
  multiprocessing's preparation data) — the attach-register is an
  idempotent set-add in the *driver's* tracker, and unregistering
  would strip the driver's own registration, turning its eventual
  ``unlink()`` into a tracker ``KeyError``.  Attachments must be left
  registered.
* **Private tracker** (a genuinely foreign process attaching by name
  from outside the driver's process tree) — its exit-time "leak"
  cleanup would unlink driver-owned segments, so the attachment must
  be unregistered immediately (the 3.13 ``track=`` parameter made
  this idiom official).

Callers therefore tell :func:`attach_segment` which case they are
(``tracker_shared``); the pool also starts the driver's tracker
*before* forking any worker, or early workers would spin up private
trackers and land in the second case by accident.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from multiprocessing import resource_tracker
from multiprocessing.shared_memory import SharedMemory

import numpy as np

from repro.datasets.store import BoxStore
from repro.errors import ParallelError
from repro.updates.ledger import LedgerOp

__all__ = [
    "SegmentSpec",
    "ShardDelta",
    "ShardSegment",
    "SharedStoreView",
    "attach_segment",
    "publish_delta",
    "publish_segment",
    "segment_nbytes",
]

_FLOAT = np.dtype(np.float64)
_INT = np.dtype(np.int64)


@dataclass(frozen=True)
class SegmentSpec:
    """Everything a worker needs to map one shard snapshot.

    Strings and integers only — picklable by construction (QL008), and
    small enough that shipping one per refresh is noise next to the
    rows it describes.

    Attributes
    ----------
    name:
        The OS-level shared-memory name (attach key).
    sid:
        Owning shard id.
    version:
        Monotonic per-shard base version; bumped on every full
        republish (a delta segment carries the version of its base).
    n_rows:
        Packed live rows in the segment.
    ndim:
        Box dimensionality.
    epoch:
        The source store's epoch at publish time (diagnostic only).
    """

    name: str
    sid: int
    version: int
    n_rows: int
    ndim: int
    epoch: int


def segment_nbytes(n_rows: int, ndim: int) -> int:
    """Payload bytes for a packed snapshot: lo + hi + ids."""
    return 2 * n_rows * ndim * _FLOAT.itemsize + n_rows * _INT.itemsize


def _layout(
    buf: memoryview, n_rows: int, ndim: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The three column views over a segment buffer (zero-copy)."""
    corner = n_rows * ndim * _FLOAT.itemsize
    lo = np.ndarray((n_rows, ndim), dtype=_FLOAT, buffer=buf, offset=0)
    hi = np.ndarray((n_rows, ndim), dtype=_FLOAT, buffer=buf, offset=corner)
    ids = np.ndarray((n_rows,), dtype=_INT, buffer=buf, offset=2 * corner)
    return lo, hi, ids


def publish_segment(
    store: BoxStore, sid: int, version: int
) -> tuple[SegmentSpec, SharedMemory]:
    """Snapshot a store's live rows into a fresh shared-memory segment.

    Driver-side half of the protocol.  Gathers the live rows (packed,
    tombstones dropped) into a newly created segment and returns the
    spec plus the owning handle — the caller keeps the handle so it can
    later :meth:`~multiprocessing.shared_memory.SharedMemory.unlink`
    the segment (see :class:`ShardSegment`).
    """
    rows = store.live_rows()
    n_rows = int(rows.size)
    ndim = store.ndim
    # A zero-byte segment is rejected by the OS; one spare byte keeps
    # the empty-shard snapshot representable with the same layout.
    shm = SharedMemory(create=True, size=max(1, segment_nbytes(n_rows, ndim)))
    try:
        lo, hi, ids = _layout(shm.buf, n_rows, ndim)
        try:
            lo[:] = store.lo[rows]
            hi[:] = store.hi[rows]
            ids[:] = store.ids[rows]
        finally:
            # The mapping cannot close while a view of it is alive.
            del lo, hi, ids
    # Cleanup-and-reraise, whatever was raised: no name may outlive a
    # failed publish, and nobody else holds this one.
    except BaseException:  # ql: allow[QL006]
        shm.close()
        shm.unlink()
        raise
    spec = SegmentSpec(
        name=shm.name,
        sid=sid,
        version=version,
        n_rows=n_rows,
        ndim=ndim,
        epoch=store.epoch,
    )
    return spec, shm


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
    rows: SegmentSpec | None
    deleted: np.ndarray


def publish_delta(
    log: Sequence[LedgerOp], sid: int, version: int
) -> tuple[ShardDelta, SharedMemory | None]:
    """Pack a shard's op log (:attr:`~repro.sharding.shard.Shard.oplog`)
    for its worker; the caller destroys the returned row segment
    (``None`` without inserts) once the worker has replied."""
    los = [lo for _, lo, _, _ in log if lo is not None]
    his = [hi for _, _, hi, _ in log if hi is not None]
    inserted = [ids for kind, _, _, ids in log if kind == "insert"]
    deleted = [ids for kind, _, _, ids in log if kind == "delete"]
    spec: SegmentSpec | None = None
    shm: SharedMemory | None = None
    if inserted:
        rows = BoxStore(
            np.concatenate(los), np.concatenate(his), np.concatenate(inserted)
        )
        spec, shm = publish_segment(rows, sid, version)
    delta = ShardDelta(
        ops=tuple((op[0], int(op[3].size)) for op in log),
        rows=spec,
        deleted=np.concatenate(deleted) if deleted else np.empty(0, dtype=_INT),
    )
    return delta, shm


def attach_segment(
    spec: SegmentSpec, tracker_shared: bool = False
) -> SharedMemory:
    """Map an existing segment by spec (worker-side attach).

    With ``tracker_shared=False`` (a foreign attacher running its own
    resource tracker) the mapping is unregistered immediately:
    ownership — and the unlink duty — stays with the driver, and the
    attacher's exit must neither warn about nor destroy a segment it
    only borrowed.  With ``tracker_shared=True`` (pool workers, which
    write to the *driver's* tracker under every start method) the
    registration is left alone — it lands as a set-level no-op
    driver-side, and removing it would instead cancel the driver's own
    registration out from under its ``unlink()``.
    """
    shm = SharedMemory(name=spec.name, create=False)
    if not tracker_shared:
        # The private _name carries the tracker's registration key (the
        # public .name strips the platform prefix on some systems).
        resource_tracker.unregister(shm._name, "shared_memory")  # type: ignore[attr-defined]  # noqa: SLF001
    return shm


class SharedStoreView:
    """A worker's zero-copy :class:`BoxStore` over a mapped segment.

    The store's ``lo``/``hi``/``ids`` columns are numpy views directly
    into the shared mapping — no copy is made on attach, so a worker's
    memory cost per shard is one ``live`` mask plus index structures
    until an absorbed delta outgrows the base.  The store discipline
    holds end to end:

    * **Live-multiset invariant** — a base view holds exactly the
      source shard's live rows at publish; queries only permute it, and
      the worker mutates it only by replaying the driver shard's own op
      log through ``insert`` / ``delete`` / ``compact``, so
      :meth:`live_fingerprint` equals the driver-side shard's after
      every applied delta.
    * **Epoch discipline** — the store starts at epoch 0 and every
      mutation reaches it through the index built over it, which
      therefore keeps its ``_check_epoch`` contract.
    """

    __slots__ = ("spec", "_shm", "_store")

    def __init__(self, spec: SegmentSpec, shm: SharedMemory) -> None:
        if spec.ndim < 1:
            raise ParallelError(f"segment {spec.name} has ndim {spec.ndim}")
        need = segment_nbytes(spec.n_rows, spec.ndim)
        if shm.size < need:
            raise ParallelError(
                f"segment {spec.name} holds {shm.size} bytes, spec needs "
                f"{need}"
            )
        self.spec = spec
        self._shm = shm
        lo, hi, ids = _layout(shm.buf, spec.n_rows, spec.ndim)
        # BoxStore's ascontiguousarray pass-through keeps these exact
        # views (C-contiguous float64/int64 already), so the store is
        # genuinely zero-copy over the mapping.
        self._store = BoxStore(lo, hi, ids)

    @classmethod
    def attach(
        cls, spec: SegmentSpec, tracker_shared: bool = False
    ) -> SharedStoreView:
        """Map the segment named by ``spec`` and wrap it (worker-side)."""
        return cls(spec, attach_segment(spec, tracker_shared))

    @property
    def store(self) -> BoxStore:
        """The zero-copy store (mutate it only through an index over it)."""
        return self._store

    def live_fingerprint(self) -> bytes:
        """Digest of the snapshot's live ``(id, box)`` multiset."""
        return self._store.live_fingerprint()

    def close(self) -> None:
        """Drop the mapping.  The caller must have dropped every index
        built over :attr:`store` first — a numpy view still referencing
        the buffer makes the underlying mmap close a no-op until GC."""
        # Release our own views before closing, or SharedMemory.close()
        # raises BufferError on the exported memoryview.
        self._store = None  # type: ignore[assignment]
        self._shm.close()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"SharedStoreView(sid={self.spec.sid}, v{self.spec.version}, "
            f"rows={self.spec.n_rows})"
        )


class ShardSegment:
    """Driver-side record of one published segment (the owning handle).

    A base also remembers the shard's primary
    :class:`~repro.datasets.store.BoxStore` it was published from: a
    rebalance rebuild or a failover puts another store in its place, and
    with it every row's physical identity — what no delta can describe.
    """

    __slots__ = ("spec", "shm", "store_token")

    def __init__(
        self, spec: SegmentSpec, shm: SharedMemory, store_token: BoxStore | None
    ) -> None:
        self.spec = spec
        self.shm = shm
        self.store_token = store_token

    def destroy(self) -> None:
        """Close the driver's mapping and unlink the OS object.

        A worker still mapping it keeps serving from its mapping; the
        name is gone from ``/dev/shm`` immediately (the cleanup tests
        assert it).
        """
        self.shm.close()
        self.shm.unlink()
