"""The in-memory "data array" that every index reorganizes.

The paper stores raw spatial objects in a flat main-memory array and builds
incremental indexes by *physically reordering* that array (Figure 4, middle
row).  :class:`BoxStore` is that array: an ``(n, d)`` pair of coordinate
matrices (lower and upper corners) plus a parallel vector of stable object
identifiers.  Incremental indexes (QUASII, SFCracker, Mosaic) permute rows
in place; static indexes either reorder a copy at build time (SFC, STR
leaf packing) or reference rows by position (grid, R-Tree).

Mutation model
--------------
The store supports exactly four mutations, and every index/test invariant
is phrased against them:

* **Permutation** (:meth:`apply_order_range`) — the cracking primitive.
  Queries may only permute; the multiset of physical rows is invariant
  under any query sequence, which the test suite enforces.
* **Append** (:meth:`append`) — new rows join at the tail with fresh (or
  caller-supplied) identifiers.  Existing row positions never move, so
  position-referencing indexes (grid, R-Tree) stay valid.
* **Tombstone delete** (:meth:`delete_ids`) — rows are marked dead in the
  parallel ``live`` mask but stay physically present, so slice ranges and
  row references stay valid; scans simply skip dead rows.
* **Compaction** (:meth:`compact`) — tombstoned rows are physically
  dropped and live rows slide down in stable order, reclaiming the dead
  space that scans would otherwise pay for forever.  This is the one
  mutation that invalidates physical positions, so it returns an
  old-position → new-position remap; every mutable index must absorb it
  (see :meth:`~repro.index.base.MutableSpatialIndex.on_compaction`), and
  a static index over the store fails its epoch check instead.

The resulting invariant is a *multiset of live rows*: after any
interleaving of queries, appends, deletes, and compactions, the live
``(id, box)`` multiset equals the initial multiset plus appended rows
minus deleted ids — regardless of physical order or tombstone layout.
:meth:`live_fingerprint` digests exactly that multiset (compaction
preserves it by construction); the test suites' update ledger checks
it against the history of applied updates.

Every append/delete/compact batch advances the :attr:`epoch` counter so
indexes holding derived state can cheaply detect staleness.

Storage
-------
The four columns are ``[:n]`` views over *capacity buffers* that
:meth:`append` grows geometrically (:data:`_HEADROOM_SHIFT`), so
absorbing a batch costs O(rows written), not O(store).  A store wrapped
around caller arrays starts at capacity ``n`` — it aliases them until
the first growth and never writes past or resizes them (a process
worker's store over the rows it received relies on this) — and :meth:`copy` / :meth:`compact`
return exact-size columns.
"""

from __future__ import annotations

import numpy as np

from repro.errors import DatasetError, GeometryError
from repro.geometry.box import Box

#: Appends that outgrow the capacity buffers reallocate them with
#: ``n >> _HEADROOM_SHIFT`` spare rows (CPython's list over-allocation,
#: ~1/8), which makes a stream of small appends amortized O(1) per row.
_HEADROOM_SHIFT = 3


def _check_corners(lo: np.ndarray, hi: np.ndarray, rows: str) -> None:
    """Reject non-finite corners and inverted boxes; ``rows`` names them."""
    if not (np.isfinite(lo).all() and np.isfinite(hi).all()):
        raise GeometryError(f"{rows} corners must be finite")
    if np.any(lo > hi):
        bad = int(np.argmax(np.any(lo > hi, axis=1)))
        raise GeometryError(f"{rows} row {bad}: lower corner exceeds upper corner")


class BoxStore:
    """A columnar store of ``n`` axis-aligned boxes supporting in-place reorder.

    Parameters
    ----------
    lo, hi:
        ``(n, d)`` float64 matrices of lower/upper corners.  ``lo <= hi``
        must hold element-wise.
    ids:
        Optional length-``n`` int64 identifier vector; defaults to
        ``0..n-1``.  Identifiers are carried along every reordering so
        query results are stable regardless of physical order.
    """

    __slots__ = (
        "_lo",
        "_hi",
        "_ids",
        "_live",
        "_buffers",
        "_max_extent",
        "_epoch",
        "_n_dead",
        "_next_id",
        "_staged",
    )

    def __init__(
        self,
        lo: np.ndarray,
        hi: np.ndarray,
        ids: np.ndarray | None = None,
    ) -> None:
        lo = np.ascontiguousarray(lo, dtype=np.float64)
        hi = np.ascontiguousarray(hi, dtype=np.float64)
        # ascontiguousarray does not copy an already-suitable input, so
        # BoxStore(points, points) would alias lo and hi to one buffer —
        # and in-place reordering would then permute it twice.  Reordering
        # also requires the corner matrices to own distinct memory.
        if np.shares_memory(lo, hi):
            hi = hi.copy()
        if lo.ndim != 2 or hi.ndim != 2:
            raise DatasetError("corner matrices must be two-dimensional")
        if lo.shape != hi.shape:
            raise DatasetError(
                f"corner shape mismatch: {lo.shape} vs {hi.shape}"
            )
        if lo.shape[1] == 0:
            raise DatasetError("boxes need at least one dimension")
        _check_corners(lo, hi, "box")
        if ids is None:
            ids = np.arange(lo.shape[0], dtype=np.int64)
        else:
            ids = np.ascontiguousarray(ids, dtype=np.int64)
            if ids.shape != (lo.shape[0],):
                raise DatasetError(
                    f"ids shape {ids.shape} does not match {lo.shape[0]} rows"
                )
        self._adopt(lo, hi, ids, np.ones(lo.shape[0], dtype=bool))
        self._max_extent: np.ndarray | None = None
        self._epoch = 0
        self._n_dead = 0
        self._next_id = int(ids.max()) + 1 if ids.size else 0
        # Identifiers staged outside the store (update buffers): reserved
        # or claimed but not yet appended.  Part of the explicit-id
        # collision gate — see validate_batch / stage_ids.
        self._staged: set[int] = set()

    def _adopt(
        self, lo: np.ndarray, hi: np.ndarray, ids: np.ndarray, live: np.ndarray
    ) -> None:
        """Take exact-size arrays as both columns and capacity buffers."""
        self._buffers = [lo, hi, ids, live]
        self._lo, self._hi, self._ids, self._live = lo, hi, ids, live

    def _resize(self, n: int) -> None:
        """Re-cut the columns as ``[:n]`` views, first moving to larger
        buffers if ``n`` exceeds them (the old ones are left untouched)."""
        if n > self._buffers[0].shape[0]:
            rows = self.n
            grown = [
                np.empty(
                    (n + (n >> _HEADROOM_SHIFT), *old.shape[1:]),
                    dtype=old.dtype,
                )
                for old in self._buffers
            ]
            for new, old in zip(grown, self._buffers):
                new[:rows] = old[:rows]
            self._buffers = grown
        self._lo, self._hi, self._ids, self._live = (
            buf[:n] for buf in self._buffers
        )

    def copy(self) -> BoxStore:
        """Deep copy; the original is untouched by operations on the copy."""
        dup = BoxStore(self._lo.copy(), self._hi.copy(), self._ids.copy())
        dup._live[:] = self._live
        dup._epoch = self._epoch
        dup._n_dead = self._n_dead
        dup._next_id = self._next_id
        dup._staged = set(self._staged)
        return dup

    # ------------------------------------------------------------------
    # Shape & access
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self._lo.shape[0]

    @property
    def n(self) -> int:
        """Number of stored boxes."""
        return self._lo.shape[0]

    @property
    def ndim(self) -> int:
        """Dimensionality of the stored boxes."""
        return self._lo.shape[1]

    @property
    def lo(self) -> np.ndarray:
        """``(n, d)`` lower-corner matrix (live view; do not mutate)."""
        return self._lo

    @property
    def hi(self) -> np.ndarray:
        """``(n, d)`` upper-corner matrix (live view; do not mutate)."""
        return self._hi

    @property
    def ids(self) -> np.ndarray:
        """Length-``n`` identifier vector, permuted alongside coordinates."""
        return self._ids

    @property
    def live(self) -> np.ndarray:
        """Length-``n`` bool mask; False rows are tombstoned (deleted)."""
        return self._live

    @property
    def epoch(self) -> int:
        """Update-batch counter: +1 per non-empty :meth:`append` /
        :meth:`delete_ids` batch."""
        return self._epoch

    @property
    def n_dead(self) -> int:
        """Number of tombstoned rows still physically present."""
        return self._n_dead

    @property
    def live_count(self) -> int:
        """Number of live (non-tombstoned) rows."""
        return self._lo.shape[0] - self._n_dead

    def id_at(self, row: int) -> int:
        """The identifier currently stored at physical position ``row``."""
        return int(self._ids[row])

    # ------------------------------------------------------------------
    # Dataset-level measures
    # ------------------------------------------------------------------
    @property
    def max_extent(self) -> np.ndarray:
        """Per-dimension maximum object side length.

        Query extension enlarges windows by exactly this vector.  It is
        cached and grows monotonically: :meth:`append` widens it when a
        new row exceeds it, and deletes never shrink it (a too-large
        extension is merely conservative, never incorrect).  An empty
        store starts at zero (appends grow it from there).
        """
        if self._max_extent is None:
            if self.n == 0:
                self._max_extent = np.zeros(self.ndim, dtype=np.float64)
            else:
                self._max_extent = (self._hi - self._lo).max(axis=0)
        return self._max_extent

    def bounds(self) -> Box:
        """MBB of the dataset's *live* rows.

        Tombstoned rows are excluded: a deleted outlier must not keep
        the dataset MBB — and everything rebuilt from it (partitioner
        tiling, shard pruning boxes) — inflated forever.
        """
        if self.live_count == 0:
            raise DatasetError(
                "cannot compute bounds: the store has no live rows"
            )
        if self._n_dead:
            rows = np.flatnonzero(self._live)
            return Box(
                tuple(self._lo[rows].min(axis=0)),
                tuple(self._hi[rows].max(axis=0)),
            )
        return Box(tuple(self._lo.min(axis=0)), tuple(self._hi.max(axis=0)))

    # ------------------------------------------------------------------
    # Reordering (the cracking primitive)
    # ------------------------------------------------------------------
    def apply_order_range(self, begin: int, end: int, order: np.ndarray) -> None:
        """Permute rows ``[begin, end)`` by ``order`` (relative indices).

        ``order`` must be an *integer* array holding a permutation of
        ``0..end-begin-1``; row ``begin + order[k]`` moves to position
        ``begin + k``.  This is the only mutation queries may apply — all
        cracking is built on it — so the multiset of rows can never change
        under a query sequence.  Shape and dtype are checked here (a
        boolean mask would gather rows 0 and 1 over the whole range);
        that the integers are a permutation is the caller's contract, not
        an O(n) check on the cracking path.
        """
        self._check_range(begin, end)
        span = end - begin
        if order.shape != (span,) or order.dtype.kind not in "iu":
            raise DatasetError(
                f"order must be {span} integers for range span {span}, "
                f"got {order.dtype}{order.shape}"
            )
        sub = slice(begin, end)
        # The ids go first: their take raises on an out-of-range order
        # before anything is written, so the corners can use mode="wrap",
        # the one mode whose out= writes straight into the buffer.  take()
        # gathers whole rows of a row-major matrix 2-4x faster than fancy
        # indexing does; one scratch buffer serves both corner matrices.
        self._ids[sub] = self._ids[sub].take(order)
        buf = np.empty_like(self._lo[sub])
        for col in (self._lo, self._hi):
            col[sub].take(order, axis=0, out=buf, mode="wrap")
            col[sub] = buf
        if self._n_dead:
            self._live[sub] = self._live[sub].take(order)

    def _check_range(self, begin: int, end: int) -> None:
        if not (0 <= begin <= end <= self.n):
            raise DatasetError(
                f"invalid row range [{begin}, {end}) for store of {self.n} rows"
            )

    # ------------------------------------------------------------------
    # Updates (the insert/delete primitives)
    # ------------------------------------------------------------------
    def reserve_ids(self, count: int) -> np.ndarray:
        """Allocate ``count`` fresh identifiers without appending rows.

        Staging areas (:class:`~repro.updates.buffer.UpdateBuffer`) use
        this so a pending insert already has its final ids before the rows
        physically reach the store.
        """
        if count < 0:
            raise DatasetError(f"cannot reserve {count} ids")
        start = self._next_id
        self._next_id += count
        return np.arange(start, start + count, dtype=np.int64)

    def claim_ids(self, ids: np.ndarray) -> None:
        """Advance the id allocator past caller-supplied identifiers.

        Must be called when explicit ids are staged *outside* the store
        (e.g. buffered inserts), so later :meth:`reserve_ids` calls can
        never hand out a duplicate.
        """
        ids = np.asarray(ids, dtype=np.int64)
        if ids.size:
            self._next_id = max(self._next_id, int(ids.max()) + 1)

    def stage_ids(self, ids: np.ndarray) -> None:
        """Register ids as staged outside the store (claims them too).

        Update buffers call this for every row they hold, fresh or
        explicit, so the collision gate (:meth:`validate_batch`) can
        reject a second insert of an id that is pending but not yet
        physically in the store — without it, the duplicate would only
        surface at merge (drain) time, after the first batch's caller
        already got its ids back.
        """
        ids = np.asarray(ids, dtype=np.int64).ravel()
        self.claim_ids(ids)
        self._staged.update(int(i) for i in ids)

    def unstage_ids(self, ids: np.ndarray) -> None:
        """Drop ids from the staged registry (drained or discarded)."""
        ids = np.asarray(ids, dtype=np.int64).ravel()
        self._staged.difference_update(int(i) for i in ids)

    @property
    def staged_count(self) -> int:
        """Number of ids currently staged outside the store."""
        return len(self._staged)

    def fresh_ids(self, ids: np.ndarray) -> bool:
        """Whether every id is at or above the id watermark.

        Every id this store or a buffer staging for it ever held is below
        the watermark (construction, :meth:`reserve_ids` and
        :meth:`claim_ids` all advance it), so such a batch collides with
        nothing and the collision gates skip their O(n) scans.  False for
        an empty batch.
        """
        return bool(ids.size) and int(ids.min()) >= self._next_id

    def validate_batch(
        self,
        lo: np.ndarray,
        hi: np.ndarray,
        ids: np.ndarray | None = None,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
        """Normalize and validate an insert/append batch for this store.

        The single gate shared by :meth:`append` and
        :class:`~repro.index.base.MutableSpatialIndex.insert` — lazy
        index paths stage batches long before the store sees them, and a
        batch that would fail here at merge time must be rejected up
        front, with identical rules by construction.  Returns contiguous
        float64 ``(k, d)`` corner matrices (a single length-``d`` pair is
        promoted to a batch of one) and normalized ids (or ``None``).
        """
        lo = np.ascontiguousarray(np.atleast_2d(lo), dtype=np.float64)
        hi = np.ascontiguousarray(np.atleast_2d(hi), dtype=np.float64)
        if np.shares_memory(lo, hi):
            hi = hi.copy()
        if lo.shape != hi.shape or lo.ndim != 2:
            raise DatasetError(
                f"batch corner shape mismatch: {lo.shape} vs {hi.shape}"
            )
        if lo.shape[1] != self.ndim:
            raise DatasetError(
                f"batch boxes have {lo.shape[1]} dims, store has {self.ndim}"
            )
        _check_corners(lo, hi, "batch")
        if ids is not None:
            ids = np.ascontiguousarray(ids, dtype=np.int64)
            if ids.shape != (lo.shape[0],):
                raise DatasetError(
                    f"ids shape {ids.shape} does not match "
                    f"{lo.shape[0]} batch rows"
                )
            fresh = self.fresh_ids(ids)
            if ids.size and (
                np.unique(ids).size != ids.size
                or (not fresh and np.isin(ids, self._ids).any())
            ):
                raise DatasetError("batch ids collide with existing ids")
            if (
                not fresh
                and self._staged
                and not self._staged.isdisjoint(int(i) for i in ids)
            ):
                raise DatasetError(
                    "batch ids collide with buffered (staged) inserts "
                    "not yet merged into the store"
                )
        return lo, hi, ids

    def append(
        self,
        lo: np.ndarray,
        hi: np.ndarray,
        ids: np.ndarray | None = None,
    ) -> np.ndarray:
        """Append a batch of boxes at the tail; returns their identifiers.

        Existing rows never move, so physical positions held by indexes
        stay valid.  ``ids`` defaults to freshly reserved identifiers;
        caller-supplied ids must not collide with any id currently in the
        store (live or tombstoned).  Advances :attr:`epoch`; a zero-row
        batch is a no-op and does not.
        """
        lo, hi, ids = self.validate_batch(lo, hi, ids)
        return self.append_validated(lo, hi, ids)

    def append_validated(
        self,
        lo: np.ndarray,
        hi: np.ndarray,
        ids: np.ndarray | None = None,
    ) -> np.ndarray:
        """:meth:`append` for a batch already through :meth:`validate_batch`.

        The :class:`~repro.index.base.MutableSpatialIndex` paths validate
        once at the API boundary and land rows here, so the gate does not
        run twice per insert.  Callers must pass the *normalized* arrays
        the gate returned.
        """
        k = lo.shape[0]
        if ids is None:
            ids = self.reserve_ids(k)
        else:
            self.claim_ids(ids)
        if k == 0:
            return ids
        n = self.n
        self._resize(n + k)
        self._lo[n:] = lo
        self._hi[n:] = hi
        self._ids[n:] = ids
        self._live[n:] = True
        if self._max_extent is not None:
            self._max_extent = np.maximum(
                self._max_extent, (hi - lo).max(axis=0)
            )
        self._epoch += 1
        return ids

    def find_live_rows(self, ids: np.ndarray) -> np.ndarray:
        """Physical positions of the live rows matching ``ids`` (validating).

        Every requested id must match at least one live row — an unknown
        or already-deleted id raises, keeping update ledgers exact.  The
        scan half of :meth:`delete_ids`, exposed separately so callers
        that also need the victim rows (e.g. the R-Tree's delete-time
        condensing) resolve them in a single pass over the store.
        """
        ids = np.asarray(ids, dtype=np.int64).ravel()
        if ids.size == 0:
            return np.empty(0, dtype=np.int64)
        victims = np.isin(self._ids, ids) & self._live
        found = np.unique(self._ids[victims])
        missing = np.setdiff1d(ids, found)
        if missing.size:
            raise DatasetError(
                f"cannot delete ids not live in the store: {missing[:5].tolist()}"
            )
        return np.flatnonzero(victims)

    def tombstone_rows(self, rows: np.ndarray) -> int:
        """Tombstone rows by physical position (no liveness validation).

        The mutation half of :meth:`delete_ids`; ``rows`` must be live
        positions (as returned by :meth:`find_live_rows`).  Returns the
        count and advances :attr:`epoch`; an empty batch is a no-op and
        does not.
        """
        if rows.size == 0:
            return 0
        self._live[rows] = False
        self._n_dead += int(rows.size)
        self._epoch += 1
        return int(rows.size)

    def delete_ids(self, ids: np.ndarray) -> int:
        """Tombstone every live row whose identifier is in ``ids``.

        Rows stay physically present (positions/ranges held by indexes
        remain valid); scans skip them via the ``live`` mask.  Every
        requested id must match at least one live row — deleting an
        unknown or already-deleted id raises, keeping the update ledger
        exact.  Returns the number of rows tombstoned and advances
        :attr:`epoch`.
        """
        return self.tombstone_rows(self.find_live_rows(ids))

    def live_rows(self) -> np.ndarray:
        """Physical positions of all live rows (int64, ascending)."""
        return np.flatnonzero(self._live)

    def compact(self) -> np.ndarray:
        """Physically drop tombstoned rows; returns the position remap.

        Live rows slide down in stable order (relative order preserved),
        so contiguous live ranges stay contiguous and sorted runs stay
        sorted.  The returned int64 vector has one entry per *old*
        position: the row's new position, or ``-1`` for a dropped
        (tombstoned) row.  Because compaction is stable, the new
        position of any range boundary ``b`` is the count of live rows
        in ``[0, b)`` — index consumers remap ``begin``/``end`` pairs
        with a prefix sum over ``remap >= 0``.

        The live ``(id, box)`` multiset — :meth:`live_fingerprint` — is
        invariant.  Advances :attr:`epoch` when rows were dropped; with
        no dead rows the call is a no-op returning the identity remap.
        """
        n = self.n
        if self._n_dead == 0:
            return np.arange(n, dtype=np.int64)
        keep = np.flatnonzero(self._live)
        remap = np.full(n, -1, dtype=np.int64)
        remap[keep] = np.arange(keep.size, dtype=np.int64)
        self._adopt(
            self._lo[keep],
            self._hi[keep],
            self._ids[keep],
            np.ones(keep.size, dtype=bool),
        )
        self._n_dead = 0
        # max_extent stays: it is documented to grow monotonically, and
        # a too-large query extension is conservative, never incorrect.
        self._epoch += 1
        return remap

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def _digest(self, rows: np.ndarray, with_live: bool) -> bytes:
        """Canonical digest of the given rows, id column in native int64.

        Rows are ordered by ``(id, coordinates)`` — not by id alone — so
        duplicate-id rows cannot produce order-dependent digests, and
        the id column is hashed in its own dtype: casting int64 ids to
        float64 silently collides ids above 2**53.
        """
        coords = np.hstack([self._lo[rows], self._hi[rows]])
        ids = self._ids[rows]
        # lexsort's *last* key is primary: ids, then (physical digest
        # only) the live flag, then coordinates — a total order even
        # when ids repeat.
        keys = tuple(coords.T[::-1])
        parts = [ids, coords]
        if with_live:
            live = self._live[rows]
            keys += (live,)
            parts.insert(1, live)
        order = np.lexsort(keys + (ids,))
        return b"".join(col[order].tobytes() for col in parts)

    def fingerprint(self) -> bytes:
        """Order-insensitive digest of the *physical* (id, box, live) multiset.

        Two stores that are permutations of each other have equal
        fingerprints; used by tests to assert permutation safety.
        Tombstoned rows are included (with their live flag), so the
        fingerprint is invariant under queries but not under updates or
        compaction.
        """
        return self._digest(np.arange(self.n, dtype=np.int64), with_live=True)

    def live_fingerprint(self) -> bytes:  # ql: allow[QL012] test oracle
        """Order-insensitive digest of the *live* (id, box) multiset.

        This is the store's documented invariant surface under mixed
        read/write workloads: equal across stores holding the same live
        rows, regardless of physical order, tombstones, compactions, or
        epoch.
        """
        return self._digest(np.flatnonzero(self._live), with_live=False)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"BoxStore(n={self.n}, ndim={self.ndim})"
