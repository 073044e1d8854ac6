"""Reference ledger of applied updates — the expected live multiset.

The mutable store's documented invariant is *multiset of live rows*: after
any interleaving of queries/inserts/deletes, the store's live ``(id, box)``
set must equal the initial contents plus every applied insert minus every
applied delete.  :class:`UpdateLedger` is the executable form of that
sentence: it replays the same updates into a plain dictionary and can then
be compared against a store (or answer a window query as a slow oracle).

Used by the property suite.

Beyond the live mirror, the ledger keeps an *ordered op log*: a base
snapshot (the rows it was seeded with) plus every recorded
insert/delete batch in application order.  Replaying base + log into a
fresh :class:`~repro.datasets.store.BoxStore` reproduces the live
``(id, box)`` multiset exactly — which makes the ledger the replication
stream and recovery oracle for replicated shard serving
(:mod:`repro.sharding.replication`): a dead replica is rebuilt by
:meth:`rebuild_store` and proven identical to its peers via
:meth:`assert_matches` / ``BoxStore.live_fingerprint``.
:meth:`truncate` folds the log into the base snapshot once every
consumer has caught up, bounding replay cost.
"""

from __future__ import annotations

import numpy as np

from repro.datasets.store import BoxStore
from repro.errors import DatasetError

#: One op-log entry: ("insert", lo, hi, ids) or ("delete", None, None, ids).
LedgerOp = tuple[str, np.ndarray | None, np.ndarray | None, np.ndarray]


class UpdateLedger:
    """Dictionary-of-record mirror of a store's live ``(id, box)`` rows.

    Parameters
    ----------
    store:
        Optional store to seed from; its current live rows become the
        ledger's initial population (and the op log's base snapshot).
    """

    __slots__ = ("_rows", "_base", "_log", "_ndim")

    def __init__(self, store: BoxStore | None = None) -> None:
        self._rows: dict[int, tuple[tuple[float, ...], tuple[float, ...]]] = {}
        self._ndim: int | None = None
        if store is not None:
            self._ndim = store.ndim
            for row in store.live_rows():
                self._rows[int(store.ids[row])] = (
                    tuple(store.lo[row]),
                    tuple(store.hi[row]),
                )
        #: Base snapshot for replay: the seed rows, before any logged op.
        self._base: dict[int, tuple[tuple[float, ...], tuple[float, ...]]] = (
            dict(self._rows)
        )
        self._log: list[LedgerOp] = []

    def __len__(self) -> int:
        return len(self._rows)

    def record_insert(
        self, lo: np.ndarray, hi: np.ndarray, ids: np.ndarray
    ) -> None:
        """Record an applied insert batch (ids must be new to the ledger)."""
        lo2 = np.ascontiguousarray(np.atleast_2d(lo), dtype=np.float64)
        hi2 = np.ascontiguousarray(np.atleast_2d(hi), dtype=np.float64)
        id_arr = np.asarray(ids, dtype=np.int64).ravel()
        # Validate the whole batch before mutating anything, so a rejected
        # batch leaves both the mirror and the op log untouched.
        seen: set[int] = set()
        for obj_id in id_arr:
            key = int(obj_id)
            if key in self._rows or key in seen:
                raise DatasetError(f"ledger already holds id {key}")
            seen.add(key)
        for k, obj_id in enumerate(id_arr):
            self._rows[int(obj_id)] = (tuple(lo2[k]), tuple(hi2[k]))
        if id_arr.size:
            if self._ndim is None:
                self._ndim = lo2.shape[1]
            self._log.append(("insert", lo2.copy(), hi2.copy(), id_arr.copy()))

    def record_delete(self, ids: np.ndarray) -> None:
        """Record an applied delete batch (every id must be live)."""
        id_arr = np.asarray(ids, dtype=np.int64).ravel()
        for obj_id in id_arr:
            key = int(obj_id)
            if key not in self._rows:
                raise DatasetError(f"ledger cannot delete unknown id {key}")
        for obj_id in id_arr:
            del self._rows[int(obj_id)]
        if id_arr.size:
            self._log.append(("delete", None, None, id_arr.copy()))

    # ------------------------------------------------------------------
    # Replication stream: replay & truncation
    # ------------------------------------------------------------------
    @property
    def log_length(self) -> int:
        """Number of op batches recorded since the base snapshot."""
        return len(self._log)

    def replay_into(self, store: BoxStore) -> None:
        """Apply the op log to a store holding exactly the base snapshot.

        The store must contain the base rows (live) and nothing else —
        :meth:`rebuild_store` builds such a store from scratch.  After
        replay the store's live multiset equals the ledger by
        construction (``assert_matches`` holds).
        """
        for op, lo, hi, ids in self._log:
            if op == "insert":
                assert lo is not None and hi is not None
                # A reinsert of a previously-deleted id is legal in the
                # stream once the original store compacted the tombstone
                # away; mirror that by compacting before the id gate
                # would see the stale row.
                if store.n_dead and bool(np.isin(ids, store.ids).any()):
                    store.compact()
                store.append(lo, hi, ids)
            else:
                store.delete_ids(ids)

    def rebuild_store(self) -> BoxStore:
        """Build a fresh store from the base snapshot plus op-log replay.

        This is ledger-replay recovery: the returned store's live
        ``(id, box)`` multiset is identical to any peer that applied the
        same stream, regardless of the peer's physical row order.  The
        ledger must have seen at least one row (seed or insert) so the
        dimensionality is known.
        """
        if self._ndim is None:
            raise DatasetError(
                "cannot rebuild a store from a ledger that never saw a row"
            )
        keys = sorted(self._base)
        lo = np.array(
            [self._base[k][0] for k in keys], dtype=np.float64
        ).reshape(len(keys), self._ndim)
        hi = np.array(
            [self._base[k][1] for k in keys], dtype=np.float64
        ).reshape(len(keys), self._ndim)
        store = BoxStore(lo, hi, np.array(keys, dtype=np.int64))
        self.replay_into(store)
        return store

    def truncate(self) -> int:
        """Fold the op log into the base snapshot; returns entries dropped.

        After truncation :meth:`rebuild_store` starts from the current
        live multiset directly — equivalent content, constant-length
        replay.  Call once every replica has applied the stream.
        """
        dropped = len(self._log)
        self._base = dict(self._rows)
        self._log.clear()
        return dropped

    def live_ids(self) -> np.ndarray:
        """Sorted identifiers of all live objects."""
        return np.array(sorted(self._rows), dtype=np.int64)

    def expected_result(
        self, window_lo: np.ndarray, window_hi: np.ndarray
    ) -> np.ndarray:
        """Sorted ids intersecting the window — a pure-ledger scan oracle."""
        hits = [
            obj_id
            for obj_id, (lo, hi) in self._rows.items()
            if all(l <= wh for l, wh in zip(lo, window_hi))
            and all(wl <= h for wl, h in zip(window_lo, hi))
        ]
        return np.array(sorted(hits), dtype=np.int64)

    def matches_store(self, store: BoxStore) -> bool:
        """Whether the store's live ``(id, box)`` multiset equals the ledger."""
        rows = store.live_rows()
        if rows.size != len(self._rows):
            return False
        for row in rows:
            key = int(store.ids[row])
            expect = self._rows.get(key)
            if expect is None:
                return False
            lo, hi = expect
            if tuple(store.lo[row]) != lo or tuple(store.hi[row]) != hi:
                return False
        return True

    def assert_matches(self, store: BoxStore) -> None:
        """Raise ``AssertionError`` unless :meth:`matches_store` holds."""
        assert self.matches_store(store), (
            f"store live multiset diverged from the update ledger: "
            f"{store.live_count} live rows vs {len(self._rows)} ledger rows"
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"UpdateLedger(live={len(self._rows)})"
