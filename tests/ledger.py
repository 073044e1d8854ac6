"""The tests' reference ledger of applied updates: the expected live multiset.

The mutable store's documented invariant is *multiset of live rows*: after
any interleaving of queries/inserts/deletes, the store's live ``(id, box)``
set must equal the initial contents plus every applied insert minus every
applied delete.  :class:`UpdateLedger` is the executable form of that
sentence: it replays the same updates into a plain dictionary and can then
be compared against a store; :func:`closed_box_ids` answers a query over
its rows as a slow window oracle.

It is the test suites' model of what an engine must hold; nothing in the
engine reads it.
"""

from __future__ import annotations

import numpy as np

from repro.datasets.store import BoxStore
from repro.errors import DatasetError
from repro.queries import Query


class UpdateLedger:
    """Dictionary-of-record mirror of a store's live ``(id, box)`` rows.

    Parameters
    ----------
    store:
        Optional store to seed from; its current live rows become the
        ledger's initial population.
    """

    __slots__ = ("_rows",)

    def __init__(self, store: BoxStore | None = None) -> None:
        self._rows: dict[int, tuple[tuple[float, ...], tuple[float, ...]]] = {}
        if store is not None:
            for row in store.live_rows():
                self._rows[int(store.ids[row])] = (
                    tuple(store.lo[row]),
                    tuple(store.hi[row]),
                )

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
        # batch leaves the mirror untouched.
        seen: set[int] = set()
        for obj_id in id_arr:
            key = int(obj_id)
            if key in self._rows or key in seen:
                raise DatasetError(f"ledger already holds id {key}")
            seen.add(key)
        for k, obj_id in enumerate(id_arr):
            self._rows[int(obj_id)] = (tuple(lo2[k]), tuple(hi2[k]))

    def record_delete(self, ids: np.ndarray) -> None:
        """Record an applied delete batch (every id must be live)."""
        id_arr = np.asarray(ids, dtype=np.int64).ravel()
        for obj_id in id_arr:
            key = int(obj_id)
            if key not in self._rows:
                raise DatasetError(f"ledger cannot delete unknown id {key}")
        for obj_id in id_arr:
            del self._rows[int(obj_id)]

    def live_ids(self) -> np.ndarray:
        """Sorted identifiers of all live objects."""
        return np.array(sorted(self._rows), dtype=np.int64)

    def columns(self, ndim: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(ids, lo, hi)`` of the live rows as arrays, ids ascending."""
        ids = self.live_ids()
        lo = [self._rows[int(i)][0] for i in ids]
        hi = [self._rows[int(i)][1] for i in ids]
        return (
            ids,
            np.array(lo, dtype=np.float64).reshape(-1, ndim),
            np.array(hi, dtype=np.float64).reshape(-1, ndim),
        )

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


def closed_box_ids(ledger: UpdateLedger, query: Query) -> np.ndarray:
    """Sorted ids of the ledger's live boxes that ``query`` matches.

    Closed intervals, written out here: a box touching the window on
    any face, edge or corner intersects it.
    """
    ids, lo, hi = ledger.columns(query.ndim)
    qlo, qhi = query.lo, query.hi
    if query.predicate == "intersects":
        mask = np.all(lo <= qhi, axis=1) & np.all(hi >= qlo, axis=1)
    elif query.predicate == "within":
        mask = np.all(lo >= qlo, axis=1) & np.all(hi <= qhi, axis=1)
    else:  # contains, covers_point
        mask = np.all(lo <= qlo, axis=1) & np.all(hi >= qhi, axis=1)
    return np.sort(ids[mask])
