"""Unit tests for the store's fourth mutation (compact) and the
live-mask/identifier fixes that ride along with it.

Compaction's contract: tombstoned rows are physically dropped, live rows
keep their relative order, the returned remap translates every old
position (``-1`` for dropped rows), the live ``(id, box)`` multiset is
untouched, and the epoch advances exactly when rows were dropped.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.datasets import BoxStore
from repro.errors import DatasetError
from repro.geometry import Box
from repro.updates import UpdateBuffer


def _small_store(n: int = 8, ndim: int = 2, seed: int = 0) -> BoxStore:
    rng = np.random.default_rng(seed)
    lo = rng.uniform(0, 50, size=(n, ndim))
    return BoxStore(lo, lo + rng.uniform(0, 5, size=(n, ndim)))


class TestCompact:
    def test_compact_drops_dead_rows_in_stable_order(self):
        store = _small_store(6)
        store.delete_ids(np.array([1, 4]))
        remap = store.compact()
        assert store.n == 4 == store.live_count and store.n_dead == 0
        assert store.ids.tolist() == [0, 2, 3, 5]  # relative order kept
        assert store.live.all()
        assert remap.tolist() == [0, -1, 1, 2, -1, 3]

    def test_compact_advances_epoch_only_when_rows_drop(self):
        store = _small_store(5)
        epoch = store.epoch
        remap = store.compact()  # nothing dead: identity no-op
        assert store.epoch == epoch
        assert remap.tolist() == list(range(5))
        store.delete_ids(np.array([0]))
        epoch = store.epoch
        store.compact()
        assert store.epoch == epoch + 1

    def test_compact_preserves_live_fingerprint(self):
        store = _small_store(10)
        store.delete_ids(np.array([2, 3, 7]))
        fp = store.live_fingerprint()
        store.compact()
        assert store.live_fingerprint() == fp

    def test_compact_after_permutation(self):
        store = _small_store(8)
        store.delete_ids(np.array([0, 5]))
        store.apply_order_range(0, store.n, np.random.default_rng(3).permutation(8))
        fp = store.live_fingerprint()
        remap = store.compact()
        assert store.live_fingerprint() == fp
        assert (remap == -1).sum() == 2
        # Survivors keep the post-permutation relative order.
        kept = remap[remap >= 0]
        assert np.array_equal(kept, np.arange(kept.size))

    def test_compact_everything_leaves_an_empty_store(self):
        store = _small_store(4)
        store.delete_ids(np.arange(4))
        remap = store.compact()
        assert store.n == 0 and store.live_count == 0
        assert np.array_equal(remap, np.full(4, -1))

    def test_compact_keeps_id_allocator_and_max_extent(self):
        store = _small_store(4)
        wide = store.max_extent.copy()
        store.delete_ids(np.array([0, 1, 2, 3]))
        store.compact()
        # The allocator never reuses ids of compacted-away rows ...
        assert store.reserve_ids(1).tolist() == [4]
        # ... and the extension margin stays conservative (monotone).
        assert np.array_equal(store.max_extent, wide)

    def test_appends_and_deletes_keep_working_after_compact(self):
        store = _small_store(6)
        store.delete_ids(np.array([1, 2]))
        store.compact()
        ids = store.append(np.array([[1.0, 1.0]]), np.array([[2.0, 2.0]]))
        assert store.n == 5 and ids.tolist() == [6]
        assert store.delete_ids(ids) == 1
        assert store.live_count == 4


class TestLiveBounds:
    """bounds() computes the MBB over live rows only (satellite bugfix)."""

    def _outlier_store(self) -> BoxStore:
        lo = np.array([[0.0, 0.0], [1.0, 1.0], [500.0, 500.0]])
        return BoxStore(lo, lo + 1.0)

    def test_bounds_shrink_when_outlier_dies(self):
        store = self._outlier_store()
        assert store.bounds() == Box((0.0, 0.0), (501.0, 501.0))
        store.delete_ids(np.array([2]))
        assert store.bounds() == Box((0.0, 0.0), (2.0, 2.0))

    def test_bounds_recover_after_compaction(self):
        store = self._outlier_store()
        store.delete_ids(np.array([2]))
        store.compact()
        assert store.bounds() == Box((0.0, 0.0), (2.0, 2.0))

    def test_bounds_of_all_deleted_store_raise_cleanly(self):
        store = self._outlier_store()
        store.delete_ids(np.arange(3))
        with pytest.raises(DatasetError, match="no live rows"):
            store.bounds()

    def test_bounds_of_empty_store_raise_cleanly(self):
        store = BoxStore(np.empty((0, 2)), np.empty((0, 2)))
        with pytest.raises(DatasetError, match="no live rows"):
            store.bounds()


class TestFingerprintDtype:
    """Ids digest in native int64 — no float64 collision above 2**53."""

    def _pair(self, ids: list[int]) -> BoxStore:
        n = len(ids)
        return BoxStore(
            np.zeros((n, 2)), np.ones((n, 2)), ids=np.array(ids, dtype=np.int64)
        )

    def test_huge_adjacent_ids_do_not_collide(self):
        # float64 cannot represent 2**53 + 1: both casts land on 2**53.
        a = self._pair([2**53, 2**53 + 1])
        b = self._pair([2**53, 2**53])
        assert a.live_fingerprint() != b.live_fingerprint()
        assert a.fingerprint() != b.fingerprint()

    def test_fingerprints_still_order_insensitive(self):
        a = self._pair([2**53, 2**53 + 1])
        b = self._pair([2**53 + 1, 2**53])
        assert a.live_fingerprint() == b.live_fingerprint()
        assert a.fingerprint() == b.fingerprint()

    def test_permutation_safety_is_preserved(self):
        store = _small_store(12, seed=5)
        fp = store.fingerprint()
        live_fp = store.live_fingerprint()
        store.apply_order_range(0, store.n, np.random.default_rng(9).permutation(12))
        assert store.fingerprint() == fp
        assert store.live_fingerprint() == live_fp


class TestStagedIdGate:
    """Pending buffered ids participate in the explicit-id collision gate."""

    def test_buffered_id_rejected_until_discarded(self):
        store = _small_store(4)
        buffer = UpdateBuffer(store)
        buffer.add(np.array([[1.0, 1.0]]), np.array([[2.0, 2.0]]), np.array([50]))
        with pytest.raises(DatasetError, match="buffered"):
            store.append(
                np.array([[3.0, 3.0]]), np.array([[4.0, 4.0]]), ids=np.array([50])
            )
        buffer.discard(np.array([50]))
        ids = store.append(
            np.array([[3.0, 3.0]]), np.array([[4.0, 4.0]]), ids=np.array([50])
        )
        assert ids.tolist() == [50]

    def test_reserved_buffer_ids_are_staged_too(self):
        store = _small_store(4)
        buffer = UpdateBuffer(store)
        pending = buffer.add(np.array([[1.0, 1.0]]), np.array([[2.0, 2.0]]))
        assert store.staged_count == 1
        with pytest.raises(DatasetError, match="buffered"):
            store.validate_batch(
                np.array([[3.0, 3.0]]), np.array([[4.0, 4.0]]), ids=pending
            )

    def test_drain_unstages_and_merge_succeeds(self):
        store = _small_store(4)
        buffer = UpdateBuffer(store)
        buffer.add(np.array([[1.0, 1.0]]), np.array([[2.0, 2.0]]), np.array([50]))
        lo, hi, ids = buffer.drain()
        assert store.staged_count == 0
        store.append_validated(lo, hi, ids)
        assert store.id_at(store.n - 1) == 50

    def test_copy_carries_the_staged_registry(self):
        store = _small_store(4)
        UpdateBuffer(store).add(
            np.array([[1.0, 1.0]]), np.array([[2.0, 2.0]]), np.array([50])
        )
        dup = store.copy()
        with pytest.raises(DatasetError, match="buffered"):
            dup.validate_batch(
                np.array([[3.0, 3.0]]), np.array([[4.0, 4.0]]),
                ids=np.array([50]),
            )
