"""Unit tests for BoxStore's update surface (append / tombstone delete).

The store's relaxed invariant is *multiset of live rows*: queries only
permute, appends extend the tail, deletes tombstone in place.  These
tests pin down the primitive semantics the indexes build on.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines import ScanIndex
from repro.datasets import BoxStore
from repro.errors import DatasetError, GeometryError
from repro.geometry import Box
from repro.queries import Query


def _small_store(n: int = 6, ndim: int = 2, seed: int = 0) -> BoxStore:
    rng = np.random.default_rng(seed)
    lo = rng.uniform(0, 50, size=(n, ndim))
    return BoxStore(lo, lo + rng.uniform(0, 5, size=(n, ndim)))


class TestAppend:
    def test_append_extends_tail_and_returns_fresh_ids(self):
        store = _small_store(4)
        before_epoch = store.epoch
        ids = store.append(np.array([[1.0, 1.0]]), np.array([[2.0, 2.0]]))
        assert store.n == 5
        assert ids.tolist() == [4]
        assert store.id_at(4) == 4
        assert store.epoch == before_epoch + 1

    def test_batch_appends_and_single_box_promotion(self):
        # validate_batch promotes a single length-d pair to a (1, d) batch.
        store = _small_store(3)
        ids = store.append(np.array([[0.5, 0.5], [3.0, 3.0]]),
                           np.array([[1.5, 1.0], [4.0, 3.5]]))
        assert ids.tolist() == [3, 4]
        assert store.live_count == 5
        ids = store.append(np.array([7.0, 7.0]), np.array([8.0, 8.0]))
        assert ids.tolist() == [5] and store.n == 6

    def test_explicit_ids_respected_and_collisions_rejected(self):
        store = _small_store(3)
        ids = store.append(
            np.array([[1.0, 1.0]]), np.array([[2.0, 2.0]]),
            ids=np.array([40]),
        )
        assert ids.tolist() == [40]
        # The id allocator skips past explicit ids.
        assert store.reserve_ids(1).tolist() == [41]
        with pytest.raises(DatasetError, match="collide"):
            store.append(
                np.array([[1.0, 1.0]]), np.array([[2.0, 2.0]]),
                ids=np.array([2]),
            )

    def test_ids_at_or_above_the_watermark_skip_the_collision_scan(self, monkeypatch):
        store = _small_store(3)
        store.reserve_ids(2)  # ids 3 and 4: handed out, never appended
        assert store.fresh_ids(np.array([5, 9])) and not store.fresh_ids(np.array([4, 9]))
        assert not store.fresh_ids(np.empty(0, dtype=np.int64))
        box = (np.array([[1.0, 1.0]] * 2), np.array([[2.0, 2.0]] * 2))
        with monkeypatch.context() as patch:
            patch.setattr(np, "isin", lambda *a, **k: pytest.fail("scanned"))
            assert store.append(*box, ids=np.array([9, 5])).tolist() == [9, 5]
            with pytest.raises(DatasetError, match="collide"):
                store.append(*box, ids=np.array([11, 11]))
        # Below the watermark the scan still runs and still refuses.
        for taken in ([2, 20], [9, 20]):
            with pytest.raises(DatasetError, match="collide"):
                store.append(*box, ids=np.array(taken))

    def test_append_validates_geometry_and_shape(self):
        store = _small_store(3)
        with pytest.raises(GeometryError):
            store.append(np.array([[5.0, 5.0]]), np.array([[4.0, 6.0]]))
        with pytest.raises(DatasetError):
            store.append(np.array([[1.0, 1.0, 1.0]]), np.array([[2.0, 2.0, 2.0]]))

    def test_empty_append_is_a_noop(self):
        store = _small_store(3)
        epoch = store.epoch
        ids = store.append(np.empty((0, 2)), np.empty((0, 2)))
        assert ids.size == 0 and store.n == 3 and store.epoch == epoch
        # Explicit (empty) ids take the same early exit.
        ids = store.append(
            np.empty((0, 2)), np.empty((0, 2)), ids=np.empty(0, dtype=np.int64)
        )
        assert ids.size == 0 and store.epoch == epoch

    def test_max_extent_grows_with_appended_objects(self):
        store = _small_store(4)
        small = store.max_extent.copy()
        store.append(np.array([[0.0, 0.0]]), np.array([[40.0, 0.5]]))
        assert store.max_extent[0] == pytest.approx(40.0)
        assert store.max_extent[1] == pytest.approx(small[1])


class TestDelete:
    def test_delete_tombstones_without_moving_rows(self):
        store = _small_store(5)
        ids_before = store.ids.copy()
        assert store.delete_ids(np.array([1, 3])) == 2
        assert np.array_equal(store.ids, ids_before)  # rows did not move
        assert store.n == 5 and store.live_count == 3 and store.n_dead == 2
        assert not store.live[1] and not store.live[3]

    def test_scans_skip_dead_rows(self):
        store = _small_store(5)
        scan = ScanIndex(store)
        everything = Box((-100.0, -100.0), (100.0, 100.0))
        assert scan.execute(Query(everything)).ids.size == 5
        scan.delete(np.array([0]))
        hits = scan.execute(Query(everything)).ids
        assert hits.size == 4 and 0 not in hits
        assert scan.execute(Query(everything, mode="count")).count == 4

    def test_deleting_unknown_or_dead_id_raises(self):
        store = _small_store(4)
        with pytest.raises(DatasetError, match="not live"):
            store.delete_ids(np.array([99]))
        store.delete_ids(np.array([2]))
        with pytest.raises(DatasetError, match="not live"):
            store.delete_ids(np.array([2]))

    def test_empty_delete_is_a_noop(self):
        store = _small_store(3)
        epoch = store.epoch
        assert store.delete_ids(np.empty(0, dtype=np.int64)) == 0
        assert store.epoch == epoch

    def test_live_mask_rides_permutations(self):
        store = _small_store(6)
        store.delete_ids(np.array([0, 5]))
        rng = np.random.default_rng(3)
        store.apply_order_range(0, store.n, rng.permutation(6))
        dead_positions = np.flatnonzero(~store.live)
        assert sorted(store.ids[dead_positions].tolist()) == [0, 5]
        assert sorted(store.ids[store.live]) == [1, 2, 3, 4]


class TestInvariantSurface:
    def test_live_fingerprint_invariant_under_permutation(self):
        store = _small_store(6)
        store.delete_ids(np.array([2]))
        fp = store.live_fingerprint()
        store.apply_order_range(0, store.n, np.random.default_rng(1).permutation(6))
        assert store.live_fingerprint() == fp

    def test_live_fingerprint_changes_with_updates(self):
        store = _small_store(6)
        fp = store.live_fingerprint()
        store.append(np.array([[1.0, 1.0]]), np.array([[2.0, 2.0]]))
        fp_after_insert = store.live_fingerprint()
        assert fp_after_insert != fp
        store.delete_ids(np.array([6]))
        assert store.live_fingerprint() == fp  # back to the initial multiset

    def test_physical_fingerprint_sees_tombstones(self):
        # fingerprint() covers physical rows: a delete changes it even
        # though the rows did not move.
        store = _small_store(4)
        fp = store.fingerprint()
        store.delete_ids(np.array([1]))
        assert store.fingerprint() != fp

    def test_copy_preserves_update_state(self):
        store = _small_store(5)
        store.append(np.array([[1.0, 1.0]]), np.array([[2.0, 2.0]]))
        store.delete_ids(np.array([3]))
        dup = store.copy()
        assert dup.epoch == store.epoch
        assert dup.n_dead == 1 and dup.live_count == store.live_count
        assert dup.live_fingerprint() == store.live_fingerprint()
        # Fresh ids continue from the same point in both.
        assert dup.reserve_ids(1).tolist() == store.reserve_ids(1).tolist()

    def test_live_rows_positions(self):
        store = _small_store(4)
        store.delete_ids(np.array([1]))
        assert store.live_rows().tolist() == [0, 2, 3]


class TestDeletePrimitives:
    """find_live_rows / tombstone_rows: the two halves of delete_ids."""

    def test_find_live_rows_resolves_positions(self):
        store = _small_store(5)
        assert store.find_live_rows(np.array([1, 3])).tolist() == [1, 3]

    def test_find_live_rows_rejects_unknown_and_dead(self):
        store = _small_store(5)
        with pytest.raises(DatasetError, match="not live"):
            store.find_live_rows(np.array([99]))
        store.delete_ids(np.array([2]))
        with pytest.raises(DatasetError, match="not live"):
            store.find_live_rows(np.array([2]))

    def test_find_live_rows_does_not_mutate(self):
        store = _small_store(5)
        epoch = store.epoch
        store.find_live_rows(np.array([0]))
        assert store.epoch == epoch and store.n_dead == 0

    def test_tombstone_rows_matches_delete_ids(self):
        a = _small_store(6)
        b = a.copy()
        assert a.delete_ids(np.array([1, 4])) == 2
        assert b.tombstone_rows(b.find_live_rows(np.array([1, 4]))) == 2
        assert a.live_fingerprint() == b.live_fingerprint()
        assert a.epoch == b.epoch

    def test_empty_batches_are_noops(self):
        store = _small_store(3)
        epoch = store.epoch
        assert store.find_live_rows(np.empty(0, dtype=np.int64)).size == 0
        assert store.tombstone_rows(np.empty(0, dtype=np.int64)) == 0
        assert store.epoch == epoch


class TestAmortizedAppend:
    """Columns are views over capacity buffers; nothing may show it."""

    @staticmethod
    def _batches(seed: int, sizes: tuple[int, ...]):
        rng = np.random.default_rng(seed)
        for k in sizes:
            lo = rng.uniform(0, 50, size=(k, 2))
            yield lo, lo + rng.uniform(0, 9, size=(k, 2))

    def test_any_append_sequence_equals_the_concatenation(self):
        sizes = (1, 3, 0, 40, 2, 2, 500, 1, 7)
        store = _small_store(5)
        parts = [(store.lo.copy(), store.hi.copy())]
        assert store.max_extent is not None  # warm the cache: it must track
        for lo, hi in self._batches(1, sizes):
            store.append(lo, hi)
            parts.append((lo, hi))
            whole = BoxStore(
                np.concatenate([p[0] for p in parts]),
                np.concatenate([p[1] for p in parts]),
            )
            assert np.array_equal(store.lo, whole.lo)
            assert np.array_equal(store.hi, whole.hi)
            assert np.array_equal(store.ids, whole.ids)
            assert np.array_equal(store.live, whole.live)
            assert np.array_equal(store.max_extent, whole.max_extent)
            assert store.fingerprint() == whole.fingerprint()
            assert store.n == len(store) == whole.n
        assert store.epoch == sum(1 for k in sizes if k)

    def test_small_appends_reallocate_rarely(self):
        store = _small_store(1_000)
        moves, buffer = 0, store.lo
        for lo, hi in self._batches(2, (4,) * 500):
            store.append(lo, hi)
            if not np.shares_memory(store.lo, buffer):
                moves, buffer = moves + 1, store.lo
        assert store.n == 3_000
        assert moves <= 12  # ~log(3) / log(9/8), not one per batch

    def test_held_ranges_stay_valid_across_growth(self):
        store = _small_store(64)
        want_ids = store.ids[10:20].copy()
        want_lo = store.lo[10:20].copy()
        order = np.arange(10)[::-1].copy()
        for lo, hi in self._batches(3, (5, 80, 300)):
            store.append(lo, hi)
            assert np.array_equal(store.ids[10:20], want_ids)
            assert np.array_equal(store.lo[10:20], want_lo)
            # ... and stay writable in place: cracking a held range after
            # growth reorders the store, not a stale buffer.
            store.apply_order_range(10, 20, order)
            want_ids, want_lo = want_ids[order], want_lo[order]
            assert np.array_equal(store.lo[10:20], want_lo)
        store.delete_ids(want_ids[:3])
        assert not store.live[10:13].any() and store.live[13:].all()

    def test_copy_and_compact_drop_the_slack(self):
        store = _small_store(100)
        for lo, hi in self._batches(4, (3, 3, 3)):
            store.append(lo, hi)
        exact = 109 * (2 * 2 * 8 + 8 + 1)

        def owned(s: BoxStore) -> int:
            cols = (s.lo, s.hi, s.ids, s.live)
            return sum(c.nbytes if c.base is None else c.base.nbytes for c in cols)

        # Readers of the public columns see logical sizes either way.
        assert sum(c.nbytes for c in (store.lo, store.hi, store.ids, store.live)) == exact
        assert owned(store) > exact
        dup = store.copy()
        assert owned(dup) == exact and dup.fingerprint() == store.fingerprint()
        dup.append(np.zeros((1, 2)), np.ones((1, 2)))
        assert store.n == 109  # the copy grew on its own buffers
        store.delete_ids(store.ids[:9].copy())
        store.compact()
        assert store.n == 100 and owned(store) == 100 * (2 * 2 * 8 + 8 + 1)

    def test_appending_over_caller_arrays_never_touches_them(self):
        backing = np.zeros(8 * 5, dtype=np.float64)
        lo = backing[:16].reshape(8, 2)
        hi = backing[16:32].reshape(8, 2)
        hi[:] = 1.0
        ids = backing[32:].view(np.int64)
        ids[:] = np.arange(8)
        store = BoxStore(lo, hi, ids)
        assert np.shares_memory(store.lo, backing)  # zero-copy until it grows
        snapshot = backing.copy()
        store.append(np.full((3, 2), 7.0), np.full((3, 2), 8.0))
        assert store.n == 11 and not np.shares_memory(store.lo, backing)
        assert not np.shares_memory(store.ids, backing)
        store.apply_order_range(0, 11, np.arange(11)[::-1].copy())
        store.delete_ids(np.array([0]))
        assert np.array_equal(backing, snapshot) and backing.size == 40
