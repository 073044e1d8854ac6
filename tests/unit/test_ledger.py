"""Direct unit coverage for :class:`UpdateLedger`.

The ledger is the property suites' oracle, so its own edges need direct
tests rather than indirect coverage: the delete-of-never-inserted and
reinsert-after-delete edges of ``live_ids`` and of the window oracle
``closed_box_ids``, the all-or-nothing batch validation, and its
agreement with the store it models.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.datasets import BoxStore
from repro.errors import DatasetError
from repro.geometry import Box
from repro.queries import Query
from tests.ledger import UpdateLedger, closed_box_ids


def _boxes(rows):
    lo = np.array([[x, y] for x, y, _ in rows], dtype=np.float64)
    hi = lo + np.array([[s, s] for _, _, s in rows], dtype=np.float64)
    return lo, hi


def _hits(ledger, lo, hi, predicate="intersects"):
    """``closed_box_ids`` for the window ``[lo, hi]``."""
    window = Box(tuple(map(float, lo)), tuple(map(float, hi)))
    return closed_box_ids(ledger, Query(window, predicate=predicate))


class TestLiveIdsEdges:
    def test_delete_of_never_inserted_id_raises(self):
        ledger = UpdateLedger()
        lo, hi = _boxes([(0, 0, 1), (5, 5, 1)])
        ledger.record_insert(lo, hi, np.array([3, 4]))
        with pytest.raises(DatasetError, match="unknown id 9"):
            ledger.record_delete(np.array([9]))
        # All-or-nothing: a batch with one unknown id removes nothing.
        with pytest.raises(DatasetError, match="unknown id 9"):
            ledger.record_delete(np.array([3, 9]))
        assert np.array_equal(ledger.live_ids(), np.array([3, 4]))

    def test_delete_twice_raises_second_time(self):
        ledger = UpdateLedger()
        lo, hi = _boxes([(0, 0, 1)])
        ledger.record_insert(lo, hi, np.array([7]))
        ledger.record_delete(np.array([7]))
        assert ledger.live_ids().size == 0
        with pytest.raises(DatasetError, match="unknown id 7"):
            ledger.record_delete(np.array([7]))

    def test_reinsert_after_delete_is_live_again(self):
        ledger = UpdateLedger()
        lo, hi = _boxes([(0, 0, 1)])
        ledger.record_insert(lo, hi, np.array([5]))
        ledger.record_delete(np.array([5]))
        lo2, hi2 = _boxes([(9, 9, 2)])
        ledger.record_insert(lo2, hi2, np.array([5]))
        assert np.array_equal(ledger.live_ids(), np.array([5]))
        # The reinserted geometry (not the original) answers windows.
        hits = _hits(ledger, [8.0, 8.0], [12.0, 12.0])
        assert np.array_equal(hits, np.array([5]))
        miss = _hits(ledger, [-1.0, -1.0], [2.0, 2.0])
        assert miss.size == 0

    def test_duplicate_insert_is_all_or_nothing(self):
        ledger = UpdateLedger()
        lo, hi = _boxes([(0, 0, 1)])
        ledger.record_insert(lo, hi, np.array([1]))
        blo, bhi = _boxes([(2, 2, 1), (3, 3, 1)])
        with pytest.raises(DatasetError, match="already holds id 1"):
            ledger.record_insert(blo, bhi, np.array([2, 1]))
        # Neither row of the rejected batch landed (id 2 stayed unknown).
        assert np.array_equal(ledger.live_ids(), np.array([1]))
        assert len(ledger) == 1

    def test_duplicate_within_one_batch_raises(self):
        ledger = UpdateLedger()
        blo, bhi = _boxes([(2, 2, 1), (3, 3, 1)])
        with pytest.raises(DatasetError, match="already holds id 6"):
            ledger.record_insert(blo, bhi, np.array([6, 6]))
        assert len(ledger) == 0


class TestClosedBoxIdsEdges:
    def test_empty_ledger_returns_empty(self):
        ledger = UpdateLedger()
        out = _hits(ledger, [0.0, 0.0], [9.0, 9.0])
        assert out.size == 0 and out.dtype == np.int64

    def test_touching_edges_count_as_intersecting(self):
        ledger = UpdateLedger()
        lo, hi = _boxes([(0, 0, 2)])  # box [0,2]^2
        ledger.record_insert(lo, hi, np.array([11]))
        # Window starting exactly at the box's upper corner touches it.
        hits = _hits(ledger, [2.0, 2.0], [5.0, 5.0])
        assert np.array_equal(hits, np.array([11]))
        # Strictly beyond misses.
        miss = _hits(ledger, [2.1, 2.1], [5.0, 5.0])
        assert miss.size == 0

    def test_deleted_rows_never_match(self):
        store = BoxStore(np.zeros((3, 2)), np.ones((3, 2)))
        ledger = UpdateLedger(store)
        ledger.record_delete(np.array([1]))
        hits = _hits(ledger, [0.0, 0.0], [1.0, 1.0])
        assert np.array_equal(hits, np.array([0, 2]))


class TestColumns:
    def test_columns_are_the_live_rows_in_id_order(self):
        ledger = UpdateLedger()
        lo, hi = _boxes([(5, 5, 1), (0, 0, 2), (9, 9, 3)])
        ledger.record_insert(lo, hi, np.array([9, 4, 6]))
        ledger.record_delete(np.array([6]))
        ids, clo, chi = ledger.columns(2)
        assert ids.tolist() == [4, 9]
        assert clo.tolist() == [[0.0, 0.0], [5.0, 5.0]]
        assert chi.tolist() == [[2.0, 2.0], [6.0, 6.0]]
        assert clo.dtype == chi.dtype == np.float64

    def test_an_empty_ledger_has_empty_columns_of_the_given_width(self):
        ids, lo, hi = UpdateLedger().columns(3)
        assert ids.shape == (0,) and lo.shape == hi.shape == (0, 3)


class TestModelOfAStore:
    """The ledger as the suites use it: a model a store is held to."""

    def test_seeding_takes_only_the_live_rows(self):
        lo, hi = _boxes([(0, 0, 1), (5, 5, 2), (9, 1, 1)])
        store = BoxStore(lo, hi)
        store.delete_ids(np.array([1]))
        ledger = UpdateLedger(store)
        assert len(ledger) == 2
        assert ledger.live_ids().tolist() == [0, 2]
        ledger.assert_matches(store)

    def test_len_follows_inserts_and_deletes(self):
        ledger = UpdateLedger()
        lo, hi = _boxes([(0, 0, 1), (2, 2, 1), (4, 4, 1)])
        ledger.record_insert(lo, hi, np.array([7, 8, 9]))
        assert len(ledger) == 3
        ledger.record_delete(np.array([8]))
        assert len(ledger) == 2
        ledger.record_insert(lo[1:2], hi[1:2], np.array([8]))
        assert len(ledger) == 3

    def test_live_ids_are_sorted_whatever_the_insert_order(self):
        ledger = UpdateLedger()
        lo, hi = _boxes([(0, 0, 1)] * 4)
        ledger.record_insert(lo, hi, np.array([40, 3, 17, 9]))
        out = ledger.live_ids()
        assert out.tolist() == [3, 9, 17, 40] and out.dtype == np.int64

    def test_a_rejected_delete_batch_changes_nothing(self):
        ledger = UpdateLedger()
        lo, hi = _boxes([(0, 0, 1), (2, 2, 1)])
        ledger.record_insert(lo, hi, np.array([1, 2]))
        with pytest.raises(DatasetError, match="unknown id 5"):
            ledger.record_delete(np.array([1, 5]))
        assert ledger.live_ids().tolist() == [1, 2]

    def test_a_single_flat_box_is_one_row(self):
        ledger = UpdateLedger()
        ledger.record_insert(np.array([1.0, 2.0]), np.array([3.0, 4.0]), 6)
        assert ledger.live_ids().tolist() == [6]
        store = BoxStore(np.array([[1.0, 2.0]]), np.array([[3.0, 4.0]]), np.array([6]))
        ledger.assert_matches(store)

    def test_matches_store_sees_a_moved_box(self):
        lo, hi = _boxes([(0, 0, 1), (5, 5, 1)])
        ledger = UpdateLedger(BoxStore(lo, hi))
        moved = hi.copy()
        moved[1, 0] += 0.5
        assert not ledger.matches_store(BoxStore(lo, moved))
        assert ledger.matches_store(BoxStore(lo, hi))

    def test_matches_store_sees_a_missing_or_foreign_row(self):
        lo, hi = _boxes([(0, 0, 1), (5, 5, 1)])
        ledger = UpdateLedger(BoxStore(lo, hi))
        fewer = BoxStore(lo, hi)
        fewer.delete_ids(np.array([0]))
        assert not ledger.matches_store(fewer)
        # Same size, same boxes, another id.
        assert not ledger.matches_store(BoxStore(lo, hi, np.array([0, 3])))

    def test_assert_matches_names_both_counts(self):
        lo, hi = _boxes([(0, 0, 1), (5, 5, 1), (7, 7, 1)])
        ledger = UpdateLedger(BoxStore(lo, hi))
        with pytest.raises(AssertionError, match="2 live rows vs 3 ledger rows"):
            ledger.assert_matches(BoxStore(lo[:2], hi[:2]))

    def test_empty_batches_leave_the_ledger_alone(self):
        lo, hi = _boxes([(0, 0, 1)])
        store = BoxStore(lo, hi)
        ledger = UpdateLedger(store)
        ledger.record_insert(np.empty((0, 2)), np.empty((0, 2)), np.empty(0, np.int64))
        ledger.record_delete(np.empty(0, np.int64))
        assert len(ledger) == 1
        ledger.assert_matches(store)

    def test_follows_a_store_through_reinsert_after_compaction(self):
        lo, hi = _boxes([(0, 0, 1), (3, 3, 1), (6, 6, 1)])
        store = BoxStore(lo, hi)
        ledger = UpdateLedger(store)
        store.delete_ids(np.array([1]))
        ledger.record_delete(np.array([1]))
        ledger.assert_matches(store)
        store.compact()
        ledger.assert_matches(store)
        # The freed id comes back with another box.
        nlo, nhi = _boxes([(8, 1, 2)])
        store.append(nlo, nhi, np.array([1]))
        ledger.record_insert(nlo, nhi, np.array([1]))
        ledger.assert_matches(store)
        hits = _hits(ledger, [7.5, 0.0], [9.0, 2.0])
        assert hits.tolist() == [1]

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_closed_box_ids_is_a_scan_of_the_live_rows(self, seed):
        rng = np.random.default_rng(seed)
        lo = rng.uniform(0, 50, size=(200, 2))
        hi = lo + rng.uniform(0, 5, size=(200, 2))
        store = BoxStore(lo, hi)
        ledger = UpdateLedger(store)
        victims = rng.choice(200, size=40, replace=False)
        store.delete_ids(victims)
        ledger.record_delete(victims)
        live = store.live_rows()
        tests = {
            "intersects": lambda b, w: b[0] <= w[1] and w[0] <= b[1],
            "within": lambda b, w: w[0] <= b[0] and b[1] <= w[1],
            "contains": lambda b, w: b[0] <= w[0] and w[1] <= b[1],
        }
        for _ in range(10):
            wlo = rng.uniform(0, 45, size=2)
            whi = wlo + rng.uniform(1, 15, size=2)
            for predicate, holds in tests.items():
                want = sorted(
                    int(store.ids[row])
                    for row in live
                    if all(
                        holds((store.lo[row, d], store.hi[row, d]), (wlo[d], whi[d]))
                        for d in range(2)
                    )
                )
                got = _hits(ledger, wlo, whi, predicate)
                assert got.tolist() == want, predicate
