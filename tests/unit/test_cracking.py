"""Unit tests for the cracking kernels (frame-level since PR 19)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import Frame, crack, crack_values, range_dim_stats
from repro.datasets import BoxStore
from repro.errors import ConfigurationError


def make_store(keys: list[float]) -> BoxStore:
    """1-d store whose lower coords are ``keys`` with extent 0.5 each."""
    lo = np.array(keys, dtype=np.float64)[:, None]
    return BoxStore(lo, lo + 0.5)


def make_frame(keys: list[float]) -> Frame:
    store = make_store(keys)
    return Frame(store, 0, store.n, 0)


class TestPartitionOrder:
    """One partition step on a frame: keys, splits and the step's order."""

    def test_two_way(self):
        frame = make_frame([5.0, 1.0, 3.0, 9.0, 2.0])
        assert crack(frame, 0, 5, [3.0]) == [2]
        assert np.all(frame.lo[:2] < 3.0)
        assert np.all(frame.lo[2:] >= 3.0)

    def test_three_way(self):
        frame = make_frame([5.0, 1.0, 3.0, 9.0, 2.0, 7.0])
        s0, s1 = crack(frame, 0, 6, [3.0, 7.0])
        assert np.all(frame.lo[:s0] < 3.0)
        assert np.all((frame.lo[s0:s1] >= 3.0) & (frame.lo[s0:s1] < 7.0))
        assert np.all(frame.lo[s1:] >= 7.0)

    def test_stability(self):
        frame = make_frame([1.0, 1.0, 0.0, 1.0])
        crack(frame, 0, 4, [0.5])
        # Equal keys keep their original relative order.
        assert frame.perm.tolist() == [2, 0, 1, 3]

    def test_boundary_key_goes_right(self):
        frame = make_frame([3.0])
        assert crack(frame, 0, 1, [3.0]) == [0], "'key < bound' convention"

    def test_rejects_unsorted_bounds(self):
        with pytest.raises(ConfigurationError):
            crack(make_frame([1.0]), 0, 1, [5.0, 2.0])
        with pytest.raises(ConfigurationError):
            crack(make_frame([1.0]), 0, 1, [5.0, 5.0])

    def test_rejects_empty_bounds(self):
        with pytest.raises(ConfigurationError):
            crack(make_frame([1.0]), 0, 1, [])

    def test_all_left_or_all_right(self):
        frame = make_frame([1.0, 2.0])
        assert crack(frame, 0, 2, [10.0]) == [2]
        assert crack(frame, 0, 2, [0.0]) == [0]
        assert frame.perm.tolist() == [0, 1]


class TestCrackStore:
    """Cracks reach the store through one ``Frame.commit``."""

    def test_crack_reorders_physically(self):
        store = make_store([5.0, 1.0, 3.0, 9.0, 2.0])
        frame = Frame(store, 0, 5, 0)
        assert crack(frame, 0, 5, [3.0]) == [2]
        assert store.lo[:, 0].tolist() == [5.0, 1.0, 3.0, 9.0, 2.0], (
            "the store moves at commit, not at crack"
        )
        frame.commit()
        assert store.lo[:, 0].tolist() == [1.0, 2.0, 5.0, 3.0, 9.0]
        assert store.ids.tolist() == [1, 4, 0, 2, 3]
        assert np.array_equal(store.lo[:, 0], frame.lo)
        assert np.array_equal(store.hi[:, 0], frame.hi)

    def test_crack_subrange_leaves_rest_alone(self):
        store = make_store([5.0, 1.0, 3.0, 9.0, 2.0])
        before_first = store.box_at(0)
        before_last = store.box_at(4)
        # A frame over rows [1, 4), and a crack of its positions [0, 3).
        frame = Frame(store, 1, 4, 0)
        assert crack(frame, 0, 3, [4.0]) == [2]
        frame.commit()
        assert store.box_at(0) == before_first
        assert store.box_at(4) == before_last
        assert np.all(store.lo[1:3, 0] < 4.0) and store.lo[3, 0] == 9.0
        # A sub-range crack inside a frame leaves the frame's rest alone.
        frame = Frame(store, 0, 5, 0)
        crack(frame, 3, 5, [5.0])
        assert frame.perm.tolist() == [0, 1, 2, 4, 3]

    def test_crack_preserves_multiset(self):
        store = make_store([5.0, 1.0, 3.0, 9.0, 2.0, 2.0, 8.0])
        fp = store.fingerprint()
        frame = Frame(store, 0, 7, 0)
        s0, s1 = crack(frame, 0, 7, [2.0, 6.0])
        crack(frame, s0, s1, [3.0])
        frame.commit()
        assert store.fingerprint() == fp

    def test_crack_three_way_splits(self):
        frame = make_frame([5.0, 1.0, 3.0, 9.0, 2.0, 7.0])
        assert crack(frame, 0, 6, [3.0, 7.0]) == [2, 4]

    def test_crack_on_higher_dim(self):
        lo = np.array([[0.0, 5.0], [1.0, 1.0], [2.0, 3.0]])
        store = BoxStore(lo, lo + 1.0)
        frame = Frame(store, 0, 3, 1)
        assert crack(frame, 0, 3, [3.0]) == [1]
        frame.commit()
        assert store.lo.tolist() == [[1.0, 1.0], [0.0, 5.0], [2.0, 3.0]]

    def test_commit_without_a_crack_leaves_the_store_alone(self, monkeypatch):
        store = make_store([5.0, 1.0, 3.0])
        frame = Frame(store, 0, 3, 0)
        range_dim_stats(frame, 0, 3)
        monkeypatch.setattr(
            BoxStore, "apply_order_range", lambda *a: pytest.fail("store touched")
        )
        frame.commit()

    def test_frame_never_aliases_the_store(self):
        store = make_store([5.0, 1.0, 3.0])  # 1-d: a column slice is contiguous
        frame = Frame(store, 0, 3, 0)
        assert not np.shares_memory(frame.lo, store.lo)
        assert not np.shares_memory(frame.hi, store.hi)


class TestCrackValues:
    def test_basic(self):
        values = np.array([5, 1, 3, 9, 2], dtype=np.uint64)
        payload = np.arange(5)
        split = crack_values(values, payload, 0, 5, 3)
        assert split == 2
        assert values.tolist() == [1, 2, 5, 3, 9], "stable on both sides"
        # Payload permuted in lockstep.
        assert payload.tolist() == [1, 4, 0, 2, 3]

    def test_subrange(self):
        values = np.array([9, 5, 1, 3, 0], dtype=np.uint64)
        payload = np.arange(5)
        split = crack_values(values, payload, 1, 4, 4)
        assert split == 3
        assert values[0] == 9 and values[4] == 0


class TestRangeDimStats:
    def make(self) -> Frame:
        lo = np.array([[1.0], [5.0], [3.0]])
        hi = np.array([[2.0], [9.0], [3.5]])
        return Frame(BoxStore(lo, hi), 0, 3, 0)

    def test_stats(self):
        assert range_dim_stats(self.make(), 0, 3) == (1.0, 5.0, 9.0)

    def test_subrange(self):
        assert range_dim_stats(self.make(), 1, 3) == (3.0, 5.0, 9.0)

    def test_stats_follow_the_cracks(self):
        frame = self.make()
        (split,) = crack(frame, 0, 3, [3.0])
        assert range_dim_stats(frame, 0, split) == (1.0, 1.0, 2.0)
        assert range_dim_stats(frame, split, 3) == (3.0, 5.0, 9.0)

    def test_cracks_on_the_lower_coordinate(self):
        # Upper coordinates sort the other way round; they ride along.
        lo = np.array([[0.0], [4.0], [8.0]])
        hi = np.array([[20.0], [6.0], [10.0]])
        frame = Frame(BoxStore(lo, hi), 0, 3, 0)
        assert crack(frame, 0, 3, [5.0]) == [2]
        assert frame.hi.tolist() == [20.0, 6.0, 10.0]
