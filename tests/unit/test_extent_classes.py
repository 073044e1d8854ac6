"""Extent classes: each top-level list extends queries by its own margin.

The first query splits the main rows into small and large boxes, each a
top-level run whose margin is the largest extent of its own rows.  These
tests pin the split's edges (no rows, no live rows, one class), its
timing (the first query, never construction), and the margins on a
lattice where boxes only *touch* the window — the one place a margin
that is too small loses a result.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines import ScanIndex
from repro.core import QuasiiConfig, QuasiiIndex
from repro.datasets import BoxStore
from repro.geometry import Box
from repro.queries import Query

#: Small boxes are 1 wide, large ones 8: the rule's bound is 2.
SMALL, LARGE = 1.0, 8.0
#: A window whose lower corner the two touching boxes end at.
WINDOW = Query(Box((10.5, 10.5), (14.5, 14.5)), seq=0)


def _lattice() -> tuple[np.ndarray, np.ndarray]:
    """Unit boxes on a 30x30 lattice, ten 8-wide boxes along the diagonal,
    and one box of each class whose lower key sits exactly at the
    window's lower bound minus its class's margin: each only touches the
    window, on its x face."""
    grid = np.stack(np.meshgrid(np.arange(30.0), np.arange(30.0)), -1).reshape(-1, 2)
    diagonal = np.repeat(np.arange(0.0, 30.0, 3.0)[:, None], 2, axis=1)
    touching = np.array([[10.5 - SMALL, 12.0], [10.5 - LARGE, 11.0]])
    lo = np.concatenate((grid, diagonal, touching))
    sides = np.full(len(lo), SMALL)
    sides[len(grid) : len(grid) + len(diagonal)] = LARGE
    sides[-1] = LARGE
    return lo, lo + sides[:, None]


def _store(lo: np.ndarray, hi: np.ndarray) -> BoxStore:
    """A store of its own: queries permute a store's arrays in place."""
    return BoxStore(lo.copy(), hi.copy())


def _closed_hits(lo: np.ndarray, hi: np.ndarray, query: Query) -> np.ndarray:
    """Row ids whose closed box meets the closed window."""
    hit = np.all(lo <= query.hi, axis=1) & np.all(hi >= query.lo, axis=1)
    return np.flatnonzero(hit)


def _agrees_with_scan(index: QuasiiIndex, scan: ScanIndex, queries) -> None:
    for query in queries:
        got, want = index.execute(query).ids, scan.execute(query).ids
        assert np.array_equal(np.sort(got), np.sort(want)), query
        index.validate_structure()


def _windows(seed: int, k: int = 20, side: float = 6.0) -> list[Query]:
    rng = np.random.default_rng(seed)
    corners = rng.uniform(-2.0, 32.0, size=(k, 2))
    return [
        Query(Box(tuple(c), tuple(c + side)), seq=i) for i, c in enumerate(corners)
    ]


class TestTouchingBoxes:
    def test_each_class_keeps_the_box_that_only_touches_the_window(self):
        lo, hi = _lattice()
        index = QuasiiIndex(_store(lo, hi), QuasiiConfig(2, (8, 2)))
        got = index.execute(WINDOW).ids
        want = _closed_hits(lo, hi, WINDOW)
        assert np.array_equal(np.sort(got), want)
        # Both touching boxes are in, each found through its own class.
        assert {len(lo) - 2, len(lo) - 1} <= set(got.tolist())
        assert [m.tolist() for m in index._margins] == [[SMALL] * 2, [LARGE] * 2]
        index.validate_structure()

    def test_the_lattice_agrees_with_the_closed_predicate_throughout(self):
        lo, hi = _lattice()
        index = QuasiiIndex(_store(lo, hi), QuasiiConfig(2, (8, 2)))
        for query in [WINDOW, *_windows(seed=3)]:
            got = index.execute(query).ids
            assert np.array_equal(np.sort(got), _closed_hits(lo, hi, query))
        assert index.runs == 1 and len(index._tops) == 2
        index.validate_structure()


class TestSplitTiming:
    def test_construction_moves_nothing_until_the_first_query(self):
        lo, hi = _lattice()
        store = _store(lo, hi)
        index = QuasiiIndex(store, QuasiiConfig(2, (8, 2)))
        index.build()
        assert store.ids.tolist() == list(range(len(lo)))
        assert len(index._tops) == 1 and len(index._top) == 1
        assert index.stats.rows_reorganized == 0
        index.execute(WINDOW)
        assert len(index._tops) == 2
        # Small rows first, large rows after them, each in their old order.
        large = np.flatnonzero(hi[:, 0] - lo[:, 0] == LARGE)
        split = int(index._tops[1].begin[0])
        assert split == len(lo) - large.size
        assert sorted(store.ids[split:].tolist()) == large.tolist()

    def test_inserts_before_the_first_query_join_the_split(self):
        lo, hi = _lattice()
        index = QuasiiIndex(_store(lo, hi), QuasiiConfig(2, (8, 2)))
        scan = ScanIndex(_store(lo, hi))
        extra = np.array([[5.0, 5.0], [20.0, 3.0]])
        for target in (index, scan):
            target.insert(extra, extra + [[SMALL], [LARGE]])
        _agrees_with_scan(index, scan, [WINDOW, *_windows(seed=4)])
        assert len(index._tops) == 2  # the batch joined the virgin main run

    def test_inserts_after_the_split_form_an_appended_run(self):
        lo, hi = _lattice()
        index = QuasiiIndex(_store(lo, hi), QuasiiConfig(2, (8, 2)))
        scan = ScanIndex(_store(lo, hi))
        _agrees_with_scan(index, scan, [WINDOW])
        extra = np.array([[5.0, 5.0]])
        for target in (index, scan):
            target.insert(extra, extra + SMALL)
        _agrees_with_scan(index, scan, _windows(seed=5))
        assert index.runs == 2 and len(index._tops) == 3
        # The appended run's margin is its own rows', not a class's.
        assert index._margins[-1].tolist() == [SMALL, SMALL]


class TestEdges:
    """Every edge of the split, each against the Scan oracle."""

    def test_an_empty_store(self):
        store = BoxStore(np.empty((0, 2)), np.empty((0, 2)))
        index, scan = QuasiiIndex(store), ScanIndex(store.copy())
        _agrees_with_scan(index, scan, [WINDOW])
        assert index.runs == 0
        lo, hi = _lattice()
        for target in (index, scan):
            target.insert(lo, hi)
        # An absorbed run is never split by class: one margin for all.
        _agrees_with_scan(index, scan, [WINDOW, *_windows(seed=6)])
        assert len(index._tops) == 1
        assert index._margins[0].tolist() == [LARGE, LARGE]

    def test_every_row_dead_and_compacted_before_the_first_query(self):
        lo, hi = _lattice()
        index = QuasiiIndex(_store(lo, hi), QuasiiConfig(2, (8, 2)))
        scan = ScanIndex(_store(lo, hi))
        for target in (index, scan):
            target.delete(np.arange(len(lo)))
            target.compact()
        _agrees_with_scan(index, scan, [WINDOW])
        assert index.runs == 0
        extra = np.array([[11.0, 11.0], [3.0, 11.0]])
        for target in (index, scan):
            target.insert(extra, extra + [[SMALL], [LARGE]])
        _agrees_with_scan(index, scan, [WINDOW, *_windows(seed=7)])

    @pytest.mark.parametrize("side", [SMALL, LARGE, 0.0], ids=["small", "large", "points"])
    def test_a_one_class_store_is_not_split(self, side):
        lo = _lattice()[0]
        hi = lo + side
        index = QuasiiIndex(_store(lo, hi), QuasiiConfig(2, (8, 2)))
        scan = ScanIndex(_store(lo, hi))
        _agrees_with_scan(index, scan, [WINDOW, *_windows(seed=8)])
        assert len(index._tops) == 1
        assert index._margins[0].tolist() == [side, side]

    def test_points_among_large_boxes_form_the_small_class(self):
        # Every row is 8 wide but one in 64 is a point: the sampled median
        # is 0, so every other row is large and the points form the
        # small class alone.
        lo = _lattice()[0]
        hi = lo + LARGE
        hi[::64] = lo[::64]
        index = QuasiiIndex(_store(lo, hi), QuasiiConfig(2, (8, 2)))
        scan = ScanIndex(_store(lo, hi))
        _agrees_with_scan(index, scan, [WINDOW, *_windows(seed=9)])
        assert [m.tolist() for m in index._margins] == [[0.0, 0.0], [LARGE, LARGE]]

    def test_deletes_and_compaction_drop_a_class_with_its_margin(self):
        lo, hi = _lattice()
        index = QuasiiIndex(_store(lo, hi), QuasiiConfig(2, (8, 2)))
        scan = ScanIndex(_store(lo, hi))
        _agrees_with_scan(index, scan, [WINDOW])
        large = np.flatnonzero(hi[:, 0] - lo[:, 0] == LARGE)
        for target in (index, scan):
            target.delete(large)
            target.compact()
        assert len(index._tops) == len(index._margins) == 1
        assert index._margins[0].tolist() == [SMALL, SMALL]
        _agrees_with_scan(index, scan, _windows(seed=10))
