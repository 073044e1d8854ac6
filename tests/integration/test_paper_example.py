"""Integration: the paper's Figure 4 walk-through, mechanically.

A 2-d dataset of ten small objects indexed with the paper's handcrafted
thresholds (τx = 4, τy = 2).  The assertions follow the figure:

* q1's x-range slices the initial slice three ways (s1/s2/s3 with 1, 4 and
  5 objects);
* the middle x-slice is then y-refined into two non-empty slices of two
  objects each — the empty third slice (the paper's s23) is dropped;
* the untouched right slice s3 stays coarse;
* a later query refines only s3, leaving the earlier slices intact.

Coordinates are our own (the figure's exact numbers are not published),
but sizes, slice counts, and refinement types mirror the figure.
"""

from __future__ import annotations

import numpy as np

from repro.core import QuasiiConfig, QuasiiIndex
from repro.datasets import BoxStore
from repro.geometry import Box
from repro.queries import Query

EXTENT = 0.3

# Lower corners of o0..o9, named as in the figure.
LOWER = {
    0: (6.5, 3.0),
    1: (7.5, 7.0),
    2: (1.0, 5.0),
    3: (9.0, 0.5),
    4: (2.6, 4.5),
    5: (4.5, 1.5),
    6: (3.8, 5.5),
    7: (2.2, 1.0),
    8: (5.0, 6.5),
    9: (3.0, 2.5),
}


def make_figure4_index() -> tuple[BoxStore, QuasiiIndex]:
    lo = np.array([LOWER[i] for i in range(10)], dtype=np.float64)
    store = BoxStore(lo, lo + EXTENT)
    config = QuasiiConfig(ndim=2, level_thresholds=(4, 2))
    return store, QuasiiIndex(store, config)


Q1 = Query(Box((2.0, 4.0), (4.0, 6.0)), seq=0)
Q2 = Query(Box((4.4, 0.5), (9.6, 3.5)), seq=1)


class TestQueryOne:
    def test_result_is_o4_and_o6(self):
        _, idx = make_figure4_index()
        assert sorted(idx.execute(Q1).ids.tolist()) == [4, 6]

    def test_three_x_slices_with_figure_sizes(self):
        _, idx = make_figure4_index()
        idx.execute(Q1)
        top = idx._top
        assert [s.size for s in top] == [1, 4, 5], "s1/s2/s3 of Figure 4b"
        idx.validate_structure()

    def test_objects_partitioned_by_lower_x(self):
        store, idx = make_figure4_index()
        idx.execute(Q1)
        # Physical layout: o2 | {o4,o6,o7,o9} | {o0,o1,o3,o5,o8}.
        assert store.id_at(0) == 2
        assert set(store.ids[1:5].tolist()) == {4, 6, 7, 9}
        assert set(store.ids[5:10].tolist()) == {0, 1, 3, 5, 8}

    def test_middle_slice_y_refined_two_children(self):
        _, idx = make_figure4_index()
        idx.execute(Q1)
        middle = idx._top[1]
        assert middle.children is not None
        sizes = [s.size for s in middle.children]
        assert sizes == [2, 2], "s21/s22 of Figure 4c; empty s23 dropped"

    def test_right_slice_stays_coarse(self):
        _, idx = make_figure4_index()
        idx.execute(Q1)
        right = idx._top[2]
        assert right.size == 5
        assert not right.final, "s3 exceeds τx but was not in q1's x-range"
        assert right.children is None

    def test_slice_mbbs_reflect_actual_extents(self):
        store, idx = make_figure4_index()
        idx.execute(Q1)
        middle = idx._top[1]
        rows_lo = store.lo[middle.begin : middle.end]
        rows_hi = store.hi[middle.begin : middle.end]
        assert np.all(rows_lo >= middle.mbb_lo - 1e-12)
        assert np.all(rows_hi <= middle.mbb_hi + 1e-12)


class TestQueryTwo:
    def test_result(self):
        _, idx = make_figure4_index()
        idx.execute(Q1)
        assert sorted(idx.execute(Q2).ids.tolist()) == [0, 3, 5]

    def test_only_s3_is_refined_further(self):
        _, idx = make_figure4_index()
        idx.execute(Q1)
        left_before = idx._top[0]
        middle_before = idx._top[1]
        idx.execute(Q2)
        top = idx._top
        # s1 and s2 untouched (same objects, same children).
        assert top[0] is left_before
        assert top[1] is middle_before
        # s3 replaced by smaller slices, each within τx.
        assert len(top) >= 4
        assert all(s.size <= 4 for s in list(top)[2:])
        idx.validate_structure()

    def test_cumulative_reorganization_bounded(self):
        _, idx = make_figure4_index()
        idx.execute(Q1)
        moved_q1 = idx.stats.rows_reorganized
        idx.execute(Q2)
        moved_q2 = idx.stats.rows_reorganized - moved_q1
        # q2 only reorganizes within s3 (5 objects), never the whole array.
        assert moved_q2 <= 5 * 2  # at most a couple of cracks over s3


class TestRepeatedQueries:
    def test_replays_produce_identical_results_and_no_new_cracks(self):
        _, idx = make_figure4_index()
        first_q1 = sorted(idx.execute(Q1).ids.tolist())
        first_q2 = sorted(idx.execute(Q2).ids.tolist())
        cracks = idx.stats.cracks
        assert sorted(idx.execute(Q1).ids.tolist()) == first_q1
        assert sorted(idx.execute(Q2).ids.tolist()) == first_q2
        assert idx.stats.cracks == cracks
