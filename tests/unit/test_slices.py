"""Unit tests for the column-store SliceList and its Slice handles."""

from __future__ import annotations

import sys

import numpy as np
import pytest

from repro.core.slices import COLUMN_DTYPES, SliceList
from repro.datasets import BoxStore

INF = float("inf")
OPEN = (np.full(2, -INF), np.full(2, INF))


def make_list(level=0, d=2):
    """Three siblings over rows [0, 9) with cuts -inf / 3 / 7."""
    lst = SliceList.from_pieces(
        level,
        [(-INF, 0, 2, 0.0, 3.5), (3.0, 2, 5, 3.0, 7.5), (7.0, 5, 9, 7.0, 12.0)],
        np.full(d, -INF),
        np.full(d, INF),
    )
    return lst


def columns(lst):
    return {name: getattr(lst, name).tolist() for name in COLUMN_DTYPES}


class TestConstruction:
    def test_columns_have_declared_dtypes_and_shapes(self):
        lst = make_list()
        for name, dtype in COLUMN_DTYPES.items():
            column = getattr(lst, name)
            assert column.dtype == dtype
            assert column.shape == ((3, 2) if name.startswith("mbb") else (3,))
        assert len(lst) == 3 and not lst.final.any()

    def test_from_pieces_inherits_parent_box_off_dimension(self):
        lst = SliceList.from_pieces(
            1, [(-INF, 0, 4, 2.0, 5.0)], np.array([1.0, -INF]), np.array([9.0, INF])
        )
        assert lst.mbb_lo.tolist() == [[1.0, 2.0]]
        assert lst.mbb_hi.tolist() == [[9.0, 5.0]]

    def test_single_box_vector_becomes_one_row_and_is_copied(self):
        box_lo = np.array([1.0, 2.0])
        lst = SliceList(0, [-INF], [0], [4], box_lo, box_lo + 1.0)
        assert lst.mbb_lo.shape == (1, 2)
        lst.mbb_lo[0, 0] = -5.0
        assert box_lo[0] == 1.0

    def test_inner_lists_carry_a_child_column_bottom_lists_do_not(self):
        assert make_list(level=0).children == [None, None, None]
        bottom = make_list(level=1)
        assert bottom.children == []
        assert bottom.child(2) is None


class TestProbe:
    WIN = (np.array([0.0, 0.0]), np.array([100.0, 100.0]))

    def test_range_starts_at_the_slice_owning_the_lower_key(self):
        lst = make_list()
        assert lst.probe(-1e18, -1e18, *self.WIN)[:2] == (0, 1)
        assert lst.probe(4.5, 4.5, *self.WIN)[:2] == (1, 2)
        # A key exactly at a cut bound belongs to the slice it opens.
        assert lst.probe(3.0, 3.0, *self.WIN)[:2] == (1, 2)
        assert lst.probe(1e18, 1e18, *self.WIN)[:2] == (2, 3)

    def test_range_ends_before_the_first_cut_above_the_upper_key(self):
        lst = make_list()
        assert lst.probe(-1.0, 6.9, *self.WIN)[:2] == (0, 2)
        assert lst.probe(-1.0, 7.0, *self.WIN)[:2] == (0, 3)

    def test_first_cut_above_the_whole_interval_gives_an_empty_range(self):
        lst = make_list()
        lst.select(np.array([1, 2]))  # first survivor now has a finite cut
        assert lst.probe(0.0, 1.0, *self.WIN) == (0, 0, [])

    def test_start_pins_the_lower_end(self):
        lst = make_list()
        assert lst.probe(-1.0, 7.0, *self.WIN, 2)[:2] == (2, 3)

    def test_open_mbb_hits_everything(self):
        lst = SliceList(0, [-INF], [0], [4], *OPEN)
        far = np.array([-1e18, 0.0]), np.array([-1e17, 0.0])
        assert lst.probe(0.0, 0.0, *far)[2] == [0]

    def test_hits_prune_on_known_dimensions_only(self):
        lst = make_list()
        # Dimension 0 extents are [0,3.5] [3,7.5] [7,12]; dimension 1 open.
        lo, hi = np.array([3.6, -1e9]), np.array([6.9, 1e9])
        assert lst.probe(-INF, INF, lo, hi) == (0, 3, [1])
        # Touching counts: closed boxes sharing a face intersect.
        assert lst.probe(-INF, INF, np.array([3.5, 0.0]), hi)[2] == [0, 1]

    def test_hit_indices_are_absolute(self):
        lst = make_list()
        lo, hi = np.array([8.0, 0.0]), np.array([9.0, 1.0])
        assert lst.probe(4.0, 9.0, lo, hi) == (1, 3, [2])


def pieces_for(lst, index, k):
    """``k`` equal-ish pieces covering slice ``index`` of ``lst``."""
    begin, end = int(lst.begin[index]), int(lst.end[index])
    cut = float(lst.cut_lo[index])
    base = max(cut, -10.0)  # later cuts stay below the next sibling's
    edges = np.linspace(begin, end, k + 1).astype(int).tolist()
    rows = [
        (cut if j == 0 else base + 0.1 * j, b, e, float(b), float(e))
        for j, (b, e) in enumerate(zip(edges, edges[1:]))
    ]
    return SliceList.from_pieces(lst.level, rows, lst.mbb_lo[index], lst.mbb_hi[index])


class TestReplace:
    @pytest.mark.parametrize("index", [0, 1, 2], ids=["first", "middle", "last"])
    @pytest.mark.parametrize("k", [1, 3, 7], ids=["1to1", "1to3", "1tomany"])
    def test_every_column_is_spliced(self, index, k):
        # Rows [0, 21): every slice is wide enough to split into 7.
        lst = SliceList.from_pieces(
            0,
            [(-INF, 0, 7, 0.0, 1.0), (3.0, 7, 14, 3.0, 4.0), (7.0, 14, 21, 7.0, 8.0)],
            *OPEN,
        )
        lst.final[:] = [True, False, True]
        kids = [SliceList(1, [-INF], [b], [b + 7], *OPEN) for b in (0, 7, 14)]
        lst.children = list(kids)
        before = columns(lst)
        new = pieces_for(lst, index, k)
        new.final[0] = True
        new.children[-1] = grandchild = SliceList(1, [-INF], [0], [1], *OPEN)
        lst.replace(index, new)

        assert len(lst) == 2 + k
        for name in COLUMN_DTYPES:
            expect = before[name][:index] + getattr(new, name).tolist()
            expect += before[name][index + 1 :]
            assert getattr(lst, name).tolist() == expect, name
            assert getattr(lst, name).dtype == COLUMN_DTYPES[name]
        expect_kids = kids[:index] + [None] * (k - 1) + [grandchild] + kids[index + 1 :]
        assert all(a is b for a, b in zip(lst.children, expect_kids))
        assert len(lst.children) == len(lst)
        # Still a valid sibling run: contiguous rows, increasing cuts.
        assert np.array_equal(lst.begin[1:], lst.end[:-1])
        assert np.all(np.diff(lst.cut_lo) > 0)

    def test_bottom_level_splice_keeps_no_child_column(self):
        lst = make_list(level=1)
        lst.replace(1, pieces_for(lst, 1, 3))
        assert len(lst) == 5 and lst.children == []

    def test_probe_sees_the_spliced_rows(self):
        lst = make_list()
        sub = SliceList.from_pieces(
            0, [(3.0, 2, 3, 3.0, 4.0), (5.0, 3, 5, 5.0, 7.5)], *OPEN
        )
        lst.replace(1, sub)
        assert lst.cut_lo.tolist() == [-INF, 3.0, 5.0, 7.0]
        win = np.array([5.5, 0.0]), np.array([6.0, 1.0])
        assert lst.probe(6.0, 6.0, *win) == (2, 3, [2])


class TestSelectAndFinalize:
    def test_select_keeps_rows_of_every_column_and_children(self):
        lst = make_list()
        kid = SliceList(1, [-INF], [5], [9], *OPEN)
        lst.children[2] = kid
        lst.select(np.array([0, 2]))
        assert lst.begin.tolist() == [0, 5] and lst.cut_lo.tolist() == [-INF, 7.0]
        assert lst.mbb_hi[:, 0].tolist() == [3.5, 12.0]
        assert lst.children == [None, kid]

    def _store(self):
        lo = np.array([[0.0, 5.0], [2.0, 1.0], [4.0, 3.0], [6.0, 0.0]])
        return BoxStore(lo, lo + 1.0)

    def test_finalize_small_slices_get_exact_boxes(self):
        lst = SliceList.from_pieces(
            0, [(-INF, 0, 1, 0.0, 1.0), (2.0, 1, 4, 2.0, 7.0)], *OPEN
        )
        lst.finalize(self._store(), tau=1)
        assert lst.final.tolist() == [True, False]
        assert lst.mbb_lo[0].tolist() == [0.0, 5.0]
        assert lst.mbb_hi[0].tolist() == [1.0, 6.0]
        assert lst.mbb_lo[1].tolist() == [2.0, -INF]  # still open-ended
        lst.finalize(self._store(), tau=3)
        assert lst.final.all()
        assert lst.mbb_lo[1].tolist() == [2.0, 0.0]
        assert lst.mbb_hi[1].tolist() == [7.0, 4.0]

    def test_finalize_skips_a_large_slice_between_small_ones(self):
        lst = SliceList.from_pieces(
            0,
            [(-INF, 0, 1, 0.0, 1.0), (2.0, 1, 3, 2.0, 5.0), (6.0, 3, 4, 6.0, 7.0)],
            *OPEN,
        )
        lst.finalize(self._store(), tau=1)
        assert lst.final.tolist() == [True, False, True]
        assert lst.mbb_lo.tolist() == [[0.0, 5.0], [2.0, -INF], [6.0, 0.0]]
        assert lst.mbb_hi.tolist() == [[1.0, 6.0], [5.0, INF], [7.0, 1.0]]

    def test_finalize_leaves_final_boxes_alone_unless_refreshing(self):
        lst = SliceList(0, [-INF], [1], [3], *OPEN)
        lst.finalize(self._store(), tau=4)
        lst.mbb_lo[0] = -99.0  # a stale box, e.g. over since-deleted rows
        lst.finalize(self._store(), tau=4)
        assert lst.mbb_lo[0].tolist() == [-99.0, -99.0]
        lst.finalize(self._store(), tau=4, refresh=True)
        assert lst.mbb_lo[0].tolist() == [2.0, 1.0]

    def test_memory_bytes_is_the_columns_real_footprint(self):
        lst = make_list()
        # 3 rows: cut_lo + begin + end (8 B each), 2 boxes of 2 x 8 B, 1 flag.
        assert lst.memory_bytes() == 3 * (24 + 32 + 1) + sys.getsizeof(lst.children)


class TestSliceHandles:
    def test_handles_read_the_columns(self):
        lst = make_list()
        kid = SliceList(1, [-INF], [2], [5], *OPEN)
        lst.children[1] = kid
        s = lst[1]
        assert (s.begin, s.end, s.size, s.cut_lo) == (2, 5, 3, 3.0)
        assert not s.final and s.children is kid
        assert [h.size for h in lst] == [2, 3, 4]
        lst.final[1] = True
        assert s.final  # no copy: the handle reads the live column

    def test_handle_identity_survives_sibling_splices(self):
        lst = make_list()
        first, last = lst[0], lst[2]
        lst.replace(1, pieces_for(lst, 1, 3))
        assert lst[0] is first and lst[4] is last
        assert last.begin == 5 and last.size == 4

    def test_stale_handle_raises(self):
        lst = make_list()
        gone = lst[1]
        lst.select(np.array([0, 2]))
        with pytest.raises(LookupError):
            gone.size
        with pytest.raises(AttributeError):
            lst[0].no_such_column
