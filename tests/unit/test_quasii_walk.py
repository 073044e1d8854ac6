"""The vectorized walk's contracts: batch == loop, plan == walk, and every
forest writer (coalesce, merge, re-tighten) writing the columns through."""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines import ScanIndex
from repro.core import QuasiiConfig, QuasiiIndex
from repro.core.slices import SliceList
from repro.datasets import BoxStore, make_uniform
from repro.geometry import Box
from repro.queries import uniform_workload
from repro.queries.query import Query

INF = float("inf")


def _query(lo, hi, **kw) -> Query:
    return Query(window=Box(tuple(lo), tuple(hi)), **kw)


def _twin_indexes(n=4_000, seed=5, **kw):
    ds = make_uniform(n, seed=seed)
    return (
        ds,
        QuasiiIndex(ds.store.copy(), **kw),
        QuasiiIndex(ds.store.copy(), **kw),
    )


def _same_results(got, want):
    for a, b in zip(got, want, strict=True):
        assert a.count == b.count
        assert (a.ids is None) == (b.ids is None)
        if a.ids is not None:
            assert a.ids.tolist() == b.ids.tolist()
        if a.boxes is not None:
            assert np.array_equal(a.boxes[0], b.boxes[0])
            assert np.array_equal(a.boxes[1], b.boxes[1])
        assert a.stats.as_dict() == b.stats.as_dict()


class TestBatchEqualsLoop:
    def test_results_and_per_query_stats_while_cracking(self):
        ds, batch_idx, loop_idx = _twin_indexes()
        queries = [
            Query(window=q.window)
            for q in uniform_workload(ds.universe, 24, 1e-3, seed=9)
        ]
        got = batch_idx.execute_batch(queries)
        want = [loop_idx.execute(q) for q in queries]
        _same_results(got, want)
        assert sum(r.stats.cracks for r in got) > 0
        assert batch_idx.stats.as_dict() == loop_idx.stats.as_dict()
        assert np.array_equal(batch_idx.store.ids, loop_idx.store.ids)
        batch_idx.validate_structure()
        # Converged: the same batch again cracks nothing and still agrees.
        again = batch_idx.execute_batch(queries)
        _same_results(again, [loop_idx.execute(q) for q in queries])
        assert sum(r.stats.cracks for r in again) == 0

    def test_every_predicate_and_mode_shares_the_stacked_kernel(self):
        ds, batch_idx, loop_idx = _twin_indexes()
        windows = [
            q.window for q in uniform_workload(ds.universe, 8, 1e-2, seed=3)
        ]
        queries = [
            Query(window=windows[0]),
            Query(window=windows[1], mode="count"),
            Query(window=windows[2], mode="boxes"),
            Query(window=windows[3], mode="top_k", k=3),
            Query(window=windows[4], predicate="within"),
            Query(window=windows[5], predicate="contains", mode="count"),
            Query.point(windows[6].center),
            Query(window=windows[7], predicate="within", mode="top_k", k=2),
        ]
        _same_results(
            batch_idx.execute_batch(queries),
            [loop_idx.execute(q) for q in queries],
        )

    def test_later_query_cracks_beside_an_already_collected_leaf(self):
        # q_j's walk collects its leaves; q_k then cracks q_j's coarse
        # right-hand x-neighbour.  The batch reads q_j's rows only after
        # *both* walks — they must still hold q_j's objects.
        ds, batch_idx, loop_idx = _twin_indexes(n=6_000, seed=11)
        side = ds.universe.sides[0]
        lo = np.asarray(ds.universe.lo) + 0.30 * side
        q_j = _query(lo, lo + 0.05 * side)
        shift = np.array([0.05 * side, 0.0, 0.0])
        q_k = _query(lo + shift, lo + shift + 0.05 * side)
        got = batch_idx.execute_batch([q_j, q_k])
        assert got[0].stats.cracks > 0 and got[1].stats.cracks > 0
        assert got[0].count > 0
        _same_results(got, [loop_idx.execute(q) for q in (q_j, q_k)])
        scan = ScanIndex(ds.store)
        for result, q in zip(got, (q_j, q_k)):
            assert np.array_equal(np.sort(result.ids), np.sort(scan.execute(q).ids))

    def test_pending_inserts_are_absorbed_once_before_the_batch(self):
        ds, batch_idx, loop_idx = _twin_indexes()
        rng = np.random.default_rng(2)
        lo = rng.uniform(0, 100, size=(50, 3))
        queries = [
            Query(window=q.window)
            for q in uniform_workload(ds.universe, 6, 1e-2, seed=4)
        ]
        for idx in (batch_idx, loop_idx):
            idx.insert(lo, lo + 1.0)
        got = batch_idx.execute_batch(queries)
        want = [loop_idx.execute(q) for q in queries]
        assert [r.ids.tolist() for r in got] == [r.ids.tolist() for r in want]
        # On both verbs the merge is charged to the index, never to a query.
        assert all(r.stats.merges == 0 for r in got + want)
        assert batch_idx.stats.merges == loop_idx.stats.merges == 1
        assert batch_idx.stats.as_dict() == loop_idx.stats.as_dict()


class TestPlanSharesTheWalk:
    def test_plan_equals_execution_on_a_converged_forest(self):
        ds = make_uniform(5_000, seed=21)
        idx = QuasiiIndex(ds.store.copy())
        queries = [
            Query(window=q.window)
            for q in uniform_workload(ds.universe, 20, 1e-3, seed=8)
        ]
        idx.execute_batch(queries)  # converge
        for q in queries:
            plan = idx.plan(q)
            result = idx.execute(q)
            assert result.stats.cracks == 0
            assert plan.nodes == result.stats.nodes_visited
            assert plan.candidates == result.stats.objects_tested


def _line_index(sizes=(4, 4, 4, 4, 4)):
    """A 1-d index over unit boxes at x = 0, 1, 2, ... whose forest is
    one hand-built sibling list with the given slice sizes."""
    n = sum(sizes)
    x = np.arange(n, dtype=np.float64)[:, None]
    idx = QuasiiIndex(BoxStore(x, x + 0.5), QuasiiConfig(1, (4,)))
    edges = np.concatenate(([0], np.cumsum(sizes))).tolist()
    pieces = [
        (-INF if b == 0 else float(b), b, e, float(b), e - 0.5)
        for b, e in zip(edges, edges[1:])
    ]
    lst = SliceList.from_pieces(0, pieces, np.array([-INF]), np.array([INF]))
    lst.finalize(idx.store, 4)
    idx._tops = [lst]
    idx.validate_structure()
    return idx


class TestWritersWriteThrough:
    def test_coalesce_extends_the_tail_run_in_place(self):
        ds = make_uniform(200, seed=1)
        idx = QuasiiIndex(ds.store.copy(), QuasiiConfig(3, (8, 4, 2)))
        idx.execute(next(iter(uniform_workload(ds.universe, 1, 1e-2, seed=1))))
        assert len(idx._tops[0]) > 1  # main hierarchy cracked: runs append
        idx.insert(np.full((3, 3), 10.0), np.full((3, 3), 11.0))
        idx.flush_updates()
        tail = idx._tops[-1]
        assert idx.runs == 2 and tail.final[0]  # 3 rows <= tau: exact box
        assert tail.mbb_lo[0].tolist() == [10.0] * 3
        # 3 + 4 rows stay below the top threshold, so no bulk load.
        idx.insert(np.full((4, 3), 20.0), np.full((4, 3), 25.0))
        idx.flush_updates()
        assert idx.runs == 2 and idx._tops[-1] is tail
        assert (tail.begin[0], tail.end[0]) == (200, 207)
        assert tail.final[0]
        assert tail.mbb_lo[0].tolist() == [10.0] * 3
        assert tail.mbb_hi[0].tolist() == [25.0] * 3
        idx.validate_structure()

    def test_coalesce_into_the_virgin_main_run_stays_coarse(self):
        ds = make_uniform(200, seed=1)
        idx = QuasiiIndex(ds.store.copy(), QuasiiConfig(3, (8, 4, 2)))
        (main,) = idx._tops
        idx.insert(np.full((3, 3), 10.0), np.full((3, 3), 11.0))
        idx.flush_updates()
        assert idx._tops == [main]  # never queried: the batch joins it
        assert (main.begin[0], main.end[0]) == (0, 203)
        assert not main.final[0]  # 203 rows > tau: still coarse, box open
        assert main.mbb_lo[0].tolist() == [-INF] * 3
        idx.validate_structure()

    def test_compaction_remaps_drops_and_merges_columns(self):
        idx = _line_index()
        # Leave 1, 2, 0, 3, 4 rows in the five slices.
        idx.delete(np.array([1, 2, 3, 6, 7, 8, 9, 10, 11, 15]))
        idx.compact()
        (lst,) = idx._tops
        # 1 + 2 merge (3 <= tau); the emptied slice drops; 3 and 4 stay apart.
        assert lst.begin.tolist() == [0, 3, 6] and lst.end.tolist() == [3, 6, 10]
        assert lst.cut_lo.tolist() == [-INF, 12.0, 16.0]
        assert lst.final.all()
        # Re-tightened to the surviving rows only (x = 0, 4, 5 | 12.. | 16..).
        assert lst.mbb_lo[:, 0].tolist() == [0.0, 12.0, 16.0]
        assert lst.mbb_hi[:, 0].tolist() == [5.5, 14.5, 19.5]
        assert idx.slice_counts() == [3]
        idx.validate_structure()
        assert np.sort(idx.execute(_query([-1.0], [99.0])).ids).tolist() == [
            0, 4, 5, 12, 13, 14, 16, 17, 18, 19,
        ]

    def test_slices_with_children_never_merge(self):
        ds = make_uniform(400, seed=3)
        idx = QuasiiIndex(ds.store.copy(), QuasiiConfig(3, (64, 16, 4)))
        for q in uniform_workload(ds.universe, 10, 1e-2, seed=5):
            idx.execute(q)
        with_children = sum(
            c is not None for lst in idx._lists() for c in lst.children
        )
        live = idx.store.ids[idx.store.live_rows()]
        idx.delete(live[::2])
        idx.compact()
        idx.validate_structure()
        assert with_children == sum(
            c is not None for lst in idx._lists() for c in lst.children
        )
        for lst in idx._lists():
            tau = idx.config.threshold(lst.level)
            sizes = lst.end - lst.begin
            # final is exactly "meets the threshold" after a compaction,
            # and no two childless neighbours that fit one slice remain.
            assert np.array_equal(lst.final, sizes <= tau)
            childless = np.array([lst.child(i) is None for i in range(len(lst))])
            mergeable = childless[:-1] & childless[1:] & (sizes[:-1] + sizes[1:] <= tau)
            assert not mergeable.any()


class TestValidateChecksTheColumns:
    def _corrupt(self, mutate, message):
        idx = _line_index()
        mutate(idx._tops[0])
        with pytest.raises(AssertionError, match=message):
            idx.validate_structure()

    def test_cut_bounds_must_strictly_increase(self):
        def mutate(lst):
            lst.cut_lo[2] = lst.cut_lo[1]

        self._corrupt(mutate, "cut bounds not increasing")

    def test_ranges_must_be_contiguous(self):
        def mutate(lst):
            lst.begin[2] += 1

        self._corrupt(mutate, "do not tile")

    def test_ranges_must_cover_the_store(self):
        def mutate(lst):
            lst.end[-1] -= 1

        self._corrupt(mutate, "do not tile|does not cover")

    def test_keys_must_lie_in_their_cut_interval(self):
        def mutate(lst):
            lst.cut_lo[1] = 4.5  # row x=4 now sits below its slice's bound

        self._corrupt(mutate, "cut interval")

    def test_mbb_rows_must_cover_members(self):
        def mutate(lst):
            lst.mbb_hi[3, 0] = 12.0

        self._corrupt(mutate, "does not cover slice members")

    def test_final_slices_must_meet_the_threshold(self):
        idx = _line_index(sizes=(4, 6, 4))
        assert idx._tops[0].final.tolist() == [True, False, True]
        idx._tops[0].final[1] = True
        with pytest.raises(AssertionError, match="exceeds threshold"):
            idx.validate_structure()

    def test_columns_must_keep_their_dtype_and_length(self):
        def retype(lst):
            lst.begin = lst.begin.astype(np.int32)

        def shorten(lst):
            lst.final = lst.final[:-1]

        self._corrupt(retype, "column begin")
        self._corrupt(shorten, "column final")

    def test_child_column_must_match_the_level(self):
        def mutate(lst):
            lst.children = [None] * len(lst)  # bottom lists keep none

        self._corrupt(mutate, "child column")


class TestStoreMovesOncePerRefinedSlice:
    """Cracks compose on the key frame; the store sees one permutation."""

    @staticmethod
    def _spy(monkeypatch):
        """Per ``_refine`` call: (cracks made, store permutations made)."""
        calls: list[tuple[int, int]] = []
        permutes = [0]
        refine, permute = QuasiiIndex._refine, BoxStore.apply_order_range

        def counted_permute(store, begin, end, order):
            permutes[0] += 1
            permute(store, begin, end, order)

        def spied_refine(self, lst, h, keys, *frame):
            before = self.stats.cracks, permutes[0]
            refine(self, lst, h, keys, *frame)
            calls.append((self.stats.cracks - before[0], permutes[0] - before[1]))

        monkeypatch.setattr(BoxStore, "apply_order_range", counted_permute)
        monkeypatch.setattr(QuasiiIndex, "_refine", spied_refine)
        return calls

    def test_one_permutation_per_refine_that_cracked(self, monkeypatch):
        ds = make_uniform(4_000, seed=5)
        index = QuasiiIndex(ds.store.copy(), QuasiiConfig(3, (256, 32, 4)))
        calls = self._spy(monkeypatch)
        for q in uniform_workload(ds.universe, 12, 1e-2, seed=9):
            index.execute(q)
        assert max(cracks for cracks, _ in calls) > 1, "needs a multi-crack refine"
        assert all(moves == (1 if cracks else 0) for cracks, moves in calls)
        assert sum(moves for _, moves in calls) < index.stats.cracks
        index.validate_structure()

    def test_a_frame_that_only_emits_leaves_the_store_alone(self, monkeypatch):
        x = np.arange(20, dtype=np.float64)[:, None]
        index = QuasiiIndex(BoxStore(x, x + 0.5), QuasiiConfig(1, (4,)))
        calls = self._spy(monkeypatch)
        # Past every key: no bound falls inside the coarse slice's key
        # range and its extent misses the window, so _refine emits it as
        # it is (with its extent on the dimension now recorded).
        assert index.execute(_query([500.0], [600.0])).count == 0
        assert calls == [(0, 0)]
        assert len(index._top) == 1 and index._top.mbb_hi[0, 0] == 19.5
        assert index.store.ids.tolist() == list(range(20))
