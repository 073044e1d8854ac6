"""Unit tests for the first-class query API.

Query spec validation, execute/execute_batch/plan on every index,
result-mode payloads, the gate's refusal of anything that is not a
``Query``, and degenerate (point/line) windows through every index.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines import (
    MosaicIndex,
    RTreeIndex,
    SFCIndex,
    SFCrackerIndex,
    ScanIndex,
    UniformGridIndex,
)
from repro.core import QuasiiIndex
from repro.datasets import BoxStore
from repro.errors import QueryError
from repro.geometry import Box
from repro.queries import (
    PREDICATES,
    RESULT_MODES,
    Query,
)
from repro.sharding import MaintenancePolicy, QueryExecutor, ShardedIndex

UNIVERSE = Box((0.0, 0.0), (100.0, 100.0))


def _store(seed: int = 5, n: int = 300) -> BoxStore:
    rng = np.random.default_rng(seed)
    lo = rng.uniform(0, 90, size=(n, 2))
    hi = lo + rng.uniform(0, 10, size=(n, 2))
    return BoxStore(lo, np.minimum(hi, 100.0))


def _all_indexes(store: BoxStore):
    """One built instance of every index, each over a private store copy."""
    out = []
    for factory in (
        lambda s: ScanIndex(s),
        lambda s: UniformGridIndex(s, UNIVERSE, 6),
        lambda s: RTreeIndex(s, capacity=8),
        lambda s: SFCIndex(s, UNIVERSE),
        lambda s: SFCrackerIndex(s, UNIVERSE),
        lambda s: MosaicIndex(s, UNIVERSE, capacity=8),
        lambda s: QuasiiIndex(s),
        lambda s: ShardedIndex(s, n_shards=3),
    ):
        index = factory(store.copy())
        index.build()
        out.append(index)
    return out


WINDOWS = [
    Box((10.0, 10.0), (60.0, 60.0)),
    Box((0.0, 0.0), (100.0, 100.0)),
    Box((95.0, 95.0), (99.0, 99.0)),   # likely-empty corner
    Box((30.0, 40.0), (30.0, 40.0)),   # degenerate point
    Box((0.0, 50.0), (100.0, 50.0)),   # degenerate line
]


class TestQuerySpec:
    def test_defaults(self):
        q = Query(WINDOWS[0])
        assert q.predicate == "intersects"
        assert q.mode == "ids"
        assert not q.count_only

    def test_rejects_unknown_predicate_and_mode(self):
        with pytest.raises(QueryError, match="predicate"):
            Query(WINDOWS[0], predicate="overlaps")
        with pytest.raises(QueryError, match="result mode"):
            Query(WINDOWS[0], mode="rows")

    def test_top_k_requires_limit(self):
        with pytest.raises(QueryError, match="top_k"):
            Query(WINDOWS[0], mode="top_k")
        with pytest.raises(QueryError, match="top_k"):
            Query(WINDOWS[0], mode="top_k", k=0)
        with pytest.raises(QueryError, match="top_k option"):
            Query(WINDOWS[0], mode="ids", k=3)

    def test_covers_point_requires_point_window(self):
        with pytest.raises(QueryError, match="point window"):
            Query(WINDOWS[0], predicate="covers_point")
        q = Query.point((3.0, 4.0))
        assert q.predicate == "covers_point"
        assert q.window.lo == q.window.hi == (3.0, 4.0)

    def test_negative_seq_rejected(self):
        with pytest.raises(QueryError):
            Query(WINDOWS[0], seq=-1)


def _oracle_match_mask(store: BoxStore, query: Query) -> np.ndarray:
    lo, hi = store.lo, store.hi
    if query.predicate == "intersects":
        mask = np.all(lo <= query.hi, axis=1) & np.all(hi >= query.lo, axis=1)
    elif query.predicate == "within":
        mask = np.all(lo >= query.lo, axis=1) & np.all(hi <= query.hi, axis=1)
    else:  # contains / covers_point
        mask = np.all(lo <= query.lo, axis=1) & np.all(hi >= query.hi, axis=1)
    return mask & store.live


class TestExecuteMatrix:
    @pytest.mark.parametrize("predicate", PREDICATES)
    def test_every_index_agrees_with_first_principles(self, predicate):
        store = _store()
        for window in WINDOWS:
            if predicate == "covers_point" and window.lo != window.hi:
                continue
            query = Query(window, predicate=predicate)
            expect_ids = np.sort(
                store.ids[_oracle_match_mask(store, query)]
            )
            for index in _all_indexes(store):
                res = index.execute(query)
                assert res.count == expect_ids.size, (
                    f"{index.name} count for {predicate}"
                )
                assert np.array_equal(np.sort(res.ids), expect_ids), (
                    f"{index.name} ids for {predicate} on {window}"
                )

    def test_count_mode_matches_ids_mode(self):
        store = _store()
        for index in _all_indexes(store):
            for window in WINDOWS:
                full = index.execute(Query(window))
                counted = index.execute(Query(window, mode="count"))
                assert counted.ids is None and counted.boxes is None
                assert counted.count == full.ids.size == full.count

    def test_boxes_mode_returns_matching_geometry(self):
        store = _store()
        window = WINDOWS[0]
        for index in _all_indexes(store):
            res = index.execute(Query(window, mode="boxes"))
            assert res.boxes is not None
            lo, hi = res.boxes
            assert lo.shape == hi.shape == (res.ids.size, store.ndim)
            # Every returned box must be the stored geometry of its id.
            order = np.argsort(store.ids, kind="stable")
            rows = order[np.searchsorted(store.ids[order], res.ids)]
            assert np.allclose(store.lo[rows], lo)
            assert np.allclose(store.hi[rows], hi)

    def test_top_k_by_area(self):
        store = _store()
        window = Box((0.0, 0.0), (100.0, 100.0))
        k = 7
        # First-principles ranking: volume descending, id ascending.
        vols = np.prod(store.hi - store.lo, axis=1)
        expect = store.ids[np.lexsort((store.ids, -vols))][:k]
        for index in _all_indexes(store):
            res = index.execute(Query(window, mode="top_k", k=k))
            assert res.count == store.n          # count is total matches
            assert res.ids.size == k             # payload is capped at k
            assert np.array_equal(res.ids, expect), index.name
            lo, hi = res.boxes
            got_vols = np.prod(hi - lo, axis=1)
            assert np.all(np.diff(got_vols) <= 1e-12)

    def test_top_k_with_fewer_matches_than_k(self):
        store = _store()
        window = WINDOWS[2]
        for index in _all_indexes(store):
            res = index.execute(Query(window, mode="top_k", k=1000))
            assert res.ids.size == res.count <= 1000


class TestResultAccounting:
    def test_stats_delta_and_seconds(self):
        index = ScanIndex(_store())
        res = index.execute(Query(WINDOWS[0]))
        assert res.stats.queries == 1
        assert res.stats.objects_tested == index.store.n
        assert res.stats.results_returned == res.ids.size
        assert res.seconds >= 0.0

    def test_quasii_stats_show_cracking(self):
        index = QuasiiIndex(_store())
        res = index.execute(Query(WINDOWS[0]))
        assert res.stats.cracks > 0
        assert res.stats.rows_reorganized > 0
        second = index.execute(Query(WINDOWS[0]))
        assert second.stats.rows_reorganized <= res.stats.rows_reorganized


class TestExecuteBatch:
    def test_batch_equals_loop_everywhere(self):
        store = _store()
        queries = []
        for i, window in enumerate(WINDOWS):
            queries.append(Query(window, seq=i))
            queries.append(Query(window, predicate="within", mode="count"))
            queries.append(Query(window, mode="top_k", k=3))
        queries.append(Query.point((30.0, 40.0)))
        for index in _all_indexes(store):
            loop = [
                ScanIndex(store.copy()).execute(q) for q in queries
            ]
            batch = index.execute_batch(queries)
            assert len(batch) == len(queries)
            for a, b in zip(loop, batch):
                assert a.count == b.count, index.name
                if a.ids is None:
                    assert b.ids is None
                else:
                    assert np.array_equal(np.sort(a.ids), np.sort(b.ids))

    def test_batch_preserves_submission_order_and_flow_counters(self):
        index = ScanIndex(_store())
        queries = [Query(w, seq=i) for i, w in enumerate(WINDOWS)]
        results = index.execute_batch(queries)
        assert [r.query.seq for r in results] == list(range(len(WINDOWS)))
        assert index.stats.queries == len(WINDOWS)
        assert index.stats.results_returned == sum(r.count for r in results)

    def test_batch_rejects_wrong_dimensionality(self):
        index = ScanIndex(_store())
        with pytest.raises(QueryError, match="dims"):
            index.execute_batch([Query(Box((0.0,) * 3, (1.0,) * 3))])

    def test_empty_batch(self):
        for index in _all_indexes(_store()):
            assert index.execute_batch([]) == []


class TestPlan:
    def test_plan_never_mutates(self):
        store = _store()
        for index in _all_indexes(store):
            fp = index.store.fingerprint()
            before = index.stats.snapshot()
            plan = index.plan(Query(WINDOWS[0]))
            assert index.store.fingerprint() == fp, index.name
            assert index.stats.snapshot() == before, index.name
            assert plan.index == index.name
            assert plan.candidates >= 0 and plan.nodes >= 0
            assert isinstance(plan.explain(), str)

    def test_plan_candidates_cover_execution(self):
        # The plan's candidate count must upper-bound what a subsequent
        # execution of the same query actually matches.
        store = _store()
        query = Query(WINDOWS[0])
        for index in _all_indexes(store):
            plan = index.plan(query)
            res = index.execute(query)
            assert plan.candidates >= res.count, index.name

    def test_sharded_plan_reports_shards(self):
        engine = ShardedIndex(_store(), n_shards=3)
        engine.build()
        plan = engine.plan(Query(Box((0.0, 0.0), (100.0, 100.0))))
        assert plan.shards == 3
        assert "shards=3" in plan.explain()
        tiny = engine.plan(Query.point((50.0, 50.0)))
        assert 0 <= tiny.shards <= 3


class _WindowOnly:
    """Quacks like a query (window, corners, seq) without being one."""

    def __init__(self, window: Box) -> None:
        self.window = window
        self.lo = np.asarray(window.lo)
        self.hi = np.asarray(window.hi)
        self.ndim = window.ndim
        self.seq = 0


STALE = [WINDOWS[0], "not a query", _WindowOnly(WINDOWS[0])]


class TestGateRefusesNonQuery:
    @pytest.mark.parametrize("stale", STALE, ids=lambda s: type(s).__name__)
    def test_every_read_verb_names_the_offending_type(self, stale):
        refusal = f"expected a Query, got {type(stale).__name__}"
        for index in _all_indexes(_store()):
            before = index.stats.as_dict()
            with pytest.raises(QueryError, match=refusal):
                index.execute(stale)
            with pytest.raises(QueryError, match=refusal):
                index.plan(stale)
            # One stale element refuses the whole batch, valid head included.
            with pytest.raises(QueryError, match=refusal):
                index.execute_batch([Query(WINDOWS[0]), stale])
            assert index.stats.as_dict() == before, index.name

    def test_refusal_precedes_the_epoch_check(self):
        index = ScanIndex(_store())
        index.store.delete_ids(index.store.ids[:1])  # behind its back
        with pytest.raises(QueryError, match="expected a Query, got str"):
            index.execute("not a query")
        with pytest.raises(QueryError, match="epoch"):
            index.execute(Query(WINDOWS[0]))

    @pytest.mark.parametrize("stale", STALE, ids=lambda s: type(s).__name__)
    def test_executor_refuses_before_routing_or_maintenance(self, stale):
        engine = ShardedIndex(_store(), n_shards=3)
        engine.build()
        with QueryExecutor(
            engine, maintenance=MaintenancePolicy(check_every=1)
        ) as executor:
            before = engine.stats.as_dict()
            with pytest.raises(
                QueryError,
                match=f"expected a Query, got {type(stale).__name__}",
            ):
                executor.run([Query(WINDOWS[0]), stale])
            assert engine.stats.as_dict() == before
            assert engine.profile.queries_seen == 0
            assert executor.scheduler.report.checks == 0
            # The door still opens for the real thing.
            out = executor.run([Query(WINDOWS[0])])
            assert len(out.results) == 1


class TestDegenerateWindows:
    def test_point_and_line_windows_through_every_index(self):
        store = _store()
        scan = ScanIndex(store.copy())
        for window in WINDOWS[3:]:  # the degenerate point and line
            query = Query(window)
            assert window.volume == 0.0
            expect = np.sort(scan.execute(query).ids)
            for index in _all_indexes(store):
                got = np.sort(index.execute(query).ids)
                assert np.array_equal(got, expect), (
                    f"{index.name} on degenerate window {window}"
                )

    def test_point_window_hits_covering_boxes(self):
        lo = np.array([[0.0, 0.0], [50.0, 50.0]])
        hi = np.array([[10.0, 10.0], [60.0, 60.0]])
        index = ScanIndex(BoxStore(lo, hi))
        hits = index.execute(Query(Box((5.0, 5.0), (5.0, 5.0)))).ids
        assert hits.tolist() == [0]

    def test_modes_line_up(self):
        assert set(RESULT_MODES) == {"ids", "boxes", "count", "top_k"}
