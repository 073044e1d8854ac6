"""Unit tests for the benchmark runner and derived metrics."""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines import RTreeIndex, ScanIndex
from repro.bench import RunResult, run_workload
from repro.bench.metrics import (
    break_even_query,
    converged_slowdown,
    cumulative_ratio,
    data_to_insight_factor,
    sample_indices,
    smoothed_series,
    speedup_tail,
    work_break_even_query,
    work_insight_factor,
    work_ratio,
)
from repro.bench.runner import OpTiming
from repro.core import QuasiiIndex
from repro.datasets import make_uniform
from repro.queries import mixed_workload, uniform_workload
from repro.sharding import ShardedIndex


def synthetic_run(name, build, per_query, build_work=0, work_per_query=0):
    timings = [
        OpTiming(
            seq=i,
            kind="query",
            seconds=s,
            results=1,
            objects_tested=work_per_query,
            cracks=0,
            rows_reorganized=0,
        )
        for i, s in enumerate(per_query)
    ]
    return RunResult(name, build, timings, build_work=build_work)


class TestRunWorkload:
    def test_times_build_and_queries(self):
        ds = make_uniform(1_000, seed=1)
        queries = uniform_workload(ds.universe, 5, 1e-2, seed=2)
        run = run_workload(RTreeIndex(ds.store.copy()), queries)
        assert run.build_seconds > 0
        assert run.n_queries == 5
        assert all(t.seconds >= 0 for t in run.timings)
        assert run.build_work > 0

    def test_incremental_has_no_build_time(self):
        ds = make_uniform(1_000, seed=3)
        queries = uniform_workload(ds.universe, 5, 1e-2, seed=4)
        run = run_workload(QuasiiIndex(ds.store.copy()), queries)
        assert run.build_seconds == 0 or run.build_seconds < 1e-3
        assert run.build_work == 0
        assert run.timings[0].rows_reorganized > 0

    def test_counter_deltas_are_per_query(self):
        ds = make_uniform(500, seed=5)
        queries = uniform_workload(ds.universe, 4, 1e-2, seed=6)
        run = run_workload(ScanIndex(ds.store.copy()), queries)
        assert all(t.objects_tested == 500 for t in run.timings)

    def test_sharded_engine_reports_fleet_work_per_query(self):
        # Fleet results carry stats=None; the per-op counters come from
        # the engine's cumulative stats, so they add up to them exactly.
        ds = make_uniform(2_000, seed=9)
        queries = uniform_workload(ds.universe, 6, 1e-2, seed=10)
        engine = ShardedIndex(ds.store.copy(), n_shards=3)
        run = run_workload(engine, queries)
        assert engine.execute(queries[0]).stats is None
        assert run.n_queries == run.n_ops == 6
        assert run.timings[0].cracks > 0
        for counter in ("objects_tested", "cracks", "rows_reorganized"):
            assert sum(getattr(t, counter) for t in run.timings) == getattr(
                run.stats, counter
            )
        scan = ScanIndex(ds.store.copy())
        assert [t.results for t in run.timings] == [
            scan.execute(q).count for q in queries
        ]
        assert run.query_results == []  # a bare Query stream keeps none

    def test_mixed_stream_is_one_result(self):
        ds = make_uniform(400, ndim=2, seed=11)
        ops = mixed_workload(
            ds.universe, n_ops=40, write_ratio=0.5, batch_size=3,
            volume_fraction=1e-2, seed=12,
        )
        run = run_workload(QuasiiIndex(ds.store.copy()), ops, victim_seed=3)
        assert run.n_ops == 40 and 0 < run.n_queries < 40
        assert run.query_seconds().size == run.n_queries
        assert len(run.query_results) == run.n_queries
        assert run.cumulative_seconds().size == 40
        assert run.throughput() > 0
        writes = [t for t in run.timings if t.kind != "query"]
        assert sum(t.results for t in writes) == (
            run.stats.inserts + run.stats.deletes
        )

    def test_results_counted(self):
        ds = make_uniform(500, seed=7)
        queries = uniform_workload(ds.universe, 3, 0.05, seed=8)
        scan_run = run_workload(ScanIndex(ds.store.copy()), queries)
        assert sum(t.results for t in scan_run.timings) > 0


class TestRunResultDerived:
    def test_cumulative_includes_build(self):
        run = synthetic_run("x", 10.0, [1.0, 1.0, 1.0])
        assert np.allclose(run.cumulative_seconds(), [11.0, 12.0, 13.0])
        assert np.allclose(run.cumulative_seconds(False), [1.0, 2.0, 3.0])
        assert run.total_seconds() == pytest.approx(13.0)

    def test_first_answer(self):
        run = synthetic_run("x", 10.0, [2.0, 1.0])
        assert run.first_answer_seconds() == pytest.approx(12.0)

    def test_tail_mean(self):
        run = synthetic_run("x", 0.0, [9.0, 1.0, 1.0])
        assert run.tail_mean_seconds(2) == pytest.approx(1.0)

    def test_work_accounting(self):
        run = synthetic_run("x", 0.0, [1.0] * 3, build_work=100, work_per_query=10)
        assert run.total_work() == 130
        assert run.cumulative_work(False).tolist() == [10, 20, 30]


class TestMetrics:
    def test_break_even_detects_crossing(self):
        static = synthetic_run("s", 10.0, [1.0] * 10)
        incr = synthetic_run("i", 0.0, [3.0] * 10)
        # cumulative incr: 3,6,..,30; static: 11,12,..,20.  At q5 both are
        # 15 (a tie is not a crossing); incr first *exceeds* at q6 (18>16).
        assert break_even_query(incr, static) == 6

    def test_break_even_never(self):
        static = synthetic_run("s", 100.0, [1.0] * 5)
        incr = synthetic_run("i", 0.0, [2.0] * 5)
        assert break_even_query(incr, static) is None

    def test_data_to_insight(self):
        static = synthetic_run("s", 10.0, [1.0])
        incr = synthetic_run("i", 0.0, [2.0])
        assert data_to_insight_factor(incr, static) == pytest.approx(5.5)

    def test_cumulative_ratio(self):
        static = synthetic_run("s", 5.0, [1.0] * 5)
        incr = synthetic_run("i", 0.0, [1.0] * 5)
        assert cumulative_ratio(incr, static) == pytest.approx(0.5)

    def test_converged_slowdown(self):
        static = synthetic_run("s", 0.0, [1.0] * 10)
        incr = synthetic_run("i", 0.0, [5.0] * 5 + [2.0] * 5)
        assert converged_slowdown(incr, static, tail=5) == pytest.approx(2.0)

    def test_speedup_tail(self):
        slow = synthetic_run("a", 0.0, [4.0] * 4)
        fast = synthetic_run("b", 0.0, [1.0] * 4)
        assert speedup_tail(slow, fast, 4) == pytest.approx(4.0)

    def test_work_break_even(self):
        static = synthetic_run("s", 0.0, [0.0] * 5, build_work=100, work_per_query=1)
        incr = synthetic_run("i", 0.0, [0.0] * 5, build_work=0, work_per_query=30)
        # incr work: 30,60,90,120,150; static: 101..105 -> crossing at q4.
        assert work_break_even_query(incr, static) == 4

    def test_work_ratio_and_insight(self):
        static = synthetic_run("s", 0.0, [0.0] * 2, build_work=80, work_per_query=10)
        incr = synthetic_run("i", 0.0, [0.0] * 2, build_work=0, work_per_query=20)
        assert work_ratio(incr, static) == pytest.approx(40 / 100)
        assert work_insight_factor(incr, static) == pytest.approx(90 / 20)

    def test_sample_indices_small(self):
        assert sample_indices(5) == [0, 1, 2, 3, 4]

    def test_sample_indices_geometric(self):
        picks = sample_indices(1000, 10)
        assert picks[0] == 0 and picks[-1] == 999
        assert len(picks) <= 10
        assert picks == sorted(picks)

    def test_smoothed_series(self):
        vals = np.array([1.0, 100.0, 1.0])
        assert smoothed_series(vals, 1, window=3) == pytest.approx(34.0)
