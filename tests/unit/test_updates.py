"""Unit tests for the updates package: buffer, ledger, executor."""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.baselines import MosaicIndex, ScanIndex
from repro.bench import run_workload
from repro.datasets import BoxStore, make_uniform
from repro.errors import ConfigurationError, DatasetError
from repro.queries import mixed_workload
from repro.queries.workloads import WorkloadOp
from repro.updates import (
    UpdateBuffer,
    UpdateLedger,
    apply_write,
    resolve_delete_victims,
)


def _store(n: int = 5, ndim: int = 2, seed: int = 0) -> BoxStore:
    rng = np.random.default_rng(seed)
    lo = rng.uniform(0, 50, size=(n, ndim))
    return BoxStore(lo, lo + rng.uniform(0, 5, size=(n, ndim)))


class TestUpdateBuffer:
    def test_add_reserves_ids_from_store(self):
        store = _store(4)
        buf = UpdateBuffer(store)
        ids = buf.add(np.array([[1.0, 1.0]]), np.array([[2.0, 2.0]]))
        assert ids.tolist() == [4]
        assert len(buf) == 1
        # The reservation is visible to the store's allocator.
        assert store.reserve_ids(1).tolist() == [5]

    def test_discard_removes_only_matching_rows(self):
        store = _store(4)
        buf = UpdateBuffer(store)
        ids = buf.add(
            np.array([[1.0, 1.0], [3.0, 3.0]]),
            np.array([[2.0, 2.0], [4.0, 4.0]]),
        )
        removed = buf.discard(np.array([ids[0], 99]))
        assert removed.tolist() == [ids[0]]
        assert len(buf) == 1 and buf.ids.tolist() == [ids[1]]

    def test_drain_empties_the_buffer(self):
        store = _store(4)
        buf = UpdateBuffer(store)
        buf.add(np.array([[1.0, 1.0]]), np.array([[2.0, 2.0]]))
        lo, hi, ids = buf.drain()
        assert lo.shape == (1, 2) and ids.tolist() == [4]
        assert len(buf) == 0
        lo2, _, ids2 = buf.drain()
        assert lo2.shape == (0, 2) and ids2.size == 0

    def test_memory_bytes_tracks_staged_rows(self):
        store = _store(4)
        buf = UpdateBuffer(store)
        empty = buf.memory_bytes()
        buf.add(np.array([[1.0, 1.0]]), np.array([[2.0, 2.0]]))
        assert buf.memory_bytes() > empty


class TestUpdateLedger:
    def test_seeded_from_store_and_matches(self):
        store = _store(5)
        ledger = UpdateLedger(store)
        assert len(ledger) == 5
        assert ledger.matches_store(store)
        store.delete_ids(np.array([2]))
        assert not ledger.matches_store(store)
        ledger.record_delete(np.array([2]))
        assert ledger.matches_store(store)

    def test_insert_and_delete_bookkeeping(self):
        ledger = UpdateLedger()
        ledger.record_insert(
            np.array([[1.0, 1.0]]), np.array([[2.0, 2.0]]), np.array([7])
        )
        assert ledger.live_ids().tolist() == [7]
        with pytest.raises(DatasetError, match="already holds"):
            ledger.record_insert(
                np.array([[1.0, 1.0]]), np.array([[2.0, 2.0]]), np.array([7])
            )
        ledger.record_delete(np.array([7]))
        assert len(ledger) == 0
        with pytest.raises(DatasetError, match="unknown id"):
            ledger.record_delete(np.array([7]))

    def test_expected_result_is_a_window_oracle(self):
        ledger = UpdateLedger()
        ledger.record_insert(
            np.array([[0.0, 0.0], [10.0, 10.0]]),
            np.array([[1.0, 1.0], [11.0, 11.0]]),
            np.array([1, 2]),
        )
        hits = ledger.expected_result(np.array([0.5, 0.5]), np.array([5.0, 5.0]))
        assert hits.tolist() == [1]


class TestExecutor:
    def test_victims_deterministic_and_clamped(self):
        live = np.array([5, 1, 9, 3])
        a = resolve_delete_victims(live, 2, seq=4, victim_seed=11)
        b = resolve_delete_victims(live[::-1].copy(), 2, seq=4, victim_seed=11)
        assert np.array_equal(a, b)  # order of the live set is irrelevant
        everything = resolve_delete_victims(live, 99, seq=0, victim_seed=0)
        assert sorted(everything.tolist()) == [1, 3, 5, 9]
        none = resolve_delete_victims(np.empty(0, dtype=np.int64), 3, 0, 0)
        assert none.size == 0

    def test_apply_write_returns_touched_ids_and_the_new_live_set(self):
        index = ScanIndex(_store(n=6))
        live = index.store.ids.copy()
        box = np.array([[1.0, 1.0]])
        new, live, seconds = apply_write(
            index, WorkloadOp("insert", 0, lo=box, hi=box + 1.0), live, 0, 3
        )
        assert new.size == 1 and live.size == 7 and seconds >= 0.0
        gone, live, _ = apply_write(
            index, WorkloadOp("delete", 1, count=2), live, 1, 3
        )
        assert np.array_equal(
            gone, resolve_delete_victims(np.append(live, gone), 2, 1, 3)
        )
        assert live.size == 5 and not np.isin(gone, live).any()
        assert index.store.live_count == 5

    def test_delete_seconds_exclude_victim_resolution(self, monkeypatch):
        # Resolution is stalled well past a 200-row delete: the stall
        # shows up in wall-clock, never in the seconds apply_write reports.
        import repro.updates.executor as executor

        stall = 0.05
        resolve = executor.resolve_delete_victims
        calls = []

        def stalled(*args):
            calls.append(args)
            time.sleep(stall)
            return resolve(*args)

        monkeypatch.setattr(executor, "resolve_delete_victims", stalled)
        index = ScanIndex(_store(n=200))
        live = index.store.ids.copy()
        t0 = time.perf_counter()
        gone, _, seconds = apply_write(
            index, WorkloadOp("delete", 0, count=20), live, 0, 3
        )
        assert time.perf_counter() - t0 >= stall and len(calls) == 1
        assert gone.size == 20 and seconds < stall

    def test_rejects_non_mutable_index(self):
        ds = make_uniform(200, ndim=2, seed=5)
        mosaic = MosaicIndex(ds.store.copy(), ds.universe, capacity=16)
        box = np.array([[1.0, 1.0]])
        with pytest.raises(ConfigurationError, match="does not support updates"):
            run_workload(mosaic, [WorkloadOp("insert", 0, lo=box, hi=box + 1.0)])

    def test_run_counts_and_results(self):
        ds = make_uniform(400, ndim=2, seed=5)
        ops = mixed_workload(
            ds.universe, n_ops=60, write_ratio=0.4, batch_size=3,
            volume_fraction=1e-2, seed=2,
        )
        result = run_workload(ScanIndex(ds.store.copy()), ops, victim_seed=7)
        assert result.n_ops == len(ops)
        assert [t.kind for t in result.timings] == [o.kind for o in ops]
        assert result.n_queries == len(result.query_results)
        n_inserts = sum(o.lo.shape[0] for o in ops if o.kind == "insert")
        assert result.stats.inserts == n_inserts
        assert result.final_live == 400 + n_inserts - result.stats.deletes
        assert result.total_seconds() > 0
        assert result.throughput() > 0

    def test_unknown_op_kind_rejected(self):
        ds = make_uniform(50, ndim=2, seed=5)
        bogus = WorkloadOp("compact", 0)
        with pytest.raises(ConfigurationError, match="unknown workload op"):
            run_workload(ScanIndex(ds.store.copy()), [bogus])


class TestMixedWorkloadGenerator:
    def test_ratio_bounds_validated(self):
        ds = make_uniform(50, ndim=2, seed=5)
        with pytest.raises(ConfigurationError):
            mixed_workload(ds.universe, write_ratio=1.5)
        with pytest.raises(ConfigurationError):
            mixed_workload(ds.universe, delete_fraction=-0.1)
        with pytest.raises(ConfigurationError):
            mixed_workload(ds.universe, batch_size=0)
        with pytest.raises(ConfigurationError):
            mixed_workload(ds.universe, n_ops=0)

    def test_pure_read_and_pure_write_extremes(self):
        ds = make_uniform(50, ndim=2, seed=5)
        reads = mixed_workload(ds.universe, n_ops=40, write_ratio=0.0, seed=1)
        assert all(o.kind == "query" for o in reads)
        writes = mixed_workload(ds.universe, n_ops=40, write_ratio=1.0, seed=1)
        assert all(o.kind in ("insert", "delete") for o in writes)

    def test_deterministic_given_seed(self):
        ds = make_uniform(50, ndim=2, seed=5)
        a = mixed_workload(ds.universe, n_ops=30, write_ratio=0.5, seed=9)
        b = mixed_workload(ds.universe, n_ops=30, write_ratio=0.5, seed=9)
        assert [o.kind for o in a] == [o.kind for o in b]
        for x, y in zip(a, b):
            if x.kind == "insert":
                assert np.array_equal(x.lo, y.lo) and np.array_equal(x.hi, y.hi)
            elif x.kind == "query":
                assert np.array_equal(x.query.lo, y.query.lo)

    def test_inserted_boxes_clipped_to_universe(self):
        ds = make_uniform(50, ndim=2, seed=5)
        ops = mixed_workload(ds.universe, n_ops=200, write_ratio=1.0,
                             delete_fraction=0.0, seed=3)
        uni_lo = np.asarray(ds.universe.lo)
        uni_hi = np.asarray(ds.universe.hi)
        for op in ops:
            assert np.all(op.lo >= uni_lo) and np.all(op.hi <= uni_hi)
            assert np.all(op.lo <= op.hi)
