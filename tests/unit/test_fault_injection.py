"""Unit tests for the deterministic fault injector and its engine seam.

The injector is pure clockwork — same seed, same failure schedule —
which is what makes failures *test inputs*: a run with a mid-workload
kill can be replayed exactly and compared against the unfaulted run.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines import ScanIndex
from repro.core import QuasiiConfig, QuasiiIndex
from repro.datasets import BoxStore
from repro.errors import ConfigurationError
from repro.geometry import Box
from repro.queries import Query
from repro.sharding import (
    Fault,
    FaultInjector,
    QueryExecutor,
    ShardedIndex,
)


def _grid_store(side: int = 6, spacing: float = 3.0) -> BoxStore:
    xs, ys = np.meshgrid(np.arange(side), np.arange(side), indexing="ij")
    lo = np.column_stack([xs.ravel(), ys.ravel()]).astype(np.float64) * spacing
    return BoxStore(lo, lo + 1.0)


def _small_quasii(store: BoxStore) -> QuasiiIndex:
    return QuasiiIndex(store, QuasiiConfig(2, (8, 4)), max_runs=2)


def _window(lo, hi, seq=0) -> Query:
    return Query(Box(tuple(lo), tuple(hi)), seq=seq)


def _replicated(store, **kwargs) -> ShardedIndex:
    engine = ShardedIndex(store, index_factory=_small_quasii, **kwargs)
    engine.build()
    return engine


class TestFaultValidation:
    def test_unknown_action_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown fault action"):
            Fault(at_op=1, action="explode", sid=0, rid=0)

    def test_at_op_must_be_positive(self):
        with pytest.raises(ConfigurationError, match="at_op must be >= 1"):
            Fault(at_op=0, action="kill", sid=0, rid=0)

    def test_random_schedule_bounds(self):
        with pytest.raises(ConfigurationError, match="n_faults >= 0"):
            FaultInjector.random(1, -1, 2, 2, 10)
        with pytest.raises(ConfigurationError, match="max_op >= 1"):
            FaultInjector.random(1, 1, 2, 2, 0)
        with pytest.raises(ConfigurationError, match="n_shards >= 1"):
            FaultInjector.random(1, 1, 0, 2, 10)
        with pytest.raises(ConfigurationError, match="replication >= 1"):
            FaultInjector.random(1, 1, 2, 0, 10)


class TestDeterminism:
    def test_same_seed_same_schedule(self):
        a = FaultInjector.random(42, 8, n_shards=4, replication=3, max_op=50)
        b = FaultInjector.random(42, 8, n_shards=4, replication=3, max_op=50)
        assert a.schedule == b.schedule

    def test_different_seed_different_schedule(self):
        a = FaultInjector.random(42, 8, n_shards=4, replication=3, max_op=50)
        b = FaultInjector.random(43, 8, n_shards=4, replication=3, max_op=50)
        assert a.schedule != b.schedule

    def test_random_schedule_stays_in_bounds(self):
        inj = FaultInjector.random(7, 32, n_shards=3, replication=2, max_op=20)
        assert len(inj.schedule) == 32
        for f in inj.schedule:
            assert 1 <= f.at_op <= 20
            assert 0 <= f.sid < 3
            assert 0 <= f.rid < 2
            assert f.action == "kill"


class TestClockwork:
    def _schedule(self):
        return [
            Fault(at_op=2, action="kill", sid=0, rid=0),
            Fault(at_op=3, action="kill", sid=1, rid=1),
            Fault(at_op=3, action="kill", sid=0, rid=1),
        ]

    def test_advance_fires_at_exact_op_counts(self):
        inj = FaultInjector(self._schedule())
        assert inj.advance() == []  # op 1
        due = inj.advance()  # op 2
        assert [(f.sid, f.rid) for f in due] == [(0, 0)]
        due = inj.advance()  # op 3: both remaining fire together
        assert sorted((f.sid, f.rid) for f in due) == [(0, 1), (1, 1)]
        assert inj.exhausted
        assert inj.advance() == []
        assert inj.ops_seen == 4

    def test_reset_replays_identically(self):
        inj = FaultInjector(self._schedule())
        first = [inj.advance() for _ in range(4)]
        inj.reset()
        assert inj.ops_seen == 0 and not inj.exhausted
        assert [inj.advance() for _ in range(4)] == first

    def test_schedule_is_sorted_by_at_op(self):
        inj = FaultInjector(
            [
                Fault(at_op=9, action="kill", sid=0, rid=0),
                Fault(at_op=1, action="kill", sid=0, rid=1),
            ]
        )
        assert [f.at_op for f in inj.schedule] == [1, 9]

    def test_gap_between_faults_yields_empty_ticks(self):
        inj = FaultInjector(
            [Fault(at_op=1, action="kill", sid=0, rid=0),
             Fault(at_op=5, action="kill", sid=0, rid=1)]
        )
        fired = [len(inj.advance()) for _ in range(5)]
        assert fired == [1, 0, 0, 0, 1]
        assert inj.exhausted


class TestEngineSeam:
    def test_fault_beyond_replication_raises_when_it_fires(self):
        inj = FaultInjector([Fault(at_op=2, action="kill", sid=0, rid=1)])
        engine = _replicated(_grid_store(), n_shards=2, fault_injector=inj)
        executor = QueryExecutor(engine, max_workers=1)
        q = _window((0.0, 0.0), (9.0, 9.0))
        executor.run([q])  # op 1: the schedule is still quiet
        with pytest.raises(ConfigurationError, match="targets replica 1"):
            executor.run([q])

    def test_out_of_range_fault_targets_raise(self):
        engine = _replicated(_grid_store(), n_shards=2, replication=2)
        with pytest.raises(ConfigurationError, match="targets shard 9"):
            engine.apply_fault(Fault(at_op=1, action="kill", sid=9, rid=0))
        with pytest.raises(ConfigurationError, match="targets replica 5"):
            engine.apply_fault(Fault(at_op=1, action="kill", sid=0, rid=5))

    def test_kill_fires_deterministically_mid_workload(self):
        """Same seed, same kill point, same results as the unfaulted run."""
        queries = [
            _window((i % 5 * 3.0, 0.0), (i % 5 * 3.0 + 7.0, 16.0), seq=i)
            for i in range(12)
        ]

        def run(with_faults: bool):
            # Seed 0's three kills hit (0,0) and (1,1): every shard
            # keeps a live replica, so the run must match the unfaulted
            # one exactly.
            injector = (
                FaultInjector.random(0, 3, n_shards=2, replication=2, max_op=8)
                if with_faults
                else None
            )
            engine = _replicated(
                _grid_store(), n_shards=2, replication=2, fault_injector=injector
            )
            results = [np.sort(engine.execute(q).ids) for q in queries]
            return results, sorted(engine.dead_replicas())

        base, dead_base = run(with_faults=False)
        faulted1, dead1 = run(with_faults=True)
        faulted2, dead2 = run(with_faults=True)
        assert dead_base == [] and dead1 == dead2 and len(dead1) >= 1
        for a, b, c in zip(base, faulted1, faulted2):
            assert np.array_equal(a, b) and np.array_equal(b, c)

    def test_kill_during_write_leaves_ledger_replayable(self):
        # The very first engine op is the insert; the fault fires inside
        # it, before the write reaches any replica.
        engine = _replicated(
            _grid_store(4),
            n_shards=2,
            replication=2,
            fault_injector=FaultInjector(
                [Fault(at_op=1, action="kill", sid=0, rid=1)]
            ),
        )
        scan = ScanIndex(BoxStore(engine.store.lo.copy(), engine.store.hi.copy()))
        blo = np.array([[0.5, 0.5], [4.0, 4.0], [20.0, 2.0]])
        bhi = blo + 1.5
        expect_ids = scan.insert(blo, bhi)
        got_ids = engine.insert(blo, bhi)
        assert np.array_equal(got_ids, expect_ids)
        assert engine.dead_replicas() == [(0, 1)]
        # The dead replica missed the write; ledger replay recovers it.
        engine.recover_replica(0, 1)
        assert engine.dead_replicas() == []
        rs = engine.shards[0]
        rs.ledger.assert_matches(rs.replicas[1].store)
        fps = {r.store.live_fingerprint() for r in rs.replicas}
        assert len(fps) == 1
        full = _window((-1.0, -1.0), (30.0, 30.0), seq=999)
        assert np.array_equal(
            np.sort(engine.execute(full).ids), np.sort(scan.execute(full).ids)
        )
