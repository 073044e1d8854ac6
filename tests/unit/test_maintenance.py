"""Unit tests for query-path maintenance: the policy, the scheduler's
compaction checks, and their threading through the executor and the
op-stream runner, plus the fleet-wide ``flush_updates`` verb.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines import ScanIndex
from repro.bench import run_workload
from repro.core import QuasiiIndex
from repro.datasets import BoxStore, make_uniform
from repro.errors import ConfigurationError
from repro.geometry import Box
from repro.queries import mixed_workload, uniform_workload
from repro.sharding import (
    MaintenancePolicy,
    MaintenanceScheduler,
    QueryExecutor,
    ShardedIndex,
)
from repro.sharding.executor import BACKENDS
from repro.telemetry import Telemetry
from repro.telemetry.events import EventLog


def _grid_store(n_side=10, spacing=10.0, ndim=2) -> BoxStore:
    """A deterministic grid of small boxes covering [0, n*spacing)^d."""
    axes = [np.arange(n_side) * spacing for _ in range(ndim)]
    centers = np.stack(np.meshgrid(*axes), axis=-1).reshape(-1, ndim) + spacing / 2
    return BoxStore(centers - 1.0, centers + 1.0)


class TestFlushUpdates:
    def test_flush_updates_forces_pending_rows_into_stores(self):
        engine = ShardedIndex(_grid_store(), n_shards=2)
        engine.build()
        engine.insert(np.array([[1.0, 1.0]]), np.array([[2.0, 2.0]]))
        assert engine.pending_updates() == 1
        assert engine.flush_updates() == 1
        assert engine.pending_updates() == 0
        engine.validate_routing()

    def test_quasii_flush_updates_counts_merges(self):
        store = _grid_store()
        index = QuasiiIndex(store.copy())
        index.build()
        assert index.flush_updates() == 0
        index.insert(np.array([[1.0, 1.0]]), np.array([[2.0, 2.0]]))
        merges_before = index.stats.merges
        assert index.flush_updates() == 1
        assert index.stats.merges == merges_before + 1
        assert index.pending_updates() == 0


class TestMaintenance:
    def test_policy_validation(self):
        for kwargs in (
            dict(check_every=0),
            dict(dead_fraction=1.0),
        ):
            with pytest.raises(ConfigurationError):
                MaintenancePolicy(**kwargs)

    def test_a_rebalancing_policy_is_refused(self):
        # The field survives for rebalance=False call sites; True names
        # what is gone instead of silently compacting only.
        assert MaintenancePolicy(rebalance=False) == MaintenancePolicy()
        with pytest.raises(ConfigurationError, match="rebalancing was removed"):
            MaintenancePolicy(rebalance=True)
        for removed in ("max_balance", "max_query_skew", "min_queries"):
            with pytest.raises(TypeError, match=removed):
                MaintenancePolicy(**{removed: 1})

    def test_scheduler_rejects_immutable_indexes(self):
        store = _grid_store()
        from repro.baselines import SFCIndex

        index = SFCIndex(store, Box((0.0, 0.0), (100.0, 100.0)))
        with pytest.raises(ConfigurationError):
            MaintenanceScheduler(index)

    def test_cadence_runs_every_check_every_ops(self):
        engine = ShardedIndex(_grid_store(), n_shards=2)
        engine.build()
        sched = MaintenanceScheduler(engine, MaintenancePolicy(check_every=4))
        ticks = [sched.after_ops(1) for _ in range(8)]
        assert ticks == [False] * 3 + [True] + [False] * 3 + [True]
        assert sched.report.checks == 2

    def test_cadence_carries_the_remainder_across_batches(self):
        engine = ShardedIndex(_grid_store(), n_shards=2)
        engine.build()
        sched = MaintenanceScheduler(engine, MaintenancePolicy(check_every=64))
        # One oversized batch runs one check (back-to-back checks would
        # observe identical state) ...
        assert sched.after_ops(1000)
        assert sched.report.checks == 1
        # ... and the remainder carries: 1000 % 64 = 40, so 24 more ops
        # reach the next check boundary.
        assert not sched.after_ops(23)
        assert sched.after_ops(1)
        assert sched.report.checks == 2

    def test_compaction_triggers_on_dead_fraction_for_plain_indexes(self):
        store = _grid_store()
        index = QuasiiIndex(store)
        index.build()
        index.delete(store.ids[store.live_rows()][:60])  # 60% dead
        sched = MaintenanceScheduler(
            index, MaintenancePolicy(check_every=1, dead_fraction=0.5)
        )
        sched.run()
        assert sched.report.compaction_passes == 1
        assert sched.report.rows_reclaimed == 60
        assert store.n_dead == 0

    def test_scheduler_compacts_only_a_sharded_engines_dirty_shards(self):
        engine = ShardedIndex(_grid_store(), n_shards=2)
        engine.build()
        dirty = engine.shards[0].store.ids[:30].copy()
        clean = engine.shards[1].store.ids[:2].copy()
        engine.delete(np.concatenate([dirty, clean]))
        events = EventLog()
        sched = MaintenanceScheduler(
            engine,
            MaintenancePolicy(check_every=1, dead_fraction=0.2),
            events=events,
        )
        sched.run()
        assert sched.report.compaction_passes == 1
        assert sched.report.rows_reclaimed == 30
        assert engine.shards[0].store.n_dead == 0
        assert engine.shards[1].store.n_dead == 2
        (compact,) = events.recent("maintenance.compact")
        assert compact.payload["rows_reclaimed"] == 30
        assert compact.payload["check"] == 1
        # Below the threshold the next check reclaims nothing.
        sched.run()
        assert sched.report.compaction_passes == 1
        assert len(events.recent("maintenance.compact")) == 1

    def test_one_span_per_check_carries_the_pass_totals_only(self):
        engine = ShardedIndex(_grid_store(), n_shards=2)
        engine.build()
        engine.delete(engine.shards[1].store.ids[:40].copy())
        telemetry = Telemetry()
        sched = MaintenanceScheduler(
            engine,
            MaintenancePolicy(check_every=1, dead_fraction=0.1),
            tracer=telemetry.tracer,
        )
        sched.run()
        sched.run()  # below the threshold now: the gate stays shut
        assert [r.name for r in telemetry.tracer.records] == ["maintenance.compact"] * 2
        first, second = telemetry.tracer.spans("maintenance.compact")
        assert first.attrs == {"rows_reclaimed": 40}
        assert second.attrs == {"rows_reclaimed": 0}
        with pytest.raises(TypeError, match="recover_replicas"):
            MaintenancePolicy(recover_replicas=True)
        assert not hasattr(sched.report, "replicas_recovered")

    def test_query_executor_ticks_maintenance(self):
        ds = make_uniform(2_000, seed=5)
        engine = ShardedIndex(ds.store.copy(), n_shards=2)
        policy = MaintenancePolicy(check_every=8)
        executor = QueryExecutor(engine, max_workers=1, maintenance=policy)
        queries = uniform_workload(ds.universe, 16, 1e-3, seed=6)
        executor.run(queries)
        assert executor.scheduler is not None
        assert executor.scheduler.report.checks >= 1
        # Without a policy there is no scheduler.
        assert QueryExecutor(engine, max_workers=1).scheduler is None

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_the_executor_compacts_between_batches(self, backend):
        # Deletes leave tombstones; the tick after the next batch
        # compacts every shard past the threshold, and answers before
        # and after match the Scan oracle on either server.
        ds = make_uniform(3_000, seed=12)
        engine = ShardedIndex(ds.store.copy(), n_shards=3)
        scan = ScanIndex(ds.store.copy())
        queries = uniform_workload(ds.universe, 16, 1e-2, seed=13)
        policy = MaintenancePolicy(check_every=16, dead_fraction=0.1)

        def check(ex):
            for q, got in zip(queries, ex.run(queries).results):
                assert np.array_equal(np.sort(got), np.sort(scan.execute(q).ids))

        with QueryExecutor(
            engine, max_workers=2, backend=backend, maintenance=policy
        ) as ex:
            check(ex)
            victims = ds.store.ids[::5].copy()
            assert engine.delete(victims) == scan.delete(victims)
            assert ex.scheduler.report.compaction_passes == 0
            check(ex)
            report = ex.scheduler.report
            assert (report.checks, report.compaction_passes) == (2, 1)
            assert report.rows_reclaimed == victims.size
            assert all(s.store.n_dead == 0 for s in engine.shards)
            check(ex)
        engine.validate_routing()

    # The scheduler's two branches: a fleet compacts shard by shard, a
    # plain index its store.
    ENGINES = {
        "sharded": lambda store: ShardedIndex(store, n_shards=2),
        "quasii": QuasiiIndex,
    }

    @pytest.mark.parametrize("kind", sorted(ENGINES))
    def test_mixed_workload_runner_reports_maintenance(self, kind):
        ds = make_uniform(4_000, seed=8)
        engine = self.ENGINES[kind](ds.store.copy())
        ops = mixed_workload(
            ds.universe, n_ops=80, write_ratio=0.5, delete_fraction=0.75,
            batch_size=64, volume_fraction=1e-3, seed=10,
        )
        result = run_workload(
            engine,
            ops,
            maintenance=MaintenancePolicy(check_every=8, dead_fraction=0.02),
        )
        assert result.stats.compactions >= 1
        assert result.maintenance_seconds > 0
        # Maintained engine still matches the Scan oracle.
        scan = ScanIndex(ds.store.copy())
        oracle = run_workload(scan, ops)
        assert all(
            np.array_equal(a, b)
            for a, b in zip(result.query_results, oracle.query_results)
        )


class TestCompactionChecks:
    """The dead-fraction gate, its edges, and what each check records."""

    def _plain(self, n_dead: int) -> tuple[QuasiiIndex, BoxStore]:
        store = _grid_store()  # 100 rows
        index = QuasiiIndex(store)
        index.build()
        if n_dead:
            index.delete(store.ids[store.live_rows()][:n_dead])
        return index, store

    def test_a_store_exactly_at_the_threshold_is_left_alone(self):
        # The gate is strict: 50 of 100 dead is not past 0.5.
        index, store = self._plain(50)
        sched = MaintenanceScheduler(index, MaintenancePolicy(dead_fraction=0.5))
        sched.run()
        assert sched.report.compaction_passes == 0
        assert store.n_dead == 50
        index.delete(store.ids[store.live_rows()][:1])
        sched.run()
        assert (sched.report.compaction_passes, sched.report.rows_reclaimed) == (1, 51)
        assert store.n_dead == 0

    def test_an_emptied_plain_store_is_checked_without_compacting(self):
        index, store = self._plain(100)
        sched = MaintenanceScheduler(index, MaintenancePolicy(dead_fraction=0.5))
        sched.run()
        assert store.n == 0 and sched.report.rows_reclaimed == 100
        # No rows left: the next check has no fraction to take.
        sched.run()
        assert sched.report.checks == 2
        assert sched.report.compaction_passes == 1

    def test_a_zero_threshold_compacts_a_single_tombstone(self):
        engine = ShardedIndex(_grid_store(), n_shards=2)
        engine.build()
        victim = engine.shards[1].store.ids[:1].copy()
        engine.delete(victim)
        sched = MaintenanceScheduler(engine, MaintenancePolicy(dead_fraction=0.0))
        sched.run()
        assert sched.report.rows_reclaimed == 1
        assert all(s.store.n_dead == 0 for s in engine.shards)
        assert sum(engine.shard_sizes()) == 99
        engine.validate_routing()

    def test_an_idle_check_traces_a_zero_compaction_and_emits_no_event(self):
        index, _ = self._plain(0)
        telemetry = Telemetry()
        events = EventLog()
        sched = MaintenanceScheduler(
            index, MaintenancePolicy(), tracer=telemetry.tracer, events=events
        )
        sched.run()
        (compact,) = telemetry.tracer.spans("maintenance.compact")
        assert compact.attrs == {"rows_reclaimed": 0}
        assert not events.recent("maintenance.compact")
        assert (sched.report.checks, sched.report.compaction_passes) == (1, 0)

    def test_a_plain_index_compaction_emits_the_event(self):
        index, _ = self._plain(70)
        events = EventLog()
        sched = MaintenanceScheduler(
            index, MaintenancePolicy(dead_fraction=0.5), events=events
        )
        sched.run()
        sched.run()
        (compact,) = events.recent("maintenance.compact")
        assert compact.payload["rows_reclaimed"] == 70
        assert compact.payload["check"] == 1
        assert compact.payload["seconds"] >= 0.0

    def test_maintenance_seconds_accumulate_over_every_check(self):
        index, _ = self._plain(60)
        sched = MaintenanceScheduler(index, MaintenancePolicy(dead_fraction=0.5))
        first = sched.run().seconds
        assert first > 0.0
        # An idle check still costs its (small) share of wall-clock.
        assert sched.run().seconds > first

    def test_an_empty_batch_does_not_advance_the_cadence(self):
        engine = ShardedIndex(_grid_store(), n_shards=2)
        policy = MaintenancePolicy(check_every=2)
        executor = QueryExecutor(engine, max_workers=1, maintenance=policy)
        executor.run([])
        executor.run([])
        assert executor.scheduler.report.checks == 0
        query = uniform_workload(Box((0.0, 0.0), (100.0, 100.0)), 2, 1e-2, seed=3)
        executor.run(query)
        assert executor.scheduler.report.checks == 1

    @pytest.mark.parametrize("n_shards", [1, 2, 5])
    def test_scheduled_compaction_keeps_answers_at_every_shard_count(self, n_shards):
        ds = make_uniform(1_500, seed=21)
        engine = ShardedIndex(ds.store.copy(), n_shards=n_shards)
        scan = ScanIndex(ds.store.copy())
        queries = uniform_workload(ds.universe, 12, 1e-2, seed=22)
        sched = MaintenanceScheduler(engine, MaintenancePolicy(dead_fraction=0.1))
        engine.build()
        victims = ds.store.ids[::4].copy()
        assert engine.delete(victims) == scan.delete(victims)
        sched.run()
        assert sched.report.rows_reclaimed == victims.size
        assert all(s.store.n_dead == 0 for s in engine.shards)
        assert sum(engine.shard_sizes()) == ds.store.n - victims.size
        engine.validate_routing()
        for q in queries:
            assert np.array_equal(
                np.sort(engine.execute(q).ids), np.sort(scan.execute(q).ids)
            )
