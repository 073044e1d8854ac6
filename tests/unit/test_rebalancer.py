"""Unit tests for the rebalancing + maintenance subsystem.

Covers the :class:`WorkloadProfile` accounting, the
:class:`Rebalancer`'s drift detection and split/merge mechanics
(including the post-migration routing-MBB re-derivation the insert
router depends on), the engine's migration verbs, and the
:class:`MaintenancePolicy` / :class:`MaintenanceScheduler` threading
through both executors.
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
from repro.queries import Query, drifting_hotspot_workload, uniform_workload
from repro.sharding import (
    MaintenancePolicy,
    MaintenanceScheduler,
    QueryExecutor,
    Rebalancer,
    ShardedIndex,
    WorkloadProfile,
)
from repro.sharding.rebalancer import MIN_CENTROIDS, PROFILE_WINDOW
from repro.telemetry import Telemetry
from repro.telemetry.events import EventLog
from tests.property._interleavings import shard_union


def _query_at(center, side=4.0, seq=0):
    center = np.asarray(center, dtype=np.float64)
    return Query(
        Box(tuple(center - side / 2), tuple(center + side / 2)), seq=seq
    )


def _grid_store(n_side=10, spacing=10.0, ndim=2) -> BoxStore:
    """A deterministic grid of small boxes covering [0, n*spacing)^d."""
    axes = [np.arange(n_side) * spacing for _ in range(ndim)]
    centers = np.stack(np.meshgrid(*axes), axis=-1).reshape(-1, ndim) + spacing / 2
    return BoxStore(centers - 1.0, centers + 1.0)


class TestWorkloadProfile:
    def test_records_and_derives_centroids(self):
        profile = WorkloadProfile()
        for i in range(PROFILE_WINDOW + 2):
            profile.record(_query_at([10.0 * i, 0.0]))
        assert profile.queries_seen == PROFILE_WINDOW + 2
        pts = profile.centroids()
        assert pts.shape == (PROFILE_WINDOW, 2)  # bounded by the window
        assert pts[0][0] == pytest.approx(20.0)
        assert pts[-1][0] == pytest.approx(10.0 * (PROFILE_WINDOW + 1))

    def test_centroids_within_filters_by_box(self):
        profile = WorkloadProfile()
        profile.record(_query_at([5.0, 5.0]))
        profile.record(_query_at([95.0, 95.0]))
        inside = profile.centroids_within(
            np.array([0.0, 0.0]), np.array([10.0, 10.0])
        )
        assert inside.shape == (1, 2)

    def test_recent_windows_limit(self):
        profile = WorkloadProfile()
        for i in range(5):
            profile.record(_query_at([float(i), 0.0], seq=i))
        assert len(profile.recent_windows()) == 5
        assert len(profile.recent_windows(2)) == 2
        # Newest last.
        assert profile.recent_windows(1)[0][0][0] == pytest.approx(4.0 - 2.0)

    def test_shard_loads_are_deltas_since_baseline(self):
        engine = ShardedIndex(_grid_store(), n_shards=2)
        engine.build()
        for i in range(4):
            engine.execute(_query_at([5.0, 5.0], seq=i))
        loads = engine.profile.shard_loads(engine.shards)
        assert sum(l.queries for l in loads) == 4
        assert [l.sid for l in loads] == [0, 1]
        assert [l.live_rows for l in loads] == engine.shard_sizes()
        engine.profile.rebaseline()
        loads = engine.profile.shard_loads(engine.shards)
        assert sum(l.queries for l in loads) == 0
        assert engine.profile.queries_seen == 0

    def test_query_skew_measures_concentration(self):
        engine = ShardedIndex(_grid_store(), n_shards=4)
        engine.build()
        assert engine.profile.query_skew(engine.shards) == 1.0
        for i in range(10):
            engine.execute(_query_at([5.0, 5.0], seq=i))  # one corner shard
        assert engine.profile.query_skew(engine.shards) > 2.0


class TestRebalancer:
    def test_rejects_bad_thresholds(self):
        for kwargs in (
            dict(max_balance=0.9),
            dict(max_query_skew=0.5),
            dict(min_queries=0),
        ):
            with pytest.raises(ConfigurationError):
                Rebalancer(**kwargs)

    def test_no_drift_without_enough_profiled_queries(self):
        engine = ShardedIndex(_grid_store(), n_shards=2)
        engine.build()
        rb = Rebalancer(min_queries=50)
        assert rb.drift_reason(engine) is None
        assert rb.maybe_rebalance(engine) is None

    def test_single_shard_never_rebalances(self):
        engine = ShardedIndex(_grid_store(), n_shards=1)
        engine.build()
        rb = Rebalancer(min_queries=1)
        for i in range(5):
            engine.execute(_query_at([5.0, 5.0], seq=i))
        assert rb.drift_reason(engine) is None
        assert rb.rebalance(engine) is None

    def test_balance_drift_detected_and_fixed(self):
        engine = ShardedIndex(_grid_store(), n_shards=2)
        engine.build()
        for i in range(4):
            engine.execute(_query_at([5.0, 5.0], seq=i))
        # Skewed ingestion: pile rows into one corner.
        centers = np.random.default_rng(0).uniform(0, 20, size=(160, 2))
        engine.insert(centers - 0.5, centers + 0.5)
        assert engine.balance_factor() > 1.4
        rb = Rebalancer(max_balance=1.4, max_query_skew=1e9, min_queries=2)
        assert rb.drift_reason(engine) == "balance"
        result = rb.maybe_rebalance(engine)
        assert result is not None and result.reason == "balance"
        assert result.balance_after < result.balance_before
        assert engine.stats.rebalances == 1
        assert engine.stats.rows_migrated == result.rows_migrated > 0
        engine.validate_routing()

    def test_skew_drift_splits_the_hot_traffic(self):
        engine = ShardedIndex(_grid_store(), n_shards=4)
        engine.build()
        for i in range(20):
            engine.execute(_query_at([5.0, 5.0], seq=i))
        rb = Rebalancer(max_balance=1e9, max_query_skew=1.5, min_queries=10)
        assert rb.drift_reason(engine) == "skew"
        result = rb.maybe_rebalance(engine)
        assert result is not None and result.reason == "skew"
        engine.validate_routing()

    def test_rebalance_preserves_results_and_the_live_multiset(self):
        ds = make_uniform(3_000, seed=3)
        engine = ShardedIndex(ds.store.copy(), n_shards=3)
        engine.build()
        scan = ScanIndex(ds.store.copy())
        queries = uniform_workload(ds.universe, 30, 1e-3, seed=4)
        for q in queries[:15]:
            engine.execute(q)
        live_fp = shard_union(engine).live_fingerprint()
        result = Rebalancer(min_queries=1).rebalance(engine)
        assert result is not None
        assert shard_union(engine).live_fingerprint() == live_fp
        for q in queries[15:]:
            assert np.array_equal(np.sort(engine.execute(q).ids), np.sort(scan.execute(q).ids))

    def test_routing_mbbs_rederived_after_migration(self):
        """The satellite bugfix: post-pass insert routing must see MBBs
        derived from the migrated stores, not the pre-pass geometry."""
        engine = ShardedIndex(_grid_store(), n_shards=2)
        engine.build()
        for i in range(6):
            engine.execute(_query_at([5.0, 5.0], seq=i))
        Rebalancer(min_queries=1).rebalance(engine)
        stack_lo, stack_hi = engine._mbb_stacks()
        for shard in engine.shards:
            store = shard.store
            rows = store.live_rows()
            assert np.array_equal(stack_lo[shard.sid], shard.mbb_lo)
            assert np.array_equal(stack_hi[shard.sid], shard.mbb_hi)
            if rows.size:
                # Re-derived exactly from the migrated store's live rows.
                assert np.allclose(shard.mbb_lo, store.lo[rows].min(axis=0))
                assert np.allclose(shard.mbb_hi, store.hi[rows].max(axis=0))
        # And routing honors them: a box inside one shard's tile lands
        # on the shard whose MBB covers it.
        ids = engine.insert(np.array([[5.0, 5.0]]), np.array([[6.0, 6.0]]))
        owner = engine.shards[engine.owner_of(int(ids[0]))]
        assert np.all(owner.mbb_lo <= 5.0) and np.all(owner.mbb_hi >= 6.0)

    def test_warmup_refines_rebuilt_shards(self):
        engine = ShardedIndex(_grid_store(20), n_shards=2)
        engine.build()
        for i in range(10):
            engine.execute(_query_at([10.0, 10.0], seq=i))
        Rebalancer(min_queries=1).rebalance(engine)
        # The replay's cracking shows up in the fleet work roll-up.
        assert engine.stats.cracks > 0

    def test_split_cut_follows_query_centroids(self):
        engine = ShardedIndex(_grid_store(), n_shards=2)
        engine.build()
        # The STR seam is at x = 50; every query lands left of it and
        # they roam along dim 1 — where a data-median cut (what fewer
        # than MIN_CENTROIDS observations fall back to) would pick dim 0.
        ys = np.linspace(10.0, 90.0, MIN_CENTROIDS + 1)
        for i, y in enumerate(ys):
            engine.execute(_query_at([25.0, y], seq=i))
        result = Rebalancer(min_queries=1).rebalance(engine)
        assert result.split_dim == 1
        assert result.split_cut == pytest.approx(50.0)


class TestEngineMigrationVerbs:
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

    def test_rebuild_shard_recalibrates_work_counters(self):
        engine = ShardedIndex(_grid_store(), n_shards=2)
        engine.build()
        for i in range(5):
            engine.execute(_query_at([5.0, 5.0], seq=i))
        tested_before = engine.stats.objects_tested
        shard = engine.shards[0]
        rows = shard.store.live_rows()
        engine.rebuild_shard(
            0, shard.store.lo[rows], shard.store.hi[rows], shard.store.ids[rows]
        )
        engine.sync_shard_work()
        # Discarding the old index's counters must never roll the
        # engine's folded totals backwards.
        assert engine.stats.objects_tested >= tested_before
        engine.validate_routing()

    def test_rebuild_shard_bulk_refines_large_mutable_shards(self):
        engine = ShardedIndex(_grid_store(20), n_shards=2)  # 400 rows
        engine.build()
        shard = engine.shards[0]
        rows = shard.store.live_rows()
        engine.rebuild_shard(
            0, shard.store.lo[rows], shard.store.hi[rows], shard.store.ids[rows]
        )
        rebuilt = engine.shards[0].index
        # The batch went through insert + flush: nothing left pending,
        # and the run was large enough to be STR bulk-loaded (refined).
        assert rebuilt.pending_updates() == 0
        assert rebuilt.stats.merges == 1


class TestMaintenance:
    def test_policy_validation(self):
        for kwargs in (
            dict(check_every=0),
            dict(dead_fraction=1.0),
            dict(max_balance=0.5),
            dict(max_query_skew=0.0),
            dict(min_queries=0),
        ):
            with pytest.raises(ConfigurationError):
                MaintenancePolicy(**kwargs)

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
            MaintenancePolicy(check_every=1, dead_fraction=0.2, rebalance=False),
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

    def test_the_check_span_carries_the_pass_totals_only(self):
        engine = ShardedIndex(_grid_store(), n_shards=2)
        engine.build()
        engine.delete(engine.shards[1].store.ids[:40].copy())
        telemetry = Telemetry()
        sched = MaintenanceScheduler(
            engine,
            MaintenancePolicy(check_every=1, dead_fraction=0.1, rebalance=False),
            tracer=telemetry.tracer,
        )
        sched.run()
        (check,) = telemetry.tracer.spans("maintenance.check")
        assert check.attrs == {"rows_reclaimed": 40, "rows_migrated": 0}
        with pytest.raises(TypeError, match="recover_replicas"):
            MaintenancePolicy(recover_replicas=True)
        assert not hasattr(sched.report, "replicas_recovered")

    def test_scheduler_rebalances_sharded_engines(self):
        engine = ShardedIndex(_grid_store(), n_shards=2)
        engine.build()
        sched = MaintenanceScheduler(
            engine,
            MaintenancePolicy(
                check_every=1, max_balance=1.2, max_query_skew=1e9, min_queries=2
            ),
        )
        for i in range(4):
            engine.execute(_query_at([5.0, 5.0], seq=i))
        centers = np.random.default_rng(0).uniform(0, 20, size=(160, 2))
        engine.insert(centers - 0.5, centers + 0.5)
        assert sched.after_ops(1)
        assert sched.report.rebalances == 1
        assert sched.report.last_rebalance.reason == "balance"
        assert sched.report.seconds > 0

    def test_rebalance_disabled_policy_never_rebalances(self):
        engine = ShardedIndex(_grid_store(), n_shards=2)
        engine.build()
        sched = MaintenanceScheduler(
            engine,
            MaintenancePolicy(
                check_every=1, rebalance=False, max_balance=1.01, min_queries=1
            ),
        )
        for i in range(4):
            engine.execute(_query_at([5.0, 5.0], seq=i))
        sched.run()
        assert sched.report.rebalances == 0

    def test_query_executor_ticks_maintenance(self):
        ds = make_uniform(2_000, seed=5)
        engine = ShardedIndex(ds.store.copy(), n_shards=2)
        policy = MaintenancePolicy(
            check_every=8, max_balance=1.0001, max_query_skew=1e9, min_queries=1
        )
        executor = QueryExecutor(engine, max_workers=1, maintenance=policy)
        queries = uniform_workload(ds.universe, 16, 1e-3, seed=6)
        executor.run(queries)
        assert executor.scheduler is not None
        assert executor.scheduler.report.checks >= 1
        # Without a policy there is no scheduler.
        assert QueryExecutor(engine, max_workers=1).scheduler is None

    def test_mixed_workload_runner_reports_maintenance(self):
        ds = make_uniform(4_000, seed=8)
        engine = ShardedIndex(ds.store.copy(), n_shards=2)
        ops = drifting_hotspot_workload(
            ds.universe, n_ops=80, phases=2, volume_fraction=1e-3,
            insert_every=2, insert_batch=64, seed=10,
        )
        result = run_workload(
            engine,
            ops,
            maintenance=MaintenancePolicy(
                check_every=8, max_balance=1.1, max_query_skew=1e9, min_queries=4
            ),
        )
        assert result.stats.rebalances >= 1
        assert result.stats.rows_migrated > 0
        assert result.maintenance_seconds > 0
        # Maintained engine still matches the Scan oracle.
        scan = ScanIndex(ds.store.copy())
        oracle = run_workload(scan, ops)
        assert all(
            np.array_equal(a, b)
            for a, b in zip(result.query_results, oracle.query_results)
        )
