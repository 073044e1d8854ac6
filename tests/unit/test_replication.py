"""Unit tests for the replication tier: the primary, failover, recovery.

Covers the named cases directly: the primary serves and standbys never
crack, a standby takes over when the primary dies, a recovered replica
rejoins as a standby, kill-during-write leaving the ledger replayable (see
``test_fault_injection``), double-kill of all replicas raising a clean
error instead of hanging, the no-dead-reads invariant, and ledger-replay
recovery with fingerprint verification.
"""

from __future__ import annotations

import gc
import weakref

import numpy as np
import pytest

from repro.baselines import ScanIndex
from repro.core import QuasiiConfig, QuasiiIndex
from repro.datasets import BoxStore
from repro.errors import ConfigurationError, ReplicationError, ReproError
from repro.geometry import Box
from repro.queries import Query
from repro.sharding import (
    MaintenancePolicy,
    MaintenanceScheduler,
    Rebalancer,
    ShardedIndex,
)
from repro.telemetry.events import EVENTS, EventLog


def _grid_store(side: int = 6, spacing: float = 3.0) -> BoxStore:
    xs, ys = np.meshgrid(np.arange(side), np.arange(side), indexing="ij")
    lo = np.column_stack([xs.ravel(), ys.ravel()]).astype(np.float64) * spacing
    return BoxStore(lo, lo + 1.0)


def _small_quasii(store: BoxStore) -> QuasiiIndex:
    return QuasiiIndex(store, QuasiiConfig(2, (8, 4)), max_runs=2)


def _window(lo, hi, seq=0) -> Query:
    return Query(Box(tuple(lo), tuple(hi)), seq=seq)


def _full(seq=9999) -> Query:
    return _window((-1.0, -1.0), (100.0, 100.0), seq=seq)


def _replicated(store=None, **kwargs) -> ShardedIndex:
    engine = ShardedIndex(
        store if store is not None else _grid_store(),
        index_factory=_small_quasii,
        **kwargs,
    )
    engine.build()
    return engine


class TestBuild:
    def test_every_shard_has_r_identical_replicas(self):
        engine = _replicated(n_shards=2, replication=3)
        assert engine.name == "Replicated[strx2xR3]"
        assert engine.replication == 3
        for shard in engine.shards:
            assert shard.replication == 3
            assert shard.dead_rids() == []
            fps = {r.store.live_fingerprint() for r in shard.replicas}
            assert len(fps) == 1
            # Primary pointer: the shard contract fields alias replica 0.
            assert shard.store is shard.replicas[0].store
            assert shard.index is shard.replicas[0].index

    def test_replication_below_one_rejected(self):
        with pytest.raises(ConfigurationError, match="replication >= 1"):
            ShardedIndex(_grid_store(), replication=0)

    def test_replication_error_is_a_repro_error(self):
        assert issubclass(ReplicationError, ReproError)

    def test_r1_engine_answers_queries(self):
        engine = _replicated(n_shards=2, replication=1)
        scan = ScanIndex(
            BoxStore(engine.store.lo.copy(), engine.store.hi.copy())
        )
        q = _window((0.0, 0.0), (8.0, 8.0))
        assert np.array_equal(
            np.sort(engine.execute(q).ids), np.sort(scan.execute(q).ids)
        )


class TestDegenerateR1:
    """R=1 is the same engine with nothing to fail over to."""

    def test_one_live_replica_and_no_ledger_per_shard(self):
        engine = _replicated(n_shards=3)
        assert engine.replication == 1
        assert engine.name == "Sharded[strx3]"
        for shard in engine.shards:
            assert [r.alive for r in shard.replicas] == [True]
            assert shard.ledger is None
            assert shard.index is shard.replicas[0].index

    def test_killed_sole_replica_fails_reads_and_writes_loudly(self):
        engine = _replicated(n_shards=2)
        assert engine.kill_replica(0, 0)
        with pytest.raises(ReplicationError, match="all 1 replicas are dead"):
            engine.execute(_full())
        sizes_before = engine.shard_sizes()
        with pytest.raises(ReplicationError, match="its only replica is dead"):
            engine.insert(np.array([[1.2, 1.2]]), np.array([[2.0, 2.0]]))
        # Refused before any shard was written.
        assert engine.shard_sizes() == sizes_before

    def test_recovery_names_the_missing_replication_stream(self):
        engine = _replicated(n_shards=2)
        engine.kill_replica(1, 0)
        with pytest.raises(ReplicationError, match="no replication stream"):
            engine.recover_replica(1, 0)
        assert engine.dead_replicas() == [(1, 0)]


class TestLifetime:
    def test_dropped_engine_is_freed_without_the_cyclic_collector(self):
        # Shards must not reference their engine (not even through the
        # event sink): a cycle keeps every store of a dropped engine
        # alive until the collector runs — +200 MB per 1M-row engine.
        engine = _replicated(n_shards=2, replication=2, events=EventLog())
        engine.execute(_full())
        ref = weakref.ref(engine)
        gc.disable()
        try:
            del engine
            assert ref() is None
        finally:
            gc.enable()


class TestRouting:
    def test_standbys_take_writes_but_never_crack(self):
        r1 = _replicated(n_shards=2)
        r3 = _replicated(n_shards=2, replication=3)
        for engine in (r1, r3):
            engine.insert(np.array([[1.2, 1.2]]), np.array([[2.0, 2.0]]))
            for i in range(6):
                engine.execute(_window((0.0, 0.0), (9.0, 9.0), seq=i))
        # A standby costs its copy and its writes, not a second forest.
        assert r3.stats.cracks == r1.stats.cracks > 0
        r3.flush_updates()  # a standby's write may still be buffered
        for shard in r3.shards:
            primary, *standbys = shard.replicas
            assert shard.primary() is primary
            assert primary.index.stats.queries > 0
            for r in standbys:
                assert r.index.stats.queries == r.index.stats.cracks == 0
                assert r.store.live_fingerprint() == primary.store.live_fingerprint()

    def test_ties_break_by_lowest_rid(self):
        # Every standby is an equal candidate to take over: lowest rid.
        engine = _replicated(n_shards=1, replication=4)
        shard = engine.shards[0]
        engine.kill_replica(0, 1)  # a standby: the primary stays
        assert shard.primary() is shard.replicas[0]
        engine.kill_replica(0, 0)
        assert shard.primary() is shard.replicas[2]
        assert shard.store is shard.replicas[2].store

    def test_no_read_ever_routes_to_a_dead_replica(self):
        engine = _replicated(n_shards=1, replication=2)
        rs = engine.shards[0]
        for i in range(3):
            engine.execute(_window((0.0, 0.0), (9.0, 9.0), seq=i))
        engine.kill_replica(0, 0)
        frozen = rs.replicas[0].index.stats.queries
        for i in range(3, 9):
            engine.execute(_window((0.0, 0.0), (9.0, 9.0), seq=i))
        assert rs.replicas[0].index.stats.queries == frozen == 3
        assert rs.replicas[1].index.stats.queries == 6


class TestFailover:
    def test_kill_of_primary_promotes_and_emits_failover(self):
        events = EventLog()
        engine = _replicated(n_shards=2, replication=2, events=events)
        shard = engine.shards[0]
        old_index = shard.index
        assert engine.kill_replica(0, 0)
        assert shard.index is shard.replicas[1].index
        assert shard.index is not old_index
        failovers = events.recent(kind="replica.failover")
        assert len(failovers) == 1
        assert failovers[0].payload == {"sid": 0, "to_rid": 1, "from_rid": 0}

    def test_queries_survive_single_replica_kill(self):
        engine = _replicated(n_shards=2, replication=2)
        scan = ScanIndex(
            BoxStore(engine.store.lo.copy(), engine.store.hi.copy())
        )
        engine.kill_replica(1, 0)
        for i in range(4):
            q = _window((i * 2.0, 0.0), (i * 2.0 + 9.0, 16.0), seq=i)
            assert np.array_equal(
                np.sort(engine.execute(q).ids), np.sort(scan.execute(q).ids)
            )

    def test_double_kill_raises_clean_error_not_hang(self):
        engine = _replicated(n_shards=2, replication=2)
        engine.kill_replica(0, 0)
        engine.kill_replica(0, 1)
        assert sorted(engine.dead_replicas()) == [(0, 0), (0, 1)]
        with pytest.raises(
            ReplicationError, match="all 2 replicas are dead"
        ):
            engine.execute(_full())
        # Recovery restores service completely.
        assert engine.recover_all() == 2
        assert engine.dead_replicas() == []
        scan = ScanIndex(
            BoxStore(engine.store.lo.copy(), engine.store.hi.copy())
        )
        assert np.array_equal(
            np.sort(engine.execute(_full()).ids), np.sort(scan.execute(_full()).ids)
        )

    def test_kill_is_idempotent(self):
        engine = _replicated(n_shards=1, replication=2)
        assert engine.kill_replica(0, 1)
        assert not engine.kill_replica(0, 1)


class TestRecovery:
    def test_writes_while_dead_are_recovered_by_replay(self):
        engine = _replicated(n_shards=1, replication=2)
        engine.kill_replica(0, 1)
        blo = np.array([[1.2, 1.2], [7.7, 7.7]])
        bhi = blo + 1.0
        new_ids = engine.insert(blo, bhi)
        engine.delete(np.array([engine.store.ids[0], new_ids[0]]))
        rs = engine.shards[0]
        assert rs.ledger.log_length >= 2
        engine.recover_replica(0, 1)
        # All live again: identical live multisets, log folded away.
        fps = {r.store.live_fingerprint() for r in rs.replicas}
        assert len(fps) == 1
        assert rs.ledger.log_length == 0
        rs.ledger.assert_matches(rs.replicas[1].store)

    def test_recover_of_live_replica_is_a_noop(self):
        events = EventLog()
        engine = _replicated(n_shards=1, replication=2, events=events)
        rs = engine.shards[0]
        before = rs.replicas[1]
        assert engine.recover_replica(0, 1) is before
        assert events.recent(kind="replica.recover") == []

    def test_recover_event_carries_replay_depth(self):
        events = EventLog()
        engine = _replicated(n_shards=1, replication=2, events=events)
        engine.kill_replica(0, 1)
        engine.insert(np.array([[2.2, 2.2]]), np.array([[3.0, 3.0]]))
        engine.recover_replica(0, 1)
        (rec,) = events.recent(kind="replica.recover")
        assert rec.payload["sid"] == 0 and rec.payload["rid"] == 1
        assert rec.payload["replayed_ops"] == 1
        assert rec.payload["live_rows"] == sum(engine.shard_sizes())

    def test_diverged_peer_fails_the_fingerprint_check(self):
        engine = _replicated(n_shards=1, replication=2)
        engine.kill_replica(0, 1)
        rs = engine.shards[0]
        # Write to the live peer behind the ledger's back (through its
        # index, so its epoch stays consistent): recovery must refuse to
        # certify the rebuilt replica against the diverged peer.
        rs.replicas[0].index.insert(
            np.array([[50.0, 50.0]]), np.array([[51.0, 51.0]]),
            np.array([999]),
        )
        with pytest.raises(ReplicationError, match="diverged from"):
            engine.recover_replica(0, 1)

    def test_recovered_replica_serves_reads(self):
        events = EventLog()
        engine = _replicated(n_shards=1, replication=2, events=events)
        scan = ScanIndex(
            BoxStore(engine.store.lo.copy(), engine.store.hi.copy())
        )
        rs = engine.shards[0]
        engine.kill_replica(0, 0)
        engine.recover_replica(0, 0)
        # The primary is sticky: the recovered replica is a standby, not
        # a cold copy handed the traffic back.
        assert rs.primary() is rs.replicas[1]
        assert len(events.recent(kind="replica.failover")) == 1
        # ... until the primary dies in turn.
        engine.kill_replica(0, 1)
        assert rs.primary() is rs.replicas[0]
        q = _window((0.0, 0.0), (9.0, 9.0))
        assert np.array_equal(
            np.sort(engine.execute(q).ids), np.sort(scan.execute(q).ids)
        )
        assert rs.replicas[0].index.stats.queries == 1


class TestMaintenanceIntegration:
    def test_scheduler_heals_replicas_when_policy_allows(self):
        engine = _replicated(n_shards=2, replication=2)
        scheduler = MaintenanceScheduler(
            engine, MaintenancePolicy(check_every=1, recover_replicas=True)
        )
        engine.kill_replica(1, 0)
        scheduler.run()
        assert engine.dead_replicas() == []
        assert scheduler.report.replicas_recovered == 1

    def test_default_policy_leaves_corpses_dead(self):
        engine = _replicated(n_shards=2, replication=2)
        scheduler = MaintenanceScheduler(
            engine, MaintenancePolicy(check_every=1)
        )
        engine.kill_replica(1, 0)
        scheduler.run()
        assert engine.dead_replicas() == [(1, 0)]


class TestRebalancerSeesOneTraffic:
    def test_traffic_skew_retiles_whatever_r(self):
        # One primary serves a hot tile at any R, so a standby absorbs
        # no traffic and skew means the same thing on every engine.
        corner = [_window((0.0, 0.0), (2.0, 2.0), seq=i) for i in range(6)]
        rebalancer = Rebalancer(min_queries=1, max_query_skew=1.2)
        for replication in (1, 2):
            engine = _replicated(n_shards=2, replication=replication)
            for q in corner:
                engine.execute(q)
            assert engine.profile.query_skew(engine.shards) == 2.0
            assert rebalancer.drift_reason(engine) == "skew"


class TestCompactionAcrossReplicas:
    def test_compaction_keeps_replicas_in_lockstep(self):
        engine = _replicated(n_shards=2, replication=2)
        victims = engine.store.ids[:8].copy()
        engine.delete(victims)
        engine.compact()
        for shard in engine.shards:
            stores = [r.store for r in shard.replicas]
            assert all(s.n_dead == 0 for s in stores)
            assert len({s.live_fingerprint() for s in stores}) == 1


    def test_compact_sweeps_a_recovered_standbys_replayed_tombstones(self):
        engine = _replicated(n_shards=1, replication=2)
        victim = engine.store.ids[:1].copy()
        engine.delete(victim)
        engine.kill_replica(0, 1)
        engine.compact()  # the primary lets go of the id ...
        engine.recover_replica(0, 1)  # ... the replay tombstones it again
        standby = engine.shards[0].replicas[1]
        assert engine.shards[0].store.n_dead == 0 and standby.store.n_dead == 1
        engine.compact()
        assert standby.store.n_dead == 0
        lo = np.array([[1.2, 1.2]])
        assert np.array_equal(engine.insert(lo, lo + 1.0, victim), victim)

    def test_a_policy_pass_sweeps_a_recovered_standbys_replayed_tombstones(self):
        # The shard's dead fraction is its worst live replica's: a
        # standby rebuilt by replay holds tombstones its primary already
        # compacted away, and only it would refuse their ids.
        rng = np.random.default_rng(4)
        lo = rng.uniform(0, 90, size=(4_000, 2))
        engine = _replicated(BoxStore(lo, lo + 2.0), n_shards=2, replication=2)
        victims = engine.shards[0].store.ids[:300].copy()
        engine.delete(victims)
        assert engine.maybe_compact(0.05) == 300
        engine.kill_replica(0, 1)
        engine.recover_replica(0, 1)
        shard = engine.shards[0]
        standby = shard.replicas[1]
        assert shard.store.n_dead == 0 and standby.store.n_dead == 300
        assert engine.maybe_compact(0.0) == 0  # the primary had none
        assert standby.store.n_dead == 0
        again = victims[:1]
        box = lo[again]
        assert np.array_equal(engine.insert(box, box + 2.0, again), again)
        engine.validate_routing()


class TestTelemetry:
    def test_all_emitted_kinds_are_canonical(self):
        events = EventLog()
        engine = _replicated(n_shards=2, replication=2, events=events)
        engine.kill_replica(0, 0)
        engine.recover_replica(0, 0)
        kinds = {r.kind for r in events.recent()}
        assert kinds == {
            "replica.kill",
            "replica.recover",
            "replica.failover",
        }
        assert kinds <= set(EVENTS)

    def test_work_counters_stay_consistent_through_recovery(self):
        engine = _replicated(n_shards=2, replication=2)
        for i in range(4):
            engine.execute(_window((0.0, 0.0), (9.0, 9.0), seq=i))
        before = engine.stats.objects_tested
        engine.kill_replica(0, 0)
        for i in range(4, 8):
            engine.execute(_window((0.0, 0.0), (9.0, 9.0), seq=i))
        engine.recover_replica(0, 0)
        # The recalibration around recovery must keep the engine's
        # cumulative counters monotone (no negative deltas).
        engine.sync_shard_work()
        assert engine.stats.objects_tested >= before
        for i in range(8, 12):
            engine.execute(_window((0.0, 0.0), (9.0, 9.0), seq=i))
        assert engine.stats.objects_tested >= before
