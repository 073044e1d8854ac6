"""Unit tests for the sharding subsystem (partitioning, engine, executor)."""

from __future__ import annotations

import gc
import inspect
import weakref

import numpy as np
import pytest

from repro.baselines import ScanIndex
from repro.core import QuasiiConfig
from repro.datasets import BoxStore, make_uniform
from repro.errors import ConfigurationError, DatasetError
from repro.geometry import Box
from repro.queries import Query, uniform_workload
from repro.sharding import (
    QueryExecutor,
    Shard,
    ShardedIndex,
    partitioner,
)
from repro.sharding.executor import BACKENDS
from tests.ledger import UpdateLedger
from tests.property._interleavings import shard_union


def _grid_store(side: int = 10, spacing: float = 10.0) -> BoxStore:
    """A side x side grid of unit boxes (2-d), ids row-major."""
    xs, ys = np.meshgrid(np.arange(side), np.arange(side), indexing="ij")
    lo = np.stack([xs.ravel() * spacing, ys.ravel() * spacing], axis=1).astype(float)
    return BoxStore(lo, lo + 1.0)


def _window(lo, hi, seq=0) -> Query:
    return Query(Box(tuple(lo), tuple(hi)), seq=seq)


#: A handcrafted tiny ladder keeps refinement exercised at toy sizes.
SMALL = QuasiiConfig(2, (8, 4))
#: A shard index derives its ladder from its rows, or takes the engine's.
CONFIGS, CONFIG_IDS = [None, SMALL], ["derived", "small"]


# ----------------------------------------------------------------------
# Partitioning
# ----------------------------------------------------------------------
class TestPartitioners:
    # Ids name the tiling as ``engine.name`` spells it (``Sharded[strxK]``).
    @pytest.mark.parametrize("k", [1, 2, 3, 5, 8], ids=lambda k: f"{k}-str")
    def test_assign_is_total_and_balanced(self, k):
        store = _grid_store(10)
        owners = partitioner.assign(store.lo, store.hi, k)
        assert owners.shape == (store.n,)
        assert owners.min() >= 0 and owners.max() < k
        counts = np.bincount(owners, minlength=k)
        assert counts.sum() == store.n
        # Near-equal split: no shard more than one tile's worth off.
        assert counts.max() - counts.min() <= max(2, store.n // k // 2)

    def test_str_tiles_are_spatially_compact(self):
        store = _grid_store(10)
        owners = partitioner.assign(store.lo, store.hi, 4)
        # 4 shards over a 10x10 grid of boxes: each shard's MBB should
        # cover ~1/4 of the area, far less than the whole universe.
        for sid in range(4):
            rows = np.flatnonzero(owners == sid)
            span = store.lo[rows].max(axis=0) - store.lo[rows].min(axis=0)
            assert span.prod() <= 0.35 * (90.0 * 90.0)

    def test_str_assign_more_shards_than_rows(self):
        store = _grid_store(2)  # 4 rows
        owners = partitioner.assign(store.lo, store.hi, 7)
        assert np.unique(owners).size == 4  # some shards stay empty

    def test_str_route_prefers_containing_shard(self):
        mbb_lo = np.array([[0.0, 0.0], [100.0, 0.0]])
        mbb_hi = np.array([[50.0, 50.0], [150.0, 50.0]])
        loads = np.array([10, 10], dtype=np.int64)
        lo = np.array([[120.0, 10.0]])
        hi = np.array([[121.0, 11.0]])
        assert partitioner.route(lo, hi, mbb_lo, mbb_hi, loads).tolist() == [1]

    def test_str_route_breaks_ties_toward_least_loaded(self):
        # Identical shard MBBs: enlargement ties, load decides.
        mbb_lo = np.zeros((3, 2))
        mbb_hi = np.full((3, 2), 50.0)
        loads = np.array([9, 2, 5], dtype=np.int64)
        lo = np.array([[10.0, 10.0]])
        hi = np.array([[11.0, 11.0]])
        assert partitioner.route(lo, hi, mbb_lo, mbb_hi, loads).tolist() == [1]


# ----------------------------------------------------------------------
# ShardedIndex
# ----------------------------------------------------------------------
class TestShardedIndex:
    def test_rejects_bad_shard_count(self):
        with pytest.raises(ConfigurationError, match="n_shards"):
            ShardedIndex(_grid_store(), n_shards=0)

    def test_query_before_build_raises(self):
        engine = ShardedIndex(_grid_store(), n_shards=2)
        with pytest.raises(ConfigurationError, match="build"):
            engine.execute(_window((0.0, 0.0), (5.0, 5.0)))

    def test_pruning_counters(self):
        engine = ShardedIndex(_grid_store(10), n_shards=4)
        engine.build()
        # A query covering one corner tile: 1 visit, 3 pruned.
        hits = engine.execute(_window((0.0, 0.0), (5.0, 5.0))).ids
        assert hits.size > 0
        assert engine.stats.shards_visited == 1
        assert engine.stats.shards_pruned == 3
        # A full-universe query visits everything.
        engine.execute(_window((-1.0, -1.0), (95.0, 95.0), seq=1))
        assert engine.stats.shards_visited == 1 + 4
        assert engine.stats.shards_pruned == 3

    def test_empty_shards_are_pruned(self):
        store = _grid_store(2)  # 4 rows
        engine = ShardedIndex(store, n_shards=6)
        engine.build()
        engine.execute(_window((-1.0, -1.0), (25.0, 25.0)))
        assert engine.stats.shards_visited == 4
        assert engine.stats.shards_pruned == 2

    def test_ownership_routing_insert_and_delete(self):
        engine = ShardedIndex(_grid_store(10), n_shards=4)
        engine.build()
        sizes_before = engine.shard_sizes()
        # Insert a box deep inside one corner tile.
        new = engine.insert(np.array([[2.0, 2.0]]), np.array([[3.0, 3.0]]))
        sid = engine.owner_of(int(new[0]))
        # shard_sizes counts *owned* rows, so the insert shows up even
        # while it is still buffered in the shard index.
        assert engine.shard_sizes()[sid] == sizes_before[sid] + 1
        # The owning shard is the one whose tile contains the box.
        probe = engine.execute(_window((1.5, 1.5), (3.5, 3.5))).ids
        assert int(new[0]) in probe
        # Delete routes to that shard and clears ownership.
        assert engine.delete(new) == 1
        with pytest.raises(DatasetError, match="not live"):
            engine.owner_of(int(new[0]))
        assert int(new[0]) not in engine.execute(_window((1.5, 1.5), (3.5, 3.5), seq=2)).ids

    def test_insert_expands_owner_mbb_for_pruning(self):
        engine = ShardedIndex(_grid_store(10), n_shards=4)
        engine.build()
        # Far outside every tile: still must be routed, owned, and found
        # even while buffered (MBB expands immediately).
        new = engine.insert(np.array([[500.0, 500.0]]), np.array([[501.0, 501.0]]))
        hits = engine.execute(_window((499.0, 499.0), (502.0, 502.0))).ids
        assert np.array_equal(np.sort(hits), np.sort(new))

    def test_delete_unknown_id_raises_and_changes_nothing(self):
        engine = ShardedIndex(_grid_store(4), n_shards=2)
        engine.build()
        before = engine.shard_sizes()
        with pytest.raises(DatasetError, match="not live"):
            engine.delete(np.array([999]))
        assert engine.shard_sizes() == before
        engine.validate_routing()

    def test_insert_colliding_live_id_rejected(self):
        engine = ShardedIndex(_grid_store(4), n_shards=2)
        engine.build()
        new = engine.insert(np.array([[1.0, 1.0]]), np.array([[2.0, 2.0]]))
        with pytest.raises(DatasetError, match="collide"):
            engine.insert(np.array([[5.0, 5.0]]), np.array([[6.0, 6.0]]), ids=new)

    def test_pre_build_updates_flow_into_partitioning(self):
        store = _grid_store(4)
        engine = ShardedIndex(store, n_shards=2)
        new = engine.insert(np.array([[70.0, 70.0]]), np.array([[71.0, 71.0]]))
        engine.delete(new)
        engine.build()
        engine.validate_routing()
        full = engine.execute(_window((-1.0, -1.0), (100.0, 100.0))).ids
        assert full.size == 16  # 4x4 grid, insert+delete cancelled out

    def test_merge_deduplicates(self):
        a = np.array([3, 1, 7], dtype=np.int64)
        b = np.array([7, 2], dtype=np.int64)
        merged = ShardedIndex._merge([a, b])
        assert merged.tolist() == [1, 2, 3, 7]
        # Single contributing shard passes through unsorted and uncopied.
        assert ShardedIndex._merge([a]) is a
        assert ShardedIndex._merge([]).size == 0

    def test_a_config_the_store_cannot_take_is_refused_at_construction(self):
        store = _grid_store(4)
        with pytest.raises(ConfigurationError, match="3 dims, store has 2"):
            ShardedIndex(store, n_shards=2, config=QuasiiConfig(3, (9, 6, 3)))
        with pytest.raises(ConfigurationError, match="max_runs"):
            ShardedIndex(store, n_shards=2, max_runs=0)

    @pytest.mark.parametrize("config", CONFIGS, ids=CONFIG_IDS)
    def test_every_shard_index_is_built_from_the_engine_settings(self, config):
        engine = ShardedIndex(
            _grid_store(6, 3.0), n_shards=3, config=config, max_runs=3
        )
        engine.build()
        assert (engine.config, engine.max_runs) == (config, 3)
        for shard in engine.shards:
            want = config or QuasiiConfig.for_dataset(shard.store.n, 2)
            assert shard.index.config == want
            assert shard.index._max_runs == 3

    def test_fleet_work_counters_roll_up(self):
        engine = ShardedIndex(
            _grid_store(10),
            n_shards=4,
            config=SMALL,
        )
        engine.build()
        engine.execute(_window((-1.0, -1.0), (95.0, 95.0)))
        assert engine.stats.objects_tested > 0
        assert engine.stats.cracks > 0
        # Insert enough to trigger a shard-level lazy merge on next query.
        engine.insert(np.array([[2.0, 2.0]] * 3), np.array([[3.0, 3.0]] * 3))
        engine.execute(_window((-1.0, -1.0), (95.0, 95.0), seq=1))
        assert engine.stats.merges >= 1
        # Roll-up survives an outer reset without double counting.
        engine.stats.reset()
        engine.sync_shard_work()
        assert engine.stats.merges == 0

    def test_shard_sizes_and_memory(self):
        engine = ShardedIndex(_grid_store(10), n_shards=4)
        engine.build()
        sizes = engine.shard_sizes()
        assert sum(sizes) == 100
        assert max(sizes) / (sum(sizes) / len(sizes)) == pytest.approx(1.0, abs=0.2)
        assert engine.memory_bytes() > 0

    def test_writes_never_touch_the_build_input(self):
        # The shards are the store: after build() inserts, deletes and
        # both compaction verbs reach shard stores only.
        engine = ShardedIndex(_grid_store(10), n_shards=4)
        engine.build()
        input_store = engine.store
        fingerprint, epoch = input_store.fingerprint(), input_store.epoch
        new = engine.insert(np.array([[3.0, 3.0]] * 5), np.array([[4.0, 4.0]] * 5))
        engine.delete(np.concatenate([np.arange(0, 60, 3), new[:2]]))
        engine.maybe_compact(0.05)
        engine.compact()
        engine.execute(_window((0.0, 0.0), (95.0, 45.0)))
        engine.delete(np.array([99]))
        assert input_store.fingerprint() == fingerprint
        assert input_store.epoch == epoch
        engine.validate_routing()
        assert engine.execute(_window((-1.0, -1.0), (100.0, 100.0), 1)).count == 82

    def test_deleted_original_id_can_be_reinserted_after_compaction(self):
        # Every victim sits in one shard, so a policy pass compacts that
        # shard alone; the id is then free although the build input
        # still lists it.
        engine = ShardedIndex(_grid_store(10), n_shards=4)
        engine.build()
        victims = engine.shards[0].store.ids[:5].copy()
        assert engine.delete(victims) == 5
        assert engine.maybe_compact(0.1) == 5
        again = victims[:1]
        assert np.array_equal(
            engine.insert(np.array([[55.0, 55.0]]), np.array([[56.0, 56.0]]), again),
            again,
        )
        engine.validate_routing()
        hit = engine.execute(_window((54.0, 54.0), (57.0, 57.0))).ids
        assert int(again[0]) in hit.tolist()
        # Fresh ids still continue past every id the input store held.
        fresh = engine.insert(np.array([[1.0, 1.0]]), np.array([[2.0, 2.0]]))
        assert fresh.tolist() == [100]

    def test_an_entombed_id_is_refused_until_its_shard_compacts(self):
        engine = ShardedIndex(_grid_store(10), n_shards=4)
        engine.build()
        victim = engine.shards[1].store.ids[:1].copy()
        engine.delete(victim)
        sizes = engine.shard_sizes()
        box = np.array([[55.0, 55.0]])
        with pytest.raises(DatasetError, match="tombstoned"):
            engine.insert(box, box + 1.0, victim)
        # Refused before any shard was written.
        assert engine.shard_sizes() == sizes
        assert engine.pending_updates() == 0
        assert engine.compact() == 1
        assert np.array_equal(engine.insert(box, box + 1.0, victim), victim)
        engine.validate_routing()

    def test_ids_above_the_input_watermark_skip_the_tombstone_scan(self, monkeypatch):
        engine = ShardedIndex(_grid_store(10), n_shards=4)
        engine.build()
        engine.delete(engine.shards[1].store.ids[:1].copy())
        box = np.array([[55.0, 55.0]])
        with monkeypatch.context() as patch:
            patch.setattr(Shard, "entombs", lambda *a: pytest.fail("scanned"))
            assert engine.insert(box, box + 1.0, np.array([500])).tolist() == [500]
        with pytest.raises(DatasetError, match="collide"):
            engine.insert(box, box + 1.0, np.array([500]))

    def test_compaction_leaves_no_tombstone_in_any_shard(self):
        engine = ShardedIndex(_grid_store(10), n_shards=4)
        engine.build()
        ledger = UpdateLedger(engine.store)
        victims = np.arange(0, 100, 7)
        engine.delete(victims)
        ledger.record_delete(victims)
        assert sum(s.store.n_dead for s in engine.shards) == victims.size
        assert engine.compact() == victims.size
        assert engine.stats.compactions == 1
        for shard in engine.shards:
            assert shard.store.n_dead == 0 and shard.dead_fraction == 0.0
        ledger.assert_matches(shard_union(engine))
        # Nothing left to reclaim: the second pass is free.
        assert engine.compact() == 0
        assert engine.stats.compactions == 1

    def test_a_policy_pass_compacts_only_the_shards_past_its_threshold(self):
        rng = np.random.default_rng(4)
        lo = rng.uniform(0, 90, size=(4_000, 2))
        engine = ShardedIndex(BoxStore(lo, lo + 2.0), n_shards=2)
        engine.build()
        hot = engine.shards[0].store.ids[:300].copy()
        cold = engine.shards[1].store.ids[:10].copy()
        engine.delete(np.concatenate([hot, cold]))
        assert engine.maybe_compact(0.5) == 0
        assert engine.maybe_compact(0.05) == 300
        assert engine.shards[0].store.n_dead == 0
        assert engine.shards[1].store.n_dead == 10
        assert engine.maybe_compact(0.0) == 10
        # Every swept id is free again, and routes like any new row.
        again = hot[:3]
        assert np.array_equal(engine.insert(lo[again], lo[again] + 2.0, again), again)
        engine.validate_routing()

    def test_a_shard_and_its_store_are_fixed_once_built(self):
        # Rows never move between shards: reads, writes, flushes and
        # both compaction verbs keep every shard object, its store and
        # each surviving row's owner, so the base a pool published for
        # a shard is a base of that shard until the shard is dropped.
        engine = ShardedIndex(_grid_store(10), n_shards=4, config=SMALL)
        engine.build()
        shards = engine.shards
        stores = [s.store for s in shards]
        owners = {i: engine.owner_of(i) for i in range(100)}
        for i in range(6):
            engine.execute(_window((0.0, 0.0), (55.0, 55.0), seq=i))
        engine.insert(np.array([[3.0, 3.0]] * 5), np.array([[4.0, 4.0]] * 5))
        engine.flush_updates()
        engine.delete(np.arange(0, 100, 4))
        engine.maybe_compact(0.05)
        engine.compact()
        assert all(a is b for a, b in zip(engine.shards, shards))
        assert all(s.store is st for s, st in zip(engine.shards, stores))
        assert all(engine.owner_of(i) == owners[i] for i in range(100) if i % 4)
        engine.validate_routing()

    def test_dropped_engine_is_freed_without_the_cyclic_collector(self):
        # Shards must not reference their engine: a cycle keeps every
        # store of a dropped engine alive until the collector runs —
        # +200 MB per 1M-row engine.
        engine = ShardedIndex(
            _grid_store(6, 3.0),
            n_shards=2,
            config=SMALL,
        )
        engine.build()
        engine.execute(_window((-1.0, -1.0), (100.0, 100.0)))
        ref = weakref.ref(engine)
        gc.disable()
        try:
            del engine
            assert ref() is None
        finally:
            gc.enable()

    def test_out_of_band_store_mutation_fails_loudly(self):
        engine = ShardedIndex(_grid_store(4), n_shards=2)
        engine.build()
        engine.store.append(np.array([[1.0, 1.0]]), np.array([[2.0, 2.0]]))
        with pytest.raises(Exception, match="epoch"):
            engine.execute(_window((0.0, 0.0), (5.0, 5.0)))


# ----------------------------------------------------------------------
# Shard: one store, one index
# ----------------------------------------------------------------------
class TestShard:
    @staticmethod
    def _shard(config=None, side=6):
        store = _grid_store(side)
        return Shard(0, store.lo, store.hi, store.ids, config)

    def test_the_store_takes_the_rows_without_a_copy(self):
        store = _grid_store(6)
        shard = Shard(0, store.lo, store.hi, store.ids)
        assert shard.index.store is shard.store
        assert np.shares_memory(shard.store.lo, store.lo)
        assert np.shares_memory(shard.store.ids, store.ids)
        assert shard.memory_bytes() == (
            store.lo.nbytes + store.hi.nbytes + store.ids.nbytes
            + shard.store.live.nbytes + shard.index.memory_bytes()
        )

    def test_dead_fraction_and_tombstone_gate_read_the_one_store(self):
        shard = self._shard()
        assert shard.dead_fraction == 0.0
        assert not shard.entombs(np.array([3]))
        shard.apply_delete(np.array([3, 4, 5]))
        assert shard.dead_fraction == pytest.approx(3 / 36)
        assert shard.entombs(np.array([99, 4])) and not shard.entombs(np.array([6]))
        assert shard.compact() == 3
        assert shard.dead_fraction == 0.0 and not shard.entombs(np.array([4]))

    def test_compaction_marker_rides_the_oplog_only_when_rows_went(self):
        shard = self._shard()
        shard.oplog = []
        assert shard.compact() == 0
        assert shard.oplog == []
        lo = np.array([[1.5, 1.5]])
        shard.apply_insert(lo, lo + 1.0, np.array([100]))
        shard.apply_delete(np.array([0]))
        assert shard.compact() == 1
        assert [op[0] for op in shard.oplog] == ["insert", "delete", "compact"]

    def test_owned_count_counts_inserts_still_in_the_buffer(self):
        shard = self._shard()
        lo = np.array([[2.0, 2.0], [12.0, 2.0]])
        shard.apply_insert(lo, lo + 1.0, np.array([100, 101]))
        assert shard.index.pending_updates() == 2
        assert shard.store.live_count == 36
        assert shard.owned_count == 38
        assert shard.flush_updates() == 2
        assert shard.store.live_count == shard.owned_count == 38

    def test_an_empty_shard_intersects_nothing(self):
        empty = np.empty((0, 2))
        shard = Shard(0, empty, empty.copy(), np.empty(0, np.int64))
        assert shard.owned_count == 0 and shard.dead_fraction == 0.0
        assert np.all(shard.mbb_lo == np.inf) and np.all(shard.mbb_hi == -np.inf)
        # An empty batch leaves the identity box alone; a real one is
        # covered exactly.
        shard.expand(empty, empty)
        assert np.all(shard.mbb_lo == np.inf)
        lo = np.array([[4.0, 7.0]])
        shard.apply_insert(lo, lo + 2.0, np.array([5]))
        assert shard.mbb_lo.tolist() == [4.0, 7.0]
        assert shard.mbb_hi.tolist() == [6.0, 9.0]

    @pytest.mark.parametrize("config", CONFIGS, ids=CONFIG_IDS)
    def test_an_insert_grows_the_mbb_before_any_flush(self, config):
        shard = self._shard(config)
        assert shard.mbb_lo.tolist() == [0.0, 0.0]
        assert shard.mbb_hi.tolist() == [51.0, 51.0]
        lo = np.array([[-5.0, 20.0], [30.0, 70.0]])
        shard.apply_insert(lo, lo + 1.0, np.array([100, 101]))
        assert shard.mbb_lo.tolist() == [-5.0, 0.0]
        assert shard.mbb_hi.tolist() == [51.0, 71.0]

    def test_a_delete_never_shrinks_the_mbb(self):
        shard = self._shard()
        # Column x = 50 holds ids 30..35: the MBB's whole right edge.
        shard.apply_delete(np.arange(30, 36))
        assert shard.mbb_hi.tolist() == [51.0, 51.0]

    @pytest.mark.parametrize("config", CONFIGS, ids=CONFIG_IDS)
    def test_compaction_retightens_the_mbb_to_the_survivors(self, config):
        shard = self._shard(config)
        shard.apply_delete(np.arange(30, 36))
        assert shard.compact() == 6
        assert shard.mbb_lo.tolist() == [0.0, 0.0]
        assert shard.mbb_hi.tolist() == [41.0, 51.0]

    def test_compaction_keeps_the_mbb_loose_while_inserts_are_buffered(self):
        shard = self._shard()
        lo = np.array([[90.0, 90.0]])
        shard.apply_insert(lo, lo + 1.0, np.array([100]))
        shard.apply_delete(np.arange(30, 36))
        assert shard.compact() == 6
        # The buffered row is not in the store yet: re-tightening to the
        # store would prune it away.
        assert shard.index.pending_updates() == 1
        assert shard.mbb_hi.tolist() == [91.0, 91.0]
        hits = shard.index.execute(_window((89.0, 89.0), (92.0, 92.0))).ids
        assert hits.tolist() == [100]

    def test_compacting_every_row_away_inverts_the_mbb(self):
        shard = self._shard(side=3)
        shard.apply_delete(np.arange(9))
        assert shard.dead_fraction == 1.0
        assert shard.compact() == 9
        assert shard.store.n == 0 and shard.dead_fraction == 0.0
        assert np.all(shard.mbb_lo == np.inf) and np.all(shard.mbb_hi == -np.inf)

    def test_an_unarmed_shard_keeps_no_oplog(self):
        shard = self._shard()
        lo = np.array([[1.5, 1.5]])
        shard.apply_insert(lo, lo + 1.0, np.array([100]))
        shard.apply_delete(np.array([0]))
        assert shard.compact() == 1
        assert shard.oplog is None

    def test_oplog_entries_alias_the_batches_they_record(self):
        shard = self._shard()
        shard.oplog = []
        lo, hi = np.array([[1.5, 1.5]]), np.array([[2.5, 2.5]])
        ids, victims = np.array([100]), np.array([3, 4])
        shard.apply_insert(lo, hi, ids)
        shard.apply_delete(victims)
        (insert, delete) = shard.oplog
        assert insert[0] == "insert"
        assert insert[1] is lo and insert[2] is hi and insert[3] is ids
        assert delete[0] == "delete"
        assert delete[1] is None and delete[2] is None and delete[3] is victims

    def test_empty_batches_leave_the_oplog_alone(self):
        shard = self._shard()
        shard.oplog = []
        empty = np.empty((0, 2))
        shard.apply_insert(empty, empty.copy(), np.empty(0, np.int64))
        shard.apply_delete(np.empty(0, np.int64))
        assert shard.oplog == []
        assert shard.owned_count == 36

    def test_work_counter_reads_the_index_stats(self):
        shard = self._shard()
        assert shard.work_counter("objects_tested") == 0
        shard.index.execute(_window((-1.0, -1.0), (100.0, 100.0)))
        tested = shard.index.stats.objects_tested
        assert tested > 0
        assert shard.work_counter("objects_tested") == tested
        assert isinstance(shard.work_counter("cracks"), int)

    def test_memory_bytes_follow_the_store(self):
        shard = self._shard()
        before = shard.memory_bytes()
        lo = np.array([[2.0, 2.0]] * 8)
        shard.apply_insert(lo, lo + 1.0, np.arange(100, 108))
        shard.flush_updates()
        store = shard.store
        assert shard.memory_bytes() == (
            store.lo.nbytes + store.hi.nbytes + store.ids.nbytes
            + store.live.nbytes + shard.index.memory_bytes()
        )
        assert shard.memory_bytes() > before

    def test_shard_stores_share_no_memory(self):
        engine = ShardedIndex(_grid_store(6), n_shards=3)
        engine.build()
        stores = [s.store for s in engine.shards]
        for i, a in enumerate(stores):
            assert not np.shares_memory(a.lo, engine.store.lo)
            for b in stores[i + 1:]:
                assert not np.shares_memory(a.lo, b.lo)
                assert not np.shares_memory(a.ids, b.ids)

    def test_the_engine_takes_no_replication_arguments(self):
        engine = ShardedIndex(_grid_store(4), n_shards=3)
        assert engine.name == "Sharded[strx3]"
        for removed in ("replication", "fault_injector", "events"):
            with pytest.raises(TypeError, match=removed):
                ShardedIndex(_grid_store(4), **{removed: None})
        # Two settings describe every shard index; no index is passed in.
        assert list(inspect.signature(ShardedIndex).parameters) == [
            "store", "n_shards", "config", "max_runs",
        ]


# ----------------------------------------------------------------------
# QueryExecutor
# ----------------------------------------------------------------------
class TestQueryExecutor:
    @pytest.fixture(scope="class")
    def dataset(self):
        return make_uniform(5_000, seed=3)

    def _engine(self, dataset, **kw):
        kw.setdefault("n_shards", 4)
        return ShardedIndex(dataset.store.copy(), **kw)

    def test_rejects_negative_workers(self, dataset):
        with pytest.raises(ConfigurationError, match="max_workers"):
            QueryExecutor(self._engine(dataset), max_workers=-1)

    def test_default_workers_capped_by_shards(self, dataset):
        ex = QueryExecutor(self._engine(dataset, n_shards=2))
        assert 1 <= ex.max_workers <= 2

    def test_processes_matches_sequential_and_scan(self, dataset):
        queries = uniform_workload(dataset.universe, 40, 1e-3, seed=5)
        scan = ScanIndex(dataset.store.copy())
        expected = [np.sort(scan.execute(q).ids) for q in queries]
        # Pinned: this test asserts each server's mode label, so a
        # QUASII_EXECUTOR_BACKEND environment must not retarget it.
        seq = QueryExecutor(
            self._engine(dataset), max_workers=1, backend="sequential"
        ).run(queries)
        with QueryExecutor(
            self._engine(dataset), max_workers=4, backend="processes"
        ) as ex:
            par = ex.run(queries)
        assert seq.mode == "sequential" and par.mode == "processes"
        assert seq.workers == 1 and par.workers == 4
        for got_s, got_p, want in zip(seq.results, par.results, expected):
            assert np.array_equal(np.sort(got_s), want)
            assert np.array_equal(np.sort(got_p), want)
        assert par.n_queries == len(queries)
        assert sum(par.shard_queries) >= len(queries)

    def test_processes_counters_match_sequential(self, dataset):
        queries = uniform_workload(dataset.universe, 25, 1e-3, seed=6)
        e_seq = self._engine(dataset)
        e_par = self._engine(dataset)
        QueryExecutor(e_seq, max_workers=1).run(queries)
        with QueryExecutor(e_par, max_workers=3, backend="processes") as ex:
            ex.run(queries)
        assert e_par.stats.queries == e_seq.stats.queries == len(queries)
        assert e_par.stats.shards_visited == e_seq.stats.shards_visited
        assert e_par.stats.shards_pruned == e_seq.stats.shards_pruned
        assert e_par.stats.results_returned == e_seq.stats.results_returned

    def test_backends_report_the_same_fanout_profile(self, dataset):
        queries = uniform_workload(dataset.universe, 30, 1e-3, seed=11)
        e_seq = self._engine(dataset)
        e_seq.build()
        visited_before = e_seq.stats.shards_visited
        seq = QueryExecutor(e_seq, backend="sequential").run(queries)
        with QueryExecutor(
            self._engine(dataset), max_workers=2, backend="processes"
        ) as ex:
            par = ex.run(queries)
        assert seq.shard_queries == par.shard_queries
        assert sum(seq.shard_queries) == (
            e_seq.stats.shards_visited - visited_before
        )

    def test_sequential_executor_is_the_engine_batch(self, dataset):
        """The executor's in-thread server and the engine's native batch
        are one pipeline: same ordered ids, same counters."""
        queries = uniform_workload(dataset.universe, 30, 1e-3, seed=12)
        e_native = self._engine(dataset)
        e_exec = self._engine(dataset)
        e_native.build()
        native = e_native.execute_batch(queries)
        batch = QueryExecutor(e_exec, backend="sequential").run(queries)
        for got, want in zip(batch.query_results, native):
            assert np.array_equal(got.ids, want.ids)
        assert e_exec.stats == e_native.stats

    def test_builds_engine_on_first_use(self, dataset):
        engine = self._engine(dataset)
        assert not engine.is_built
        result = QueryExecutor(engine, max_workers=2).run(
            uniform_workload(dataset.universe, 3, 1e-3, seed=7)
        )
        assert engine.is_built
        assert result.n_queries == 3

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_rejects_wrong_dimension_queries(self, dataset, backend):
        from repro.errors import QueryError

        engine = self._engine(dataset)
        good = uniform_workload(dataset.universe, 1, 1e-3, seed=7)[0]
        bad = Query(Box((0.0,), (1.0,)), seq=1)
        with QueryExecutor(engine, max_workers=4, backend=backend) as ex:
            with pytest.raises(QueryError, match="dims"):
                ex.run([good, bad])
        # The gate runs before routing: a refused batch moves no counter.
        assert engine.stats.shards_visited == engine.stats.shards_pruned == 0

    def test_empty_batch(self, dataset):
        result = QueryExecutor(self._engine(dataset), max_workers=2).run([])
        assert result.n_queries == 0
        assert result.throughput() == float("inf") or result.seconds >= 0

    def test_quasii_shards_stay_structurally_valid_after_executor_run(
        self, dataset
    ):
        engine = ShardedIndex(
            dataset.store.copy(),
            n_shards=4,
            config=QuasiiConfig.for_dataset(1_250, 3, tau=16),
        )
        # Pinned to sequential: the point is that *driver-side* shard
        # indexes crack under the executor and stay valid (the process
        # backend cracks worker-local indexes instead).
        QueryExecutor(engine, max_workers=4, backend="sequential").run(
            uniform_workload(dataset.universe, 30, 1e-2, seed=8)
        )
        assert engine.stats.cracks > 0
        for shard in engine.shards:
            shard.index.validate_structure()

    def test_sequential_exposes_shard_and_phase_timings(self, dataset):
        queries = uniform_workload(dataset.universe, 40, 1e-3, seed=9)
        # Pinned: the phase-tiling and same-clock-domain invariants below
        # are the in-thread server's contract.
        seq = QueryExecutor(
            self._engine(dataset), max_workers=4, backend="sequential"
        ).run(queries)
        assert len(seq.shard_seconds) == 4
        # Every shard that received a sub-batch was timed serving it.
        assert sum(seq.shard_queries) > 0
        for sid, n in enumerate(seq.shard_queries):
            if n:
                assert seq.shard_seconds[sid] > 0.0
            else:
                assert seq.shard_seconds[sid] == 0.0
        # Phase timings tile the batch: route -> fan-out -> merge.
        assert seq.route_seconds > 0.0
        assert seq.fanout_seconds > 0.0
        assert seq.merge_seconds > 0.0
        phases = seq.route_seconds + seq.fanout_seconds + seq.merge_seconds
        assert phases <= seq.seconds
        assert phases == pytest.approx(seq.seconds, rel=0.05)
        # Each shard's clock fits inside the fan-out phase that contains it.
        assert max(seq.shard_seconds) <= seq.fanout_seconds * 1.05
