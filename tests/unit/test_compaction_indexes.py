"""Unit tests for the per-index compaction paths (``on_compaction``).

Only the mutable indexes compact, each absorbing the store's position
remap its own way — QUASII defragments its slice forest, Scan does
nothing, and the sharded engine compacts shard by shard behind a
dead-fraction policy — and all of them must answer with exactly the
same live-row set before and after, more cheaply after.  The paper's
static baselines absorb nothing: a store compacted, appended to or
tombstoned behind their back fails their epoch check.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines import (
    MosaicIndex,
    RTreeIndex,
    ScanIndex,
    SFCIndex,
    SFCrackerIndex,
    UniformGridIndex,
)
from repro.core import QuasiiConfig, QuasiiIndex
from repro.datasets import BoxStore
from repro.errors import ConfigurationError, DatasetError, QueryError
from repro.geometry import Box
from repro.index import MutableSpatialIndex
from repro.queries import Query
from repro.sharding import QueryExecutor, ShardedIndex
from repro.sharding.executor import BACKENDS

UNIVERSE = Box((0.0, 0.0), (100.0, 100.0))
FULL = Query(Box((-1.0, -1.0), (101.0, 101.0)), seq=999)


def _store(n: int = 60, seed: int = 0) -> BoxStore:
    rng = np.random.default_rng(seed)
    lo = rng.uniform(0, 90, size=(n, 2))
    return BoxStore(lo, lo + rng.uniform(0, 5, size=(n, 2)))


def _expected_live(index) -> np.ndarray:
    store = index.store
    return np.sort(store.ids[store.live_rows()])


def _windows(seed: int = 2, k: int = 8) -> list[Query]:
    rng = np.random.default_rng(seed)
    out = []
    for i in range(k):
        qlo = rng.uniform(0, 70, size=2)
        out.append(Query(Box(tuple(qlo), tuple(qlo + 25.0)), seq=i))
    return out


MAKERS = (
    lambda s: ScanIndex(s),
    lambda s: QuasiiIndex(s, QuasiiConfig(2, (8, 4))),
)


class TestCompactVerb:
    def test_every_mutable_index_compacts_and_stays_correct(self):
        for make in MAKERS:
            idx = make(_store())
            idx.build()
            for q in _windows():
                idx.execute(q)
            idx.delete(np.arange(0, 40, 2))
            before = np.sort(idx.execute(FULL).ids)
            reclaimed = idx.compact()
            assert reclaimed == 20, idx.name
            assert idx.store.n == idx.store.live_count, idx.name
            assert idx.stats.compactions >= 1, idx.name
            after = np.sort(idx.execute(FULL).ids)
            assert np.array_equal(before, after), idx.name
            assert np.array_equal(after, _expected_live(idx)), idx.name
            oracle = ScanIndex(idx.store)  # compacted store, fresh oracle
            for q in _windows(seed=7):
                assert np.array_equal(
                    np.sort(idx.execute(q).ids), np.sort(oracle.execute(q).ids)
                ), idx.name

    def test_compact_with_no_dead_rows_is_a_noop(self):
        for make in MAKERS:
            idx = make(_store())
            idx.build()
            epoch = idx.store.epoch
            assert idx.compact() == 0, idx.name
            assert idx.store.epoch == epoch, idx.name
            assert idx.stats.compactions == 0, idx.name

    def test_updates_keep_flowing_after_compaction(self):
        for make in MAKERS:
            idx = make(_store())
            idx.build()
            idx.delete(np.arange(10))
            idx.compact()
            rng = np.random.default_rng(4)
            lo = rng.uniform(0, 90, size=(6, 2))
            new_ids = idx.insert(lo, lo + 2.0)
            got = np.sort(idx.execute(FULL).ids)
            assert np.isin(new_ids, got).all(), idx.name
            assert np.array_equal(got, _expected_live(idx)), idx.name

    def test_compact_everything_leaves_a_servable_empty_index(self):
        for make in MAKERS:
            idx = make(_store(20))
            idx.build()
            idx.delete(np.arange(20))
            assert idx.compact() == 20, idx.name
            assert idx.store.n == 0, idx.name
            assert idx.execute(FULL).ids.size == 0, idx.name


class TestQuasiiDefragmentation:
    def _refined(self, n: int = 120) -> QuasiiIndex:
        idx = QuasiiIndex(_store(n, seed=3), QuasiiConfig(2, (8, 4)))
        for q in _windows(seed=5, k=12):
            idx.execute(q)
        return idx

    def test_structure_valid_and_scans_shrink(self):
        idx = self._refined()
        idx.delete(np.arange(0, 120, 2))
        idx.execute(FULL)
        tombstoned = idx.stats.objects_tested
        idx.stats.reset()
        idx.compact()
        idx.validate_structure()
        idx.execute(FULL)
        compacted = idx.stats.objects_tested
        assert compacted < tombstoned
        assert idx.store.n == idx.store.live_count == 60

    def test_emptied_slices_drop_and_fragments_merge(self):
        idx = self._refined()
        slices_before = sum(idx.slice_counts())
        # Kill nearly everything: surviving fragments must merge/drop.
        live = idx.store.ids[idx.store.live_rows()]
        idx.delete(live[:-6])
        idx.compact()
        idx.validate_structure()
        assert sum(idx.slice_counts()) < slices_before
        assert np.array_equal(np.sort(idx.execute(FULL).ids), np.sort(live[-6:]))

    def test_final_slice_mbbs_retighten(self):
        idx = self._refined()
        live = idx.store.ids[idx.store.live_rows()]
        idx.delete(live[: live.size // 2])
        idx.compact()
        store = idx.store
        for top in idx._tops:
            stack = [top]
            while stack:
                lst = stack.pop()
                for i in range(len(lst)):
                    if lst.final[i]:
                        sub_lo = store.lo[lst.begin[i] : lst.end[i]]
                        sub_hi = store.hi[lst.begin[i] : lst.end[i]]
                        assert np.allclose(lst.mbb_lo[i], sub_lo.min(axis=0))
                        assert np.allclose(lst.mbb_hi[i], sub_hi.max(axis=0))
                    if lst.child(i) is not None:
                        stack.append(lst.child(i))

    def test_compact_with_pending_buffer_keeps_staged_rows(self):
        idx = self._refined()
        rng = np.random.default_rng(11)
        lo = rng.uniform(0, 90, size=(4, 2))
        staged = idx.insert(lo, lo + 2.0)
        idx.delete(np.arange(0, 30))
        assert idx.compact() == 30
        assert idx.pending_updates() == 4
        got = np.sort(idx.execute(FULL).ids)
        assert np.isin(staged, got).all()
        idx.validate_structure()

    def test_structure_survives_compact_query_cycles(self):
        idx = QuasiiIndex(_store(100, seed=9), QuasiiConfig(2, (8, 4)))
        rng = np.random.default_rng(13)
        for round_ in range(5):
            for q in _windows(seed=20 + round_, k=4):
                idx.execute(q)
            live = idx.store.ids[idx.store.live_rows()]
            if live.size > 10:
                idx.delete(rng.choice(live, size=8, replace=False))
            idx.compact()
            idx.validate_structure()
            lo = rng.uniform(0, 90, size=(3, 2))
            idx.insert(lo, lo + 2.0)
        assert np.array_equal(np.sort(idx.execute(FULL).ids), _expected_live(idx))
        idx.validate_structure()


class TestStaticIndexCompaction:
    """Only the mutable indexes absorb a compaction; the static baselines
    refuse to serve a store that changed behind their back."""

    STATIC = {
        "grid-ext": lambda s: UniformGridIndex(s, UNIVERSE, 5),
        "grid-rep": lambda s: UniformGridIndex(
            s, UNIVERSE, 5, assignment="replication"
        ),
        "rtree": lambda s: RTreeIndex(s, capacity=8),
        "sfc": lambda s: SFCIndex(s, UNIVERSE),
        "sfcracker": lambda s: SFCrackerIndex(s, UNIVERSE),
        "mosaic": lambda s: MosaicIndex(s, UNIVERSE, capacity=8),
    }

    @pytest.mark.parametrize("mutation", ["append", "tombstone", "compact"])
    @pytest.mark.parametrize("kind", list(STATIC))
    def test_static_baselines_refuse_an_out_of_band_mutation(
        self, kind, mutation
    ):
        store = _store(30, seed=5)
        if mutation == "compact":
            store.delete_ids(np.array([0]))  # adopted tombstoned
        idx = self.STATIC[kind](store)
        idx.build()
        idx.execute(FULL)
        idx.plan(FULL)
        if mutation == "append":
            store.append(np.array([[1.0, 1.0]]), np.array([[2.0, 2.0]]))
        elif mutation == "tombstone":
            store.delete_ids(np.array([1]))
        else:
            store.compact()
        with pytest.raises(QueryError, match="epoch"):
            idx.execute(FULL)
        with pytest.raises(QueryError, match="epoch"):
            idx.plan(FULL)
        assert not isinstance(idx, MutableSpatialIndex)

    @pytest.mark.parametrize("kind", list(STATIC))
    def test_static_baselines_built_over_tombstones_serve_live_rows(self, kind):
        store = _store(80, seed=8)
        store.delete_ids(np.arange(0, 80, 3))
        oracle = ScanIndex(store.copy())
        idx = self.STATIC[kind](store)
        idx.build()
        for q in [*_windows(seed=9), FULL]:
            assert np.array_equal(
                np.sort(idx.execute(q).ids), np.sort(oracle.execute(q).ids)
            ), kind

    @pytest.mark.parametrize("kind", list(STATIC))
    def test_static_baselines_rebuilt_after_writes_agree_with_scan(self, kind):
        # The honest way to run a static competitor under churn: apply the
        # write batch through a mutable index, then build afresh.
        scan = ScanIndex(_store(80, seed=10))
        rng = np.random.default_rng(11)
        for _ in range(3):
            lo = rng.uniform(0, 90, size=(10, 2))
            scan.insert(lo, lo + rng.uniform(0, 5, size=(10, 2)))
            live = scan.store.ids[scan.store.live_rows()]
            scan.delete(rng.choice(live, size=8, replace=False))
            scan.compact()
            idx = self.STATIC[kind](scan.store.copy())
            idx.build()
            for q in [*_windows(seed=12), FULL]:
                assert np.array_equal(
                    np.sort(idx.execute(q).ids), np.sort(scan.execute(q).ids)
                ), kind

    def test_a_mutable_index_without_a_compaction_hook_cannot_be_built(self):
        class Forgetful(MutableSpatialIndex):
            def _insert(self, lo, hi, ids):
                return self._store.append_validated(lo, hi, ids)

        with pytest.raises(TypeError, match="_on_compaction"):
            Forgetful(_store())


class TestShardedCompaction:
    def _engine(self, n_shards: int = 4) -> ShardedIndex:
        engine = ShardedIndex(_store(120, seed=6), n_shards=n_shards)
        engine.build()
        return engine

    def test_full_compaction_compacts_every_shard(self):
        engine = self._engine()
        engine.delete(np.arange(0, 120, 2))
        before = np.sort(engine.execute(FULL).ids)
        assert engine.compact() == 60
        assert engine.stats.compactions == 1  # one event, not K
        for shard in engine.shards:
            assert shard.store.n == shard.store.live_count
            shard.index.validate_structure()
        engine.validate_routing()
        assert np.array_equal(np.sort(engine.execute(FULL).ids), before)

    def test_maybe_compact_honors_the_dead_fraction_policy(self):
        engine = self._engine()
        live = engine.store.ids[engine.store.live_rows()]
        engine.delete(live[:6])  # at most 6 of a shard's 30: below 0.3
        assert engine.maybe_compact(0.3) == 0
        assert sum(s.store.n_dead for s in engine.shards) == 6
        engine.delete(live[6:70])
        reclaimed = engine.maybe_compact(0.3)
        assert reclaimed > 0
        # Each deleted row is counted once: reclaimed now or still dead
        # in a shard below the threshold.
        assert reclaimed + sum(s.store.n_dead for s in engine.shards) == 70
        assert all(s.dead_fraction <= 0.3 for s in engine.shards)
        engine.validate_routing()
        assert np.array_equal(np.sort(engine.execute(FULL).ids), np.sort(live[70:]))

    def test_compact_sweeps_shards_a_partial_policy_pass_left_dirty(self):
        # Two spatial clusters so the STR shards have very different dead
        # fractions: the policy pass compacts the hot shard only, and
        # the full verb must still sweep the cold one.
        rng = np.random.default_rng(15)
        left = rng.uniform(0, 20, size=(40, 2))
        right = rng.uniform(70, 90, size=(40, 2))
        lo = np.vstack([left, right])
        engine = ShardedIndex(BoxStore(lo, lo + 1.0), n_shards=2)
        engine.build()
        engine.delete(np.concatenate([np.arange(30), np.array([41, 42, 43, 44])]))
        assert engine.maybe_compact(0.3) == 30  # the hot shard's rows
        assert sum(s.store.n_dead for s in engine.shards) == 4  # cold shard
        before = np.sort(engine.execute(FULL).ids)
        assert engine.compact() == 4  # the cold shard's rows, counted once
        for shard in engine.shards:
            assert shard.store.n == shard.store.live_count
        engine.validate_routing()
        assert np.array_equal(np.sort(engine.execute(FULL).ids), before)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_reinsert_after_a_partial_policy_compaction(self, backend):
        # The policy pass cleans shard 0 (40% dead) but skips shard 1
        # (0.5%), which keeps five tombstones.  Re-inserting one of those
        # ids must be refused by the engine's gate before anything is
        # routed — the shard's own gate would refuse it mid-write.
        rng = np.random.default_rng(21)
        lo = rng.uniform(0, 90, size=(4_000, 2))
        hi = lo + rng.uniform(0, 5, size=(4_000, 2))
        engine = ShardedIndex(BoxStore(lo.copy(), hi.copy()), n_shards=4)
        engine.build()
        scan = ScanIndex(BoxStore(lo.copy(), hi.copy()))
        probes = [
            Query(Box((x, x), (x + 30.0, x + 30.0)), seq=i)
            for i, x in enumerate((0.0, 20.0, 40.0, 60.0))
        ] + [FULL]

        def check(ex):
            for q, got in zip(probes, ex.run(probes).results):
                assert np.array_equal(np.sort(got), np.sort(scan.execute(q).ids))

        with QueryExecutor(engine, max_workers=2, backend=backend) as ex:
            check(ex)
            few = engine.shards[1].store.ids[:5].copy()
            victims = np.concatenate([engine.shards[0].store.ids[:400], few])
            assert engine.delete(victims) == scan.delete(victims) == 405
            assert engine.maybe_compact(0.05) == 400
            scan.compact()
            assert [s.store.n_dead for s in engine.shards] == [0, 5, 0, 0]
            check(ex)
            # Its old box, so that it routes back to the shard that
            # still holds its tombstone.
            again = few[:1]
            old_lo, old_hi = lo[again], hi[again]
            with pytest.raises(DatasetError, match="collide"):
                engine.insert(old_lo, old_hi, again)
            # Refused before anything was written: still servable.
            assert sum(engine.shard_sizes()) == scan.store.live_count
            check(ex)
            # Once the shard lets go of the tombstone the id is free.
            engine.compact()
            assert np.array_equal(engine.insert(old_lo, old_hi, again), again)
            scan.insert(old_lo, old_hi, again)
            check(ex)
            assert int(again[0]) in ex.run([FULL]).results[0]
        engine.validate_routing()

    def test_compact_and_maybe_compact_agree_on_accounting(self):
        # Both verbs count the rows the shard primaries reclaimed, so
        # for the same state they report the same number.
        a = self._engine()
        b = self._engine()
        a.delete(np.arange(50))
        b.delete(np.arange(50))
        assert a.compact() == b.maybe_compact(0.0) == 50

    def test_maybe_compact_validates_the_threshold(self):
        engine = self._engine(2)
        with pytest.raises(ConfigurationError, match="dead_fraction"):
            engine.maybe_compact(1.5)

    def test_compaction_retightens_shard_pruning_mbbs(self):
        # Two spatial clusters: killing one entirely must, after
        # compaction, let its shard prune queries aimed at the dead area.
        rng = np.random.default_rng(14)
        left = rng.uniform(0, 20, size=(40, 2))
        right = rng.uniform(70, 90, size=(40, 2))
        lo = np.vstack([left, right])
        store = BoxStore(lo, lo + 1.0)
        engine = ShardedIndex(store, n_shards=2)
        engine.build()
        engine.delete(np.arange(40))  # the whole left cluster
        probe = Query(Box((0.0, 0.0), (15.0, 15.0)), seq=1)
        engine.stats.reset()
        assert engine.execute(probe).ids.size == 0
        visited_tombstoned = engine.stats.shards_visited
        engine.compact()
        engine.stats.reset()
        assert engine.execute(probe).ids.size == 0
        assert engine.stats.shards_visited < visited_tombstoned
        assert engine.stats.shards_pruned == engine.n_shards
