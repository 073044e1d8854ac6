"""Unit tests for the per-index insert/delete paths.

Each mutable index has its own write strategy — QUASII stages and
lazily merges, Scan just appends — but both must answer with exactly
the live-row set afterwards.  The paper's other baselines are static
(tests/unit/test_compaction_indexes.py pins that they refuse a store
changed behind their back).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines import ScanIndex
from repro.core import QuasiiConfig, QuasiiIndex
from repro.datasets import BoxStore
from repro.errors import ConfigurationError, QueryError
from repro.geometry import Box
from repro.queries import Query


FULL = Query(Box((-1.0, -1.0), (101.0, 101.0)), seq=999)


def _store(n: int = 40, seed: int = 0) -> BoxStore:
    rng = np.random.default_rng(seed)
    lo = rng.uniform(0, 90, size=(n, 2))
    return BoxStore(lo, lo + rng.uniform(0, 5, size=(n, 2)))


def _batch(k: int, seed: int = 1) -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng(seed)
    lo = rng.uniform(0, 90, size=(k, 2))
    return lo, lo + rng.uniform(0, 5, size=(k, 2))


def _expected_live(index) -> np.ndarray:
    store = index.store
    return np.sort(store.ids[store.live_rows()])


class TestMixinSurface:
    def test_single_box_promoted_to_batch(self):
        idx = ScanIndex(_store())
        ids = idx.insert(np.array([1.0, 1.0]), np.array([2.0, 2.0]))
        assert ids.size == 1
        assert idx.stats.inserts == 1

    def test_shape_and_dim_validation(self):
        from repro.errors import DatasetError

        idx = ScanIndex(_store())
        with pytest.raises(DatasetError, match="mismatch"):
            idx.insert(np.zeros((2, 2)), np.ones((3, 2)))
        with pytest.raises(DatasetError, match="dims"):
            idx.insert(np.zeros((1, 3)), np.ones((1, 3)))

    def test_invalid_batches_rejected_at_insert_time_even_when_lazy(self):
        # QUASII stages inserts; a batch the store would reject at merge
        # time must fail fast at insert() and leave nothing staged.
        from repro.errors import DatasetError, GeometryError

        idx = QuasiiIndex(_store(), QuasiiConfig(2, (8, 4)))
        with pytest.raises(GeometryError, match="exceeds upper"):
            idx.insert(np.array([[5.0, 5.0]]), np.array([[1.0, 1.0]]))
        with pytest.raises(DatasetError, match="collide"):
            idx.insert(
                np.array([[1.0, 1.0]]), np.array([[2.0, 2.0]]),
                ids=np.array([0]),  # already in the store
            )
        ok = idx.insert(
            np.array([[1.0, 1.0]]), np.array([[2.0, 2.0]]),
            ids=np.array([500]),
        )
        with pytest.raises(DatasetError, match="buffered"):
            idx.insert(
                np.array([[1.0, 1.0]]), np.array([[2.0, 2.0]]),
                ids=np.array([500]),  # still staged
            )
        assert idx.pending_updates() == 1 and idx.stats.inserts == 1
        got = idx.execute(FULL).ids  # the merge succeeds; nothing was lost
        assert np.isin(ok, got).all()
        idx.validate_structure()

    def test_explicit_buffered_ids_never_poison_the_allocator(self):
        # Staging an explicit id must advance the store's allocator, or a
        # later auto-reserved id could collide with the buffered row and
        # make every subsequent merge fail.
        idx = QuasiiIndex(_store(), QuasiiConfig(2, (8, 4)))
        explicit = idx.insert(
            np.array([[1.0, 1.0]]), np.array([[2.0, 2.0]]),
            ids=np.array([45]),
        )
        fresh = idx.insert(*_batch(8, seed=7))  # auto-reserved ids
        assert not np.isin(explicit, fresh).any()
        got = np.sort(idx.execute(FULL).ids)  # merge must succeed
        assert np.isin(np.concatenate([explicit, fresh]), got).all()
        idx.validate_structure()

    def test_counters_accumulate_and_reset(self):
        idx = ScanIndex(_store())
        lo, hi = _batch(3)
        ids = idx.insert(lo, hi)
        idx.delete(ids[:2])
        assert idx.stats.inserts == 3 and idx.stats.deletes == 2
        snap = idx.stats.snapshot()
        assert snap.inserts == 3 and snap.deletes == 2 and snap.merges == 0
        idx.stats.reset()
        assert idx.stats.inserts == 0 and idx.stats.deletes == 0
        assert idx.stats.merges == 0

    def test_query_reflects_inserts_and_deletes(self):
        for make in (
            lambda s: ScanIndex(s),
            lambda s: QuasiiIndex(s, QuasiiConfig(2, (8, 4))),
        ):
            idx = make(_store())
            idx.build()
            lo, hi = _batch(5)
            new_ids = idx.insert(lo, hi)
            got = np.sort(idx.execute(FULL).ids)
            assert np.array_equal(got, _expected_live(idx)), idx.name
            assert np.isin(new_ids, got).all(), idx.name
            idx.delete(new_ids[:2])
            idx.delete(np.array([0]))
            got = np.sort(idx.execute(FULL).ids)
            assert np.array_equal(got, _expected_live(idx)), idx.name
            assert not np.isin([new_ids[0], new_ids[1], 0], got).any(), idx.name


class TestStartEmpty:
    """A mutable store's natural bootstrap: begin with zero rows, insert."""

    def _empty_store(self) -> BoxStore:
        return BoxStore(np.empty((0, 2)), np.empty((0, 2)))

    def test_every_index_supports_start_empty_then_insert(self):
        for make in (
            lambda s: ScanIndex(s),
            lambda s: QuasiiIndex(s),
        ):
            idx = make(self._empty_store())
            idx.build()
            assert idx.execute(FULL).ids.size == 0, idx.name
            lo, hi = _batch(20, seed=6)
            ids = idx.insert(lo, hi)
            got = np.sort(idx.execute(FULL).ids)
            assert np.array_equal(got, np.sort(ids)), idx.name
            idx.delete(ids[:5])
            got = np.sort(idx.execute(FULL).ids)
            assert np.array_equal(got, np.sort(ids[5:])), idx.name

    def test_empty_quasii_forest_stays_valid(self):
        idx = QuasiiIndex(self._empty_store())
        idx.validate_structure()
        idx.insert(*_batch(10, seed=3))
        idx.execute(FULL)
        idx.validate_structure()

    def test_nan_corners_rejected(self):
        from repro.errors import GeometryError

        idx = ScanIndex(_store())
        with pytest.raises(GeometryError, match="finite"):
            idx.insert(np.array([[np.nan, 1.0]]), np.array([[np.nan, 2.0]]))


class TestEpochStalenessGuard:
    def test_out_of_band_store_update_fails_loudly(self):
        store = _store()
        scan = ScanIndex(store)
        scan.execute(FULL)  # fine
        store.append(np.array([[1.0, 1.0]]), np.array([[2.0, 2.0]]))
        with pytest.raises(QueryError, match="epoch"):
            scan.execute(FULL)
        # Writes cannot silently "forgive" the out-of-band update either.
        with pytest.raises(QueryError, match="epoch"):
            scan.insert(np.array([[3.0, 3.0]]), np.array([[4.0, 4.0]]))
        with pytest.raises(QueryError, match="epoch"):
            scan.delete(np.array([0]))
        with pytest.raises(QueryError, match="epoch"):
            scan.compact()

    def test_updates_through_the_index_keep_the_epoch_in_sync(self):
        idx = QuasiiIndex(_store(), QuasiiConfig(2, (8, 4)))
        ids = idx.insert(*_batch(3))
        idx.execute(FULL)
        idx.delete(ids)
        assert np.sort(idx.execute(FULL).ids).size == 40


class TestQuasiiLazyMerge:
    def test_inserts_stage_until_next_query(self):
        idx = QuasiiIndex(_store(), QuasiiConfig(2, (8, 4)))
        lo, hi = _batch(5)
        new_ids = idx.insert(lo, hi)
        assert idx.pending_updates() == 5
        assert idx.stats.merges == 0
        assert idx.store.n == 40  # rows not yet in the store
        got = np.sort(idx.execute(FULL).ids)
        assert idx.pending_updates() == 0
        assert idx.store.n == 45
        assert idx.stats.merges == 1
        assert np.isin(new_ids, got).all()
        idx.validate_structure()

    def test_failed_delete_leaves_staged_rows_intact(self):
        # All-or-nothing: a delete batch with an unknown id must not
        # consume the staged targets it was bundled with.
        from repro.errors import DatasetError

        idx = QuasiiIndex(_store(), QuasiiConfig(2, (8, 4)))
        staged = idx.insert(*_batch(2))
        with pytest.raises(DatasetError, match="not live"):
            idx.delete(np.concatenate([staged, np.array([999_999])]))
        assert idx.pending_updates() == 2  # nothing was discarded
        assert idx.stats.deletes == 0
        got = np.sort(idx.execute(FULL).ids)
        assert np.isin(staged, got).all()

    def test_buffered_delete_never_reaches_the_store(self):
        idx = QuasiiIndex(_store(), QuasiiConfig(2, (8, 4)))
        ids = idx.insert(*_batch(3))
        assert idx.delete(ids) == 3
        assert idx.pending_updates() == 0
        assert idx.store.n == 40 and idx.store.n_dead == 0
        assert np.array_equal(np.sort(idx.execute(FULL).ids), np.arange(40))

    def test_consecutive_batches_coalesce_into_one_run(self):
        idx = QuasiiIndex(_store(), QuasiiConfig(2, (8, 4)))
        idx.insert(*_batch(3, seed=1))
        idx.execute(FULL)
        idx.insert(*_batch(3, seed=2))
        idx.execute(FULL)
        # FULL touches (and may crack) the run; runs stay bounded.
        assert idx.runs <= 3
        idx.validate_structure()

    def test_max_runs_collapses_the_forest(self):
        store = _store(60)
        idx = QuasiiIndex(store, QuasiiConfig(2, (8, 4)), max_runs=2)
        rng = np.random.default_rng(8)
        for i in range(10):
            idx.insert(*_batch(4, seed=100 + i))
            qlo = rng.uniform(0, 80, size=2)
            window = Box(tuple(qlo), tuple(qlo + 15.0))
            idx.execute(Query(window, seq=i))
            assert idx.runs <= 3  # main + max_runs
            idx.validate_structure()
        assert np.array_equal(np.sort(idx.execute(FULL).ids), _expected_live(idx))

    def test_max_runs_validated(self):
        with pytest.raises(ConfigurationError, match="max_runs"):
            QuasiiIndex(_store(), QuasiiConfig(2, (8, 4)), max_runs=0)

    def test_memory_bytes_includes_buffer(self):
        idx = QuasiiIndex(_store(), QuasiiConfig(2, (8, 4)))
        before = idx.memory_bytes()
        idx.insert(*_batch(10))
        assert idx.memory_bytes() > before

    def test_format_structure_shows_runs_and_buffer(self):
        idx = QuasiiIndex(_store(), QuasiiConfig(2, (8, 4)))
        idx.execute(FULL)  # crack the main hierarchy
        idx.insert(*_batch(3))
        text = idx.format_structure()
        assert "update buffer: 3 pending rows" in text
        idx.execute(FULL)
        assert "appended run" in idx.format_structure()
