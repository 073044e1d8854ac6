"""Unit tests for QUASII's STR bulk loading of large update-buffer flushes."""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines import ScanIndex
from repro.core import QuasiiConfig, QuasiiIndex
from repro.datasets import BoxStore
from repro.errors import ConfigurationError
from repro.geometry import Box
from repro.queries import Query


def _store(n=20, seed=0, ndim=2):
    rng = np.random.default_rng(seed)
    lo = rng.uniform(0, 100, size=(n, ndim))
    return BoxStore(lo, lo + rng.uniform(0, 4, size=(n, ndim)))


def _batch(k, seed=1, ndim=2):
    rng = np.random.default_rng(seed)
    lo = rng.uniform(0, 100, size=(k, ndim))
    return lo, lo + rng.uniform(0, 4, size=(k, ndim))


FULL = Query(Box((-10.0, -10.0), (120.0, 120.0)), seq=0)
CONFIG = QuasiiConfig(2, (8, 4))


class TestBulkFlush:
    def test_rejects_bad_threshold(self):
        with pytest.raises(ConfigurationError, match="bulk_flush_threshold"):
            QuasiiIndex(_store(), CONFIG, bulk_flush_threshold=0)

    def test_default_threshold_is_top_level(self):
        index = QuasiiIndex(_store(), CONFIG)
        assert index._bulk_flush_threshold == CONFIG.threshold(0)

    def test_large_flush_is_fully_refined_on_arrival(self):
        index = QuasiiIndex(_store(), CONFIG, bulk_flush_threshold=10)
        scan = ScanIndex(index.store.copy())
        lo, hi = _batch(40)
        index.insert(lo, hi)
        scan.insert(lo, hi)
        assert np.array_equal(np.sort(index.execute(FULL).ids), np.sort(scan.execute(FULL).ids))
        index.validate_structure()
        # The merged run arrives refined: a follow-up query into the
        # appended region does no further cracking.
        cracks_before = index.stats.cracks
        probe = Query(Box((20.0, 20.0), (60.0, 60.0)), seq=1)
        expect = np.sort(scan.execute(probe).ids)
        assert np.array_equal(np.sort(index.execute(probe).ids), expect)
        assert index.stats.cracks == cracks_before

    def test_bulk_run_slices_honor_thresholds(self):
        index = QuasiiIndex(_store(), CONFIG, bulk_flush_threshold=10)
        lo, hi = _batch(60)
        index.insert(lo, hi)
        index.execute(FULL)
        index.validate_structure()
        # Every slice of the bulk-loaded run is final (exact MBB, at or
        # below its level threshold) — the converged shape, eagerly.
        for top in index._tops:
            for s in top:
                assert s.final
                assert s.size <= CONFIG.threshold(0)
                if s.children is not None:
                    for c in s.children:
                        assert c.size <= CONFIG.threshold(1)

    def test_small_flush_stays_lazy(self):
        index = QuasiiIndex(_store(), CONFIG, bulk_flush_threshold=50)
        lo, hi = _batch(5)
        index.insert(lo, hi)
        moved_before = index.stats.rows_reorganized
        index.execute(FULL)
        index.validate_structure()
        # The merge itself moved nothing (coarse run); only the query's
        # own cracking reorganized rows.
        assert index.stats.merges == 1
        assert index.stats.rows_reorganized >= moved_before

    def test_duplicate_keys_bulk_load(self):
        index = QuasiiIndex(_store(), CONFIG, bulk_flush_threshold=10)
        scan = ScanIndex(index.store.copy())
        lo = np.full((30, 2), 42.0)
        hi = lo + 1.0
        index.insert(lo, hi)
        scan.insert(lo, hi)
        assert np.array_equal(np.sort(index.execute(FULL).ids), np.sort(scan.execute(FULL).ids))
        index.validate_structure()

    def test_buffered_batches_bulk_load_as_one_appended_run(self):
        # Two small batches accumulate in the buffer; together they pass
        # the threshold, so the drain bulk loads them as one refined run
        # while the (never-queried) main hierarchy stays untouched.
        index = QuasiiIndex(_store(4, seed=7), CONFIG, bulk_flush_threshold=30)
        scan = ScanIndex(index.store.copy())
        for seed, k in ((2, 10), (3, 25)):
            lo, hi = _batch(k, seed=seed)
            index.insert(lo, hi)
            scan.insert(lo, hi)
        assert np.array_equal(np.sort(index.execute(FULL).ids), np.sort(scan.execute(FULL).ids))
        index.validate_structure()
        assert index.runs == 2  # main hierarchy + one bulk-loaded run
        assert index._tops[0].end[-1] == 4  # initial rows left alone

    def test_virgin_main_hierarchy_is_never_bulk_loaded(self):
        # Regression: a large flush into a store that has never been
        # queried must bulk load only the appended rows — eagerly sorting
        # the whole initial array would forfeit query-driven building.
        index = QuasiiIndex(_store(40, seed=11), CONFIG, bulk_flush_threshold=10)
        lo, hi = _batch(12, seed=12)
        index.insert(lo, hi)
        moved_before = index.stats.rows_reorganized
        index.execute(Query(Box((200.0, 200.0), (201.0, 201.0)), seq=0))
        # The merge only reorganized the appended run (2 levels x 12 rows),
        # not the 40 initial rows.
        assert index.runs == 2
        assert index._tops[1].begin[0] == 40
        assert index.stats.rows_reorganized - moved_before <= 2 * 12
        index.validate_structure()

    def test_empty_start_store_bulk_loads_whole_ingest(self):
        d = 2
        store = BoxStore(np.empty((0, d)), np.empty((0, d)))
        index = QuasiiIndex(store, CONFIG, bulk_flush_threshold=10)
        scan_store = BoxStore(np.empty((0, d)), np.empty((0, d)))
        scan = ScanIndex(scan_store)
        lo, hi = _batch(30, seed=13)
        index.insert(lo, hi)
        scan.insert(lo, hi)
        assert np.array_equal(np.sort(index.execute(FULL).ids), np.sort(scan.execute(FULL).ids))
        index.validate_structure()
        assert index.runs == 1  # the ingest run is the whole forest

    def test_interleaved_bulk_flushes_match_oracle(self):
        rng = np.random.default_rng(9)
        index = QuasiiIndex(_store(30, seed=8), CONFIG, bulk_flush_threshold=12)
        scan = ScanIndex(index.store.copy())
        for t in range(15):
            k = int(rng.integers(1, 25))
            lo, hi = _batch(k, seed=100 + t)
            index.insert(lo, hi)
            scan.insert(lo, hi)
            if t % 3 == 0 and scan.store.live_count > 5:
                live = scan.store.ids[scan.store.live_rows()]
                victims = rng.choice(live, size=3, replace=False)
                index.delete(victims)
                scan.delete(victims)
            qlo = rng.uniform(-5, 100, size=2)
            window = Box(tuple(qlo), tuple(qlo + rng.uniform(5, 60, size=2)))
            q = Query(window, seq=t + 1)
            assert np.array_equal(np.sort(index.execute(q).ids), np.sort(scan.execute(q).ids))
            index.validate_structure()
        assert index.stats.merges > 0
