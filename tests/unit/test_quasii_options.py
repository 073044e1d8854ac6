"""Unit tests for QUASII's optional knobs: artificial split strategy and
the structure pretty-printer."""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines import ScanIndex
from repro.core import QuasiiConfig, QuasiiIndex
from repro.datasets import BoxStore, make_neuro_like, make_uniform
from repro.errors import ConfigurationError
from repro.geometry import Box
from repro.queries import Query, uniform_workload


class TestArtificialSplit:
    def test_rejects_unknown(self):
        ds = make_uniform(100, seed=1)
        with pytest.raises(ConfigurationError):
            QuasiiIndex(ds.store.copy(), artificial_split="thirds")

    @pytest.mark.parametrize("split", ["midpoint", "median"])
    def test_matches_scan(self, split):
        ds = make_neuro_like(2_500, seed=41)
        index = QuasiiIndex(ds.store.copy(), artificial_split=split)
        scan = ScanIndex(ds.store.copy())
        for q in uniform_workload(ds.universe, 20, 1e-2, seed=42):
            assert np.array_equal(
                np.sort(index.execute(q).ids), np.sort(scan.execute(q).ids)
            )
        index.validate_structure()

    def test_median_balances_skewed_slices(self):
        # Heavily skewed keys: midpoint splitting produces lopsided
        # pieces, median splitting produces balanced ones.
        rng = np.random.default_rng(43)
        keys = rng.exponential(1.0, size=512)  # long right tail
        lo = np.zeros((512, 2))
        lo[:, 0] = keys
        store_mid = BoxStore(lo, lo + 0.01)
        store_med = BoxStore(lo.copy(), lo.copy() + 0.01)
        config = QuasiiConfig(2, (64, 32))
        covering = Query(Box((-1.0, -1.0), (1000.0, 2.0)))

        def top_sizes(index):
            index.execute(covering)
            return [s.size for s in index._top]

        mid_sizes = top_sizes(QuasiiIndex(store_mid, config))
        med_sizes = top_sizes(QuasiiIndex(store_med, config, artificial_split="median"))
        # Balance measure: largest / smallest slice size.
        assert max(med_sizes) / min(med_sizes) <= max(mid_sizes) / min(mid_sizes)

    def test_median_with_duplicate_heavy_keys_terminates(self):
        lo = np.zeros((200, 2))
        lo[:150, 0] = 5.0  # 75% duplicates at the median
        lo[150:, 0] = np.linspace(0, 10, 50)
        store = BoxStore(lo, lo + 0.1)
        index = QuasiiIndex(store, QuasiiConfig(2, (16, 8)), artificial_split="median")
        hits = index.execute(Query(Box((-1.0, -1.0), (11.0, 1.0)))).ids
        assert hits.size == 200
        index.validate_structure()


class TestFormatStructure:
    def test_initial_structure(self):
        # n must exceed the top-level threshold for the root slice to be
        # "coarse" (with n=5000 and tau=60 the ladder is 2940/420/60).
        ds = make_uniform(5_000, seed=44)
        index = QuasiiIndex(ds.store.copy())
        text = index.format_structure()
        assert "x-slice rows[0:5000)" in text
        assert "coarse" in text

    def test_after_query_shows_levels(self):
        ds = make_uniform(2_000, seed=45)
        index = QuasiiIndex(ds.store.copy(), tau=30)
        index.execute(uniform_workload(ds.universe, 1, 1e-2, seed=46)[0])
        text = index.format_structure()
        assert "x-slice" in text
        assert "y-slice" in text
        assert "final" in text

    def test_elision(self):
        ds = make_uniform(5_000, seed=47)
        index = QuasiiIndex(ds.store.copy(), tau=10)
        for q in uniform_workload(ds.universe, 20, 1e-2, seed=48):
            index.execute(q)
        text = index.format_structure(max_slices_per_level=2)
        assert "... " in text
