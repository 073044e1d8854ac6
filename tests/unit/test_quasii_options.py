"""Unit tests for QUASII's artificial (midpoint) slicing and the structure
pretty-printer."""

from __future__ import annotations

import numpy as np

from repro.baselines import ScanIndex
from repro.core import QuasiiConfig, QuasiiIndex
from repro.datasets import BoxStore, make_neuro_like, make_uniform
from repro.geometry import Box
from repro.queries import Query, uniform_workload


class TestArtificialSlicing:
    def test_matches_scan_on_skewed_data(self):
        ds = make_neuro_like(2_500, seed=41)
        index = QuasiiIndex(ds.store.copy())
        scan = ScanIndex(ds.store.copy())
        for q in uniform_workload(ds.universe, 20, 1e-2, seed=42):
            assert np.array_equal(
                np.sort(index.execute(q).ids), np.sort(scan.execute(q).ids)
            )
        index.validate_structure()

    def test_duplicate_heavy_keys_terminate(self):
        lo = np.zeros((200, 2))
        lo[:150, 0] = 5.0  # 75% duplicates
        lo[150:, 0] = np.linspace(0, 10, 50)
        store = BoxStore(lo, lo + 0.1)
        index = QuasiiIndex(store, QuasiiConfig(2, (16, 8)))
        hits = index.execute(Query(Box((-1.0, -1.0), (11.0, 1.0)))).ids
        assert hits.size == 200
        index.validate_structure()

    def test_midpoint_of_adjacent_floats_still_splits(self):
        # (a + b) / 2 rounds to a for adjacent floats: the cut must still
        # leave a non-empty left side.
        a = 1.0
        b = float(np.nextafter(a, 2.0))
        lo = np.array([[a, 0.0]] * 3 + [[b, 0.0]] * 3)
        index = QuasiiIndex(BoxStore(lo, lo + 0.5), QuasiiConfig(2, (2, 1)))
        assert index.execute(Query(Box((0.0, 0.0), (3.0, 1.0)))).ids.size == 6
        assert (index._top.end - index._top.begin).tolist() == [3, 3]
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

    def test_top_lines_are_the_top_list_columns(self):
        ds = make_uniform(2_000, seed=45)
        index = QuasiiIndex(ds.store.copy(), tau=30)
        index.execute(uniform_workload(ds.universe, 1, 1e-2, seed=46)[0])
        # One top-level list per extent class: the data has two.
        assert len(index._tops) == 2
        want = [
            f"x-slice rows[{b}:{e}) cut>={c:g} |{e - b}| "
            + ("final" if f else "coarse")
            for top in index._tops
            for b, e, c, f in zip(
                top.begin.tolist(), top.end.tolist(), top.cut_lo.tolist(),
                top.final.tolist(),
            )
        ]
        widest = max(len(top) for top in index._tops)
        lines = index.format_structure(max_slices_per_level=widest).splitlines()
        assert [line for line in lines if line.startswith("x-")] == want

    def test_elision(self):
        ds = make_uniform(5_000, seed=47)
        index = QuasiiIndex(ds.store.copy(), tau=10)
        for q in uniform_workload(ds.universe, 20, 1e-2, seed=48):
            index.execute(q)
        text = index.format_structure(max_slices_per_level=2)
        assert "... " in text
