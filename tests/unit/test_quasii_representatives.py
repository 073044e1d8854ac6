"""Unit tests for the slice-assignment representative ablation.

Paper Section 5.1, footnote 1: QUASII assigns objects to slices by their
lower coordinate, but "the upper coordinate or the object's center can
equally be used".  All three must produce identical query results (the
data structure differs; the answers must not).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines import ScanIndex
from repro.core import QuasiiIndex
from repro.datasets import BoxStore, make_neuro_like, make_uniform
from repro.errors import ConfigurationError
from repro.queries import clustered_workload, uniform_workload

REPS = ("lower", "center", "upper")


class TestConfiguration:
    def test_default_is_lower(self):
        ds = make_uniform(100, seed=1)
        assert QuasiiIndex(ds.store.copy()).representative == "lower"

    def test_rejects_unknown(self):
        ds = make_uniform(100, seed=1)
        with pytest.raises(ConfigurationError):
            QuasiiIndex(ds.store.copy(), representative="corner")


@pytest.mark.parametrize("rep", REPS)
class TestRepresentativeCorrectness:
    def test_matches_scan_uniform(self, rep):
        ds = make_uniform(2_000, seed=31)
        index = QuasiiIndex(ds.store.copy(), representative=rep)
        scan = ScanIndex(ds.store.copy())
        for q in uniform_workload(ds.universe, 25, 1e-2, seed=32):
            assert np.array_equal(
                np.sort(index.execute(q).ids), np.sort(scan.execute(q).ids)
            ), f"representative={rep} diverged from scan"
        index.validate_structure()

    def test_matches_scan_clustered(self, rep):
        ds = make_neuro_like(2_000, seed=33)
        index = QuasiiIndex(ds.store.copy(), representative=rep)
        scan = ScanIndex(ds.store.copy())
        for q in clustered_workload(ds.universe, 2, 15, 1e-3, seed=34):
            assert np.array_equal(
                np.sort(index.execute(q).ids), np.sort(scan.execute(q).ids)
            )
        index.validate_structure()

    def test_wide_objects_straddling_cuts(self, rep):
        # Wide boxes around a query window exercise the extension logic of
        # every representative differently.
        lo = np.array(
            [[0.0, 0.0], [3.0, 0.0], [5.2, 0.0], [9.0, 0.0], [4.9, 0.0]]
        )
        hi = np.array(
            [[5.0, 1.0], [4.0, 1.0], [5.4, 1.0], [9.5, 1.0], [8.0, 1.0]]
        )
        store = BoxStore(lo, hi)
        scan = ScanIndex(store.copy())
        index = QuasiiIndex(store, representative=rep, tau=1)
        from repro.geometry import Box
        from repro.queries import Query

        for window in (
            Box((4.5, 0.0), (5.5, 1.0)),
            Box((0.0, 0.0), (0.5, 1.0)),
            Box((9.6, 0.0), (9.9, 1.0)),
        ):
            q = Query(window)
            assert np.array_equal(
                np.sort(index.execute(q).ids), np.sort(scan.execute(q).ids)
            ), f"representative={rep} window={window}"


class TestAllRepresentativesAgree:
    def test_three_structures_same_answers(self):
        ds = make_uniform(3_000, seed=35)
        indexes = {
            rep: QuasiiIndex(ds.store.copy(), representative=rep)
            for rep in REPS
        }
        queries = uniform_workload(ds.universe, 20, 1e-2, seed=36)
        for q in queries:
            answers = {
                rep: np.sort(idx.execute(q).ids) for rep, idx in indexes.items()
            }
            assert np.array_equal(answers["lower"], answers["center"])
            assert np.array_equal(answers["lower"], answers["upper"])
        for idx in indexes.values():
            idx.validate_structure()
