"""Property tests: randomized datasets + query sequences, all indexes agree.

Hypothesis drives dataset shape (object count, extent distribution,
duplicates) and a sequence of query windows; every index must match the
scan and QUASII must keep its structural invariants throughout.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import (
    MosaicIndex,
    RTreeIndex,
    SFCrackerIndex,
    ScanIndex,
    UniformGridIndex,
)
from repro.core import QuasiiConfig, QuasiiIndex
from repro.datasets import BoxStore
from repro.geometry import Box
from repro.queries import Query

UNIVERSE_SIDE = 100.0


@st.composite
def dataset_and_queries(draw, ndim=2):
    n = draw(st.integers(2, 120))
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    # Mix in duplicates and zero-extent objects.
    dup_frac = draw(st.sampled_from([0.0, 0.3]))
    point_frac = draw(st.sampled_from([0.0, 0.3]))
    lo = rng.uniform(0, UNIVERSE_SIDE, size=(n, ndim))
    extent = rng.uniform(0, 10, size=(n, ndim))
    points = rng.random(n) < point_frac
    extent[points] = 0.0
    dups = rng.random(n) < dup_frac
    if dups.any():
        lo[dups] = lo[0]
    hi = np.minimum(lo + extent, UNIVERSE_SIDE)
    store_data = (lo, hi)
    n_queries = draw(st.integers(1, 8))
    queries = []
    for i in range(n_queries):
        qlo = rng.uniform(-10, UNIVERSE_SIDE, size=ndim)
        qhi = qlo + rng.uniform(0, 60, size=ndim)
        queries.append(Query(Box(tuple(qlo), tuple(qhi)), seq=i))
    return store_data, queries


@given(dataset_and_queries())
@settings(max_examples=60, deadline=None)
def test_quasii_matches_scan_with_invariants(case):
    (lo, hi), queries = case
    store = BoxStore(lo.copy(), hi.copy())
    scan = ScanIndex(BoxStore(lo.copy(), hi.copy()))
    idx = QuasiiIndex(store, QuasiiConfig(2, (8, 4)))
    fp = store.fingerprint()
    for q in queries:
        got = np.sort(idx.execute(q).ids)
        expect = np.sort(scan.execute(q).ids)
        assert np.array_equal(got, expect)
        idx.validate_structure()
    assert store.fingerprint() == fp


@given(dataset_and_queries())
@settings(max_examples=30, deadline=None)
def test_static_indexes_match_scan(case):
    (lo, hi), queries = case
    universe = Box((0.0, 0.0), (UNIVERSE_SIDE, UNIVERSE_SIDE))
    store = BoxStore(lo, hi)
    scan = ScanIndex(store)
    rtree = RTreeIndex(store, capacity=8)
    rtree.build()
    grid = UniformGridIndex(store, universe, 7)
    grid.build()
    for q in queries:
        expect = np.sort(scan.execute(q).ids)
        assert np.array_equal(np.sort(rtree.execute(q).ids), expect)
        assert np.array_equal(np.sort(grid.execute(q).ids), expect)


@given(dataset_and_queries())
@settings(max_examples=30, deadline=None)
def test_incremental_baselines_match_scan(case):
    (lo, hi), queries = case
    universe = Box((0.0, 0.0), (UNIVERSE_SIDE, UNIVERSE_SIDE))
    store = BoxStore(lo, hi)
    scan = ScanIndex(store)
    cracker = SFCrackerIndex(BoxStore(lo.copy(), hi.copy()), universe)
    mosaic = MosaicIndex(BoxStore(lo.copy(), hi.copy()), universe, capacity=8)
    for q in queries:
        expect = np.sort(scan.execute(q).ids)
        assert np.array_equal(np.sort(cracker.execute(q).ids), expect)
        assert np.array_equal(np.sort(mosaic.execute(q).ids), expect)
    cracker.validate_pieces()


@given(st.integers(0, 2**31 - 1), st.integers(2, 60))
@settings(max_examples=40, deadline=None)
def test_quasii_final_leaves_respect_tau_everywhere(seed, n):
    rng = np.random.default_rng(seed)
    lo = rng.uniform(0, UNIVERSE_SIDE, size=(n, 2))
    hi = lo + rng.uniform(0, 5, size=(n, 2))
    store = BoxStore(lo, hi)
    idx = QuasiiIndex(store, QuasiiConfig(2, (6, 3)))
    for i in range(6):
        qlo = rng.uniform(0, UNIVERSE_SIDE, size=2)
        qhi = qlo + rng.uniform(0, 40, size=2)
        idx.execute(Query(Box(tuple(qlo), tuple(np.minimum(qhi, UNIVERSE_SIDE))), seq=i))
    idx.validate_structure()
