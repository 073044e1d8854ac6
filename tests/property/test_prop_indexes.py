"""Property tests: randomized datasets + query sequences, all indexes agree.

Hypothesis drives dataset shape (object count, extent distribution,
duplicates) and a sequence of query windows; every index must match the
scan and QUASII must keep its structural invariants throughout.  Each
test also runs with boxes *and* windows on an integer lattice, where
boxes that only touch a window edge are common, and every answer — the
scan's included — is checked against :func:`brute_force`, a numpy
predicate that shares no code with the program.
"""

from __future__ import annotations

import numpy as np
import pytest
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


def brute_force(lo, hi, query):
    """Sorted row numbers of the boxes intersecting the closed window."""
    win_lo, win_hi = np.array(query.window.lo), np.array(query.window.hi)
    hit = np.all(lo <= win_hi, axis=1) & np.all(hi >= win_lo, axis=1)
    return np.flatnonzero(hit)


#: Integer corners: touching boxes and equal keys across window edges.
LATTICE = pytest.mark.parametrize("lattice", [False, True], ids=["continuous", "lattice"])


@st.composite
def dataset_and_queries(draw, lattice, ndim=2):
    n = draw(st.integers(2, 120))
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    # Mix in duplicates and zero-extent objects.
    dup_frac = draw(st.sampled_from([0.0, 0.3]))
    point_frac = draw(st.sampled_from([0.0, 0.3]))
    if lattice:
        lo = rng.integers(0, 30, size=(n, ndim)).astype(np.float64)
        extent = rng.integers(0, 5, size=(n, ndim)).astype(np.float64)
    else:
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
        if lattice:
            qlo = rng.integers(-2, 30, size=ndim).astype(np.float64)
            qhi = qlo + rng.integers(0, 10, size=ndim)
        else:
            qlo = rng.uniform(-10, UNIVERSE_SIDE, size=ndim)
            qhi = qlo + rng.uniform(0, 60, size=ndim)
        queries.append(Query(Box(tuple(qlo), tuple(qhi)), seq=i))
    return store_data, queries


@LATTICE
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_quasii_matches_scan_with_invariants(lattice, data):
    (lo, hi), queries = data.draw(dataset_and_queries(lattice))
    store = BoxStore(lo.copy(), hi.copy())
    scan = ScanIndex(BoxStore(lo.copy(), hi.copy()))
    idx = QuasiiIndex(store, QuasiiConfig(2, (8, 4)))
    fp = store.fingerprint()
    for q in queries:
        got = np.sort(idx.execute(q).ids)
        expect = brute_force(lo, hi, q)  # ids are the initial row numbers
        assert np.array_equal(got, expect)
        assert np.array_equal(np.sort(scan.execute(q).ids), expect)
        idx.validate_structure()
    assert store.fingerprint() == fp


@LATTICE
@given(data=st.data())
@settings(max_examples=30, deadline=None)
def test_static_indexes_match_scan(lattice, data):
    (lo, hi), queries = data.draw(dataset_and_queries(lattice))
    universe = Box((0.0, 0.0), (UNIVERSE_SIDE, UNIVERSE_SIDE))
    store = BoxStore(lo, hi)
    scan = ScanIndex(store)
    rtree = RTreeIndex(store, capacity=8)
    rtree.build()
    grid = UniformGridIndex(store, universe, 7)
    grid.build()
    for q in queries:
        expect = brute_force(lo, hi, q)
        assert np.array_equal(np.sort(scan.execute(q).ids), expect)
        assert np.array_equal(np.sort(rtree.execute(q).ids), expect)
        assert np.array_equal(np.sort(grid.execute(q).ids), expect)


@LATTICE
@given(data=st.data())
@settings(max_examples=30, deadline=None)
def test_incremental_baselines_match_scan(lattice, data):
    (lo, hi), queries = data.draw(dataset_and_queries(lattice))
    universe = Box((0.0, 0.0), (UNIVERSE_SIDE, UNIVERSE_SIDE))
    store = BoxStore(lo, hi)
    scan = ScanIndex(store)
    cracker = SFCrackerIndex(BoxStore(lo.copy(), hi.copy()), universe)
    mosaic = MosaicIndex(BoxStore(lo.copy(), hi.copy()), universe, capacity=8)
    for q in queries:
        expect = brute_force(lo, hi, q)
        assert np.array_equal(np.sort(scan.execute(q).ids), expect)
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
