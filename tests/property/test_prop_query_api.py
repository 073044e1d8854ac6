"""Property tests for the first-class query layer.

The predicate/result-mode matrix: every index × {intersects, within,
contains, covers_point} × {ids, count} must agree with the Scan oracle —
for static stores and under randomized insert/delete/compact
interleavings (mutable indexes).
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import (
    MosaicIndex,
    RTreeIndex,
    SFCIndex,
    SFCrackerIndex,
    ScanIndex,
    UniformGridIndex,
)
from repro.core import QuasiiConfig, QuasiiIndex
from repro.datasets import BoxStore
from repro.geometry import Box
from repro.queries import PREDICATES, Query
from repro.sharding import ShardedIndex

UNIVERSE_SIDE = 100.0
UNIVERSE = Box((0.0, 0.0), (UNIVERSE_SIDE, UNIVERSE_SIDE))


def _random_boxes(rng, n):
    lo = rng.uniform(0, UNIVERSE_SIDE, size=(n, 2))
    extent = rng.uniform(0, 12, size=(n, 2))
    points = rng.random(n) < 0.2
    extent[points] = 0.0
    hi = np.minimum(lo + extent, UNIVERSE_SIDE)
    return lo, hi


def _random_query(rng, i):
    """A query spec with random window, predicate, and result mode."""
    predicate = PREDICATES[int(rng.integers(len(PREDICATES)))]
    if predicate == "covers_point":
        pt = tuple(rng.uniform(0, UNIVERSE_SIDE, size=2))
        window = Box(pt, pt)
    else:
        qlo = rng.uniform(-10, UNIVERSE_SIDE, size=2)
        # Mix in degenerate (zero-extent) windows as first-class cases.
        span = rng.uniform(0, 60, size=2)
        if rng.random() < 0.2:
            span[int(rng.integers(2))] = 0.0
        window = Box(tuple(qlo), tuple(qlo + span))
    mode = "count" if rng.random() < 0.5 else "ids"
    return Query(window, predicate=predicate, mode=mode, seq=i)


def _assert_agrees(index, oracle, query):
    expect = oracle.execute(query)
    got = index.execute(query)
    assert got.count == expect.count, (
        f"{index.name}: count {got.count} != {expect.count} for "
        f"{query.predicate}/{query.mode}"
    )
    if query.mode == "ids":
        assert np.array_equal(np.sort(got.ids), np.sort(expect.ids)), (
            f"{index.name}: id set mismatch for {query.predicate}"
        )


@st.composite
def static_matrix_case(draw):
    seed = draw(st.integers(0, 2**31 - 1))
    n = draw(st.integers(2, 120))
    n_queries = draw(st.integers(1, 8))
    return seed, n, n_queries


@given(static_matrix_case())
@settings(max_examples=40, deadline=None)
def test_all_indexes_agree_on_predicate_mode_matrix(case):
    seed, n, n_queries = case
    rng = np.random.default_rng(seed)
    lo, hi = _random_boxes(rng, n)
    store = BoxStore(lo, hi)
    oracle = ScanIndex(store.copy())
    indexes = [
        ScanIndex(store.copy()),
        UniformGridIndex(store.copy(), UNIVERSE, 6),
        RTreeIndex(store.copy(), capacity=8),
        SFCIndex(store.copy(), UNIVERSE),
        SFCrackerIndex(store.copy(), UNIVERSE),
        MosaicIndex(store.copy(), UNIVERSE, capacity=8),
        QuasiiIndex(store.copy(), QuasiiConfig(2, (8, 4))),
        ShardedIndex(store.copy(), n_shards=2),
    ]
    for index in indexes:
        index.build()
    for i in range(n_queries):
        query = _random_query(rng, i)
        for index in indexes:
            _assert_agrees(index, oracle, query)


@st.composite
def interleaving_case(draw):
    seed = draw(st.integers(0, 2**31 - 1))
    n = draw(st.integers(4, 80))
    n_ops = draw(st.integers(2, 10))
    return seed, n, n_ops


@given(interleaving_case())
@settings(max_examples=30, deadline=None)
def test_matrix_agrees_under_insert_delete_compact(case):
    seed, n, n_ops = case
    rng = np.random.default_rng(seed)
    lo, hi = _random_boxes(rng, n)
    store = BoxStore(lo, hi)
    oracle = ScanIndex(store.copy())
    indexes = [
        QuasiiIndex(store.copy(), QuasiiConfig(2, (8, 4))),
        ShardedIndex(store.copy(), n_shards=2),
    ]
    for index in indexes:
        index.build()
    for op_i in range(n_ops):
        roll = rng.random()
        if roll < 0.3:
            k = int(rng.integers(1, 6))
            blo, bhi = _random_boxes(rng, k)
            oracle.insert(blo, bhi)
            for index in indexes:
                index.insert(blo, bhi)
        elif roll < 0.5:
            live = np.sort(oracle.store.ids[oracle.store.live_rows()])
            if live.size > 1:
                victims = rng.choice(
                    live, size=int(rng.integers(1, live.size)), replace=False
                )
                oracle.delete(victims)
                for index in indexes:
                    index.delete(victims)
        elif roll < 0.65:
            oracle.compact()
            for index in indexes:
                index.compact()
        query = _random_query(rng, op_i)
        for index in indexes:
            _assert_agrees(index, oracle, query)
    for index in indexes:
        if isinstance(index, QuasiiIndex):
            index.validate_structure()
        if isinstance(index, ShardedIndex):
            index.validate_routing()


@given(static_matrix_case())
@settings(max_examples=30, deadline=None)
def test_batch_matches_sequential_on_random_specs(case):
    seed, n, n_queries = case
    rng = np.random.default_rng(seed)
    lo, hi = _random_boxes(rng, n)
    store = BoxStore(lo, hi)
    queries = [_random_query(rng, i) for i in range(n_queries)]
    for make in (
        lambda s: ScanIndex(s),
        lambda s: UniformGridIndex(s, UNIVERSE, 6),
        lambda s: SFCIndex(s, UNIVERSE),
        lambda s: QuasiiIndex(s, QuasiiConfig(2, (8, 4))),
        lambda s: ShardedIndex(s, n_shards=2),
    ):
        loop_index = make(store.copy())
        loop_index.build()
        loop = [loop_index.execute(q) for q in queries]
        batch_index = make(store.copy())
        batch_index.build()
        batch = batch_index.execute_batch(queries)
        for a, b in zip(loop, batch):
            assert a.count == b.count, batch_index.name
            if a.ids is not None:
                assert np.array_equal(np.sort(a.ids), np.sort(b.ids))
