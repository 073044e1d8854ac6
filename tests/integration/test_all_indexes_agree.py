"""Integration: every index returns exactly the Scan results, always.

This is invariant #1 of DESIGN.md — the strongest end-to-end check the
library has.  Each index runs over shared query sequences on both dataset
families, including mixed selectivities, boundary-hugging windows, and
degenerate windows.
"""

from __future__ import annotations

import inspect

import numpy as np
import pytest

from repro.baselines import (
    MosaicIndex,
    RTreeIndex,
    SFCIndex,
    SFCrackerIndex,
    ScanIndex,
    UniformGridIndex,
)
from repro.core import QuasiiIndex
from repro.geometry import Box
from repro.index import SpatialIndex
from repro.queries import PREDICATES, RESULT_MODES, Query
from repro.sharding import ShardedIndex

from tests.conftest import assert_matches_scan


def make_index(kind, ds):
    """Fresh index over a private copy of the dataset store."""
    store = ds.store.copy()
    if kind == "quasii":
        return QuasiiIndex(store)
    if kind == "rtree":
        idx = RTreeIndex(store)
        idx.build()
        return idx
    if kind == "grid-ext":
        idx = UniformGridIndex(store, ds.universe, 20, "query_extension")
        idx.build()
        return idx
    if kind == "grid-rep":
        idx = UniformGridIndex(store, ds.universe, 20, "replication")
        idx.build()
        return idx
    if kind == "sfc":
        idx = SFCIndex(store, ds.universe)
        idx.build()
        return idx
    if kind == "sfcracker":
        return SFCrackerIndex(store, ds.universe)
    if kind == "mosaic":
        return MosaicIndex(store, ds.universe)
    if kind == "scan":
        return ScanIndex(store)
    if kind == "sharded":
        idx = ShardedIndex(store, n_shards=3)
        idx.build()
        return idx
    raise ValueError(kind)


ALL_KINDS = ["quasii", "rtree", "grid-ext", "grid-rep", "sfc", "sfcracker", "mosaic"]


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_matches_scan_on_uniform(kind, uniform_ds, uniform_queries):
    index = make_index(kind, uniform_ds)
    assert_matches_scan(index, uniform_ds, uniform_queries)


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_matches_scan_on_clustered(kind, neuro_ds, clustered_queries):
    index = make_index(kind, neuro_ds)
    assert_matches_scan(index, neuro_ds, clustered_queries)


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_boundary_and_degenerate_windows(kind, uniform_ds):
    side = uniform_ds.universe.hi[0]
    queries = [
        # Whole universe.
        Query(uniform_ds.universe, seq=0),
        # Degenerate plane and point windows.
        Query(Box((side / 2, 0.0, 0.0), (side / 2, side, side)), seq=1),
        Query(Box((side / 2,) * 3, (side / 2,) * 3), seq=2),
        # Hugging the lower and upper corners.
        Query(Box((0.0,) * 3, (side * 0.05,) * 3), seq=3),
        Query(Box((side * 0.95,) * 3, (side,) * 3), seq=4),
        # Entirely outside the data (legal: window beyond the universe).
        Query(Box((side * 2,) * 3, (side * 3,) * 3), seq=5),
    ]
    index = make_index(kind, uniform_ds)
    assert_matches_scan(index, uniform_ds, queries)


@pytest.mark.parametrize("kind", ["quasii", "sfcracker", "mosaic"])
def test_incremental_indexes_stay_correct_under_repeats(kind, uniform_ds, uniform_queries):
    """Re-running the same workload twice must give identical answers —
    the second pass runs on a (partially) refined structure."""
    index = make_index(kind, uniform_ds)
    first = [np.sort(index.execute(q).ids) for q in uniform_queries]
    second = [np.sort(index.execute(q).ids) for q in uniform_queries]
    for a, b in zip(first, second):
        assert np.array_equal(a, b)


def test_quasii_structure_valid_after_mixed_workloads(uniform_ds, uniform_queries):
    index = make_index("quasii", uniform_ds)
    for q in uniform_queries:
        index.execute(q)
    index.validate_structure()


# ----------------------------------------------------------------------
# One read path: a query is a batch of one
# ----------------------------------------------------------------------
EVERY_KIND = ALL_KINDS + ["scan", "sharded"]


def _predicate_mode_stream(windows):
    """Every predicate x result mode over the given windows, in a fixed
    order (``covers_point`` takes the window's centre as a point)."""
    queries = []
    for window in windows:
        point = Box(tuple(window.center), tuple(window.center))
        for predicate in PREDICATES:
            for mode in RESULT_MODES:
                queries.append(
                    Query(
                        point if predicate == "covers_point" else window,
                        predicate=predicate,
                        mode=mode,
                        k=3 if mode == "top_k" else None,
                        seq=len(queries),
                    )
                )
    return queries


def _assert_same_result(a, b, label):
    assert a.count == b.count, label
    for got, want in ((a.ids, b.ids), *zip(a.boxes or (), b.boxes or ())):
        assert (got is None) == (want is None), label
        if got is not None:
            # Same order too: both verbs walk the structure the same way.
            assert np.array_equal(got, want), label
    assert (a.boxes is None) == (b.boxes is None), label
    assert a.stats == b.stats, label


@pytest.mark.parametrize("kind", EVERY_KIND)
def test_execute_is_a_batch_of_one(kind, uniform_ds, uniform_queries):
    """``execute(q)`` == ``execute_batch([q])[0]`` in count, ids, boxes
    and stats, for every predicate x result mode, on twin indexes fed
    the same stream (so incremental structures evolve in lockstep)."""
    single, batched = make_index(kind, uniform_ds), make_index(kind, uniform_ds)
    windows = [q.window for q in uniform_queries[5::10]]
    for q in _predicate_mode_stream(windows):
        label = f"{kind} {q.predicate} {q.mode} #{q.seq}"
        a, (b,) = single.execute(q), batched.execute_batch([q])
        _assert_same_result(a, b, label)
        if kind == "sharded":
            assert a.stats is None, label
        else:
            assert a.stats.queries == 1, label
            assert a.stats.results_returned == (
                a.count if a.ids is None else a.ids.size
            ), label
    assert single.stats == batched.stats


@pytest.mark.parametrize("kind", ALL_KINDS + ["scan"])
def test_batch_equals_loop(kind, uniform_ds, uniform_queries):
    """One ``execute_batch`` == a loop of ``execute``, per query and in
    total.  For SFCracker and Mosaic this pins the default hook's late
    refine: their filter step cracks only their own row arrays and
    returns fresh store positions, which later cracks cannot move.
    (A fleet merges shard parts in first-routed order, which depends on
    the batch; its id sets are pinned by the sharding suites.)"""
    loop, batch = make_index(kind, uniform_ds), make_index(kind, uniform_ds)
    windows = [q.window for q in uniform_queries[::4]]
    modes = [RESULT_MODES[i % len(RESULT_MODES)] for i in range(len(windows))]
    queries = [
        Query(w, mode=mode, k=2 if mode == "top_k" else None, seq=i)
        for i, (w, mode) in enumerate(zip(windows, modes))
    ]
    want = [loop.execute(q) for q in queries]
    for a, b in zip(want, batch.execute_batch(queries)):
        _assert_same_result(a, b, f"{kind} #{a.query.seq}")
    assert loop.stats == batch.stats


def _concrete_indexes():
    found, stack = [], [SpatialIndex]
    while stack:
        for cls in stack.pop().__subclasses__():
            stack.append(cls)
            if cls.__module__.startswith("repro.") and not inspect.isabstract(cls):
                found.append(cls)
    return found


def test_every_concrete_index_implements_exactly_one_hook():
    classes = _concrete_indexes()
    assert {c.__name__ for c in classes} >= {
        "ScanIndex", "UniformGridIndex", "SFCIndex", "SFCrackerIndex",
        "MosaicIndex", "RTreeIndex", "QuasiiIndex", "ShardedIndex",
    }
    for cls in classes:
        own = [
            hook
            for hook in ("_candidates", "_execute_batch")
            if getattr(cls, hook) is not getattr(SpatialIndex, hook)
        ]
        assert len(own) == 1, f"{cls.__name__} implements {own}"
    assert not hasattr(SpatialIndex, "_execute")
