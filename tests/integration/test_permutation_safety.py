"""Integration: incremental indexes only ever *permute* the data array.

Invariant #2 of DESIGN.md — whatever queries run, the multiset of
(id, box) rows in the store never changes, and static index structures
never mutate the store at all.
"""

from __future__ import annotations

import numpy as np

from repro.baselines import (
    MosaicIndex,
    RTreeIndex,
    SFCIndex,
    SFCrackerIndex,
    UniformGridIndex,
)
from repro.core import QuasiiIndex


def test_quasii_only_permutes(neuro_ds, clustered_queries):
    store = neuro_ds.store.copy()
    fp = store.fingerprint()
    index = QuasiiIndex(store)
    for q in clustered_queries:
        index.execute(q)
    assert store.fingerprint() == fp


def test_quasii_permutation_is_nontrivial(neuro_ds, clustered_queries):
    store = neuro_ds.store.copy()
    ids_before = store.ids.copy()
    index = QuasiiIndex(store)
    for q in clustered_queries[:5]:
        index.execute(q)
    assert not np.array_equal(store.ids, ids_before)


def test_static_indexes_never_touch_store(uniform_ds, uniform_queries):
    store = uniform_ds.store.copy()
    ids_before = store.ids.copy()
    lo_before = store.lo.copy()
    for idx in (
        RTreeIndex(store),
        UniformGridIndex(store, uniform_ds.universe, 10),
        SFCIndex(store, uniform_ds.universe),
    ):
        idx.build()
        for q in uniform_queries[:10]:
            idx.execute(q)
    assert np.array_equal(store.ids, ids_before)
    assert np.array_equal(store.lo, lo_before)


def test_sfcracker_keeps_store_and_conserves_rows(uniform_ds, uniform_queries):
    store = uniform_ds.store.copy()
    ids_before = store.ids.copy()
    index = SFCrackerIndex(store, uniform_ds.universe)
    for q in uniform_queries:
        index.execute(q)
    # SFCracker cracks its own code/row arrays; the store is untouched.
    assert np.array_equal(store.ids, ids_before)
    assert sorted(index._rows.tolist()) == list(range(store.n))


def test_mosaic_conserves_rows(uniform_ds, uniform_queries):
    store = uniform_ds.store.copy()
    index = MosaicIndex(store, uniform_ds.universe, capacity=20)
    for q in uniform_queries:
        index.execute(q)
    rows = []
    stack = [index._root]
    while stack:
        part = stack.pop()
        if part.is_leaf:
            rows.extend(part.rows.tolist())
        else:
            stack.extend(part.children)
    assert sorted(rows) == list(range(store.n))
