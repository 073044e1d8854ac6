"""Property tests for structural helpers: STR packing, SliceList probing,
grid assignment, and the gather-ranges kernel."""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.grid import UniformGridIndex
from repro.baselines.rtree import str_pack
from repro.core.slices import SliceList
from repro.datasets import BoxStore
from repro.geometry import Box
from repro.queries import Query
from repro.util import gather_ranges

INF = float("inf")


@given(st.integers(1, 400), st.integers(1, 80), st.integers(0, 2**31 - 1))
@settings(max_examples=60, deadline=None)
def test_str_pack_partitions_rows(n, capacity, seed):
    rng = np.random.default_rng(seed)
    lo = rng.uniform(0, 100, size=(n, 3))
    hi = lo + rng.uniform(0, 5, size=(n, 3))
    runs = str_pack(lo, hi, capacity)
    assert all(1 <= r.size <= capacity for r in runs)
    assert sorted(np.concatenate(runs).tolist()) == list(range(n))


@given(st.data())
@settings(max_examples=80)
def test_slicelist_probe_range_matches_linear_scan(data):
    # Build a valid sibling run with strictly increasing cut bounds.
    n_slices = data.draw(st.integers(1, 12))
    cuts = sorted(
        data.draw(
            st.lists(
                st.floats(-1e6, 1e6, allow_nan=False),
                min_size=n_slices - 1,
                max_size=n_slices - 1,
                unique=True,
            )
        )
    )
    pieces = []
    begin = 0
    for cut in [-INF, *cuts]:
        end = begin + data.draw(st.integers(1, 5))
        pieces.append((cut, begin, end, -INF, INF))
        begin = end
    lst = SliceList.from_pieces(0, pieces, np.full(2, -INF), np.full(2, INF))
    key_lo = data.draw(st.floats(-2e6, 2e6, allow_nan=False))
    key_hi = key_lo + data.draw(st.floats(0, 1e6, allow_nan=False))
    window = np.zeros(2), np.ones(2)
    start, stop, hits = lst.probe(key_lo, key_hi, *window)
    # Linear reference (Algorithm 1): start at the last slice whose cut
    # bound is <= the lower key, stop at the first whose bound is above
    # the upper key; open boxes make every slice in between a hit.
    expected_start = max(
        (i for i, (cut, *_) in enumerate(pieces) if cut <= key_lo), default=0
    )
    expected_stop = sum(cut <= key_hi for cut, *_ in pieces)
    assert (start, stop) == (expected_start, expected_stop)
    assert hits == list(range(start, stop))


@given(st.integers(1, 10), st.integers(2, 120), st.integers(0, 2**31 - 1))
@settings(max_examples=40, deadline=None)
def test_grid_replication_covers_query_extension(parts, n, seed):
    """Both assignment strategies answer identically on random windows."""
    rng = np.random.default_rng(seed)
    lo = rng.uniform(0, 100, size=(n, 2))
    hi = lo + rng.uniform(0, 30, size=(n, 2))
    hi = np.minimum(hi, 100.0)
    universe = Box((0.0, 0.0), (100.0, 100.0))
    a = UniformGridIndex(BoxStore(lo, hi), universe, parts, "query_extension")
    b = UniformGridIndex(BoxStore(lo.copy(), hi.copy()), universe, parts, "replication")
    a.build()
    b.build()
    for i in range(3):
        qlo = rng.uniform(-5, 100, size=2)
        qhi = qlo + rng.uniform(0, 60, size=2)
        q = Query(Box(tuple(qlo), tuple(qhi)), seq=i)
        assert np.array_equal(np.sort(a.execute(q).ids), np.sort(b.execute(q).ids))


@given(
    st.lists(
        st.tuples(st.integers(0, 1000), st.integers(0, 50)),
        min_size=0,
        max_size=60,
    )
)
def test_gather_ranges_property(segments):
    starts = np.array([s for s, _ in segments], dtype=np.int64)
    ends = np.array([s + l for s, l in segments], dtype=np.int64)
    expected: list[int] = []
    for s, l in segments:
        expected.extend(range(s, s + l))
    assert gather_ranges(starts, ends).tolist() == expected
