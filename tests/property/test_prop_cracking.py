"""Property tests for the cracking kernels (DESIGN.md invariant #4)."""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Frame, crack, crack_values, range_dim_stats
from repro.datasets import BoxStore

FLOATS = st.floats(min_value=-1e9, max_value=1e9, allow_nan=False)
KEYS = st.lists(FLOATS, min_size=1, max_size=200)


def key_frame(keys: list[float]) -> Frame:
    lo = np.array(keys)[:, None]
    return Frame(BoxStore(lo, lo + 1.0), 0, len(keys), 0)


@given(KEYS, FLOATS)
def test_two_way_partition_postcondition(keys, bound):
    frame = key_frame(keys)
    (split,) = crack(frame, 0, len(keys), [bound])
    assert sorted(frame.perm.tolist()) == list(range(len(keys)))
    assert np.array_equal(frame.lo, np.array(keys)[frame.perm])
    assert np.all(frame.lo[:split] < bound)
    assert np.all(frame.lo[split:] >= bound)


@given(KEYS, st.tuples(FLOATS, FLOATS).filter(lambda t: t[0] < t[1]))
def test_three_way_partition_postcondition(keys, bounds):
    lo, hi = bounds
    frame = key_frame(keys)
    s0, s1 = crack(frame, 0, len(keys), [lo, hi])
    assert np.array_equal(frame.lo, np.array(keys)[frame.perm])
    assert np.all(frame.lo[:s0] < lo)
    assert np.all((frame.lo[s0:s1] >= lo) & (frame.lo[s0:s1] < hi))
    assert np.all(frame.lo[s1:] >= hi)


@given(
    st.lists(
        st.tuples(
            st.floats(-1e4, 1e4, allow_nan=False),
            st.floats(0, 100, allow_nan=False),
        ),
        min_size=2,
        max_size=100,
    ),
    st.data(),
)
@settings(max_examples=60)
def test_store_crack_preserves_multiset_and_ranges(rows, data):
    lo = np.array([[r[0]] for r in rows])
    hi = np.array([[r[0] + r[1]] for r in rows])
    store = BoxStore(lo, hi)
    n = store.n
    begin = data.draw(st.integers(0, n - 1))
    end = data.draw(st.integers(begin + 1, n))
    bound = data.draw(st.floats(-1e4, 1e4, allow_nan=False))
    fp = store.fingerprint()
    outside_before = (
        store.ids[:begin].tolist(),
        store.ids[end:].tolist(),
    )
    frame = Frame(store, begin, end, 0)
    split = begin + crack(frame, 0, end - begin, [bound])[0]
    frame.commit()
    assert store.fingerprint() == fp
    assert begin <= split <= end
    assert np.all(store.lo[begin:split, 0] < bound)
    assert np.all(store.lo[split:end, 0] >= bound)
    assert store.ids[:begin].tolist() == outside_before[0]
    assert store.ids[end:].tolist() == outside_before[1]


@given(
    st.lists(st.integers(0, 2**30), min_size=1, max_size=200),
    st.integers(0, 2**30),
)
def test_crack_values_postcondition(values, bound):
    codes = np.array(values, dtype=np.uint64)
    payload = np.arange(len(values))
    pairs_before = sorted(zip(codes.tolist(), payload.tolist()))
    split = crack_values(codes, payload, 0, len(values), bound)
    assert np.all(codes[:split] < bound)
    assert np.all(codes[split:] >= bound)
    assert sorted(zip(codes.tolist(), payload.tolist())) == pairs_before


def _reference_crack(lo, hi, ids, a, b, bounds):
    """One stable crack of rows ``[a, b)`` applied directly to the arrays:
    a stable sort on the bucket number, the kernel's definition."""
    buckets = np.searchsorted(np.array(bounds), lo[a:b, 0], "right")
    order = np.argsort(buckets, kind="stable")
    for column in (lo, hi, ids):
        column[a:b] = column[a:b][order]
    return [a + int(np.count_nonzero(buckets <= i)) for i in range(len(bounds))]


def _reference_stats(lo, hi, a, b):
    return lo[a:b, 0].min(), lo[a:b, 0].max(), hi[a:b, 0].max()


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_nested_cracks_compose_into_one_permutation(data):
    """Random nested 2-/3-way cracks on a frame, committed once, equal the
    same cracks applied one by one to the rows themselves."""
    n = data.draw(st.integers(1, 60))
    begin = data.draw(st.integers(0, 3))
    total = begin + n + data.draw(st.integers(0, 3))
    # Few distinct values: duplicate keys are where stability shows.
    cell = st.integers(0, 8).map(float)
    lo = np.array(data.draw(st.lists(st.tuples(cell, cell), min_size=total, max_size=total)))
    hi = lo + np.array(data.draw(st.lists(st.tuples(cell, cell), min_size=total, max_size=total)))
    store = BoxStore(lo.copy(), hi.copy())
    ref_lo, ref_hi, ref_ids = lo.copy(), hi.copy(), np.arange(total)
    frame = Frame(store, begin, begin + n, 0)
    pieces = [(0, n)]
    for _ in range(data.draw(st.integers(0, 6))):
        a, b = pieces.pop(data.draw(st.integers(0, len(pieces) - 1)))
        bounds = sorted(
            data.draw(st.sets(st.integers(0, 20).map(lambda v: v / 2.0), min_size=1, max_size=2))
        )
        splits = crack(frame, a, b, bounds)
        assert [begin + s for s in splits] == _reference_crack(
            ref_lo, ref_hi, ref_ids, begin + a, begin + b, bounds
        )
        edges = [a, *splits, b]
        pieces += [(p, q) for p, q in zip(edges, edges[1:]) if p < q]
        for p, q in pieces:
            assert range_dim_stats(frame, p, q) == _reference_stats(
                ref_lo, ref_hi, begin + p, begin + q
            )
    if frame.perm is not None:
        assert sorted(frame.perm.tolist()) == list(range(n))
    frame.commit()
    assert np.array_equal(store.lo, ref_lo)
    assert np.array_equal(store.hi, ref_hi)
    assert np.array_equal(store.ids, ref_ids)
