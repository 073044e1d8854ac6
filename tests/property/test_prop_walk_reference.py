"""Differential suite: the vectorized Algorithm-1 walk vs a scalar reference.

``ScalarWalkIndex`` below is Algorithm 1 as the paper states it — bisect
the sorted sibling list, then MBB-test one slice at a time, re-entering
at the same position after a refinement — written against the same
column-store lists and the same Algorithm-2 ``_refine``.  It lives here,
not under ``src/``: the program has exactly one walk.

Hypothesis interleaves ``execute`` / ``execute_batch`` / ``insert`` /
``delete`` / ``compact`` over two indexes fed identical inputs, one per
walk, for every representative and artificial-split strategy.  After
every op the two must agree on the result ids (in order — the walk is
depth-first, left to right in both), on the cumulative ``cracks`` /
``rows_reorganized`` / ``nodes_visited`` / ``objects_tested`` counters and
on the physical row order (so the same forest was built), and the
production index must pass ``validate_structure()``.
"""

from __future__ import annotations

from bisect import bisect_right

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import REPRESENTATIVES, QuasiiConfig, QuasiiIndex
from repro.core.slices import SliceList
from repro.datasets import BoxStore
from repro.geometry import Box
from repro.queries.query import Query

SIDE = 100.0
WORK_COUNTERS = ("cracks", "rows_reorganized", "nodes_visited", "objects_tested")


class ScalarWalkIndex(QuasiiIndex):
    """QUASII with the per-slice walk (the reference, ~30 lines)."""

    def _walk(self, lst, query, keys, leaves):
        dim = lst.level
        key_lo, key_hi = keys[0][dim], keys[1][dim]
        i = max(0, bisect_right(lst.cut_lo.tolist(), key_lo) - 1)
        while i < len(lst) and lst.cut_lo[i] <= key_hi:
            self.stats.nodes_visited += 1
            hit = all(
                lst.mbb_lo[i, k] <= query.hi[k] and query.lo[k] <= lst.mbb_hi[i, k]
                for k in range(query.ndim)
            )
            if hit and self._refine(lst, i, keys):
                continue  # sub-slices spliced in: re-enter at the same position
            if hit and dim == self._config.ndim - 1:
                leaves += [int(lst.begin[i]), int(lst.end[i])]
            elif hit:
                if lst.children[i] is None:
                    lst.children[i] = SliceList(
                        dim + 1, [-np.inf], [lst.begin[i]], [lst.end[i]],
                        lst.mbb_lo[i], lst.mbb_hi[i],
                    )
                    lst.children[i].finalize(
                        self._store, self._config.threshold(dim + 1)
                    )
                self._walk(lst.children[i], query, keys, leaves)
            i += 1


def _boxes(rng, n, ndim, max_side):
    lo = rng.uniform(0, SIDE, size=(n, ndim))
    # Grid-snapped corners make duplicate keys (kmin == kmax slices) common.
    lo = np.round(lo / 5.0) * 5.0
    return lo, lo + rng.uniform(0, max_side, size=(n, ndim))


def _windows(rng, n, ndim):
    lo = rng.uniform(-10, SIDE, size=(n, ndim))
    hi = lo + rng.uniform(0, 50, size=(n, ndim))
    return [Query(window=Box(tuple(a), tuple(b))) for a, b in zip(lo.tolist(), hi.tolist())]


@st.composite
def stream(draw):
    ndim = draw(st.sampled_from([2, 3]))
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    data = _boxes(rng, draw(st.integers(1, 150)), ndim, 12.0)
    ops = []
    for _ in range(draw(st.integers(1, 14))):
        kind = draw(
            st.sampled_from(["execute", "execute", "batch", "insert", "delete", "compact"])
        )
        if kind == "execute":
            ops.append((kind, _windows(rng, 1, ndim)[0]))
        elif kind == "batch":
            ops.append((kind, _windows(rng, draw(st.integers(1, 6)), ndim)))
        elif kind == "insert":
            # Small batches coalesce, large ones take the STR bulk load.
            ops.append((kind, _boxes(rng, draw(st.sampled_from([1, 4, 40])), ndim, 12.0)))
        elif kind == "delete":
            ops.append((kind, (draw(st.integers(1, 40)), int(rng.integers(2**31)))))
        else:
            ops.append((kind, None))
    return ndim, data, ops


@pytest.mark.parametrize("artificial_split", QuasiiIndex.ARTIFICIAL_SPLITS)
@pytest.mark.parametrize("representative", REPRESENTATIVES)
@given(case=stream())
@settings(max_examples=25, deadline=None)
def test_vectorized_walk_matches_scalar_reference(representative, artificial_split, case):
    ndim, (lo, hi), ops = case
    config = QuasiiConfig(ndim, (16, 8, 4)[-ndim:])
    new, ref = (
        cls(
            BoxStore(lo.copy(), hi.copy()),
            config,
            representative=representative,
            artificial_split=artificial_split,
            max_runs=2,
            bulk_flush_threshold=30,
        )
        for cls in (QuasiiIndex, ScalarWalkIndex)
    )
    for kind, payload in ops:
        if kind == "execute":
            assert new.execute(payload).ids.tolist() == ref.execute(payload).ids.tolist()
        elif kind == "batch":
            got, want = new.execute_batch(payload), ref.execute_batch(payload)
            assert [r.ids.tolist() for r in got] == [r.ids.tolist() for r in want]
        elif kind == "insert":
            assert new.insert(*payload).tolist() == ref.insert(*payload).tolist()
        elif kind == "delete":
            count, seed = payload
            # Live ids, staged ones included; the same set on both sides.
            live = np.sort(new.execute(Query(window=Box((-1e9,) * ndim, (1e9,) * ndim))).ids)
            ref.execute(Query(window=Box((-1e9,) * ndim, (1e9,) * ndim)))
            if live.size == 0:
                continue
            victims = np.random.default_rng(seed).choice(
                live, size=min(count, live.size), replace=False
            )
            assert new.delete(victims) == ref.delete(victims)
        else:
            assert new.compact() == ref.compact()
        for counter in WORK_COUNTERS:
            assert getattr(new.stats, counter) == getattr(ref.stats, counter), (
                f"{counter} diverged after {kind}"
            )
        assert np.array_equal(new.store.ids, ref.store.ids), "row order diverged"
        assert new.slice_counts() == ref.slice_counts()
        new.validate_structure()
