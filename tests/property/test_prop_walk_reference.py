"""Differential suite: the vectorized Algorithm-1 walk vs a scalar reference.

``ScalarWalkIndex`` below is Algorithm 1 as the paper states it — bisect
the sorted sibling list, then MBB-test one slice at a time, re-entering
at the same position after a refinement — written against the same
column-store lists and the same Algorithm-2 ``_refine``.  It answers
``execute_batch`` one query at a time, so every query of its batches
takes that walk, while the production index answers warm batch queries
through its level-synchronous frontier.  It lives here, not under
``src/``: the program has exactly one scalar walk.

Hypothesis interleaves ``execute`` / ``execute_batch`` / ``insert`` /
``delete`` / ``compact`` over two indexes fed identical inputs, one per
walk.  After every op the two must agree on the result ids (in order —
the walk is depth-first, left to right in both), on the cumulative
``cracks`` / ``rows_reorganized`` / ``nodes_visited`` / ``objects_tested``
counters and on the physical row order (so the same forest was built),
and the production index must pass ``validate_structure()``.  Every
answer is also checked against :class:`Shadow`, an exhaustive numpy
predicate over the live boxes that shares no code with the program.

One case draws boxes *and* windows on an integer lattice, where
a box that only touches a window edge, or a key equal to a crack bound,
is common rather than a probability-zero event.
"""

from __future__ import annotations

from bisect import bisect_right

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import QuasiiConfig, QuasiiIndex
from repro.core.slices import SliceList
from repro.datasets import BoxStore
from repro.geometry import Box
from repro.queries.query import Query

SIDE = 100.0
WORK_COUNTERS = ("cracks", "rows_reorganized", "nodes_visited", "objects_tested")


class ScalarWalkIndex(QuasiiIndex):
    """QUASII with the per-slice walk (the reference, ~30 lines)."""

    def _execute_batch(self, queries):
        # A query at a time: none of them reaches the batch frontier.
        return [QuasiiIndex._execute_batch(self, [q])[0] for q in queries]

    def _frontier(self, queries, plan=False):
        assert plan, "the reference answers every query through _walk"
        return super()._frontier(queries, plan)

    def _walk(self, lst, query, keys, leaves):
        dim = lst.level
        key_lo, key_hi = keys[0][dim], keys[2][dim]
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


class Shadow:
    """The live boxes by id, answered by an exhaustive closed-box test."""

    def __init__(self, lo, hi):
        self.boxes = dict(enumerate(zip(lo.tolist(), hi.tolist())))

    def insert(self, ids, lo, hi):
        self.boxes.update(zip(ids.tolist(), zip(lo.tolist(), hi.tolist())))

    def delete(self, ids):
        for i in ids.tolist():
            del self.boxes[i]

    def query(self, window):
        ids = np.array(list(self.boxes), dtype=np.int64)
        if ids.size == 0:
            return []
        lo, hi = (np.array(c, dtype=np.float64) for c in zip(*self.boxes.values()))
        hit = np.all(lo <= np.array(window.hi), axis=1) & np.all(
            hi >= np.array(window.lo), axis=1
        )
        return np.sort(ids[hit]).tolist()


def _boxes(rng, n, ndim, max_side, lattice):
    if lattice:
        lo = rng.integers(0, 25, size=(n, ndim)).astype(np.float64)
        return lo, lo + rng.integers(0, 4, size=(n, ndim))
    lo = rng.uniform(0, SIDE, size=(n, ndim))
    # Grid-snapped corners make duplicate keys (kmin == kmax slices) common.
    lo = np.round(lo / 5.0) * 5.0
    return lo, lo + rng.uniform(0, max_side, size=(n, ndim))


def _windows(rng, n, ndim, lattice):
    if lattice:
        lo = rng.integers(-2, 25, size=(n, ndim)).astype(np.float64)
        hi = lo + rng.integers(0, 8, size=(n, ndim))
    else:
        lo = rng.uniform(-10, SIDE, size=(n, ndim))
        hi = lo + rng.uniform(0, 50, size=(n, ndim))
    return [Query(window=Box(tuple(a), tuple(b))) for a, b in zip(lo.tolist(), hi.tolist())]


@st.composite
def stream(draw, lattice):
    ndim = draw(st.sampled_from([2, 3]))
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    data = _boxes(rng, draw(st.integers(1, 150)), ndim, 12.0, lattice)
    ops = []
    for _ in range(draw(st.integers(1, 14))):
        kind = draw(
            st.sampled_from(["execute", "execute", "batch", "insert", "delete", "compact"])
        )
        if kind == "execute":
            ops.append((kind, _windows(rng, 1, ndim, lattice)[0]))
        elif kind == "batch":
            ops.append((kind, _windows(rng, draw(st.integers(1, 6)), ndim, lattice)))
        elif kind == "insert":
            # Small batches coalesce, large ones take the STR bulk load.
            k = draw(st.sampled_from([1, 4, 40]))
            ops.append((kind, _boxes(rng, k, ndim, 12.0, lattice)))
        elif kind == "delete":
            ops.append((kind, (draw(st.integers(1, 40)), int(rng.integers(2**31)))))
        else:
            ops.append((kind, None))
    return ndim, data, ops


@pytest.mark.parametrize("lattice", [False, True], ids=["continuous", "lattice"])
@given(data=st.data())
@settings(max_examples=75, deadline=None)
def test_vectorized_walk_matches_scalar_reference(lattice, data):
    ndim, (lo, hi), ops = data.draw(stream(lattice))
    # The top threshold doubles as the bulk-load size for appended runs.
    config = QuasiiConfig(ndim, (16, 8, 4)[-ndim:])
    new, ref = (
        cls(BoxStore(lo.copy(), hi.copy()), config, max_runs=2)
        for cls in (QuasiiIndex, ScalarWalkIndex)
    )
    shadow = Shadow(lo, hi)
    for kind, payload in ops:
        if kind == "execute":
            got = new.execute(payload).ids.tolist()
            assert got == ref.execute(payload).ids.tolist()
            assert sorted(got) == shadow.query(payload.window)
        elif kind == "batch":
            got, want = new.execute_batch(payload), ref.execute_batch(payload)
            assert [r.ids.tolist() for r in got] == [r.ids.tolist() for r in want]
            for q, r in zip(payload, got):
                assert sorted(r.ids.tolist()) == shadow.query(q.window)
        elif kind == "insert":
            ids = new.insert(*payload)
            assert ids.tolist() == ref.insert(*payload).tolist()
            shadow.insert(ids, *payload)
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
            shadow.delete(victims)
        else:
            assert new.compact() == ref.compact()
        for counter in WORK_COUNTERS:
            assert getattr(new.stats, counter) == getattr(ref.stats, counter), (
                f"{counter} diverged after {kind}"
            )
        assert np.array_equal(new.store.ids, ref.store.ids), "row order diverged"
        assert new.slice_counts() == ref.slice_counts()
        new.validate_structure()
