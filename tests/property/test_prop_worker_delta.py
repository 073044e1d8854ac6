"""Property test: a worker's warm copy tracks its driver shard, delta by delta.

The worker half of the process tier's delta protocol, driven in the test
process — no fork, no pipe: a real driver-side :class:`Shard` is armed
the way :class:`~repro.parallel.pool.ProcessPool` arms one, its base is
published and attached, and a :class:`~repro.parallel.worker._ShardState`
is built over the attached view exactly as ``worker_main`` builds it.
Hypothesis then interleaves inserts, deletes, compactions, reinserts of
deleted ids, queries and *syncs* (drain the op log into a
:class:`~repro.parallel.shm.ShardDelta`, apply it) — several mutations
may pile into one delta, so replay order is exercised too.

After every sync:

* the worker store's ``live_fingerprint()`` equals the driver shard's,
  the worker accepted every id the driver's gate admitted, and it holds
  no tombstone the driver's store has dropped (its id gate is never the
  stricter one);
* ``validate_structure()`` holds on the worker's forest;
* the worker's index is the object it started with and its crack
  counters never went down — a write does not cost the warm forest.

Every query is answered by the worker and checked against Scan.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings

from repro.baselines import ScanIndex
from repro.core import QuasiiIndex
from repro.datasets import BoxStore
from repro.errors import DatasetError
from repro.geometry import Box
from repro.parallel import SharedStoreView, publish_delta, publish_segment
from repro.parallel.worker import _ShardState
from repro.queries import Query
from repro.sharding.shard import Shard
from tests.property._interleavings import (
    BASE_KINDS,
    SEEDS,
    dataset_and_ops,
    full_window,
)

KINDS = (*BASE_KINDS, "compact", "reinsert", "sync", "sync")
PAYLOADS = {"reinsert": SEEDS}


class _Pair:
    """A driver shard, its attached worker state, and the Scan referee."""

    def __init__(self, lo: np.ndarray, hi: np.ndarray) -> None:
        ids = np.arange(lo.shape[0], dtype=np.int64)
        self.scan = ScanIndex(BoxStore(lo.copy(), hi.copy(), ids.copy()))
        self.shard = Shard(0, QuasiiIndex, 1, lo.copy(), hi.copy(), ids)
        self.next_id = int(ids.size)
        self.deleted: list[int] = []
        spec, self.base = publish_segment(self.shard.store, 0, 0)
        self.shard.oplog = []
        self.state = _ShardState(SharedStoreView.attach(spec, True))
        self.index = self.state.index
        self.cracks = 0

    def sync(self) -> None:
        """What the pool does before a batch, then what the worker does."""
        shard, state = self.shard, self.state
        shard.flush_updates()
        delta, rows = publish_delta(shard.oplog, 0, 0)
        shard.oplog.clear()
        try:
            state.apply(delta, shard.owned_count, True)
        finally:
            if rows is not None:
                rows.close()
                rows.unlink()
        assert state.index is self.index
        state.index.flush_updates()
        assert (
            state.index.store.live_fingerprint()
            == shard.store.live_fingerprint()
        )
        mine, theirs = state.index.store, shard.store
        assert set(mine.ids[~mine.live]) <= set(theirs.ids[~theirs.live])
        state.index.validate_structure()
        assert state.index.stats.cracks >= self.cracks
        self.cracks = state.index.stats.cracks

    def close(self) -> None:
        self.state.close()
        self.base.close()
        self.base.unlink()


@given(
    dataset_and_ops(
        kinds=KINDS, payloads=PAYLOADS, min_rows=120, max_rows=400, max_ops=16
    )
)
@settings(max_examples=25, deadline=None)
def test_worker_copy_tracks_the_driver_shard(case):
    (lo, hi), ops = case
    pair = _Pair(lo, hi)
    shard, scan = pair.shard, pair.scan
    try:
        for kind, payload in ops:
            if kind == "query":
                pair.sync()
                got = pair.state.index.execute(payload)
                assert np.array_equal(
                    np.sort(got.ids), np.sort(scan.execute(payload).ids)
                )
            elif kind == "insert":
                blo, bhi = payload
                ids = np.arange(
                    pair.next_id, pair.next_id + blo.shape[0], dtype=np.int64
                )
                pair.next_id += blo.shape[0]
                shard.apply_insert(blo, bhi, ids)
                scan.insert(blo, bhi, ids)
            elif kind == "delete":
                count, seed = payload
                live = np.sort(scan.execute(full_window(2)).ids)
                victims = np.random.default_rng(seed).choice(
                    live, size=min(count, live.size), replace=False
                )
                if victims.size:
                    shard.apply_delete(victims)
                    scan.delete(victims)
                    pair.deleted += victims.tolist()
            elif kind == "compact":
                shard.compact()
                scan.compact()
            elif kind == "reinsert":
                if not pair.deleted:
                    continue
                rng = np.random.default_rng(payload)
                again = np.array(
                    [pair.deleted[rng.integers(len(pair.deleted))]],
                    dtype=np.int64,
                )
                blo = rng.uniform(0, 90, size=(1, 2))
                try:
                    scan.insert(blo, blo + 5.0, again)
                except DatasetError:
                    continue  # live again, or its tombstone is still there
                # The driver shard holds no id Scan does not, so it
                # admits the row — and the worker must do the same.
                shard.apply_insert(blo, blo + 5.0, again)
            else:
                pair.sync()
        pair.sync()
        assert pair.state.index.store.live_count == scan.store.live_count
    finally:
        pair.close()


def test_reinsert_after_compaction_reaches_a_warm_worker():
    rng = np.random.default_rng(3)
    lo = rng.uniform(0, 90, size=(300, 2))
    pair = _Pair(lo, lo + 5.0)
    shard, everything = pair.shard, full_window(2)
    try:
        for _ in range(4):  # warm the worker's forest
            qlo = rng.uniform(0, 60, size=2)
            pair.state.index.execute(Query(Box(tuple(qlo), tuple(qlo + 20))))
        warm = pair.state.index.stats.cracks
        assert warm > 0
        pair.sync()
        gone = np.array([7, 8], dtype=np.int64)
        shard.apply_delete(gone)
        pair.sync()  # the worker tombstones 7 and 8 ...
        assert pair.state.index.store.n_dead == 2
        shard.compact()
        shard.apply_insert(lo[:1] + 1.0, lo[:1] + 2.0, gone[:1])
        pair.sync()  # ... and must have dropped them before 7 returns
        assert pair.state.index.store.n_dead == 0
        got = pair.state.index.execute(everything).ids
        assert np.array_equal(
            np.sort(got), np.delete(np.arange(300, dtype=np.int64), 8)
        )
        assert pair.state.index.stats.cracks >= warm
    finally:
        pair.close()
