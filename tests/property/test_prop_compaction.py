"""Property tests for physical compaction under arbitrary interleavings.

Hypothesis drives an initial dataset plus an arbitrary interleaving of
window queries, insert batches, delete batches, and **compactions**.
Invariants that must survive every interleaving:

* **Fingerprint preservation** — ``live_fingerprint()`` is identical
  immediately before and after every compaction (the live ``(id, box)``
  multiset is compaction-invariant), and every store holds exactly the
  ledger's live multiset at the end.
* **Oracle agreement** — every query returns exactly the live-row set
  the Scan oracle returns, no matter how many compactions happened in
  between; a final full-window query returns the complete live id set.
* **Physical reclamation** — after a compaction the store carries no
  tombstones (``n == live_count``), and QUASII's defragmented slice
  forest passes ``validate_structure()``.

The same interleavings run against the sharded engine for K ∈ {1, 2, 7},
where compaction additionally re-tightens shard pruning MBBs and must
keep the id→shard routing map consistent; the engine's live multiset
there is the union of its shards' rows.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings

from repro.baselines import ScanIndex
from repro.core import QuasiiConfig, QuasiiIndex
from repro.datasets import BoxStore
from repro.sharding import ShardedIndex
from tests.ledger import UpdateLedger, closed_box_ids
from tests.property._interleavings import (
    BASE_KINDS,
    dataset_and_ops,
    full_window,
    shard_union,
)

KINDS = (*BASE_KINDS, "compact")

SHARD_COUNTS = (1, 2, 7)


@given(dataset_and_ops(kinds=KINDS, max_delete=6))
@settings(max_examples=40, deadline=None)
def test_compaction_preserves_fingerprint_and_scan_agreement(case):
    (lo, hi), ops = case
    scan = ScanIndex(BoxStore(lo.copy(), hi.copy()))
    quasii = QuasiiIndex(BoxStore(lo.copy(), hi.copy()), QuasiiConfig(2, (8, 4)))
    indexes = [scan, quasii]
    ledger = UpdateLedger(scan.store)

    for kind, payload in ops:
        if kind == "query":
            query = payload
            expect = np.sort(scan.execute(query).ids)
            assert np.array_equal(expect, closed_box_ids(ledger, query))
            for idx in indexes[1:]:
                got = np.sort(idx.execute(query).ids)
                assert np.array_equal(got, expect), (
                    f"{idx.name} diverged from Scan on query {query.seq}"
                )
        elif kind == "insert":
            blo, bhi = payload
            assigned = [idx.insert(blo, bhi) for idx in indexes]
            for ids in assigned[1:]:
                assert np.array_equal(ids, assigned[0]), "id streams diverged"
            ledger.record_insert(blo, bhi, assigned[0])
        elif kind == "delete":
            count, victim_seed = payload
            live = ledger.live_ids()
            count = min(count, live.size)
            if count == 0:
                continue
            victims = np.random.default_rng(victim_seed).choice(
                live, size=count, replace=False
            )
            for idx in indexes:
                assert idx.delete(victims) == count
            ledger.record_delete(victims)
        else:  # compact
            for idx in indexes:
                fp = idx.store.live_fingerprint()
                reclaimed = idx.compact()
                assert reclaimed >= 0
                assert idx.store.live_fingerprint() == fp, (
                    f"{idx.name} compaction changed the live multiset"
                )
                assert idx.store.n == idx.store.live_count, (
                    f"{idx.name} left tombstones after compaction"
                )
            quasii.validate_structure()

    full = full_window(2)
    expect = np.sort(scan.execute(full).ids)
    assert np.array_equal(expect, ledger.live_ids())
    for idx in indexes[1:]:
        assert np.array_equal(np.sort(idx.execute(full).ids), expect)
    for idx in indexes:
        ledger.assert_matches(idx.store)
    quasii.validate_structure()


@pytest.mark.parametrize("n_shards", SHARD_COUNTS)
@given(case=dataset_and_ops(kinds=KINDS, max_delete=6))
@settings(max_examples=15, deadline=None)
def test_sharded_compaction_under_interleavings(n_shards, case):
    (lo, hi), ops = case
    scan = ScanIndex(BoxStore(lo.copy(), hi.copy()))
    engine = ShardedIndex(
        BoxStore(lo.copy(), hi.copy()),
        n_shards=n_shards,
        config=QuasiiConfig(2, (8, 4)),
        max_runs=2,
    )
    engine.build()
    ledger = UpdateLedger(scan.store)

    seq = 0
    for kind, payload in ops:
        if kind == "query":
            query = payload
            seq += 1
            expect = np.sort(scan.execute(query).ids)
            assert np.array_equal(expect, closed_box_ids(ledger, query))
            assert np.array_equal(np.sort(engine.execute(query).ids), expect)
        elif kind == "insert":
            blo, bhi = payload
            expect_ids = scan.insert(blo, bhi)
            got_ids = engine.insert(blo, bhi)
            assert np.array_equal(got_ids, expect_ids)
            ledger.record_insert(blo, bhi, expect_ids)
        elif kind == "delete":
            count, victim_seed = payload
            live = ledger.live_ids()
            count = min(count, live.size)
            if count == 0:
                continue
            victims = np.random.default_rng(victim_seed).choice(
                live, size=count, replace=False
            )
            assert scan.delete(victims) == count
            assert engine.delete(victims) == count
            ledger.record_delete(victims)
        else:  # compact: alternate the policy verb with the full verb
            scan.compact()
            fp = shard_union(engine).live_fingerprint()
            if seq % 2:
                engine.maybe_compact(0.0)
            else:
                engine.compact()
            assert shard_union(engine).live_fingerprint() == fp
            assert not any(s.store.n_dead for s in engine.shards)
            engine.validate_routing()

    full = full_window(2)
    expect = np.sort(scan.execute(full).ids)
    assert np.array_equal(expect, ledger.live_ids())
    assert np.array_equal(np.sort(engine.execute(full).ids), expect)
    ledger.assert_matches(shard_union(engine))
    engine.validate_routing()
    for shard in engine.shards:
        shard.index.validate_structure()
