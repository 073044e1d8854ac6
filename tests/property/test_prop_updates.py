"""Property tests for the update subsystem (mixed read/write workloads).

Hypothesis drives an initial dataset plus an arbitrary interleaving of
window queries, insert batches, and delete batches.  Two invariants must
survive every interleaving:

* **Oracle agreement** — QUASII answers each query with exactly the
  live-row set Scan returns.
* **Ledger agreement** — each index's store ends with precisely the live
  ``(id, box)`` multiset implied by the history of applied updates (the
  store's documented multiset-of-live-rows invariant).
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings

from repro.baselines import ScanIndex
from repro.core import QuasiiConfig, QuasiiIndex
from repro.datasets import BoxStore
from repro.updates import UpdateLedger
from tests.property._interleavings import (
    dataset_and_ops,
    full_window,
)


@given(dataset_and_ops(max_ops=14))
@settings(max_examples=50, deadline=None)
def test_interleaved_updates_match_scan_and_ledger(case):
    (lo, hi), ops = case
    scan = ScanIndex(BoxStore(lo.copy(), hi.copy()))
    quasii = QuasiiIndex(BoxStore(lo.copy(), hi.copy()), QuasiiConfig(2, (8, 4)))
    indexes = [scan, quasii]
    ledger = UpdateLedger(scan.store)

    for kind, payload in ops:
        if kind == "query":
            query = payload
            expect = np.sort(scan.execute(query).ids)
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
        else:
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

    # Final full-window query: the complete live set, from every index.
    full = full_window(2)
    expect = np.sort(scan.execute(full).ids)
    assert np.array_equal(expect, ledger.live_ids())
    for idx in indexes[1:]:
        assert np.array_equal(np.sort(idx.execute(full).ids), expect)

    # The stores themselves hold exactly the ledger's live multiset.
    for idx in indexes:
        ledger.assert_matches(idx.store)
    quasii.validate_structure()


@given(dataset_and_ops(max_ops=14))
@settings(max_examples=25, deadline=None)
def test_quasii_structure_survives_every_interleaving_step(case):
    (lo, hi), ops = case
    store = BoxStore(lo.copy(), hi.copy())
    ledger = UpdateLedger(store)
    idx = QuasiiIndex(store, QuasiiConfig(2, (6, 3)), max_runs=2)
    for kind, payload in ops:
        if kind == "query":
            idx.execute(payload)
        elif kind == "insert":
            blo, bhi = payload
            ledger.record_insert(blo, bhi, idx.insert(blo, bhi))
        else:
            count, victim_seed = payload
            live = ledger.live_ids()
            count = min(count, live.size)
            if count == 0:
                continue
            victims = np.random.default_rng(victim_seed).choice(
                live, size=count, replace=False
            )
            idx.delete(victims)
            ledger.record_delete(victims)
        idx.validate_structure()
    # Drain any still-buffered rows, then check the ledger one last time.
    idx.execute(full_window(2))
    idx.validate_structure()
    ledger.assert_matches(store)
