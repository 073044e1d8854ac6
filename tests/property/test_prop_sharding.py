"""Property tests for the sharded serving engine.

Hypothesis drives an initial dataset plus an arbitrary interleaving of
window queries, insert batches, and delete batches against a
:class:`ShardedIndex` for shard counts K ∈ {1, 2, 7}.  Invariants that must survive every interleaving:

* **Oracle agreement** — every query returns exactly the live-row set
  the Scan oracle returns, and a final full-window query returns the
  complete live id set.
* **Ledger agreement** — the union of the shards' rows ends with
  precisely the live ``(id, box)`` multiset implied by the applied
  updates.
* **Routing consistency** — every live object is owned by exactly one
  shard and the ownership map agrees with the shard stores.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings

from repro.baselines import ScanIndex
from repro.core import QuasiiConfig, QuasiiIndex
from repro.datasets import BoxStore
from repro.sharding import ShardedIndex
from repro.updates import UpdateLedger
from tests.property._interleavings import (
    dataset_and_ops,
    full_window,
    shard_union,
)

SHARD_COUNTS = (1, 2, 7)


def _small_quasii(store: BoxStore) -> QuasiiIndex:
    # A handcrafted tiny ladder keeps refinement exercised at toy sizes.
    return QuasiiIndex(store, QuasiiConfig(2, (8, 4)), max_runs=2)


# Ids name the tiling as ``engine.name`` spells it (``Sharded[strxK]``).
@pytest.mark.parametrize("n_shards", SHARD_COUNTS, ids=lambda k: f"{k}-str")
@given(case=dataset_and_ops())
@settings(max_examples=15, deadline=None)
def test_sharded_matches_scan_under_interleavings(n_shards, case):
    (lo, hi), ops = case
    scan = ScanIndex(BoxStore(lo.copy(), hi.copy()))
    engine = ShardedIndex(
        BoxStore(lo.copy(), hi.copy()),
        n_shards=n_shards,
        index_factory=_small_quasii,
    )
    engine.build()
    ledger = UpdateLedger(scan.store)

    for kind, payload in ops:
        if kind == "query":
            query = payload
            expect = np.sort(scan.execute(query).ids)
            got = np.sort(engine.execute(query).ids)
            assert np.array_equal(got, expect), (
                f"{engine.name} diverged from Scan on query {query.seq}"
            )
        elif kind == "insert":
            blo, bhi = payload
            expect_ids = scan.insert(blo, bhi)
            got_ids = engine.insert(blo, bhi)
            assert np.array_equal(got_ids, expect_ids), "id streams diverged"
            ledger.record_insert(blo, bhi, expect_ids)
        else:
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

    # Final full-window query: the complete live set from the engine.
    full = full_window(2)
    expect = np.sort(scan.execute(full).ids)
    assert np.array_equal(expect, ledger.live_ids())
    assert np.array_equal(np.sort(engine.execute(full).ids), expect)

    # The shards hold exactly the ledger's live multiset, the ownership
    # map agrees with the shard stores, and every shard-level QUASII
    # kept its structural invariants.
    ledger.assert_matches(shard_union(engine))
    engine.validate_routing()
    for shard in engine.shards:
        shard.index.validate_structure()
