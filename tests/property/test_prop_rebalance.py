"""Property tests for query-driven shard rebalancing.

Hypothesis drives an initial dataset plus an arbitrary interleaving of
window queries, insert batches, delete batches, compactions, forced
rebalancing passes, and maintenance ticks against a
:class:`ShardedIndex` for shard counts K ∈ {1, 2, 7}.  Invariants that must survive every interleaving:

* **Oracle agreement** — every query returns exactly the live-row set
  the Scan oracle returns, and a final full-window query returns the
  complete live id set.
* **Fingerprint preservation** — a rebalancing pass, a compaction and
  a maintenance check move rows between or within shards only: the live
  ``(id, box)`` multiset of the union of the shards is bit-identical
  before and after each.
* **Ledger agreement** — the union of the shards ends with precisely
  the live multiset implied by the applied updates.
* **Ownership consistency** — after every pass, each live object is
  owned by exactly one shard, the ownership map agrees with the shard
  stores, and the routing MBBs are re-derived from the migrated stores
  (each shard's pruning MBB contains its store's live bounds).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings

from repro.baselines import ScanIndex
from repro.core import QuasiiConfig, QuasiiIndex
from repro.datasets import BoxStore
from repro.sharding import (
    MaintenancePolicy,
    MaintenanceScheduler,
    Rebalancer,
    ShardedIndex,
)
from repro.updates import UpdateLedger
from tests.property._interleavings import (
    BASE_KINDS,
    dataset_and_ops,
    full_window,
    shard_union,
)

KINDS = (*BASE_KINDS, "rebalance", "compact", "maintain")

SHARD_COUNTS = (1, 2, 7)


def _small_quasii(store: BoxStore) -> QuasiiIndex:
    # A handcrafted tiny ladder keeps refinement exercised at toy sizes.
    return QuasiiIndex(store, QuasiiConfig(2, (8, 4)), max_runs=2)


def _assert_routing_mbbs_fresh(engine: ShardedIndex) -> None:
    """Every shard's pruning MBB must cover its store's live bounds, and
    the stacked routing MBBs must agree with the per-shard boxes (the
    post-migration re-derivation the insert router depends on)."""
    stack_lo, stack_hi = engine._mbb_stacks()
    for shard in engine.shards:
        assert np.array_equal(stack_lo[shard.sid], shard.mbb_lo)
        assert np.array_equal(stack_hi[shard.sid], shard.mbb_hi)
        store = shard.store
        rows = store.live_rows()
        if rows.size:
            assert np.all(shard.mbb_lo <= store.lo[rows].min(axis=0) + 1e-12)
            assert np.all(shard.mbb_hi >= store.hi[rows].max(axis=0) - 1e-12)


# Ids name the tiling as ``engine.name`` spells it (``Sharded[strxK]``).
@pytest.mark.parametrize("n_shards", SHARD_COUNTS, ids=lambda k: f"{k}-str")
@given(case=dataset_and_ops(kinds=KINDS))
@settings(max_examples=10, deadline=None)
def test_rebalancing_preserves_all_invariants(n_shards, case):
    (lo, hi), ops = case
    scan = ScanIndex(BoxStore(lo.copy(), hi.copy()))
    engine = ShardedIndex(
        BoxStore(lo.copy(), hi.copy()),
        n_shards=n_shards,
        index_factory=_small_quasii,
    )
    engine.build()
    ledger = UpdateLedger(scan.store)
    rebalancer = Rebalancer(min_queries=1)
    scheduler = MaintenanceScheduler(
        engine,
        MaintenancePolicy(
            check_every=1, dead_fraction=0.2, max_balance=1.1,
            max_query_skew=1.1, min_queries=1,
        ),
    )

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
        elif kind == "rebalance":
            live_before = shard_union(engine).live_fingerprint()
            result = rebalancer.rebalance(engine)
            assert shard_union(engine).live_fingerprint() == live_before, (
                "rebalancing changed the live multiset"
            )
            if n_shards < 2:
                assert result is None
            else:
                assert result is not None
                assert result.rows_migrated >= 0
            engine.validate_routing()
            _assert_routing_mbbs_fresh(engine)
        elif kind == "compact":
            live_before = shard_union(engine).live_fingerprint()
            engine.compact()
            assert shard_union(engine).live_fingerprint() == live_before, (
                "compaction changed the live multiset"
            )
        else:  # maintain: one full policy-driven maintenance check
            live_before = shard_union(engine).live_fingerprint()
            scheduler.run()
            assert shard_union(engine).live_fingerprint() == live_before, (
                "maintenance changed the live multiset"
            )
            engine.validate_routing()
            _assert_routing_mbbs_fresh(engine)

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
