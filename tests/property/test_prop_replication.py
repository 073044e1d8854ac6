"""Property tests for replicated shard serving under fault interleavings.

Hypothesis drives an initial dataset plus an arbitrary interleaving of
window queries, insert batches, delete batches, compactions, replica
kills, and ledger-replay recoveries against a
:class:`ShardedIndex` for R ∈ {1, 2, 3} and K ∈ {1, 2, 7}.
Invariants that must survive every interleaving:

* **Oracle agreement** — every query returns exactly the live-row set
  the Scan oracle returns, no matter which replicas are dead, and a
  final full-window query returns the complete live id set.
* **Only the primary reads** — a standby's query counter never moves,
  and a killed replica's is frozen from the moment of the kill; the
  primary changes only by dying (a recovery never moves it).
* **Recovery correctness** — a replica rebuilt by ledger replay passes
  ``UpdateLedger.assert_matches`` and carries the same order-insensitive
  live fingerprint as its surviving peers; once every replica is live
  the shard ledger's op log is truncated.
* **Replica lockstep** — at the end of the run (after recovering the
  whole fleet and flushing), every shard's replicas hold identical live
  multisets, and the engine's ownership map still validates.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import ScanIndex
from repro.core import QuasiiConfig, QuasiiIndex
from repro.datasets import BoxStore
from repro.sharding import ShardedIndex
from repro.updates import UpdateLedger
from tests.property._interleavings import (
    BASE_KINDS,
    SEEDS,
    dataset_and_ops,
    full_window,
    shard_union,
)

KINDS = (*BASE_KINDS, "compact", "kill", "kill", "recover")
#: A kill draws (shard seed, replica seed); the suite resolves both.
PAYLOADS = {"kill": st.tuples(SEEDS, SEEDS)}

SHARD_COUNTS = (1, 2, 7)
REPLICATION_FACTORS = (1, 2, 3)


def _small_quasii(store: BoxStore) -> QuasiiIndex:
    # A handcrafted tiny ladder keeps refinement exercised at toy sizes.
    return QuasiiIndex(store, QuasiiConfig(2, (8, 4)), max_runs=2)


def _assert_only_primaries_read(engine, reads: dict) -> None:
    """Since the last call only each shard's primary answered queries:
    no standby and no corpse (``reads``: replica -> queries last seen)."""
    for shard in engine.shards:
        for replica in shard.replicas:
            seen = replica.index.stats.queries
            if replica is not shard.primary():
                assert seen == reads.get(replica, 0), (
                    f"replica ({shard.sid}, {replica.rid}, {replica.state}) "
                    "answered a query without being the primary"
                )
            reads[replica] = seen


def _assert_replicas_in_lockstep(engine) -> None:
    """Every shard's live replicas hold one identical live multiset, and
    the shard ledger's mirror agrees with each of them."""
    for shard in engine.shards:
        live = shard.live_replicas()
        assert live, f"shard {shard.sid} ended with no live replicas"
        fps = {r.store.live_fingerprint() for r in live}
        assert len(fps) == 1, f"shard {shard.sid} replicas diverged"
        if shard.replication == 1:
            assert shard.ledger is None, "an R=1 shard seeded a ledger"
            continue
        for r in live:
            shard.ledger.assert_matches(r.store)


@pytest.mark.parametrize("replication", REPLICATION_FACTORS)
@pytest.mark.parametrize("n_shards", SHARD_COUNTS)
@given(case=dataset_and_ops(kinds=KINDS, payloads=PAYLOADS))
@settings(max_examples=10, deadline=None)
def test_replication_preserves_all_invariants(replication, n_shards, case):
    (lo, hi), ops = case
    scan = ScanIndex(BoxStore(lo.copy(), hi.copy()))
    engine = ShardedIndex(
        BoxStore(lo.copy(), hi.copy()),
        n_shards=n_shards,
        replication=replication,
        index_factory=_small_quasii,
    )
    engine.build()
    ledger = UpdateLedger(scan.store)
    reads: dict = {}

    for kind, payload in ops:
        if kind == "query":
            query = payload
            expect = np.sort(scan.execute(query).ids)
            got = np.sort(engine.execute(query).ids)
            assert np.array_equal(got, expect), (
                f"{engine.name} diverged from Scan on query {query.seq} "
                f"with dead replicas {engine.dead_replicas()}"
            )
            _assert_only_primaries_read(engine, reads)
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
        elif kind == "compact":
            live_before = shard_union(engine).live_fingerprint()
            engine.compact()
            assert shard_union(engine).live_fingerprint() == live_before, (
                "compaction changed the live multiset"
            )
        elif kind == "kill":
            sid_seed, rid_seed = payload
            sid = sid_seed % n_shards
            rid = rid_seed % replication
            shard = engine.shards[sid]
            live = shard.live_replicas()
            # Keep at least one live replica per shard so every query
            # stays answerable (the all-dead error path is unit-tested).
            if len(live) < 2 or not shard.replicas[rid].alive:
                continue
            before = shard.primary()
            assert engine.kill_replica(sid, rid)
            # Failover: the shard contract fields point at a live
            # primary — the same one unless it was the one that died.
            primary = shard.primary()
            assert primary is not None and shard.index is primary.index
            assert primary is before or before.rid == rid
        else:  # recover: replay the lowest dead replica back to life
            dead = sorted(engine.dead_replicas())
            if not dead:
                continue
            sid, rid = dead[0]
            rs = engine.shards[sid]
            peer = rs.primary()
            replica = engine.recover_replica(sid, rid)
            rs.ledger.assert_matches(replica.store)
            assert rs.primary() is peer, "a recovery moved the primary"
            assert (
                replica.store.live_fingerprint()
                == peer.store.live_fingerprint()
            )
            if not rs.dead_rids():
                assert rs.ledger.log_length == 0, (
                    "fully-live shard kept an unfolded replication log"
                )

    # Heal the whole fleet, then every invariant must hold globally.
    engine.recover_all()
    assert engine.dead_replicas() == []

    full = full_window(2)
    expect = np.sort(scan.execute(full).ids)
    assert np.array_equal(expect, ledger.live_ids())
    assert np.array_equal(np.sort(engine.execute(full).ids), expect)

    ledger.assert_matches(shard_union(engine))
    engine.validate_routing()
    engine.flush_updates()
    _assert_replicas_in_lockstep(engine)
    for shard in engine.shards:
        shard.index.validate_structure()
