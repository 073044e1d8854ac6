"""Property tests for replicated shard serving under fault interleavings.

Hypothesis drives an initial dataset plus an arbitrary interleaving of
window queries, insert batches, delete batches, compactions, replica
kills, and ledger-replay recoveries against a
:class:`ShardedIndex` for R ∈ {1, 2, 3} and K ∈ {1, 2, 7}.
Invariants that must survive every interleaving:

* **Oracle agreement** — every query returns exactly the live-row set
  the Scan oracle returns, no matter which replicas are dead, and a
  final full-window query returns the complete live id set.
* **No dead reads** — a killed replica's ``reads_served`` counter is
  frozen from the moment of the kill: read routing never lands on it.
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
from repro.geometry import Box
from repro.queries import RangeQuery
from repro.sharding import ShardedIndex
from repro.updates import UpdateLedger

UNIVERSE_SIDE = 100.0

SHARD_COUNTS = (1, 2, 7)
REPLICATION_FACTORS = (1, 2, 3)


@st.composite
def dataset_and_ops(draw, ndim=2):
    n = draw(st.integers(2, 60))
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    lo = rng.uniform(0, UNIVERSE_SIDE, size=(n, ndim))
    hi = np.minimum(lo + rng.uniform(0, 10, size=(n, ndim)), UNIVERSE_SIDE)

    n_ops = draw(st.integers(1, 12))
    ops = []
    for _ in range(n_ops):
        kind = draw(
            st.sampled_from(
                ["query", "query", "insert", "delete", "compact", "kill",
                 "kill", "recover"]
            )
        )
        if kind == "query":
            qlo = rng.uniform(-10, UNIVERSE_SIDE, size=ndim)
            qhi = qlo + rng.uniform(0, 60, size=ndim)
            ops.append(("query", Box(tuple(qlo), tuple(qhi))))
        elif kind == "insert":
            k = draw(st.integers(1, 5))
            blo = rng.uniform(0, UNIVERSE_SIDE, size=(k, ndim))
            bhi = np.minimum(blo + rng.uniform(0, 8, size=(k, ndim)), UNIVERSE_SIDE)
            ops.append(("insert", (blo, bhi)))
        elif kind == "delete":
            ops.append(
                ("delete", (draw(st.integers(1, 4)), draw(st.integers(0, 2**31 - 1))))
            )
        elif kind == "kill":
            ops.append(
                ("kill", (draw(st.integers(0, 2**31 - 1)), draw(st.integers(0, 2**31 - 1))))
            )
        else:
            ops.append((kind, None))
    return (lo, hi), ops


def _full_window(ndim: int) -> RangeQuery:
    return RangeQuery(
        Box((-1.0,) * ndim, (UNIVERSE_SIDE + 1.0,) * ndim), seq=10_000
    )


def _small_quasii(store: BoxStore) -> QuasiiIndex:
    # A handcrafted tiny ladder keeps refinement exercised at toy sizes.
    return QuasiiIndex(store, QuasiiConfig(2, (8, 4)), max_runs=2)


def _assert_dead_reads_frozen(engine, frozen: dict) -> None:
    """No dead replica served a read since the moment it was killed."""
    for (sid, rid), reads_at_kill in frozen.items():
        shard = engine.shards[sid]
        replica = shard.replicas[rid]
        if not replica.alive:
            assert replica.reads_served == reads_at_kill, (
                f"dead replica ({sid}, {rid}) served a read after its kill"
            )


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
@given(case=dataset_and_ops())
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
    # reads_served of each dead replica, frozen at its kill.
    frozen: dict[tuple[int, int], int] = {}

    seq = 0
    for kind, payload in ops:
        if kind == "query":
            query = RangeQuery(payload, seq=seq)
            seq += 1
            expect = np.sort(scan.query(query))
            got = np.sort(engine.query(query))
            assert np.array_equal(got, expect), (
                f"{engine.name} diverged from Scan on query {query.seq} "
                f"with dead replicas {engine.dead_replicas()}"
            )
            _assert_dead_reads_frozen(engine, frozen)
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
            live_before = engine.store.live_fingerprint()
            engine.compact()
            assert engine.store.live_fingerprint() == live_before, (
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
            reads_before = shard.replicas[rid].reads_served
            assert engine.kill_replica(sid, rid)
            frozen[(sid, rid)] = reads_before
            # Failover: the shard contract fields point at a live primary.
            primary = shard.primary()
            assert primary is not None and shard.index is primary.index
        else:  # recover: replay the lowest dead replica back to life
            dead = sorted(engine.dead_replicas())
            if not dead:
                continue
            sid, rid = dead[0]
            replica = engine.recover_replica(sid, rid)
            frozen.pop((sid, rid), None)
            rs = engine.shards[sid]
            rs.ledger.assert_matches(replica.store)
            peer = rs.primary()
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

    full = _full_window(2)
    expect = np.sort(scan.query(full))
    assert np.array_equal(expect, ledger.live_ids())
    assert np.array_equal(np.sort(engine.query(full)), expect)

    ledger.assert_matches(engine.store)
    engine.validate_routing()
    engine.flush_updates()
    _assert_replicas_in_lockstep(engine)
    for shard in engine.shards:
        shard.index.validate_structure()
