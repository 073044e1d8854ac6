#!/usr/bin/env python3
"""Sharded serving: partition, fan out, prune, and route updates.

The sharding subsystem (`repro.sharding`) turns the single-process
QUASII reproduction into a partition-then-search serving engine: an STR
partitioner splits the store into K compact spatial tiles, one QUASII is
built per tile, queries fan out only to shards whose MBB intersects the
window, and inserts/deletes route to the owning shard so every shard
keeps cracking adaptively on its own slice forest.  The shards' stores
are the engine's rows: the store handed to the engine is only its build
input, and no write or compaction touches it after ``build()``.

This demo builds the engine, serves a batch of queries on the in-thread
server and through worker processes, verifies both against a full scan,
pushes a stream of updates through the ownership routing, and finally
turns on automatic maintenance: a MaintenancePolicy attached to the
executor compacts tombstone-heavy shards and — when skewed ingestion
drifts the balance factor — splits the hot shard along the observed
query centroids (query-driven rebalancing, QUASII's principle applied
to the partition layout).

Run:  python examples/sharded_serving.py
"""

from __future__ import annotations

import numpy as np

from repro import (
    Box,
    MaintenancePolicy,
    Query,
    QueryExecutor,
    ScanIndex,
    ShardedIndex,
    hotspot_workload,
    make_uniform,
    uniform_workload,
)
from repro.telemetry.events import EventLog


def main() -> None:
    # 1. Data: 200k boxes in the paper's synthetic 10,000^3 universe.
    dataset = make_uniform(200_000, seed=42)
    print(f"dataset: {dataset.n:,} boxes in {dataset.universe.sides} universe")

    # 2. Build the engine: STR split into 8 shards, one QUASII per shard.
    engine = ShardedIndex(dataset.store.copy(), n_shards=8)
    engine.build()
    print(f"engine: {engine.name}, shard sizes {engine.shard_sizes()}, "
          f"balance {engine.balance_factor():.2f}\n")

    # 3. Serve a batch of small queries two ways and check both vs Scan.
    queries = uniform_workload(dataset.universe, 300, 1e-4, seed=7)
    scan = ScanIndex(dataset.store.copy())
    expected = [np.sort(scan.execute(q).ids) for q in queries]

    sequential = QueryExecutor(engine, max_workers=1).run(queries)
    assert all(
        np.array_equal(np.sort(got), want)
        for got, want in zip(sequential.results, expected)
    )
    visited, pruned = engine.stats.shards_visited, engine.stats.shards_pruned
    print(f"sequential: {sequential.seconds:.3f}s "
          f"({sequential.throughput():.0f} queries/s), "
          f"{pruned}/{visited + pruned} shard visits pruned")

    # The process backend owns OS resources (workers, shared-memory
    # segments): the `with` block tears them down deterministically.
    # A write between two batches costs what it changes: the new row
    # reaches the warm worker as a delta, and no shard is republished
    # (`worker.refresh` is the event of a worker starting over).
    events = EventLog()
    probe = Box((5_000.0,) * 3, (5_004.0,) * 3)
    with QueryExecutor(
        engine, max_workers=4, backend="processes", events=events
    ) as ex:
        processes = ex.run(queries)
        published = len(events.recent("worker.refresh"))
        (new_id,) = engine.insert(np.array([probe.lo]), np.array([probe.hi]))
        scan.insert(np.array([probe.lo]), np.array([probe.hi]))
        after_write = ex.run([Query(probe)])
        assert int(new_id) in after_write.results[0]
        assert len(events.recent("worker.refresh")) == published
        (delta,) = events.recent("worker.delta")
    assert all(
        np.array_equal(np.sort(got), want)
        for got, want in zip(processes.results, expected)
    )
    assert processes.shard_queries == sequential.shard_queries
    print(f"processes:  {processes.seconds:.3f}s "
          f"({processes.throughput():.0f} queries/s), "
          f"fan-out profile {processes.shard_queries}")
    print("(this one batch also pays for spawning the pool and publishing "
          "the shard bases — run `python3 benchmarks/ledger/run.py "
          "--workload sharded-serve` for fair warmed-stream comparisons)")
    print(f"a row inserted between batches reached shard "
          f"{delta.payload['sid']}'s warm worker as a "
          f"{delta.payload['bytes']}-byte delta; nothing was republished\n")

    # 4. Skewed serving traffic: the hot region concentrates on few shards.
    hot = hotspot_workload(dataset.universe, 300, 1e-4, seed=11)
    engine.stats.reset()
    QueryExecutor(engine, max_workers=1).run(hot)
    v, p = engine.stats.shards_visited, engine.stats.shards_pruned
    print(f"hotspot traffic: {p}/{v + p} shard visits pruned "
          f"(spatial tiles keep hot queries on few shards)\n")

    # 5. Shard-aware updates: inserts route by least enlargement, deletes
    #    by ownership; the Scan oracle keeps verifying results.
    input_fingerprint = engine.store.fingerprint()
    rng = np.random.default_rng(3)
    centers = rng.uniform(0, 10_000, size=(500, 3))
    lo, hi = centers - 2.0, centers + 2.0
    new_ids = engine.insert(lo, hi)
    scan.insert(lo, hi)
    victims = np.concatenate([new_ids[::2], np.arange(0, 5_000, 20)])
    engine.delete(victims)
    scan.delete(victims)
    print(f"inserted {new_ids.size}, deleted {victims.size}; "
          f"pending (buffered) rows fleet-wide: {engine.pending_updates()}")
    check = uniform_workload(dataset.universe, 50, 1e-3, seed=13)
    assert all(
        np.array_equal(np.sort(engine.execute(q).ids), np.sort(scan.execute(q).ids))
        for q in check
    )
    engine.validate_routing()
    owner = engine.owner_of(int(new_ids[1]))
    print(f"id {int(new_ids[1])} is owned by shard {owner}; "
          f"all results still match the Scan oracle")
    # Compaction is a loop over the shards and counts their rows.
    dead = sum(s.store.n_dead for s in engine.shards)
    assert engine.compact() == dead
    assert engine.store.fingerprint() == input_fingerprint
    print(f"compaction reclaimed {dead} shard rows; the build input was "
          f"never written\n")

    # 6. Automatic maintenance: skew the ingestion into one corner, then
    #    let the executor's MaintenancePolicy rebalance on the query path.
    burst = rng.uniform(0, 2_000, size=(30_000, 3))
    engine.insert(burst - 2.0, burst + 2.0)
    scan.insert(burst - 2.0, burst + 2.0)
    print(f"after a skewed burst: balance factor {engine.balance_factor():.2f} "
          f"(max/mean owned rows)")
    serve = QueryExecutor(
        engine,
        max_workers=1,
        maintenance=MaintenancePolicy(check_every=64, max_balance=1.3,
                                      max_query_skew=2.5, min_queries=32),
    )
    corner = hotspot_workload(dataset.universe, 300, 1e-4,
                              hotspot_volume=0.002, seed=17)
    batch = serve.run(corner)
    report = serve.scheduler.report
    print(f"served {batch.n_queries} hotspot queries; maintenance ran "
          f"{report.checks} checks, {report.rebalances} rebalancing pass(es), "
          f"migrated {report.rows_migrated:,} rows in {report.seconds*1000:.0f}ms")
    print(f"balance factor now {engine.balance_factor():.2f}; results still "
          f"match the oracle: ", end="")
    check = uniform_workload(dataset.universe, 30, 1e-3, seed=19)
    ok = all(
        np.array_equal(np.sort(engine.execute(q).ids), np.sort(scan.execute(q).ids))
        for q in check
    )
    engine.validate_routing()
    print("yes" if ok else "NO")


if __name__ == "__main__":
    main()
