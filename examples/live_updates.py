#!/usr/bin/env python3
"""Live updates: querying while the dataset changes underneath.

The paper evaluates QUASII on a static array (updates are Section 7
future work) and its competitors the same way; this demo puts them under
churn.  An interleaved stream of window queries, insert batches and
delete batches runs through QUASII and through a full scan (the
correctness oracle), and against the static R-Tree the only honest way:
each write batch lands in the store and the tree is rebuilt over it,
with the rebuild counted.

QUASII absorbs inserts lazily — they stage in a buffer, and the next
query merges them into the store as an appended run that gets cracked
exactly like any other unrefined region.  Deletes tombstone rows in
place.

Run:  python examples/live_updates.py
"""

from __future__ import annotations

import time

import numpy as np

from repro import (
    BoxStore,
    QuasiiIndex,
    RTreeIndex,
    ScanIndex,
    make_uniform,
    mixed_workload,
)
from repro.bench import run_workload
from repro.updates import resolve_delete_victims

VICTIM_SEED = 99


def run_rebuilt_rtree(store: BoxStore, ops) -> tuple[list[np.ndarray], float, float]:
    """Serve ``ops`` with an R-Tree rebuilt over ``store`` after each write.

    Delete victims resolve exactly as :func:`run_workload` resolves them,
    so the answers are comparable with the other indexes'.  Returns the
    sorted answer of every query, the total wall-clock of the stream
    (queries, writes and rebuilds) and the part of it spent rebuilding.
    """
    live = store.ids[store.live_rows()].copy()
    rtree = RTreeIndex(store)
    rtree.build()
    answers: list[np.ndarray] = []
    total = rebuilds = 0.0
    for op in ops:
        if op.query is not None:
            t0 = time.perf_counter()
            ids = rtree.execute(op.query).ids
            total += time.perf_counter() - t0
            answers.append(np.sort(ids))
            continue
        victims = None
        if op.kind == "delete":
            victims = resolve_delete_victims(live, op.count, op.seq, VICTIM_SEED)
        t0 = time.perf_counter()
        if victims is None:
            live = np.concatenate([live, store.append(op.lo, op.hi)])
        else:
            store.delete_ids(victims)
        t1 = time.perf_counter()
        rtree = RTreeIndex(store)
        rtree.build()
        t2 = time.perf_counter()
        total += t2 - t0
        rebuilds += t2 - t1
        if victims is not None:
            live = live[~np.isin(live, victims)]
    return answers, total, rebuilds


def main() -> None:
    # 1. Data: 100k boxes in the paper's synthetic 10,000^3 universe.
    dataset = make_uniform(100_000, seed=42)
    print(f"dataset: {dataset.n:,} boxes in {dataset.universe.sides} universe")

    # 2. Workload: 30% writes (half inserts, half deletes), batches of 16.
    ops = mixed_workload(
        dataset.universe,
        n_ops=400,
        write_ratio=0.3,
        delete_fraction=0.5,
        batch_size=16,
        volume_fraction=1e-3,
        seed=7,
    )
    kinds = {k: sum(1 for o in ops if o.kind == k) for k in ("query", "insert", "delete")}
    writes = kinds["insert"] + kinds["delete"]
    print(f"workload: {kinds['query']} queries, {kinds['insert']} insert "
          f"batches, {kinds['delete']} delete batches\n")

    # 3. The two mutable indexes, each over its own copy of the store.
    indexes = {
        "Scan": ScanIndex(dataset.store.copy()),
        "QUASII": QuasiiIndex(dataset.store.copy()),
    }
    answers = {}
    for name, index in indexes.items():
        r = run_workload(index, ops, victim_seed=VICTIM_SEED)
        answers[name] = r.query_results
        print(f"{name:>7}: {r.throughput():8.0f} ops/s | "
              f"query {r.query_seconds().mean() * 1e3:7.3f} ms | "
              f"{r.stats.inserts} inserts, {r.stats.deletes} deletes, "
              f"{r.stats.merges} merges | {r.final_live:,} live at end")

    # 4. The static competitor, rebuilt after every write batch.
    store = dataset.store.copy()
    answers["R-Tree"], total, rebuilds = run_rebuilt_rtree(store, ops)
    print(f"{'R-Tree':>7}: {len(ops) / total:8.0f} ops/s | "
          f"{writes} rebuilds, {rebuilds / writes * 1e3:.1f} ms each, "
          f"{rebuilds / total:.0%} of the stream | "
          f"{store.live_count:,} live at end")

    # 5. Verify: every index answered every query exactly like the scan.
    oracle = answers["Scan"]
    for name, got in answers.items():
        assert len(got) == len(oracle) and all(
            np.array_equal(a, b) for a, b in zip(oracle, got)
        ), f"{name} diverged from the Scan oracle"
    print("\nall indexes returned exactly the live-row set of the Scan oracle")

    # 6. QUASII's slice forest stayed structurally sound throughout.
    quasii = indexes["QUASII"]
    quasii.validate_structure()
    print(f"QUASII structure invariants: OK "
          f"({quasii.runs - 1} appended run(s) in the slice forest, "
          f"{quasii.store.n_dead:,} tombstoned rows)")


if __name__ == "__main__":
    main()
