#!/usr/bin/env python3
"""Live updates: querying while the dataset changes underneath.

The paper evaluates QUASII on a static array (updates are Section 7
future work); this demo exercises the reproduction's update subsystem:
an interleaved stream of window queries, insert batches, and delete
batches runs through QUASII, the uniform grid, and the R-Tree, with a
full scan as the correctness oracle.

QUASII absorbs inserts lazily — they stage in a buffer, and the next
query merges them into the store as an appended run that gets cracked
exactly like any other unrefined region.  Deletes tombstone rows in
place for every index.

Run:  python examples/live_updates.py
"""

from __future__ import annotations

import numpy as np

from repro import (
    QuasiiIndex,
    RTreeIndex,
    ScanIndex,
    UniformGridIndex,
    make_uniform,
    mixed_workload,
)
from repro.bench import run_workload


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
    print(f"workload: {kinds['query']} queries, {kinds['insert']} insert "
          f"batches, {kinds['delete']} delete batches\n")

    # 3. Run every update-capable index over its own copy of the store.
    indexes = {
        "Scan": ScanIndex(dataset.store.copy()),
        "Grid": UniformGridIndex(dataset.store.copy(), dataset.universe, 32),
        "R-Tree": RTreeIndex(dataset.store.copy()),
        "QUASII": QuasiiIndex(dataset.store.copy()),
    }
    runs = {}
    for name, index in indexes.items():
        runs[name] = run_workload(index, ops, victim_seed=99)
        r = runs[name]
        print(f"{name:>7}: {r.throughput():8.0f} ops/s | "
              f"query {r.query_seconds().mean() * 1e3:7.3f} ms | "
              f"{r.stats.inserts} inserts, {r.stats.deletes} deletes, "
              f"{r.stats.merges} merges | {r.final_live:,} live at end")

    # 4. Verify: every index answered every query exactly like the scan.
    oracle = runs["Scan"].query_results
    for name, r in runs.items():
        assert all(
            np.array_equal(a, b) for a, b in zip(oracle, r.query_results)
        ), f"{name} diverged from the Scan oracle"
    print("\nall indexes returned exactly the live-row set of the Scan oracle")

    # 5. QUASII's slice forest stayed structurally sound throughout.
    quasii = indexes["QUASII"]
    quasii.validate_structure()
    print(f"QUASII structure invariants: OK "
          f"({quasii.runs - 1} appended run(s) in the slice forest, "
          f"{quasii.store.n_dead:,} tombstoned rows)")


if __name__ == "__main__":
    main()
