#!/usr/bin/env python3
"""Quickstart: index spatial data incrementally, as a side effect of queries.

Generates a synthetic 3-d dataset, runs a handful of window queries through
QUASII (no build step!), and shows the index growing and query times
dropping as the same region is queried again.

Run:  python examples/quickstart.py
"""

from __future__ import annotations

import time

from repro import QuasiiIndex, make_uniform, uniform_workload


def main() -> None:
    # 1. Data: 200k boxes, uniformly placed in a 10,000^3 universe
    #    (the paper's synthetic distribution, Section 6.1).
    dataset = make_uniform(200_000, seed=42)
    print(f"dataset: {dataset.n:,} boxes in {dataset.universe.sides} universe")

    # 2. Index: QUASII needs no pre-processing — just wrap the store.
    index = QuasiiIndex(dataset.store)
    print(f"threshold ladder (top→leaf): {index.config.level_thresholds}")

    # 3. Query: windows covering 0.1% of the universe volume.
    queries = uniform_workload(dataset.universe, n_queries=10, volume_fraction=1e-3, seed=1)

    print("\nfirst pass — the index builds itself while answering:")
    for q in queries[:5]:
        t0 = time.perf_counter()
        ids = index.execute(q).ids
        ms = (time.perf_counter() - t0) * 1000
        print(f"  query {q.seq}: {ids.size:4d} results in {ms:7.2f} ms "
              f"(cracks so far: {index.stats.cracks})")

    print("\nsecond pass over the same windows — now (mostly) refined:")
    for q in queries[:5]:
        t0 = time.perf_counter()
        ids = index.execute(q).ids
        ms = (time.perf_counter() - t0) * 1000
        print(f"  query {q.seq}: {ids.size:4d} results in {ms:7.2f} ms")

    counts = index.slice_counts()
    full_leaves = dataset.n // index.config.leaf_threshold
    print(f"\nslices per level (x/y/z): {counts} "
          f"(a full build would create ~{full_leaves:,} leaves)")
    print(f"index structure memory:   ~{index.memory_bytes() / 1024:.0f} KiB")
    print(f"cumulative rows moved:    {index.stats.rows_reorganized:,} "
          f"(~{index.stats.rows_reorganized / dataset.n:.1f} passes over the "
          f"data; an STR build sorts every row at every level)")

    # The structural invariants can be checked at any point:
    index.validate_structure()
    print("structure invariants: OK")


if __name__ == "__main__":
    main()
