#!/usr/bin/env python3
"""Quickstart: index spatial data incrementally, as a side effect of queries.

Generates a synthetic 3-d dataset, runs a handful of window queries through
QUASII (no build step!), and shows the index growing and query times
dropping as the same region is queried again.  Then it runs the rest of
README's quickstart: other predicates and result modes, a covers-point
lookup, a query plan, and an insert/delete round trip.

Run:  python examples/quickstart.py
"""

from __future__ import annotations

import time

from repro import QuasiiIndex, Query, make_uniform, uniform_workload


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

    # 4. Other predicates and result modes hang off the same surface.
    window = queries[0].window
    n_hits = index.execute(Query(window, mode="count")).count
    inside = index.execute(Query(window, predicate="within")).count
    biggest = index.execute(Query(window, mode="top_k", k=5))
    at_point = index.execute(Query.point((5000.0, 5000.0, 5000.0)))
    print(f"\nquery {queries[0].seq}: {n_hits} intersect, {inside} lie within, "
          f"top-5 by volume {biggest.ids.tolist()}; "
          f"{at_point.count} boxes cover the center point")
    assert inside <= n_hits and biggest.ids.size == min(5, n_hits)

    # 5. What would a query touch?  plan() estimates without executing.
    explained = index.plan(Query(window)).explain()
    print(f"plan: {explained}")
    assert explained.startswith("QUASII: predicate=intersects mode=ids")

    # 6. Updates (beyond the paper): stage inserts, tombstone deletes.
    new_ids = index.insert([[10.0, 10.0, 10.0]], [[12.0, 11.0, 11.0]])
    index.delete(new_ids)
    assert index.execute(Query(window, mode="count")).count == n_hits

    # The structural invariants can be checked at any point:
    index.validate_structure()
    print("structure invariants: OK")


if __name__ == "__main__":
    main()
