#!/usr/bin/env python3
"""The paper's motivating scenario: exploratory analysis of a brain model.

A neuroscientist builds a spatial model, then validates it by inspecting a
handful of regions with bursts of spatially close range queries (Section 2).
The crucial question: is it worth building a full index first, when the
analysis might stop after a few hundred queries?

This example replays that workflow on the skewed neuroscience surrogate
dataset and compares three strategies end-to-end:

* Scan        — no index, every query pays a full pass;
* R-Tree      — build first (STR bulk load), then query;
* QUASII      — start querying immediately, index as you go.

Run:  python examples/neuroscience_exploration.py
"""

from __future__ import annotations

from repro import QuasiiIndex, clustered_workload, make_neuro_like
from repro.baselines import RTreeIndex, ScanIndex
from repro.bench import run_workload


def main() -> None:
    print("building the 'brain model' (skewed surrogate, 300k cylinders)...")
    dataset = make_neuro_like(300_000, seed=7)

    # 3 regions of interest, 60 spatially close queries each, windows of
    # 0.01% of the model volume — the paper's validation workload shape.
    queries = clustered_workload(
        dataset.universe,
        n_clusters=3,
        queries_per_cluster=60,
        volume_fraction=1e-4,
        seed=11,
    )
    print(f"workload: {len(queries)} clustered validation queries\n")

    runs = {}
    for make in (
        lambda: ScanIndex(dataset.store.copy()),
        lambda: RTreeIndex(dataset.store.copy()),
        lambda: QuasiiIndex(dataset.store.copy()),
    ):
        index = make()
        runs[index.name] = run_workload(index, queries)

    print(f"{'strategy':10s} {'build (s)':>10s} {'first answer (s)':>17s} "
          f"{'all queries (s)':>16s} {'total (s)':>10s}")
    for name, run in runs.items():
        print(
            f"{name:10s} {run.build_seconds:10.3f} "
            f"{run.first_answer_seconds():17.3f} "
            f"{run.total_seconds() - run.build_seconds:16.3f} "
            f"{run.total_seconds():10.3f}"
        )

    quasii = runs["QUASII"]
    rtree = runs["R-Tree"]
    print(
        f"\ndata-to-insight: QUASII answers its first query "
        f"{rtree.first_answer_seconds() / quasii.first_answer_seconds():.1f}x "
        f"sooner than build-then-query with the R-Tree."
    )
    print(
        f"converged per-query time (last 30 queries): "
        f"QUASII {quasii.tail_mean_seconds(30) * 1e3:.2f} ms vs "
        f"R-Tree {rtree.tail_mean_seconds(30) * 1e3:.2f} ms"
    )
    if quasii.total_seconds() < rtree.total_seconds():
        print("after the whole session QUASII is STILL ahead cumulatively — "
              "the build never amortized.")
    else:
        crossover = next(
            (
                i + 1
                for i, (a, b) in enumerate(
                    zip(quasii.cumulative_seconds(), rtree.cumulative_seconds())
                )
                if a > b
            ),
            None,
        )
        print(f"the R-Tree's build amortized after {crossover} queries "
              f"in this (Python-substrate) run.")


if __name__ == "__main__":
    main()
