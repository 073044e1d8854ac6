"""Shared fixtures: small deterministic datasets and workloads.

Scaled-down versions of the paper's data (Section 6.1) sized so the whole
suite runs in seconds; correctness and structural invariants do not depend
on n.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines.scan import ScanIndex
from repro.datasets import Dataset, make_neuro_like, make_uniform
from repro.queries import Query, clustered_workload, uniform_workload


@pytest.fixture(scope="session")
def uniform_ds() -> Dataset:
    """Small instance of the paper's uniform synthetic dataset."""
    return make_uniform(3_000, seed=101)


@pytest.fixture(scope="session")
def neuro_ds() -> Dataset:
    """Small instance of the skewed neuroscience surrogate."""
    return make_neuro_like(3_000, seed=202)


@pytest.fixture(scope="session")
def uniform_queries(uniform_ds) -> list[Query]:
    """Mixed-selectivity uniform workload over the uniform dataset."""
    qs = []
    for frac, seed in ((1e-4, 1), (1e-3, 2), (1e-2, 3), (0.1, 4)):
        qs.extend(uniform_workload(uniform_ds.universe, 10, frac, seed))
    return [Query(q.window, seq=i) for i, q in enumerate(qs)]


@pytest.fixture(scope="session")
def clustered_queries(neuro_ds) -> list[Query]:
    """Clustered workload over the skewed dataset (paper Section 6.1)."""
    return clustered_workload(
        neuro_ds.universe, n_clusters=3, queries_per_cluster=15,
        volume_fraction=1e-4, seed=7,
    )


def expected_results(ds: Dataset, queries) -> list[np.ndarray]:
    """Ground-truth ids per query via a full scan (sorted)."""
    scan = ScanIndex(ds.store)
    return [np.sort(scan.execute(q).ids) for q in queries]


def assert_matches_scan(index, ds: Dataset, queries) -> None:
    """Assert an index returns exactly the scan results for every query."""
    truth = expected_results(ds, queries)
    for q, expect in zip(queries, truth):
        got = np.sort(index.execute(q).ids)
        assert np.array_equal(got, expect), (
            f"{index.name}: query {q.seq} returned {got.size} ids, "
            f"expected {expect.size}"
        )
