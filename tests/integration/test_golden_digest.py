"""Integration: the cracking kernel is bit-identical to the recorded parent.

A perf change to Algorithm 2 must not move a single row differently: the
constants below were recorded on the commit *before* cracking moved onto
key frames (one store-level permutation per crack), and every later
kernel has to reproduce them — ordered result ids, the physical store
columns, the whole slice forest and the work counters.

The dataset is quantized so lower-corner keys repeat: equal keys are
where an unstable partition, or a wrongly composed permutation, shows.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.core import QuasiiIndex
from repro.datasets import BoxStore, make_neuro_like
from repro.queries import clustered_workload

#: Keyed by whether 3,000 rows are tombstoned before the queries run.
#: The tombstone constant was recorded later than the other, on the last
#: commit whose constructor still offered representative and split options.
GOLDEN = {
    False: "ecc9ad4256c0920c7b0415d42df515ec142f00d596741c04b1da1775105c80be",
    True: "86a40ef05bc7229f312f670f6683e4a331bd662911591c2162146c8feb42ea59",
}


def run_digest(delete_first: bool) -> str:
    ds = make_neuro_like(20_000, seed=1901)
    store = BoxStore(np.round(ds.store.lo / 8.0) * 8.0, np.round(ds.store.hi / 8.0) * 8.0)
    queries = clustered_workload(
        ds.universe, n_clusters=6, queries_per_cluster=25,
        volume_fraction=1e-3, seed=1902,
    )
    index = QuasiiIndex(store)
    if delete_first:
        # Tombstones make the ``live`` column part of what cracking moves.
        index.delete(np.random.default_rng(1903).permutation(20_000)[:3_000])
    digest = hashlib.sha256()
    for query in queries:
        digest.update(index.execute(query).ids.tobytes())
    index.validate_structure()
    for column in (store.lo, store.hi, store.ids, store.live):
        digest.update(np.ascontiguousarray(column).tobytes())
    digest.update(index.format_structure(10**9).encode())
    stats = index.stats
    digest.update(
        repr(
            (stats.cracks, stats.rows_reorganized, stats.nodes_visited, stats.objects_tested)
        ).encode()
    )
    assert stats.cracks > 100, "the workload must actually crack"
    return digest.hexdigest()


@pytest.mark.parametrize("delete_first", list(GOLDEN), ids=["live", "tombstones"])
def test_cracking_repeats_the_recorded_parent(delete_first):
    assert run_digest(delete_first) == GOLDEN[delete_first]
