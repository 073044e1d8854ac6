"""Integration: the cracking kernel is bit-identical to the recorded parent.

A perf change to Algorithm 2 must not move a single row differently: the
constants below were recorded on the commit *before* cracking moved onto
key frames (one store-level permutation per crack), and every later
kernel has to reproduce them — ordered result ids, the physical store
columns, the whole slice forest and the work counters.

The dataset is quantized so representative keys repeat: equal keys are
where an unstable partition, or a wrongly composed permutation, shows.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.core import QuasiiIndex
from repro.datasets import BoxStore, make_neuro_like
from repro.queries import clustered_workload

GOLDEN = {
    ("lower", "midpoint", False): "ecc9ad4256c0920c7b0415d42df515ec142f00d596741c04b1da1775105c80be",
    ("lower", "median", True): "2b33de8c505dca7b02ae7d875826b9a2d331674e3bc55740badb1832e56a0e3d",
    ("center", "midpoint", False): "63b7706cc597066661f11c26fef861945a6672df1980c60aa4fdaf3e1ee000a2",
    ("center", "median", False): "2d4540c8bafab666a7a5999209af845cb1410be0c9756a52c2dd04f570b40f23",
    ("upper", "midpoint", False): "84649144a1ae535a114a4344a503788abf1443c83b99d86a0054a82c4098ca03",
    ("upper", "median", False): "b30d078498564124df73bd95a22e66a74d4d7ae563f4c0b8a1fe118b976f2dae",
}


def run_digest(representative: str, artificial_split: str, delete_first: bool) -> str:
    ds = make_neuro_like(20_000, seed=1901)
    store = BoxStore(np.round(ds.store.lo / 8.0) * 8.0, np.round(ds.store.hi / 8.0) * 8.0)
    queries = clustered_workload(
        ds.universe, n_clusters=6, queries_per_cluster=25,
        volume_fraction=1e-3, seed=1902,
    )
    index = QuasiiIndex(
        store, representative=representative, artificial_split=artificial_split
    )
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


@pytest.mark.parametrize("case", list(GOLDEN), ids=lambda c: "-".join(map(str, c)))
def test_cracking_repeats_the_recorded_parent(case):
    assert run_digest(*case) == GOLDEN[case]
