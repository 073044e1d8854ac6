"""Full-scan baseline: the "no index" end of the design space.

Every query tests all ``n`` objects.  The paper uses Scan both as the
data-to-insight yardstick (the first answer arrives after exactly one pass
over the data, with zero preparation) and as the flat reference line in
every convergence plot.  Under mixed read/write workloads it doubles as
the correctness oracle: with no structure to maintain, an insert is a
plain store append and a delete a plain tombstone, so its answers are
the live-row ground truth by construction — and the same holds for every
predicate and result mode of the first-class query layer, which is why
the property suite pins all other indexes against Scan.

Batches are answered natively: one ``(B, n)`` candidate matrix per
predicate covers the whole batch (two comparisons per dimension instead
of ``B`` kernel launches), chunked so the temporary never exceeds a few
megabytes.  Count-only batches never materialize a single id.
"""

from __future__ import annotations

import time

import numpy as np

from repro.datasets.store import BoxStore
from repro.geometry.predicates import batch_predicate_masks
from repro.index.base import IndexStats, MutableSpatialIndex
from repro.queries.query import Query, QueryResult


class ScanIndex(MutableSpatialIndex):
    """Answer queries by a single vectorized pass over the whole store."""

    name = "Scan"

    #: Cap on candidate-matrix cells per chunk (bools); keeps the
    #: batched temporaries cache-friendly instead of store-sized * B.
    _BATCH_CELLS = 8_000_000

    def __init__(self, store: BoxStore) -> None:
        super().__init__(store)

    def build(self) -> None:
        """Nothing to build — scans need no preparation at all."""
        self._built = True

    def _execute_batch(self, queries: list[Query]) -> list[QueryResult]:
        """One candidate matrix per batch instead of one pass per query."""
        store = self._store
        n = store.n
        t0 = time.perf_counter()
        payloads: list = [None] * len(queries)
        groups: dict[str, list[int]] = {}
        for i, q in enumerate(queries):
            groups.setdefault(q.predicate, []).append(i)
        chunk = max(1, self._BATCH_CELLS // max(n, 1))
        for pred, idxs in groups.items():
            for start in range(0, len(idxs), chunk):
                part = idxs[start : start + chunk]
                win_lo = np.stack([queries[i].lo for i in part])
                win_hi = np.stack([queries[i].hi for i in part])
                masks = batch_predicate_masks(
                    pred, store.lo, store.hi, win_lo, win_hi
                )
                if store.n_dead:
                    masks &= store.live[None, :]
                # The count-only fast path is a row-sum of the candidate
                # matrix; skip it entirely for all-materializing chunks.
                counts = (
                    masks.sum(axis=1)
                    if any(queries[i].count_only for i in part)
                    else None
                )
                for j, i in enumerate(part):
                    q = queries[i]
                    if q.count_only:
                        payloads[i] = (int(counts[j]), None, None)
                    else:
                        payloads[i] = self._package(
                            q, np.flatnonzero(masks[j])
                        )
        self.stats.objects_tested += n * len(queries)
        per_stats = [IndexStats(objects_tested=n) for _ in queries]
        return self._wrap_batch(
            queries, payloads, per_stats, time.perf_counter() - t0
        )

    def _insert(
        self, lo: np.ndarray, hi: np.ndarray, ids: np.ndarray | None
    ) -> np.ndarray:
        """Appended rows are scanned like any others — nothing to update."""
        return self._store.append_validated(lo, hi, ids)

    def _on_compaction(self, remap: np.ndarray) -> None:
        """No derived state: a compacted store is just a shorter scan."""
