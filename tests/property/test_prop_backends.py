"""Property tests: every backend × replication cell is observationally equal.

Hypothesis drives an initial dataset plus an arbitrary interleaving of
first-class queries (across predicates and result modes), insert
batches, delete batches, full and policy-driven compactions, reinserts
of deleted ids, and replica kills.  The same interleaving runs against
one engine per cell of the executor backend (``sequential``,
``processes``) × replication (R ∈ {1, 2}) matrix — with the executors
kept alive across operations, so the process pool's warm workers must
absorb every mutation (insert/delete/compact between batches) as a
shard delta, admitting exactly the ids the driver admitted, and the
R=2 engines must keep serving after a mid-stream kill.  The one cell
that does not exist, ``processes`` × R=2, is refused explicitly (see
:func:`test_every_cell_is_served_or_refused`).

Invariants, after every single operation:

* **Oracle agreement** — each backend's payload matches the Scan
  oracle: equal counts, equal id sets, and (for ``boxes``/``top_k``)
  equal corner matrices, no matter which backend served it.
* **Id-stream agreement** — inserts assign identical identifiers on
  every engine, so the ledger stays a single source of truth.
* **Ledger closure** — a final full-window query returns exactly the
  ledger's live id set on every backend.
"""

from __future__ import annotations

from contextlib import ExitStack

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import ScanIndex
from repro.core import QuasiiConfig, QuasiiIndex
from repro.datasets import BoxStore
from repro.errors import ConfigurationError, DatasetError
from repro.sharding import QueryExecutor, ShardedIndex
from repro.sharding.executor import BACKEND_ENV, BACKENDS
from repro.updates import UpdateLedger
from tests.property._interleavings import (
    BASE_KINDS,
    SEEDS,
    dataset_and_ops,
    full_window,
)

REPLICATION_FACTORS = (1, 2)
MATRIX = [(b, r) for b in BACKENDS for r in REPLICATION_FACTORS]
#: Process workers serve the primary's snapshot: no replica routing.
REFUSED = ("processes", 2)
CELLS = [cell for cell in MATRIX if cell != REFUSED]

#: The query shapes the interleavings draw from: (predicate, mode, k).
QUERY_SHAPES = (
    ("intersects", "ids", None),
    ("intersects", "count", None),
    ("intersects", "top_k", 2),
    ("within", "ids", None),
    ("contains", "boxes", None),
)

KINDS = (*BASE_KINDS, "compact", "maybe_compact", "reinsert", "kill")
#: A kill names (shard, replica) directly: three shards, at most R=2;
#: a policy compaction its dead-fraction threshold; a reinsert a seed.
PAYLOADS = {
    "kill": st.tuples(st.integers(0, 2), st.integers(0, 1)),
    "maybe_compact": st.sampled_from((0.0, 0.02, 0.1)),
    "reinsert": SEEDS,
}


def _check_payload(result, want, label):
    assert result.count == want.count, f"{label}: count diverged"
    if want.query.mode == "count":
        assert result.ids is None
        return
    order_got = np.argsort(result.ids)
    order_want = np.argsort(want.ids)
    assert np.array_equal(result.ids[order_got], want.ids[order_want]), (
        f"{label}: id sets diverged"
    )
    if want.query.mode in ("boxes", "top_k"):
        for side in (0, 1):
            assert np.array_equal(
                result.boxes[side][order_got], want.boxes[side][order_want]
            ), f"{label}: box payload diverged"


@given(
    dataset_and_ops(
        kinds=KINDS,
        payloads=PAYLOADS,
        query_shapes=QUERY_SHAPES,
        max_rows=50,
        max_ops=12,
        max_delete=6,
    )
)
@settings(max_examples=10, deadline=None)
def test_backends_agree_with_scan_under_interleavings(case):
    (lo, hi), ops = case
    scan = ScanIndex(BoxStore(lo.copy(), hi.copy()))
    engines = {
        (backend, replication): ShardedIndex(
            BoxStore(lo.copy(), hi.copy()),
            n_shards=3,
            partitioner="str",
            index_factory=lambda s: QuasiiIndex(
                s, QuasiiConfig(2, (8, 4)), max_runs=2
            ),
            replication=replication,
        )
        for backend, replication in CELLS
    }
    for engine in engines.values():
        engine.build()
    ledger = UpdateLedger(scan.store)
    deleted: list[int] = []

    with ExitStack() as stack:
        executors = {
            cell: stack.enter_context(
                QueryExecutor(
                    engine,
                    max_workers=1 if cell[0] == "sequential" else 2,
                    backend=cell[0],
                )
            )
            for cell, engine in engines.items()
        }

        for kind, payload in ops:
            if kind == "query":
                query = payload
                want = scan.execute(query)
                for backend, ex in executors.items():
                    batch = ex.run([query])
                    _check_payload(
                        batch.query_results[0],
                        want,
                        f"{backend} on query {query.seq}",
                    )
            elif kind == "insert":
                blo, bhi = payload
                expect_ids = scan.insert(blo, bhi)
                for backend, engine in engines.items():
                    assert np.array_equal(engine.insert(blo, bhi), expect_ids), (
                        f"{backend}: id stream diverged"
                    )
                ledger.record_insert(blo, bhi, expect_ids)
            elif kind == "kill":
                # Only where a peer survives: an R=1 kill is an outage
                # (unit-tested), not a cell of this matrix.
                sid, rid = payload
                for engine in engines.values():
                    if len(engine.shards[sid].live_replicas()) > 1:
                        engine.kill_replica(sid, rid)
            elif kind == "delete":
                count, victim_seed = payload
                live = ledger.live_ids()
                count = min(count, live.size)
                if count == 0:
                    continue
                victims = np.random.default_rng(victim_seed).choice(
                    live, size=count, replace=False
                )
                assert scan.delete(victims) == count
                for engine in engines.values():
                    assert engine.delete(victims) == count
                ledger.record_delete(victims)
                deleted += victims.tolist()
            elif kind == "maybe_compact":
                for backend, engine in engines.items():
                    fp = engine.store.live_fingerprint()
                    engine.maybe_compact(payload)
                    assert engine.store.live_fingerprint() == fp, (
                        f"{backend}: policy compaction changed the live multiset"
                    )
            elif kind == "reinsert":
                rng = np.random.default_rng(payload)
                free = sorted(set(deleted) - set(ledger.live_ids().tolist()))
                if not free:
                    continue
                again = np.array([free[rng.integers(len(free))]], dtype=np.int64)
                blo = rng.uniform(0, 90, size=(1, 2))
                bhi = blo + 5.0
                # Whoever still holds the id's tombstone refuses it — up
                # front, leaving the engine servable — until a compaction
                # lets go; the warm workers must let go with their shards.
                for backend, index in (("scan", scan), *engines.items()):
                    try:
                        index.insert(blo, bhi, again)
                    except DatasetError:
                        index.compact()
                        assert np.array_equal(
                            index.insert(blo, bhi, again), again
                        ), f"{backend}: reinsert after compaction diverged"
                ledger.record_insert(blo, bhi, again)
            else:  # compact
                scan.compact()
                for backend, engine in engines.items():
                    fp = engine.store.live_fingerprint()
                    engine.compact()
                    assert engine.store.live_fingerprint() == fp, (
                        f"{backend}: compaction changed the live multiset"
                    )

        full = full_window(2)
        want = scan.execute(full)
        assert np.array_equal(np.sort(want.ids), ledger.live_ids())
        for backend, ex in executors.items():
            batch = ex.run([full])
            _check_payload(
                batch.query_results[0], want, f"{backend} on the full window"
            )
    for engine in engines.values():
        ledger.assert_matches(engine.store)


def _small_engine(replication=1):
    lo = np.arange(12, dtype=np.float64).reshape(6, 2)
    return ShardedIndex(
        BoxStore(lo, lo + 1.0), n_shards=2, replication=replication
    )


@pytest.mark.parametrize("backend,replication", MATRIX)
def test_every_cell_is_served_or_refused(backend, replication, monkeypatch):
    """The matrix has no silent cell: each one resolves to the backend it
    asked for (and is oracle-checked above), or is refused by name when
    asked explicitly and downgraded to sequential when the env asked."""

    def make(**kwargs):
        return QueryExecutor(
            _small_engine(replication), max_workers=2, **kwargs
        )

    if (backend, replication) != REFUSED:
        with make(backend=backend) as ex:
            assert ex.backend == backend
        return
    with pytest.raises(ConfigurationError, match="Replicated"):
        make(backend=backend)
    monkeypatch.setenv(BACKEND_ENV, backend)
    assert make().backend == "sequential"


def test_mistyped_env_fails_even_where_it_is_not_honored(monkeypatch):
    monkeypatch.setenv(BACKEND_ENV, "bogus")
    for kwargs in (
        {"max_workers": 1},
        {"max_workers": 4, "backend": "sequential"},
    ):
        with pytest.raises(ConfigurationError, match=BACKEND_ENV):
            QueryExecutor(_small_engine(), **kwargs)


def test_removed_threads_backend_is_refused_by_name(monkeypatch):
    removed = "unknown executor backend 'threads'.*sequential.*processes"
    monkeypatch.delenv(BACKEND_ENV, raising=False)
    with pytest.raises(ConfigurationError, match=removed) as err:
        QueryExecutor(_small_engine(), max_workers=2, backend="threads")
    assert "backend argument" in str(err.value)
    monkeypatch.setenv(BACKEND_ENV, "threads")
    for workers in (1, 2):
        with pytest.raises(ConfigurationError, match=removed) as err:
            QueryExecutor(_small_engine(), max_workers=workers)
        assert BACKEND_ENV in str(err.value)


def test_valid_env_is_honored_only_by_multi_worker_executors(monkeypatch):
    monkeypatch.setenv(BACKEND_ENV, "processes")
    assert QueryExecutor(_small_engine(), max_workers=1).backend == "sequential"
    assert QueryExecutor(_small_engine(), max_workers=2).backend == "processes"
