"""Property tests: every backend × replication cell is observationally equal.

Hypothesis drives an initial dataset plus an arbitrary interleaving of
first-class queries (across predicates and result modes), insert
batches, delete batches, full and policy-driven compactions, reinserts
of deleted ids, replica kills and recoveries.  The same interleaving
runs against one engine per cell of the executor backend
(``sequential``, ``processes``) × replication (R ∈ {1, 2}) matrix — no
cell is refused or downgraded — with the executors kept alive across
operations, so the process pool's warm workers must absorb every
mutation (insert/delete/compact between batches) as a shard delta,
admitting exactly the ids the driver admitted, and the R=2 engines must
keep serving after a mid-stream kill: on ``processes`` a primary kill
cuts the worker a new base from the standby that took over.
:func:`test_every_cell_is_served_or_refused` walks each cell through
the same story as a fixed script, down to the one refusal left: a shard
with no live replica.

Invariants, after every single operation:

* **Oracle agreement** — each backend's payload matches the Scan
  oracle: equal counts, equal id sets, and (for ``boxes``/``top_k``)
  equal corner matrices, no matter which backend served it.
* **Id-stream agreement** — inserts assign identical identifiers on
  every engine, so the ledger stays a single source of truth.
* **Ledger closure** — a final full-window query returns exactly the
  ledger's live id set on every backend, and the union of each engine's
  shards holds exactly the ledger's live multiset.
"""

from __future__ import annotations

from contextlib import ExitStack

import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import ScanIndex
from repro.core import QuasiiConfig, QuasiiIndex
from repro.datasets import BoxStore, make_uniform
from repro.errors import ConfigurationError, DatasetError, ReplicationError
from repro.queries import hotspot_workload, uniform_workload
from repro.sharding import QueryExecutor, Rebalancer, ShardedIndex
from repro.sharding.executor import BACKEND_ENV, BACKENDS
from repro.telemetry.events import EventLog
from repro.updates import UpdateLedger
from tests.property._interleavings import (
    BASE_KINDS,
    SEEDS,
    dataset_and_ops,
    full_window,
    shard_union,
)

REPLICATION_FACTORS = (1, 2)
MATRIX = [(b, r) for b in BACKENDS for r in REPLICATION_FACTORS]

#: The query shapes the interleavings draw from: (predicate, mode, k).
QUERY_SHAPES = (
    ("intersects", "ids", None),
    ("intersects", "count", None),
    ("intersects", "top_k", 2),
    ("within", "ids", None),
    ("contains", "boxes", None),
)

KINDS = (*BASE_KINDS, "compact", "maybe_compact", "reinsert", "kill", "recover")
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
        max_ops=14,
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
            index_factory=lambda s: QuasiiIndex(
                s, QuasiiConfig(2, (8, 4)), max_runs=2
            ),
            replication=replication,
        )
        for backend, replication in MATRIX
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
            elif kind == "recover":
                for engine in engines.values():
                    serving = [s.store for s in engine.shards]
                    engine.recover_all()
                    # A recovered replica rejoins as a standby.
                    assert [s.store for s in engine.shards] == serving
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
                    fp = shard_union(engine).live_fingerprint()
                    engine.maybe_compact(payload)
                    assert shard_union(engine).live_fingerprint() == fp, (
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
                    fp = shard_union(engine).live_fingerprint()
                    engine.compact()
                    assert shard_union(engine).live_fingerprint() == fp, (
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
        ledger.assert_matches(shard_union(engine))


def _small_engine(replication=1):
    lo = np.arange(12, dtype=np.float64).reshape(6, 2)
    return ShardedIndex(
        BoxStore(lo, lo + 1.0), n_shards=2, replication=replication
    )


def _segments() -> set[str]:
    return {n for n in os.listdir("/dev/shm") if n.startswith("psm_")}


@pytest.mark.parametrize("backend,replication", MATRIX)
def test_every_cell_is_served_or_refused(backend, replication):
    """The matrix has no refused and no downgraded cell: each one serves
    from the backend it asked for through reads, writes, compaction, a
    primary kill between batches and a ``recover_all()``, oracle-checked
    at every step, and leaves no shared-memory name behind.  What a
    cell still refuses, loudly and on either server, is a shard with no
    live replica."""
    ds = make_uniform(4_000, seed=11)
    scan = ScanIndex(ds.store.copy())
    events = EventLog()
    engine = ShardedIndex(ds.store.copy(), n_shards=3, replication=replication)
    queries = uniform_workload(ds.universe, 24, 2e-3, seed=12)
    before = _segments()

    def check(ex, batch):
        out = ex.run(batch)
        assert out.mode == backend
        for got, q in zip(out.query_results, batch):
            _check_payload(got, scan.execute(q), f"{backend} x R{replication}")

    with QueryExecutor(engine, max_workers=2, backend=backend, events=events) as ex:
        assert ex.backend == backend
        check(ex, queries[:6])
        rng = np.random.default_rng(13)
        lo = rng.uniform(0, 9_000, size=(300, 3))
        ids = engine.insert(lo, lo + 25.0)
        assert np.array_equal(scan.insert(lo, lo + 25.0), ids)
        check(ex, queries[6:12])
        gone = np.concatenate([ids[::3], ds.store.ids[:150]])
        for index in (engine, scan):
            index.delete(gone)
            index.compact()
        check(ex, queries[12:16])
        if replication > 1:
            bases = len(events.recent("worker.refresh"))
            for shard in engine.shards:
                assert engine.kill_replica(shard.sid, shard.primary().rid)
            assert len(events.recent("replica.failover")) == engine.n_shards
            check(ex, queries[16:20])
            if backend == "processes":
                # Each standby that took over is a new base for its
                # worker: the existing first-touch path, nothing else.
                refreshed = len(events.recent("worker.refresh")) - bases
                assert refreshed == engine.n_shards
            lo2 = rng.uniform(0, 9_000, size=(40, 3))
            assert np.array_equal(
                engine.insert(lo2, lo2 + 25.0), scan.insert(lo2, lo2 + 25.0)
            )
            serving = [s.store for s in engine.shards]
            assert engine.recover_all() == engine.n_shards
            # Sticky: a recovered replica does not take the primary back,
            # so the workers keep their warm bases.
            assert [s.store for s in engine.shards] == serving
            assert [s.primary().rid for s in engine.shards] == [1] * 3
            bases = len(events.recent("worker.refresh"))
        check(ex, queries[20:])
        check(ex, [full_window(3)])
        if replication > 1:
            assert len(events.recent("worker.refresh")) == bases
        for rid in range(replication):
            engine.kill_replica(0, rid)
        with pytest.raises(ReplicationError, match=f"all {replication} replicas"):
            ex.run([full_window(3)])
        if replication > 1:
            # The stream outlives the outage; the next batch is served.
            assert engine.recover_all() == replication
            check(ex, [full_window(3)])
    assert all(s.oplog is None for s in engine.shards)
    assert _segments() == before, "a failover republish leaked a segment"


@pytest.mark.parametrize("backend", BACKENDS)
def test_a_standby_never_cracks(backend):
    """R = 2 costs its copies and its writes, never a second forest: the
    same read stream cracks exactly as much as on R = 1."""
    ds = make_uniform(6_000, seed=21)
    queries = hotspot_workload(ds.universe, 96, 2e-3, seed=22)
    cracks = {}
    for replication in REPLICATION_FACTORS:
        engine = ShardedIndex(ds.store.copy(), n_shards=4, replication=replication)
        with QueryExecutor(engine, max_workers=2, backend=backend) as ex:
            for i in range(0, len(queries), 32):
                ex.run(queries[i : i + 32])
        cracks[replication] = engine.stats.cracks
        for shard in engine.shards:
            for standby in shard.replicas[1:]:
                assert standby.index.stats.queries == 0
    assert cracks[1] == cracks[2] > 0


def test_traffic_profile_agrees_across_backends():
    """Routed queries are counted where batches are routed, so skew —
    and the hot/cold pair a skew pass picks — is the same whoever
    serves (the driver-side shard indexes of a process-served engine
    never answer a query)."""
    ds = make_uniform(6_000, seed=31)
    queries = hotspot_workload(ds.universe, 128, 1e-3, seed=32)
    seen = {}
    for backend in BACKENDS:
        engine = ShardedIndex(ds.store.copy(), n_shards=4)
        with QueryExecutor(engine, max_workers=2, backend=backend) as ex:
            for i in range(0, len(queries), 32):
                ex.run(queries[i : i + 32])
            loads = engine.profile.shard_loads(engine.shards)
            skew = engine.profile.query_skew(engine.shards)
            result = Rebalancer(min_queries=1).rebalance(engine, reason="skew")
            seen[backend] = (loads, skew, result.hot_sid, result.cold_sid)
            assert engine.profile.query_skew(engine.shards) == 1.0  # rebaselined
    assert seen["sequential"] == seen["processes"]
    loads, skew, *_ = seen["sequential"]
    assert sum(l.queries for l in loads) >= len(queries) and skew > 1.5


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
