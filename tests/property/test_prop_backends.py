"""Property tests: every executor backend is observationally equal.

Hypothesis drives an initial dataset plus an arbitrary interleaving of
first-class queries (across predicates and result modes), insert
batches, delete batches, full and policy-driven compactions, maintenance
checks, reinserts of deleted ids and worker SIGKILLs.  The same
interleaving runs against one engine per backend (``sequential``,
``processes``), at every shard count K ∈ {1, 2, 7} — no backend is
refused or downgraded — with the
executors kept alive across
operations, so the process pool's warm workers must absorb every
mutation (insert/delete/compact between batches) as a shard delta,
admitting exactly the ids the driver admitted, and must keep serving
after a worker is killed between ops: the pool respawns it and
republishes its shards from the driver (a kill is a no-op on
``sequential``, which has no worker).  A maintenance check is a
compaction-only :meth:`MaintenanceScheduler.run`: its compaction
markers reach the warm workers as deltas, like any other write.
:func:`test_every_cell_is_served_or_refused` walks each backend through
the same story as a fixed script.  The Hypothesis engines run the
small ladder ``QuasiiConfig(2, (8, 4))`` with ``max_runs=2``, the
process workers included, so refinement and run collapse happen at toy
sizes.

Invariants, after every single operation:

* **Oracle agreement** — each backend's payload matches the Scan
  oracle: equal counts, equal id sets, and (for ``boxes``/``top_k``)
  equal corner matrices, no matter which backend served it.
* **Id-stream agreement** — inserts assign identical identifiers on
  every engine, so the ledger stays a single source of truth.
* **Maintenance closure** — a maintenance check leaves each engine's
  live multiset unchanged and its routing valid.
* **Ledger closure** — a final full-window query returns exactly the
  ledger's live id set on every backend, and the union of each engine's
  shards holds exactly the ledger's live multiset.
"""

from __future__ import annotations

from contextlib import ExitStack

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import ScanIndex
from repro.core import QuasiiConfig
from repro.datasets import BoxStore, make_uniform
from repro.errors import ConfigurationError, DatasetError
from repro.queries import uniform_workload
from repro.sharding import (
    MaintenancePolicy,
    MaintenanceScheduler,
    QueryExecutor,
    ShardedIndex,
)
from repro.sharding.executor import BACKEND_ENV, BACKENDS
from repro.telemetry.events import EventLog
from tests.ledger import UpdateLedger, closed_box_ids
from tests.property._interleavings import (
    BASE_KINDS,
    SEEDS,
    dataset_and_ops,
    full_window,
    pid_alive,
    shard_union,
    sigkill_worker,
)

#: The query shapes the interleavings draw from: (predicate, mode, k).
QUERY_SHAPES = (
    ("intersects", "ids", None),
    ("intersects", "count", None),
    ("intersects", "top_k", 2),
    ("within", "ids", None),
    ("contains", "boxes", None),
)

KINDS = (
    *BASE_KINDS, "compact", "maybe_compact", "reinsert", "kill", "maintain",
)
#: A kill names the worker wid of the two-worker pool; a policy
#: compaction and a maintenance check their dead-fraction threshold; a
#: reinsert a seed.
DEAD_FRACTIONS = st.sampled_from((0.0, 0.02, 0.1))
PAYLOADS = {
    "kill": st.integers(0, 1),
    "maintain": DEAD_FRACTIONS,
    "maybe_compact": DEAD_FRACTIONS,
    "reinsert": SEEDS,
}


SHARD_COUNTS = (1, 2, 7)


def _maintain(engine: ShardedIndex, dead_fraction: float, label: str) -> None:
    """One compaction-only scheduler check.  The live multiset and the
    ownership map survive it, and every pruning MBB still covers its
    shard's live rows, the stacked routing MBBs agreeing (a compaction
    re-tightens them)."""
    fp = shard_union(engine).live_fingerprint()
    policy = MaintenancePolicy(check_every=1, dead_fraction=dead_fraction)
    MaintenanceScheduler(engine, policy).run()
    assert shard_union(engine).live_fingerprint() == fp, (
        f"{label}: a maintenance check changed the live multiset"
    )
    engine.validate_routing()
    stack_lo, stack_hi = engine._mbb_stacks()
    for shard in engine.shards:
        assert np.array_equal(stack_lo[shard.sid], shard.mbb_lo), label
        assert np.array_equal(stack_hi[shard.sid], shard.mbb_hi), label
        rows = shard.store.live_rows()
        if rows.size:
            assert np.all(shard.mbb_lo <= shard.store.lo[rows].min(axis=0)), label
            assert np.all(shard.mbb_hi >= shard.store.hi[rows].max(axis=0)), label


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


@pytest.mark.parametrize("n_shards", SHARD_COUNTS)
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
def test_backends_agree_with_scan_under_interleavings(n_shards, case):
    (lo, hi), ops = case
    scan = ScanIndex(BoxStore(lo.copy(), hi.copy()))
    engines = {
        backend: ShardedIndex(
            BoxStore(lo.copy(), hi.copy()),
            n_shards=n_shards,
            config=QuasiiConfig(2, (8, 4)),
            max_runs=2,
        )
        for backend in BACKENDS
    }
    for engine in engines.values():
        engine.build()
    ledger = UpdateLedger(scan.store)
    deleted: list[int] = []

    with ExitStack() as stack:
        executors = {
            backend: stack.enter_context(
                QueryExecutor(
                    engine,
                    max_workers=1 if backend == "sequential" else 2,
                    backend=backend,
                )
            )
            for backend, engine in engines.items()
        }

        for kind, payload in ops:
            if kind == "query":
                query = payload
                want = scan.execute(query)
                closed = closed_box_ids(ledger, query)
                assert want.count == closed.size, f"Scan miscounted query {query.seq}"
                if query.mode in ("ids", "boxes"):
                    assert np.array_equal(np.sort(want.ids), closed)
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
                # Between ops, as an OOM kill would land; the next batch
                # that needs the worker respawns it.
                for ex in executors.values():
                    sigkill_worker(ex, payload)
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
            elif kind == "maintain":
                for backend, engine in engines.items():
                    _maintain(engine, payload, f"{backend} K={n_shards}")
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


@pytest.mark.parametrize("n_shards", SHARD_COUNTS)
@given(
    dataset_and_ops(
        kinds=(*BASE_KINDS, "compact", "kill", "kill", "maintain"),
        payloads={"kill": st.integers(0, 1), "maintain": DEAD_FRACTIONS},
        max_rows=40,
        max_ops=12,
    )
)
@settings(max_examples=6, deadline=None)
def test_worker_kills_at_every_shard_count(n_shards, case):
    """One copy per shard survives worker SIGKILLs and scheduler
    compactions whatever the shard-to-worker map: with one shard the
    second worker serves nothing (its kill goes unnoticed), with seven
    each worker serves several.  Every answer matches Scan, and at the
    end the shards hold exactly the ledger's live multiset with
    ownership intact."""
    (lo, hi), ops = case
    scan = ScanIndex(BoxStore(lo.copy(), hi.copy()))
    engine = ShardedIndex(
        BoxStore(lo.copy(), hi.copy()),
        n_shards=n_shards,
        config=QuasiiConfig(2, (8, 4)),
        max_runs=2,
    )
    engine.build()
    ledger = UpdateLedger(scan.store)
    with QueryExecutor(engine, max_workers=2, backend="processes") as ex:
        for kind, payload in ops:
            if kind == "query":
                got = ex.run([payload]).results[0]
                want = np.sort(scan.execute(payload).ids)
                assert np.array_equal(want, closed_box_ids(ledger, payload))
                assert np.array_equal(np.sort(got), want)
            elif kind == "insert":
                blo, bhi = payload
                ids = scan.insert(blo, bhi)
                assert np.array_equal(engine.insert(blo, bhi), ids)
                ledger.record_insert(blo, bhi, ids)
            elif kind == "delete":
                count, victim_seed = payload
                live = ledger.live_ids()
                count = min(count, live.size)
                if count == 0:
                    continue
                victims = np.random.default_rng(victim_seed).choice(
                    live, size=count, replace=False
                )
                assert engine.delete(victims) == scan.delete(victims) == count
                ledger.record_delete(victims)
            elif kind == "kill":
                sigkill_worker(ex, payload)
            elif kind == "maintain":
                _maintain(engine, payload, f"K={n_shards}")
            else:  # compact
                scan.compact()
                engine.compact()
                assert all(s.store.n_dead == 0 for s in engine.shards)
        got = ex.run([full_window(2)]).results[0]
        assert np.array_equal(np.sort(got), ledger.live_ids())
    ledger.assert_matches(shard_union(engine))
    engine.validate_routing()


def _small_engine():
    lo = np.arange(12, dtype=np.float64).reshape(6, 2)
    return ShardedIndex(BoxStore(lo, lo + 1.0), n_shards=2)


@pytest.mark.parametrize("backend", BACKENDS)
def test_every_cell_is_served_or_refused(backend):
    """No backend is refused or downgraded: each one serves from the
    backend it asked for through reads, writes, compaction and — on
    ``processes`` — a worker SIGKILL between batches, oracle-checked at
    every step, and leaves no worker process behind."""
    ds = make_uniform(4_000, seed=11)
    scan = ScanIndex(ds.store.copy())
    events = EventLog()
    engine = ShardedIndex(ds.store.copy(), n_shards=3)
    queries = uniform_workload(ds.universe, 24, 2e-3, seed=12)

    def check(ex, batch):
        out = ex.run(batch)
        assert out.mode == backend
        for got, q in zip(out.query_results, batch):
            _check_payload(got, scan.execute(q), backend)

    with QueryExecutor(engine, max_workers=2, backend=backend, events=events) as ex:
        assert ex.backend == backend
        check(ex, [full_window(3), *queries[:6]])
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
        bases = len(events.recent("worker.refresh"))
        victim = sigkill_worker(ex, 0)
        assert (victim is None) == (backend == "sequential")
        lo2 = rng.uniform(0, 9_000, size=(40, 3))
        assert np.array_equal(
            engine.insert(lo2, lo2 + 25.0), scan.insert(lo2, lo2 + 25.0)
        )
        # The full window reaches every shard, so the dead worker too.
        check(ex, [full_window(3), *queries[16:20]])
        republished = events.recent("worker.refresh")[bases:]
        if backend == "processes":
            (respawn,) = events.recent("worker.respawn")
            assert respawn.payload["old_pid"] == victim
            # Worker 0 serves the even sids; each gets a base cut from
            # the driver's current shard, worker 1 keeps its warm copy.
            assert sorted(e.payload["sid"] for e in republished) == [0, 2]
            assert [e.payload["rows"] for e in republished] == [
                engine.shards[e.payload["sid"]].owned_count for e in republished
            ]
        else:
            assert events.recent("worker.respawn") == republished == []
        bases = len(events.recent("worker.refresh"))
        check(ex, queries[20:])
        check(ex, [full_window(3)])
        assert len(events.recent("worker.refresh")) == bases
    assert all(s.oplog is None for s in engine.shards)
    spawned = [e.payload["pid"] for e in events.recent("worker.spawn")]
    assert len(spawned) == (3 if backend == "processes" else 0)
    assert not [pid for pid in spawned if pid_alive(pid)]


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
