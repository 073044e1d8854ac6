"""Unit tests for the process-parallel serving tier (``repro.parallel``).

Covers the four layers of the subsystem:

* segments — publish round trips (through a pickle, as on the pipe)
  preserve the live multiset, and a worker's store is a zero-copy view
  of the buffer it received;
* the wire — query/result codecs across the full predicate/mode
  matrix, including the ``None`` payloads of count-mode results;
* backend resolution — explicit argument vs ``QUASII_EXECUTOR_BACKEND``
  vs worker-count default;
* the serving pool — oracle parity through the executor (including
  across writes, which ride to the warm workers as deltas), telemetry
  golden-equivalence with the sequential backend, worker SIGKILL
  recovery, op-log arming, a batch too large for the pipes' buffers,
  and no worker outliving its pool or its driver.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import signal
import time
from dataclasses import replace

import numpy as np
import pytest

from repro.baselines import ScanIndex
from repro.core import QuasiiConfig
from repro.datasets import BoxStore, make_uniform
from repro.errors import ConfigurationError, ParallelError
from repro.geometry import Box
from repro.parallel import (
    ProcessPool,
    SegmentSpec,
    decode_queries,
    decode_results,
    encode_queries,
    encode_results,
    publish_delta,
    publish_segment,
    segment_nbytes,
    segment_store,
)
from repro.parallel import pool as pool_module
from repro.parallel.worker import _absorb, _build
from repro.queries import Query, uniform_workload
from repro.sharding import MaintenancePolicy, QueryExecutor, ShardedIndex
from repro.sharding.executor import BACKEND_ENV, BACKENDS
from repro.telemetry import Telemetry
from repro.telemetry.events import EVENTS, EventLog
from repro.telemetry.naming import (
    QUERY_SECONDS,
    WORKER_BATCH_SECONDS,
    WORKER_DISPATCHES,
    WORKER_QUERY_SECONDS,
    WORKER_RESPAWNS,
)
from tests.property._interleavings import pid_alive, sigkill_worker


def _store(n: int = 50, ndim: int = 2, seed: int = 0) -> BoxStore:
    rng = np.random.default_rng(seed)
    lo = rng.uniform(0, 100, size=(n, ndim))
    return BoxStore(lo, lo + rng.uniform(0.1, 5, size=(n, ndim)))


def _query_matrix(ndim: int = 2, span: float = 100.0) -> list[Query]:
    """One query per legal (predicate, mode) combination, inside ``span``."""
    queries: list[Query] = []
    seq = 0
    for predicate in ("intersects", "within", "contains"):
        for mode in ("ids", "boxes", "count"):
            lo = (0.1 * span + seq,) * ndim
            hi = (0.6 * span + seq,) * ndim
            queries.append(
                Query(Box(lo, hi), predicate=predicate, mode=mode, seq=seq)
            )
            seq += 1
        queries.append(
            Query(
                Box((0.05 * span,) * ndim, (0.9 * span,) * ndim),
                predicate=predicate,
                mode="top_k",
                k=3,
                seq=seq,
            )
        )
        seq += 1
    point = (0.5 * span,) * ndim
    queries.append(
        Query(Box(point, point), predicate="covers_point", mode="ids", seq=seq)
    )
    return queries


def _pids(pool) -> list[int | None]:
    """The pool's current worker pids, by wid."""
    return [worker.pid for worker in pool._workers]


def _assert_matches(scan, queries, batch) -> None:
    """Every id-mode answer of ``batch`` equals the Scan oracle's."""
    for q, got in zip(queries, batch.results):
        assert np.array_equal(np.sort(got), np.sort(scan.execute(q).ids))


def _in_child(target):
    """Start ``target(conn)`` in a forked child process; return the
    process and the pipe end it reports on."""
    ctx = multiprocessing.get_context("fork")
    reports, conn = ctx.Pipe(duplex=False)
    process = ctx.Process(target=target, args=(conn,))
    process.start()
    conn.close()
    return process, reports


def _report(process, reports, timeout: float):
    """The child's first report, or a failure (the child SIGKILLed)
    when none arrives within ``timeout`` seconds."""
    try:
        if not reports.poll(timeout):
            pytest.fail(f"the child sent nothing within {timeout:.0f} s")
        return reports.recv()
    finally:
        if process.is_alive():
            os.kill(process.pid, signal.SIGKILL)
        process.join(timeout=10.0)
        reports.close()


class _Recording:
    """A worker's pipe end that logs what the driver sends through it."""

    def __init__(self, conn, wid: int, log: list) -> None:
        self.conn, self.wid, self.log = conn, wid, log

    def send(self, msg) -> None:
        self.log.append((self.wid, msg))
        self.conn.send(msg)

    def __getattr__(self, name):
        return getattr(self.conn, name)


needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="the child-process tests fork",
)


# ----------------------------------------------------------------------
# Segments
# ----------------------------------------------------------------------
class TestSegments:
    def test_publish_roundtrip_preserves_live_multiset(self):
        store = _store(40)
        store.delete_ids(np.arange(0, 40, 3, dtype=np.int64))
        spec, packed = publish_segment(store, sid=7, version=2)
        assert spec.sid == 7 and spec.version == 2
        assert spec.n_rows == store.live_count
        assert spec.epoch == store.epoch
        assert packed.dtype == np.uint8
        assert packed.size == segment_nbytes(spec.n_rows, spec.ndim)
        # What the worker reads is what the pipe delivered: a pickle.
        back = segment_store(*pickle.loads(pickle.dumps((spec, packed))))
        assert back.n == store.live_count
        assert back.live_count == back.n
        assert back.live_fingerprint() == store.live_fingerprint()

    def test_a_base_spec_carries_the_index_settings_as_plain_data(self):
        config = QuasiiConfig(2, (8, 4))
        spec, packed = publish_segment(_store(8), 0, 0, config, max_runs=2)
        back = pickle.loads(pickle.dumps(spec))
        assert isinstance(back, SegmentSpec) and back == spec
        assert (back.config, back.max_runs) == (config, 2)
        index = _build((back, packed))
        assert index.config == config
        assert index._max_runs == 2

    def test_store_is_zero_copy_over_the_received_buffer(self):
        spec, packed = publish_segment(_store(16), sid=0, version=0)
        received = pickle.loads(pickle.dumps(packed))
        store = segment_store(spec, received)
        for column in (store.lo, store.hi, store.ids):
            assert np.shares_memory(column, received)
            assert column.flags.writeable
        # The worker cracks in place: a permutation moves the buffer.
        before = received.copy()
        store.apply_order_range(0, store.n, np.arange(16)[::-1].copy())
        assert not np.array_equal(received, before)

    def test_appending_to_a_segment_store_leaves_the_buffer_alone(self):
        spec, packed = publish_segment(_store(16), sid=0, version=0)
        store = segment_store(spec, packed)
        before = packed.copy()
        fresh = np.array([[1.0, 2.0]])
        store.append(fresh, fresh + 1.0)
        store.apply_order_range(0, store.n, np.arange(17)[::-1].copy())
        assert store.n == 17
        assert np.array_equal(packed, before)
        assert not np.shares_memory(store.lo, packed)
        assert not np.shares_memory(store.ids, packed)

    def test_empty_snapshot_is_representable(self):
        store = _store(5)
        store.delete_ids(store.ids.copy())
        spec, packed = publish_segment(store, sid=1, version=0)
        assert spec.n_rows == 0 and packed.size == 0
        assert segment_store(spec, packed).n == 0

    def test_segment_store_rejects_an_undersized_buffer(self):
        spec, packed = publish_segment(_store(8), sid=0, version=0)
        lying = replace(spec, n_rows=spec.n_rows * 100)
        with pytest.raises(ParallelError, match="bytes"):
            segment_store(lying, packed)

    def test_delta_packs_inserted_rows_and_ordered_ops(self):
        lo = np.arange(12, dtype=np.float64).reshape(6, 2)
        ids = np.arange(100, 106, dtype=np.int64)
        gone = np.array([101, 7], dtype=np.int64)
        none = np.empty(0, dtype=np.int64)
        log = [
            ("insert", lo[:4], lo[:4] + 1.0, ids[:4]),
            ("delete", None, None, gone),
            ("compact", None, None, none),
            ("insert", lo[4:], lo[4:] + 1.0, ids[4:]),
        ]
        delta = pickle.loads(pickle.dumps(publish_delta(log, sid=3, version=5)))
        assert delta.ops == (
            ("insert", 4), ("delete", 2), ("compact", 0), ("insert", 2),
        )
        assert np.array_equal(delta.deleted, gone)
        spec, packed = delta.rows
        assert (spec.sid, spec.version) == (3, 5)
        assert packed.size == segment_nbytes(6, 2)
        rows = segment_store(spec, packed)
        assert np.array_equal(rows.ids, ids)
        assert np.array_equal(rows.lo, lo)
        # Without inserts there are no rows to pack.
        delta = publish_delta(log[1:3], sid=3, version=5)
        assert delta.rows is None
        assert delta.ops == (("delete", 2), ("compact", 0))

    def test_a_copy_that_disagrees_with_the_driver_refuses_to_serve(self):
        store = _store(12)
        index = _build(publish_segment(store, sid=0, version=0))
        _absorb(index, None, 12)
        with pytest.raises(ParallelError, match="owns 12 rows, the driver's 13"):
            _absorb(index, None, 13)
        delta = publish_delta(
            [("delete", None, None, store.ids[:2].copy())], sid=0, version=0
        )
        with pytest.raises(ParallelError, match="owns 10 rows, the driver's 12"):
            _absorb(index, delta, 12)

    def test_segment_nbytes_matches_layout(self):
        assert segment_nbytes(0, 3) == 0
        # lo + hi (float64) and ids (int64) per row.
        assert segment_nbytes(10, 3) == 10 * (2 * 3 * 8 + 8)


# ----------------------------------------------------------------------
# The wire
# ----------------------------------------------------------------------
class TestWire:
    def test_query_roundtrip_across_predicates_and_modes(self):
        queries = _query_matrix()
        decoded = decode_queries(encode_queries(queries))
        assert len(decoded) == len(queries)
        for want, got in zip(queries, decoded):
            assert got.predicate == want.predicate
            assert got.mode == want.mode
            assert got.k == want.k
            assert got.seq == want.seq
            assert got.window.lo == want.window.lo
            assert got.window.hi == want.window.hi

    def test_empty_sub_batch_is_rejected(self):
        with pytest.raises(ParallelError, match="empty"):
            encode_queries([])

    def test_corrupt_codes_fail_loudly(self):
        wire = encode_queries(_query_matrix())
        wire.predicates[0] = 200
        with pytest.raises(ParallelError, match="corrupt"):
            decode_queries(wire)

    def test_result_roundtrip_restores_per_mode_payloads(self):
        store = _store(60, seed=3)
        index = ScanIndex(store)
        queries = _query_matrix()
        results = index.execute_batch(queries)
        decoded = decode_results(
            encode_results(results, store.ndim), queries
        )
        assert len(decoded) == len(results)
        for want, got in zip(results, decoded):
            assert got.query == want.query
            assert got.count == want.count
            assert got.seconds == pytest.approx(want.seconds)
            if want.query.mode == "count":
                assert got.ids is None and got.boxes is None
            else:
                assert np.array_equal(got.ids, want.ids)
            if want.query.mode in ("boxes", "top_k"):
                assert np.array_equal(got.boxes[0], want.boxes[0])
                assert np.array_equal(got.boxes[1], want.boxes[1])
            elif want.query.mode == "ids":
                assert got.boxes is None


# ----------------------------------------------------------------------
# Backend resolution
# ----------------------------------------------------------------------
class TestBackendResolution:
    @pytest.fixture(autouse=True)
    def _clean_env(self, monkeypatch):
        # The CI matrix exports QUASII_EXECUTOR_BACKEND; resolution rules
        # are this class's subject, so start every test from a clean slate.
        monkeypatch.delenv(BACKEND_ENV, raising=False)

    def _engine(self, **kw):
        kw.setdefault("n_shards", 4)
        return ShardedIndex(make_uniform(500, seed=1).store.copy(), **kw)

    def test_worker_count_default(self):
        assert (
            QueryExecutor(self._engine(), max_workers=1).backend
            == "sequential"
        )
        # Worker count alone never picks a server: it only sizes the pool.
        assert (
            QueryExecutor(self._engine(), max_workers=3).backend
            == "sequential"
        )

    def test_env_widens_parallel_executors_only(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV, "processes")
        assert (
            QueryExecutor(self._engine(), max_workers=4).backend
            == "processes"
        )
        # A deliberate single-worker executor keeps its sequential contract.
        assert (
            QueryExecutor(self._engine(), max_workers=1).backend
            == "sequential"
        )

    def test_explicit_argument_beats_env(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV, "processes")
        ex = QueryExecutor(
            self._engine(), max_workers=4, backend="sequential"
        )
        assert ex.backend == "sequential"

    def test_unknown_backend_names_its_source(self, monkeypatch):
        with pytest.raises(ConfigurationError, match="backend argument"):
            QueryExecutor(self._engine(), max_workers=2, backend="fibers")
        monkeypatch.setenv(BACKEND_ENV, "fibers")
        with pytest.raises(ConfigurationError, match=BACKEND_ENV):
            QueryExecutor(self._engine(), max_workers=2)


# ----------------------------------------------------------------------
# The serving pool, through the executor
# ----------------------------------------------------------------------
class TestProcessBackend:
    @pytest.fixture(scope="class")
    def dataset(self):
        return make_uniform(4_000, seed=11)

    def _engine(self, dataset, **kw):
        kw.setdefault("n_shards", 4)
        return ShardedIndex(dataset.store.copy(), **kw)

    def test_pool_rejects_zero_workers(self, dataset):
        engine = self._engine(dataset)
        engine.build()
        with pytest.raises(ConfigurationError, match="n_workers"):
            ProcessPool(engine, n_workers=0)

    def test_parity_with_oracle_across_modes_and_epochs(self, dataset):
        queries = _query_matrix(ndim=3, span=10_000.0) + list(
            uniform_workload(dataset.universe, 20, 1e-3, seed=2)
        )
        scan = ScanIndex(dataset.store.copy())
        engine = self._engine(dataset)
        events = EventLog()

        def check(batch):
            for q, result in zip(queries, batch.query_results):
                want = scan.execute(q)
                assert result.count == want.count
                if result.query.mode != "count":
                    assert np.array_equal(
                        np.sort(result.ids), np.sort(want.ids)
                    )

        with QueryExecutor(
            engine, max_workers=2, backend="processes", events=events
        ) as ex:
            out = ex.run(queries)
            assert out.mode == "processes"
            assert out.workers == 2
            check(out)
            # Mutations bump the store epoch; the next batch ships them
            # to the warm workers as deltas — no segment is republished
            # — and still agrees with the oracle.
            rng = np.random.default_rng(5)
            blo = rng.uniform(0, 9_000, size=(30, 3))
            bhi = blo + rng.uniform(1, 50, size=(30, 3))
            assert np.array_equal(
                engine.insert(blo, bhi), scan.insert(blo, bhi)
            )
            victims = dataset.store.ids[:40].copy()
            assert engine.delete(victims) == scan.delete(victims) == 40
            refreshes_before = len(events.recent("worker.refresh"))
            assert not events.recent("worker.delta")
            check(ex.run(queries))
            assert len(events.recent("worker.refresh")) == refreshes_before
            deltas = [e.payload for e in events.recent("worker.delta")]
            assert sum(d["rows"] for d in deltas) == 30
            assert sum(d["bytes"] for d in deltas) == segment_nbytes(30, 3)
            assert sum(d["ops"] for d in deltas) >= 2
            # With nothing written in between, nothing is shipped.
            check(ex.run(queries))
            assert len(events.recent("worker.delta")) == len(deltas)

    def test_telemetry_matches_sequential_backend(self, dataset):
        queries = uniform_workload(dataset.universe, 30, 1e-3, seed=3)
        runs = {}
        for backend in BACKENDS:
            engine = self._engine(dataset)
            telemetry = Telemetry()
            with QueryExecutor(
                engine, max_workers=2, backend=backend, telemetry=telemetry
            ) as ex:
                ex.run(queries)
            runs[backend] = (engine.stats, telemetry.registry)
        seq_stats, seq_reg = runs["sequential"]
        prc_stats, prc_reg = runs["processes"]
        # Routing and result accounting are driver-side on both paths.
        assert prc_stats.queries == seq_stats.queries == len(queries)
        assert prc_stats.shards_visited == seq_stats.shards_visited
        assert prc_stats.shards_pruned == seq_stats.shards_pruned
        assert prc_stats.results_returned == seq_stats.results_returned
        # Worker-side crack work folds back into the same counters: the
        # worker indexes see identical snapshots and identical sub-batches,
        # so the fleet-wide work totals must agree with the in-thread server.
        assert prc_stats.objects_tested == seq_stats.objects_tested
        # Driver histograms sample per query on both paths; worker.* is
        # the process tier's own vocabulary, absorbed after each batch.
        assert (
            prc_reg.histograms()[QUERY_SECONDS].count
            == seq_reg.histograms()[QUERY_SECONDS].count
        )
        assert prc_reg.histograms()[WORKER_BATCH_SECONDS].count > 0
        assert prc_reg.histograms()[WORKER_QUERY_SECONDS].count > 0
        assert WORKER_BATCH_SECONDS not in seq_reg.histograms()

    def test_sigkilled_worker_respawns_and_batch_completes(self, dataset):
        queries = uniform_workload(dataset.universe, 15, 1e-3, seed=4)
        scan = ScanIndex(dataset.store.copy())
        expected = [np.sort(scan.execute(q).ids) for q in queries]
        engine = self._engine(dataset)
        events = EventLog()
        with QueryExecutor(
            engine, max_workers=2, backend="processes", events=events
        ) as ex:
            first = ex.run(queries)
            for got, want in zip(first.results, expected):
                assert np.array_equal(np.sort(got), want)
            pool = ex._pool
            victim = _pids(pool)[0]
            os.kill(victim, signal.SIGKILL)
            deadline = time.monotonic() + 5.0
            while (
                pool._workers[0].is_alive() and time.monotonic() < deadline
            ):
                time.sleep(0.01)
            second = ex.run(queries)
            for got, want in zip(second.results, expected):
                assert np.array_equal(np.sort(got), want)
            respawns = events.recent("worker.respawn")
            assert len(respawns) == 1
            assert respawns[0].payload["old_pid"] == victim
            assert _pids(pool)[0] != victim

    @staticmethod
    def _kill(pool, wid):
        victim = _pids(pool)[wid]
        os.kill(victim, signal.SIGKILL)
        deadline = time.monotonic() + 5.0
        while pool._workers[wid].is_alive() and time.monotonic() < deadline:
            time.sleep(0.01)
        return victim

    def test_sigkill_after_deltas_republishes_current_state(self, dataset):
        queries = uniform_workload(dataset.universe, 15, 1e-2, seed=4)
        scan = ScanIndex(dataset.store.copy())
        engine = self._engine(dataset)
        events = EventLog()
        rng = np.random.default_rng(9)

        def write(n_insert, victims):
            blo = rng.uniform(0, 9_000, size=(n_insert, 3))
            bhi = blo + rng.uniform(1, 50, size=(n_insert, 3))
            ids = engine.insert(blo, bhi)
            assert np.array_equal(ids, scan.insert(blo, bhi))
            assert engine.delete(victims) == scan.delete(victims)
            return ids

        def check(batch):
            _assert_matches(scan, queries, batch)

        with QueryExecutor(
            engine, max_workers=2, backend="processes", events=events
        ) as ex:
            check(ex.run(queries))
            first = write(60, dataset.store.ids[:20].copy())
            check(ex.run(queries))
            assert events.recent("worker.delta")
            # A second write, then the kill, then the read: the dead
            # worker had absorbed the first write's deltas and never
            # sees the second's.
            write(60, first[:10])
            self._kill(ex._pool, 0)
            bases = len(events.recent("worker.refresh"))
            check(ex.run(queries))
            assert len(events.recent("worker.respawn")) == 1
            republished = events.recent("worker.refresh")[bases:]
            # Worker 0's shards (even sids) get bases cut from the
            # driver's current state; worker 1 keeps its warm copies.
            assert sorted(e.payload["sid"] for e in republished) == [0, 2]
            assert all(e.payload["version"] == 1 for e in republished)
            assert sum(e.payload["rows"] for e in republished) == sum(
                engine.shards[sid].owned_count for sid in (0, 2)
            )
            write(30, first[10:20])
            check(ex.run(queries))
            assert len(events.recent("worker.refresh")) == bases + 2

    @pytest.mark.parametrize("wid", [0, 1])
    def test_a_sigkill_republishes_only_the_dead_workers_shards(self, dataset, wid):
        queries = uniform_workload(dataset.universe, 15, 1e-2, seed=5)
        scan = ScanIndex(dataset.store.copy())
        engine = self._engine(dataset)
        events = EventLog()
        telemetry = Telemetry()
        with QueryExecutor(
            engine, max_workers=2, backend="processes", events=events,
            telemetry=telemetry,
        ) as ex:
            _assert_matches(scan, queries, ex.run(queries))
            survivor = _pids(ex._pool)[1 - wid]
            victim = sigkill_worker(ex, wid)
            assert victim is not None
            bases = len(events.recent("worker.refresh"))
            _assert_matches(scan, queries, ex.run(queries))
            (respawn,) = events.recent("worker.respawn")
            assert respawn.payload["wid"] == wid
            assert respawn.payload["old_pid"] == victim
            assert respawn.payload["new_pid"] == _pids(ex._pool)[wid]
            assert _pids(ex._pool)[1 - wid] == survivor
            republished = events.recent("worker.refresh")[bases:]
            assert sorted(e.payload["sid"] for e in republished) == [wid, wid + 2]
            assert telemetry.registry.counter(WORKER_RESPAWNS).value == 1

    def test_workers_crack_as_the_driver_would_with_the_engine_config(self):
        """Driver and workers build a shard's index from the same
        settings: a small-ladder engine cracks as often under
        ``processes`` as under ``sequential``, all of it in the workers,
        and a SIGKILLed worker's replacement starts over from the same
        ladder."""
        store = _store(400)
        queries = uniform_workload(
            Box((0.0, 0.0), (100.0, 100.0)), 20, 1e-2, seed=1
        )
        cracks = {}
        for backend in BACKENDS:
            engine = ShardedIndex(
                store.copy(), n_shards=2, config=QuasiiConfig(2, (8, 4)),
                max_runs=2,
            )
            with QueryExecutor(engine, max_workers=2, backend=backend) as ex:
                ex.run(queries)
                cracks[backend] = engine.stats.cracks
                if backend == "processes":
                    for wid in (0, 1):
                        sigkill_worker(ex, wid)
                    ex.run(queries)
                    # The replacements re-crack the driver's rows from
                    # scratch, as a fresh engine-config index does.
                    assert engine.stats.cracks == 2 * cracks["sequential"]
                    assert sum(s.work_counter("cracks") for s in engine.shards) == 0
        assert cracks["processes"] == cracks["sequential"] > 0

    def test_killing_every_worker_respawns_each_once(self, dataset):
        queries = uniform_workload(dataset.universe, 15, 1e-2, seed=6)
        scan = ScanIndex(dataset.store.copy())
        engine = self._engine(dataset)
        events = EventLog()
        with QueryExecutor(
            engine, max_workers=2, backend="processes", events=events
        ) as ex:
            ex.run(queries)
            victims = {sigkill_worker(ex, wid) for wid in (0, 1)}
            bases = len(events.recent("worker.refresh"))
            _assert_matches(scan, queries, ex.run(queries))
            respawns = events.recent("worker.respawn")
            assert sorted(e.payload["wid"] for e in respawns) == [0, 1]
            assert {e.payload["old_pid"] for e in respawns} == victims
            assert not victims & set(_pids(ex._pool))
            republished = events.recent("worker.refresh")[bases:]
            assert sorted(e.payload["sid"] for e in republished) == [0, 1, 2, 3]
            # Warm again: the next batch kills nothing and ships nothing.
            _assert_matches(scan, queries, ex.run(queries))
            assert len(events.recent("worker.respawn")) == 2
            assert len(events.recent("worker.refresh")) == bases + 4

    def test_a_respawned_worker_takes_later_writes_as_deltas(self, dataset):
        queries = uniform_workload(dataset.universe, 15, 1e-2, seed=7)
        scan = ScanIndex(dataset.store.copy())
        engine = self._engine(dataset)
        events = EventLog()
        rng = np.random.default_rng(3)
        with QueryExecutor(
            engine, max_workers=2, backend="processes", events=events
        ) as ex:
            ex.run(queries)
            sigkill_worker(ex, 0)
            ex.run(queries)
            bases = len(events.recent("worker.refresh"))
            blo = rng.uniform(0, 9_000, size=(40, 3))
            bhi = blo + rng.uniform(1, 50, size=(40, 3))
            assert np.array_equal(engine.insert(blo, bhi), scan.insert(blo, bhi))
            victims = dataset.store.ids[100:130].copy()
            assert engine.delete(victims) == scan.delete(victims)
            _assert_matches(scan, queries, ex.run(queries))
            # The write reached both workers as deltas, the respawned one
            # included: no base was cut again.
            assert len(events.recent("worker.refresh")) == bases
            deltas = events.recent("worker.delta")
            assert sum(e.payload["rows"] for e in deltas) == 40
            assert {e.payload["sid"] % 2 for e in deltas} == {0, 1}

    def test_every_event_the_process_tier_emits_is_canonical(self, dataset):
        queries = uniform_workload(dataset.universe, 10, 1e-2, seed=8)
        engine = self._engine(dataset)
        events = EventLog()
        with QueryExecutor(
            engine, max_workers=2, backend="processes", events=events
        ) as ex:
            ex.run(queries)
            engine.insert(np.zeros((3, 3)), np.ones((3, 3)))
            ex.run(queries)
            sigkill_worker(ex, 1)
            ex.run(queries)
        kinds = {e.kind for e in events.recent()}
        assert {"worker.spawn", "worker.respawn", "worker.refresh"} <= kinds
        assert kinds <= set(EVENTS)

    def test_the_kill_helper_needs_a_live_worker(self, dataset):
        queries = uniform_workload(dataset.universe, 5, 1e-2, seed=9)
        with QueryExecutor(
            self._engine(dataset), max_workers=2, backend="sequential"
        ) as ex:
            ex.run(queries)
            assert sigkill_worker(ex, 0) is None  # sequential: no worker
        events = EventLog()
        with QueryExecutor(
            self._engine(dataset), max_workers=2, backend="processes",
            events=events,
        ) as ex:
            assert sigkill_worker(ex, 0) is None  # no pool before a batch
            ex.run(queries)
            assert sigkill_worker(ex, 0) is not None
            assert sigkill_worker(ex, 0) is None  # dead, not yet respawned
            ex.run(queries)
            assert len(events.recent("worker.respawn")) == 1

    def test_the_op_logs_have_one_consumer_and_close_disarms_them(self, dataset):
        queries = uniform_workload(dataset.universe, 20, 1e-2, seed=8)
        scan = ScanIndex(dataset.store.copy())
        engine = self._engine(dataset)
        engine.build()
        assert all(s.oplog is None for s in engine.shards)
        ex = QueryExecutor(engine, max_workers=2, backend="processes")
        try:
            _assert_matches(scan, queries, ex.run(queries))
            assert all(s.oplog == [] for s in engine.shards)
            # A second live pool is refused at its first publish, and
            # leaves the first pool's logs armed.
            second = ProcessPool(engine, n_workers=1)
            try:
                with pytest.raises(ParallelError, match="another live"):
                    second.run_batch(queries[:1], {0: [0]})
            finally:
                second.close()
            assert all(s.oplog == [] for s in engine.shards)
        finally:
            ex.close()
        assert all(s.oplog is None for s in engine.shards)
        # Sequential serving never arms a log.
        QueryExecutor(engine, max_workers=1).run(queries)
        engine.insert(np.zeros((1, 3)), np.ones((1, 3)))
        assert all(s.oplog is None for s in engine.shards)

    def test_scheduler_compaction_reaches_workers_as_a_delta_marker(self, dataset):
        # A shard's store is fixed once built, so after the first touch
        # every write — deletes, the scheduler's compaction, reinserts
        # of the reclaimed ids — reaches the warm workers as deltas.
        everything = Query(Box((-1.0,) * 3, (1e6,) * 3))
        queries = [everything, *uniform_workload(dataset.universe, 12, 1e-2, seed=3)]
        scan = ScanIndex(dataset.store.copy())
        engine = self._engine(dataset)
        events = EventLog()
        policy = MaintenancePolicy(check_every=1, dead_fraction=0.01)
        with QueryExecutor(
            engine, max_workers=2, backend="processes", events=events,
            maintenance=policy,
        ) as ex:
            _assert_matches(scan, queries, ex.run(queries))
            assert len(events.recent("worker.refresh")) == engine.n_shards
            victims = dataset.store.ids[::10].copy()
            assert engine.delete(victims) == scan.delete(victims)
            # The deletes ride this batch; the tick after it compacts.
            _assert_matches(scan, queries, ex.run(queries))
            report = ex.scheduler.report
            assert report.compaction_passes == 1
            assert report.rows_reclaimed == victims.size
            markers = {s.sid for s in engine.shards if s.oplog}
            assert markers == set(range(engine.n_shards))
            assert all(
                [op[0] for op in s.oplog] == ["compact"] for s in engine.shards
            )
            seen = len(events.recent("worker.delta"))
            _assert_matches(scan, queries, ex.run(queries))
            shipped = events.recent("worker.delta")[seen:]
            assert {e.payload["sid"] for e in shipped} == markers
            assert all(
                (e.payload["ops"], e.payload["rows"], e.payload["bytes"]) == (1, 0, 0)
                for e in shipped
            )
            # The workers let go of the tombstones with their shards: an
            # id they still held dead would be refused (an err reply).
            scan.compact()
            lo = np.random.default_rng(4).uniform(0, 9_000, size=(victims.size, 3))
            assert np.array_equal(engine.insert(lo, lo + 5.0, victims), victims)
            scan.insert(lo, lo + 5.0, victims)
            _assert_matches(scan, queries, ex.run(queries))
            assert len(events.recent("worker.refresh")) == engine.n_shards
            assert not events.recent("worker.respawn")

    def test_a_base_is_cut_once_and_later_writes_drain_as_deltas(self, dataset):
        engine = self._engine(dataset, n_shards=2)
        engine.build()
        pool = ProcessPool(engine, n_workers=1)
        try:
            shard = engine.shards[0]
            base, delta, owned = pool._sync(0)
            assert base is not None and delta is None
            spec, packed = base
            assert spec.version == 0
            assert owned == spec.n_rows == shard.owned_count
            assert packed.size == segment_nbytes(spec.n_rows, spec.ndim)
            # Nothing written: nothing to ship.
            assert pool._sync(0) == (None, None, shard.owned_count)
            victim = int(shard.store.ids[0])
            engine.delete(np.array([victim]))
            engine.compact()
            base, delta, owned = pool._sync(0)
            assert base is None and delta.rows is None
            assert delta.ops == (("delete", 1), ("compact", 0))
            assert delta.deleted.tolist() == [victim]
            assert owned == shard.owned_count and shard.oplog == []
        finally:
            pool.close()
        assert shard.oplog is None

    def test_a_log_that_outgrew_its_base_becomes_a_new_base(self):
        lo = np.arange(24, dtype=np.float64).reshape(8, 3)
        engine = ShardedIndex(BoxStore(lo, lo + 1.0), n_shards=2)
        scan = ScanIndex(BoxStore(lo.copy(), lo + 1.0))
        everything = Query(Box((-1.0,) * 3, (1e6,) * 3))
        events = EventLog()
        with QueryExecutor(
            engine, max_workers=2, backend="processes", events=events
        ) as ex:
            ex.run([everything])
            rng = np.random.default_rng(1)
            blo = rng.uniform(0, 100, size=(40, 3))
            base_rows = engine.shard_sizes()
            ids = engine.insert(blo, blo + 1.0)
            scan.insert(blo, blo + 1.0)
            got = ex.run([everything]).results[0]
            assert np.array_equal(np.sort(got), np.sort(scan.execute(everything).ids))
            written = np.bincount([engine.owner_of(i) for i in ids], minlength=2)
            outgrown = {
                sid for sid in range(2) if written[sid] > base_rows[sid]
            }
            assert outgrown
            assert {
                e.payload["sid"]
                for e in events.recent("worker.refresh")
                if e.payload["version"] == 1
            } == outgrown
            assert {e.payload["sid"] for e in events.recent("worker.delta")} == {
                sid for sid in range(2) if written[sid]
            } - outgrown

    def test_worker_err_mid_batch_recuts_only_the_failed_shards_base(
        self, dataset
    ):
        queries = uniform_workload(dataset.universe, 15, 1e-2, seed=4)
        scan = ScanIndex(dataset.store.copy())
        engine = self._engine(dataset)
        events = EventLog()
        ex = QueryExecutor(
            engine, max_workers=2, backend="processes", events=events
        )
        try:
            ex.run(queries)
            assert len(events.recent("worker.refresh")) == engine.n_shards
            rng = np.random.default_rng(2)
            blo = rng.uniform(0, 9_000, size=(80, 3))
            engine.insert(blo, blo + 5.0)
            scan.insert(blo, blo + 5.0)
            # Poison one shard's delta: its worker's validating delete
            # refuses an id that is not live there.
            poisoned = engine.shards[1]
            assert poisoned.oplog
            poisoned.oplog.append(
                ("delete", None, None, np.array([10**12], dtype=np.int64))
            )
            with pytest.raises(ParallelError, match="shard 1"):
                ex.run(queries)
            # The failed shard's copy is suspect: its base is forgotten
            # and the next batch cuts a new one from the driver's state;
            # the shards answered in the same reply keep theirs.
            assert poisoned.oplog is None
            assert all(
                s.oplog is not None for s in engine.shards if s.sid != 1
            )
            _assert_matches(scan, queries, ex.run(queries))
            recut = events.recent("worker.refresh")[engine.n_shards:]
            assert [(e.payload["sid"], e.payload["version"]) for e in recut] == [
                (1, 1)
            ]
        finally:
            ex.close()

    def test_close_stops_every_worker(self, dataset):
        engine = self._engine(dataset)
        ex = QueryExecutor(engine, max_workers=2, backend="processes")
        ex.run(uniform_workload(dataset.universe, 5, 1e-3, seed=6))
        workers = list(ex._pool._workers)
        ex.close()
        for worker in workers:
            assert not worker.is_alive()
            assert not pid_alive(worker.pid)
        assert ex._pool is None
        assert all(s.oplog is None for s in engine.shards)
        # close() is idempotent.
        ex.close()

    def test_a_round_sends_each_worker_one_message(self, dataset):
        queries = uniform_workload(dataset.universe, 40, 1e-2, seed=3)
        engine = self._engine(dataset)
        telemetry = Telemetry()
        with QueryExecutor(
            engine, max_workers=2, backend="processes", telemetry=telemetry
        ) as ex:
            ex.run(queries[:1])
            counter = telemetry.registry.counter(WORKER_DISPATCHES)
            before = counter.value
            sent: list[tuple[int, tuple]] = []
            for worker in ex._pool._workers:
                worker.conn = _Recording(worker.conn, worker.wid, sent)
            ex.run(queries)
            # Every shard was touched: one message per worker, each
            # holding all of that worker's shards; a dispatch is still
            # counted per shard sub-batch.
            assert sorted(
                (wid, [shard[0] for shard in msg[1]]) for wid, msg in sent
            ) == [(0, [0, 2]), (1, [1, 3])]
            assert counter.value - before == 4

    def test_each_workers_bases_are_packed_right_before_its_send(
        self, dataset, monkeypatch
    ):
        # The driver then holds one worker's bases at a time, not all four.
        engine = self._engine(dataset)
        engine.build()
        order: list[tuple[str, int]] = []
        publish = pool_module.publish_segment

        def recorded_publish(store, sid, *args):
            order.append(("pack", sid))
            return publish(store, sid, *args)

        monkeypatch.setattr(pool_module, "publish_segment", recorded_publish)
        pool = ProcessPool(engine, n_workers=2)
        try:
            for worker in pool._workers:
                worker.conn = _Recording(worker.conn, worker.wid, order)
            query = uniform_workload(dataset.universe, 1, 1e-2, seed=3)[0]
            pool.run_batch([query], {sid: [0] for sid in range(4)})
            order = [e if e[0] == "pack" else ("send", e[0]) for e in order]
            assert order[:3] == [("pack", 0), ("pack", 2), ("send", 0)]
            # Worker 1's bases are packed only after worker 0's message left.
            assert sorted(order[3:]) == [("pack", 1), ("pack", 3), ("send", 1)]
        finally:
            pool.close()

    @needs_fork
    def test_a_batch_larger_than_the_pipe_buffers_is_answered(self):
        """12,000 windows over K = 4 shards on W = 2 workers: each
        worker's message and reply run to about a megabyte, far past a
        socket buffer.  The batch runs in a child under a timeout, so a pipe
        deadlock fails this test instead of stalling the suite."""

        def serve(conn):
            ds = make_uniform(20_000, seed=1)
            queries = uniform_workload(ds.universe, 12_000, 1e-3, seed=5)
            engine = ShardedIndex(ds.store.copy(), n_shards=4)
            with QueryExecutor(engine, max_workers=2, backend="processes") as ex:
                got = ex.run(queries).results
            want = ScanIndex(ds.store.copy()).execute_batch(queries)
            conn.send(
                sum(
                    not np.array_equal(np.sort(g), np.sort(w.ids))
                    for g, w in zip(got, want)
                )
            )

        assert _report(*_in_child(serve), timeout=120.0) == 0

    @needs_fork
    def test_workers_exit_when_their_driver_is_sigkilled(self):
        def drive(conn):
            ds = make_uniform(4_000, seed=11)
            engine = ShardedIndex(ds.store.copy(), n_shards=4)
            ex = QueryExecutor(engine, max_workers=2, backend="processes")
            ex.run(uniform_workload(ds.universe, 20, 1e-2, seed=1))
            conn.send(_pids(ex._pool))
            time.sleep(600.0)  # warm and idle until killed

        # _report SIGKILLs the driver once it has named its workers.
        pids = _report(*_in_child(drive), timeout=60.0)
        assert len(pids) == 2
        deadline = time.monotonic() + 10.0
        while any(map(pid_alive, pids)) and time.monotonic() < deadline:
            time.sleep(0.05)
        left = [pid for pid in pids if pid_alive(pid)]
        for pid in left:  # a failure must not leave them running
            os.kill(pid, signal.SIGKILL)
        assert not left

    def test_pool_refuses_batches_after_close(self, dataset):
        engine = self._engine(dataset)
        engine.build()
        pool = ProcessPool(engine, n_workers=1)
        pool.close()
        query = Query(Box((0.0,) * 3, (1.0,) * 3))
        with pytest.raises(ParallelError, match="close"):
            pool.run_batch([query], {0: [0]})

    def test_empty_batch_through_processes(self, dataset):
        with QueryExecutor(
            self._engine(dataset), max_workers=2, backend="processes"
        ) as ex:
            out = ex.run([])
            assert out.n_queries == 0
