"""Unit tests for the process-parallel serving tier (``repro.parallel``).

Covers the four layers of the subsystem:

* segments — publish/attach round trips preserve the live multiset,
  views are genuinely zero-copy, destroy unlinks the OS object;
* the wire — query/result codecs across the full predicate/mode
  matrix, including the ``None`` payloads of count-mode results;
* backend resolution — explicit argument vs ``QUASII_EXECUTOR_BACKEND``
  vs worker-count default, and the replicated-engine guard;
* the serving pool — oracle parity through the executor (including
  across writes, which ride to the warm workers as deltas), telemetry
  golden-equivalence with the sequential backend, worker SIGKILL
  recovery, op-log arming, and shared-memory cleanup on every exit.
"""

from __future__ import annotations

import os
import signal
import time
from multiprocessing.shared_memory import SharedMemory

import numpy as np
import pytest

from repro.baselines import ScanIndex
from repro.datasets import BoxStore, make_uniform
from repro.errors import ConfigurationError, ParallelError
from repro.geometry import Box
from repro.parallel import (
    ProcessPool,
    SegmentSpec,
    ShardSegment,
    SharedStoreView,
    decode_queries,
    decode_results,
    encode_queries,
    encode_results,
    publish_delta,
    publish_segment,
    segment_nbytes,
)
from repro.parallel import shm as shm_module
from repro.queries import Query, uniform_workload
from repro.sharding import QueryExecutor, Rebalancer, ShardedIndex
from repro.sharding.executor import BACKEND_ENV, BACKENDS
from repro.telemetry import Telemetry
from repro.telemetry.events import EventLog
from repro.telemetry.naming import (
    QUERY_SECONDS,
    WORKER_BATCH_SECONDS,
    WORKER_QUERY_SECONDS,
)


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


@pytest.fixture
def created_names(monkeypatch):
    """Names of every segment the code under test creates."""
    names: list[str] = []

    class Recording(SharedMemory):
        def __init__(self, name=None, create=False, size=0):
            super().__init__(name=name, create=create, size=size)
            if create:
                names.append(self.name)

    monkeypatch.setattr(shm_module, "SharedMemory", Recording)
    return names


def _assert_matches(scan, queries, batch) -> None:
    """Every id-mode answer of ``batch`` equals the Scan oracle's."""
    for q, got in zip(queries, batch.results):
        assert np.array_equal(np.sort(got), np.sort(scan.execute(q).ids))


def _assert_gone(names: list[str]) -> None:
    for name in names:
        with pytest.raises(FileNotFoundError):
            SharedMemory(name=name, create=False)


# ----------------------------------------------------------------------
# Segments
# ----------------------------------------------------------------------
class TestSegments:
    def test_publish_attach_roundtrip_preserves_live_multiset(self):
        store = _store(40)
        store.delete_ids(np.arange(0, 40, 3, dtype=np.int64))
        spec, shm = publish_segment(store, sid=7, version=2)
        try:
            assert spec.sid == 7 and spec.version == 2
            assert spec.n_rows == store.live_count
            assert spec.epoch == store.epoch
            # A same-process attach shares this process's (sole) resource
            # tracker registration, so it must be left alone: tracker_shared.
            view = SharedStoreView.attach(spec, tracker_shared=True)
            try:
                assert view.store.n == store.live_count
                assert view.store.live_count == view.store.n
                assert view.live_fingerprint() == store.live_fingerprint()
            finally:
                view.close()
        finally:
            shm.close()
            shm.unlink()

    def test_view_is_zero_copy_over_the_mapping(self):
        store = _store(16)
        spec, shm = publish_segment(store, sid=0, version=0)
        view = SharedStoreView(spec, shm)
        backing = np.frombuffer(shm.buf, dtype=np.uint8)
        assert np.shares_memory(view.store.lo, backing)
        assert np.shares_memory(view.store.hi, backing)
        assert np.shares_memory(view.store.ids, backing)
        # Release our raw view of the buffer before closing the mapping —
        # mmap refuses to close while exported pointers exist.
        del backing
        view.close()
        shm.unlink()

    def test_appending_to_a_view_store_leaves_the_mapping_alone(self):
        store = _store(16)
        spec, shm = publish_segment(store, sid=0, version=0)
        view = SharedStoreView(spec, shm)
        before, size = bytes(shm.buf), shm.size
        fresh = np.array([[1.0, 2.0]])
        view.store.append(fresh, fresh + 1.0)
        view.store.apply_order(np.arange(17)[::-1].copy())
        assert view.store.n == 17
        assert bytes(shm.buf) == before and shm.size == size
        backing = np.frombuffer(shm.buf, dtype=np.uint8)
        assert not np.shares_memory(view.store.lo, backing)
        assert not np.shares_memory(view.store.ids, backing)
        del backing
        view.close()
        shm.unlink()

    def test_empty_snapshot_is_representable(self):
        store = _store(5)
        store.delete_ids(store.ids.copy())
        spec, shm = publish_segment(store, sid=1, version=0)
        try:
            assert spec.n_rows == 0
            view = SharedStoreView.attach(spec, tracker_shared=True)
            try:
                assert view.store.n == 0
            finally:
                view.close()
        finally:
            shm.close()
            shm.unlink()

    def test_attach_rejects_undersized_segment(self):
        store = _store(8)
        spec, shm = publish_segment(store, sid=0, version=0)
        try:
            lying = SegmentSpec(
                name=spec.name,
                sid=spec.sid,
                version=spec.version,
                n_rows=spec.n_rows * 100,
                ndim=spec.ndim,
                epoch=spec.epoch,
            )
            with pytest.raises(ParallelError, match="bytes"):
                SharedStoreView.attach(lying, tracker_shared=True)
        finally:
            shm.close()
            shm.unlink()

    def test_destroy_unlinks_the_os_object(self):
        store = _store(8)
        spec, shm = publish_segment(store, sid=0, version=0)
        segment = ShardSegment(spec, shm, None)
        segment.destroy()
        with pytest.raises(FileNotFoundError):
            SharedMemory(name=spec.name, create=False)

    def test_failed_publish_unlinks_its_segment(self, created_names):
        class Exploding(BoxStore):
            __slots__ = ()

            @property
            def ids(self):
                raise RuntimeError("gather failed")

        rng = np.random.default_rng(0)
        lo = rng.uniform(0, 100, size=(8, 2))
        with pytest.raises(RuntimeError, match="gather failed"):
            publish_segment(Exploding(lo, lo + 1.0), sid=0, version=0)
        assert len(created_names) == 1
        _assert_gone(created_names)

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
        delta, shm = publish_delta(log, sid=3, version=5)
        try:
            assert delta.ops == (
                ("insert", 4), ("delete", 2), ("compact", 0), ("insert", 2),
            )
            assert np.array_equal(delta.deleted, gone)
            assert (delta.rows.sid, delta.rows.version) == (3, 5)
            assert shm.size == segment_nbytes(6, 2)
            view = SharedStoreView.attach(delta.rows, tracker_shared=True)
            try:
                assert np.array_equal(view.store.ids, ids)
                assert np.array_equal(view.store.lo, lo)
            finally:
                view.close()
        finally:
            shm.close()
            shm.unlink()
        # Without inserts there is nothing to map.
        delta, shm = publish_delta(log[1:3], sid=3, version=5)
        assert shm is None and delta.rows is None
        assert delta.ops == (("delete", 2), ("compact", 0))

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

    def test_replicated_engine_resolves_like_any_other(self, monkeypatch):
        def engine():
            return self._engine(n_shards=2, replication=2)

        assert (
            QueryExecutor(engine(), max_workers=2, backend="processes").backend
            == "processes"
        )
        monkeypatch.setenv(BACKEND_ENV, "processes")
        assert QueryExecutor(engine(), max_workers=2).backend == "processes"


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
            victim = pool.worker_pids[0]
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
            assert pool.worker_pids[0] != victim

    @staticmethod
    def _kill(pool, wid):
        victim = pool.worker_pids[wid]
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

    def test_rebalance_republishes_and_rearms_the_rebuilt_shards(self, dataset):
        queries = uniform_workload(dataset.universe, 20, 1e-2, seed=8)
        scan = ScanIndex(dataset.store.copy())
        engine = self._engine(dataset)
        engine.build()
        assert all(s.oplog is None for s in engine.shards)
        events = EventLog()

        def check(batch):
            _assert_matches(scan, queries, batch)

        ex = QueryExecutor(
            engine, max_workers=2, backend="processes", events=events
        )
        try:
            check(ex.run(queries))
            armed = engine.shards
            assert all(s.oplog == [] for s in armed)
            result = Rebalancer().rebalance(engine, reason="balance")
            rebuilt = {result.hot_sid, result.cold_sid}
            for shard in engine.shards:
                if shard.sid in rebuilt:
                    assert shard is not armed[shard.sid]
                    assert shard.oplog is None
            bases = len(events.recent("worker.refresh"))
            check(ex.run(queries))
            republished = events.recent("worker.refresh")[bases:]
            assert {e.payload["sid"] for e in republished} == rebuilt
            assert all(s.oplog == [] for s in engine.shards)
            assert not events.recent("worker.delta")
            # The op logs have one consumer: a second live pool is refused.
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

    def test_worker_err_mid_batch_leaks_no_delta_segment(
        self, dataset, created_names
    ):
        queries = uniform_workload(dataset.universe, 15, 1e-2, seed=4)
        scan = ScanIndex(dataset.store.copy())
        engine = self._engine(dataset)
        ex = QueryExecutor(engine, max_workers=2, backend="processes")
        try:
            ex.run(queries)
            bases = list(created_names)
            assert len(bases) == engine.n_shards
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
            deltas = created_names[len(bases):]
            assert deltas, "the failed batch must have shipped delta segments"
            _assert_gone(deltas)
            # The failed shard's copy is suspect: its base is gone too and
            # the next batch cuts a new one from the driver's state.
            assert poisoned.oplog is None
            _assert_gone(bases[1:2])
            _assert_matches(scan, queries, ex.run(queries))
        finally:
            ex.close()
        _assert_gone(created_names)

    def test_close_leaves_no_shared_memory_behind(self, dataset):
        engine = self._engine(dataset)
        ex = QueryExecutor(engine, max_workers=2, backend="processes")
        ex.run(uniform_workload(dataset.universe, 5, 1e-3, seed=6))
        pool = ex._pool
        names = [seg.spec.name for seg in pool._segments.values()]
        workers = list(pool._workers)
        assert names, "a served batch must have published segments"
        ex.close()
        for name in names:
            with pytest.raises(FileNotFoundError):
                SharedMemory(name=name, create=False)
        for worker in workers:
            assert not worker.is_alive()
        assert ex._pool is None
        # close() is idempotent.
        ex.close()

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
