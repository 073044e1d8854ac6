"""The five workloads: what each sets up, and the ops of each round.

A workload is an object with ``setup()`` (everything before the first
timed op), ``round_ops(r)`` (untimed: the round's inputs), ``apply(op)``
(one caller-visible call, timed by the runner) and ``teardown()``.  Ops
are ``(kind, payload)`` pairs: ``query`` (one ``Query``), ``batch`` (64
of them), ``insert`` (``lo, hi, ids``) and ``delete`` (``ids``).

Only the surfaces ROADMAP keeps are driven: ``Query``, ``execute``,
``execute_batch``, ``insert``/``delete``, ``ShardedIndex``,
``QueryExecutor.run`` and ``MaintenanceScheduler``.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from statistics import median
from time import perf_counter
from typing import Any

import numpy as np

from repro.baselines.rtree.rtree import RTreeIndex
from repro.baselines.scan import ScanIndex
from repro.core.quasii import QuasiiIndex
from repro.datasets.store import BoxStore
from repro.geometry.box import Box
from repro.queries.query import Query
from repro.sharding.executor import BACKENDS, QueryExecutor
from repro.sharding.maintenance import MaintenancePolicy, MaintenanceScheduler
from repro.sharding.sharded_index import ShardedIndex
from repro.telemetry import Telemetry

from . import inputs
from .oracle import Oracle

BATCH = 64
N_SHARDS = 4
#: Pool width: the box has two cores and the load generator waits on the
#: pool, so two busy workers is the most it can keep busy.
N_WORKERS = 2

Op = tuple[str, Any]


@dataclass(frozen=True)
class Scale:
    """Op counts of one preset; workload *shapes* do not depend on it."""

    n_boxes: int
    setup_reps: int
    #: Rounds every run executes whatever ``--seconds`` says; count
    #: metrics cover exactly these, so they repeat run to run.
    min_rounds: int
    queries_per_cluster: int
    warm_windows: int
    batches_per_round: int
    churn_ops: int
    churn_rows: int
    sharded_churn_ops: int
    sharded_churn_rows: int
    oracle_every: int


SCALES = {
    "full": Scale(
        n_boxes=1_000_000,
        setup_reps=3,
        min_rounds=4,
        queries_per_cluster=100,
        warm_windows=1024,
        batches_per_round=16,
        churn_ops=240,
        churn_rows=1700,
        sharded_churn_ops=10,
        sharded_churn_rows=1024,
        oracle_every=32,
    ),
    "tiny": Scale(
        n_boxes=20_000,
        setup_reps=1,
        min_rounds=2,
        queries_per_cluster=20,
        warm_windows=128,
        batches_per_round=4,
        churn_ops=80,
        churn_rows=64,
        sharded_churn_ops=10,
        sharded_churn_rows=128,
        oracle_every=8,
    ),
}


def to_queries(lo: np.ndarray, hi: np.ndarray) -> list[Query]:
    return [
        Query(window=Box(tuple(a), tuple(b)))
        for a, b in zip(lo.tolist(), hi.tolist())
    ]


def batches(queries: list[Query]) -> list[Op]:
    return [
        ("batch", queries[i : i + BATCH]) for i in range(0, len(queries), BATCH)
    ]


class Workload:
    """Shared plumbing; subclasses fill in the four verbs."""

    name = ""

    def __init__(self, seed: int, scale: Scale) -> None:
        self.seed = seed
        self.scale = scale
        #: Raw arrays generated in set-up, for the input digest.
        self.generated: list[np.ndarray] = []
        self.oracle: Oracle

    def _boxes(self) -> tuple[np.ndarray, np.ndarray]:
        lo, hi = inputs.boxes(self.scale.n_boxes, inputs.rng(self.seed, inputs.BOXES))
        self.generated += [lo, hi]
        # The oracle copies: the store below is permuted in place by queries.
        self.oracle = Oracle(lo, hi)
        return lo, hi

    def _hotspot(self, stream: int, round_no: int, n: int) -> tuple[np.ndarray, np.ndarray]:
        return inputs.hotspot_windows(inputs.rng(self.seed, stream, round_no), n)

    def setup(self) -> None:
        raise NotImplementedError

    def round_ops(self, round_no: int) -> tuple[list[Op], list[np.ndarray]]:
        """The round's ops and the raw arrays they were built from."""
        raise NotImplementedError

    def apply(self, op: Op) -> Any:
        raise NotImplementedError

    def after_op(self) -> None:
        """Inside the round's wall-clock, outside the op's latency."""

    def teardown(self) -> None:
        pass

    def stats(self) -> Any:
        """The engine's cumulative ``IndexStats``."""
        raise NotImplementedError

    def gauges(self) -> dict[str, float]:
        """Structure sizes and scheduler totals, read between rounds."""
        return {}

    def probe(self) -> tuple[int, float]:
        """(rows pending in update buffers, dead fraction), traced runs only."""
        return 0, 0.0

    def violations(self, cracks: int, publishes: int | None) -> list[str]:
        """Workload contrasts that must hold over the stream, given its
        crack count and (traced runs) its segment publishes."""
        return []

    def reference(self, measured: dict[str, float]) -> dict[str, float]:
        """Comparison measurements on the same inputs, traced runs only;
        ``measured`` holds this run's own numbers, in machine seconds."""
        return {}


def _quasii_gauges(indexes: list[QuasiiIndex]) -> dict[str, float]:
    return {
        "core.slices.count": float(sum(sum(i.slice_counts()) for i in indexes)),
        "core.quasii.memory_mb": sum(i.memory_bytes() for i in indexes) / 2**20,
    }


def _maintenance_gauges(scheduler: MaintenanceScheduler) -> dict[str, float]:
    report = scheduler.report
    return {
        "sharding.maintenance.passes": float(report.compaction_passes),
        "sharding.maintenance.rows_reclaimed": float(report.rows_reclaimed),
    }


def _p50_ms(index: Any, queries: list[Query]) -> float:
    times = []
    for q in queries:
        t0 = perf_counter()
        index.execute(q)
        times.append(perf_counter() - t0)
    return median(times) * 1e3


class ExploreCold(Workload):
    name = "explore-cold"

    def setup(self) -> None:
        self.base = BoxStore(*self._boxes())
        # The script is one fixed draw, not the seed's: how much a burst
        # cracks depends on how its windows fall across earlier cuts, and
        # that moves a round's work by 7 % from draw to draw, as much as
        # the machine does.  The seed draws the boxes.
        win = inputs.clustered_windows(
            inputs.rng(0, inputs.CLUSTERED),
            per_cluster=self.scale.queries_per_cluster,
        )
        self.generated += win
        self.ops: list[Op] = [("query", q) for q in to_queries(*win)]

    def round_ops(self, round_no: int) -> tuple[list[Op], list[np.ndarray]]:
        # Every round is the same exploration over a fresh copy, so
        # rounds are repeats of one measurement, not a trajectory.
        self.index = QuasiiIndex(self.base.copy())
        self.index.build()
        return self.ops, []

    def apply(self, op: Op) -> Any:
        return self.index.execute(op[1])

    def stats(self) -> Any:
        return self.index.stats

    def gauges(self) -> dict[str, float]:
        return _quasii_gauges([self.index])

    def violations(self, cracks: int, publishes: int | None) -> list[str]:
        return [] if cracks else ["explore-cold never cracked"]

    def reference(self, measured: dict[str, float]) -> dict[str, float]:
        queries = [op[1] for op in self.ops]
        rtree = RTreeIndex(self.base.copy())
        t0 = perf_counter()
        rtree.build()
        build_s = perf_counter() - t0
        t0 = perf_counter()
        rtree.execute(queries[0])
        first_s = perf_counter() - t0
        return {
            "baselines.rtree.build_s": build_s,
            "baselines.rtree.query_p50_ms": _p50_ms(rtree, queries[:100]),
            "baselines.scan.query_p50_ms": _p50_ms(ScanIndex(self.base), queries[:16]),
            "explore.data_to_insight_x": (build_s + first_s)
            * 1e3
            / measured["client.first_call_ms"],
        }


class ConvergedBatch(Workload):
    name = "converged-batch"

    def setup(self) -> None:
        self.index = QuasiiIndex(BoxStore(*self._boxes()))
        self.index.build()
        win = self._hotspot(inputs.WARM, 0, self.scale.warm_windows)
        self.generated += win
        self.windows = to_queries(*win)
        for _, batch in batches(self.windows):
            self.index.execute_batch(batch)

    def round_ops(self, round_no: int) -> tuple[list[Op], list[np.ndarray]]:
        order = inputs.rng(self.seed, inputs.SHUFFLE, round_no).permutation(
            len(self.windows)
        )
        return batches([self.windows[i] for i in order]), [order]

    def apply(self, op: Op) -> Any:
        return self.index.execute_batch(op[1])

    def stats(self) -> Any:
        return self.index.stats

    def gauges(self) -> dict[str, float]:
        return _quasii_gauges([self.index])

    def violations(self, cracks: int, publishes: int | None) -> list[str]:
        if cracks:
            return [f"converged-batch cracked {cracks} times"]
        return []

    def reference(self, measured: dict[str, float]) -> dict[str, float]:
        scan_ms = _p50_ms(ScanIndex(self.index.store), self.windows[:16])
        return {
            "baselines.scan.query_p50_ms": scan_ms,
            "converged.over_scan_x": measured["queries_per_s"] * scan_ms / 1e3,
        }


class WriteStream:
    """Insert and delete batches with ids the benchmark hands out itself.

    Delete victims are known-live without asking the program: they come
    alternately from a seeded permutation of the initial ids and from
    the oldest insert batch not yet deleted, so deletes hit the main
    hierarchy, appended runs and still-buffered rows alike.
    """

    def __init__(self, seed: int, n_initial: int, rows: int) -> None:
        self.seed = seed
        self.rows = rows
        self.queue = inputs.rng(seed, inputs.VICTIMS).permutation(n_initial)
        self.cursor = 0
        self.inserted: deque[np.ndarray] = deque()
        self.next_id = n_initial
        self.deletes = 0

    def insert(self, gen: np.random.Generator) -> Op:
        lo, hi = inputs.boxes(self.rows, gen)
        ids = np.arange(self.next_id, self.next_id + self.rows, dtype=np.int64)
        self.next_id += self.rows
        self.inserted.append(ids)
        return ("insert", (lo, hi, ids))

    def delete(self) -> Op:
        self.deletes += 1
        exhausted = self.cursor + self.rows > self.queue.size
        if self.inserted and (exhausted or self.deletes % 2 == 0):
            return ("delete", self.inserted.popleft())
        ids = self.queue[self.cursor : self.cursor + self.rows]
        self.cursor += self.rows
        return ("delete", ids.astype(np.int64))


def _op_arrays(ops: list[Op]) -> list[np.ndarray]:
    out: list[np.ndarray] = []
    for kind, payload in ops:
        if kind == "insert":
            out += payload
        elif kind == "delete":
            out.append(payload)
    return out


class MixedChurn(Workload):
    name = "mixed-churn"
    policy = MaintenancePolicy(check_every=16, dead_fraction=0.05, rebalance=False)

    def setup(self) -> None:
        self.index = QuasiiIndex(BoxStore(*self._boxes()))
        self.index.build()
        win = self._hotspot(inputs.WARM, 0, self.scale.warm_windows)
        self.generated += win
        for _, batch in batches(to_queries(*win)):
            self.index.execute_batch(batch)
        self.scheduler = MaintenanceScheduler(self.index, self.policy)
        self.writes = WriteStream(self.seed, self.scale.n_boxes, self.scale.churn_rows)

    def round_ops(self, round_no: int) -> tuple[list[Op], list[np.ndarray]]:
        n_ops = self.scale.churn_ops
        n_writes = n_ops // 8
        kinds = np.array(
            ["insert"] * n_writes + ["delete"] * n_writes
            + ["query"] * (n_ops - 2 * n_writes)
        )
        inputs.rng(self.seed, inputs.KINDS, round_no).shuffle(kinds)
        win = self._hotspot(inputs.FRESH, round_no, n_ops - 2 * n_writes)
        queries = iter(to_queries(*win))
        gen = inputs.rng(self.seed, inputs.WRITES, round_no)
        ops: list[Op] = []
        for kind in kinds.tolist():
            if kind == "query":
                ops.append(("query", next(queries)))
            elif kind == "insert":
                ops.append(self.writes.insert(gen))
            else:
                ops.append(self.writes.delete())
        return ops, [*win, *_op_arrays(ops)]

    def apply(self, op: Op) -> Any:
        kind, payload = op
        if kind == "query":
            return self.index.execute(payload)
        if kind == "insert":
            return self.index.insert(*payload)
        return self.index.delete(payload)

    def after_op(self) -> None:
        self.scheduler.after_ops(1)

    def stats(self) -> Any:
        return self.index.stats

    def gauges(self) -> dict[str, float]:
        return {
            **_quasii_gauges([self.index]),
            **_maintenance_gauges(self.scheduler),
        }

    def probe(self) -> tuple[int, float]:
        store = self.index.store
        return self.index.pending_updates(), store.n_dead / store.n


class Sharded(Workload):
    """The engine, executor and traffic the two sharded workloads share."""

    policy: MaintenancePolicy | None = None

    def _engine(
        self, backend: str, telemetry: Telemetry | None = None
    ) -> tuple[ShardedIndex, QueryExecutor]:
        """A warmed engine and executor over the generated boxes."""
        engine = ShardedIndex(BoxStore(self.lo, self.hi), n_shards=N_SHARDS)
        engine.build()
        executor = QueryExecutor(
            engine,
            max_workers=N_WORKERS,
            backend=backend,
            maintenance=self.policy,
            telemetry=telemetry,
        )
        try:
            for _, batch in batches(self.warm):
                executor.run(batch)
        except BaseException:
            executor.close()
            raise
        return engine, executor

    def setup(self) -> None:
        self.lo, self.hi = self._boxes()
        win = self._hotspot(inputs.WARM, 0, self.scale.warm_windows)
        self.generated += win
        self.warm = to_queries(*win)
        self.engine, self.executor = self._engine("processes")

    def round_ops(self, round_no: int) -> tuple[list[Op], list[np.ndarray]]:
        win = self._hotspot(
            inputs.FRESH, round_no, self.scale.batches_per_round * BATCH
        )
        return batches(to_queries(*win)), list(win)

    def apply(self, op: Op) -> Any:
        return self.executor.run(op[1])

    def teardown(self) -> None:
        self.executor.close()

    def stats(self) -> Any:
        return self.engine.stats

    def gauges(self) -> dict[str, float]:
        # Driver-side shard indexes: under the process backend the
        # cracked forests live in the workers, out of sight from here.
        return _quasii_gauges([s.index for s in self.engine.shards])


class ShardedServe(Sharded):
    name = "sharded-serve"

    def violations(self, cracks: int, publishes: int | None) -> list[str]:
        if publishes:
            return [f"sharded-serve republished {publishes} segments mid-stream"]
        return []

    def reference(self, measured: dict[str, float]) -> dict[str, float]:
        """The same stream on every backend, and once with telemetry on."""
        rounds = [self.round_ops(r)[0] for r in range(3)]

        def rate(backend: str, telemetry: Telemetry | None = None) -> float:
            _, executor = self._engine(backend, telemetry)
            try:
                rates = []
                for ops in rounds:
                    t0 = perf_counter()
                    for op in ops:
                        executor.run(op[1])
                    rates.append(len(ops) * BATCH / (perf_counter() - t0))
            finally:
                executor.close()
            return median(rates)

        out = {
            f"sharding.executor.{backend}.queries_per_s": rate(backend)
            for backend in BACKENDS
        }
        off = out["sharding.executor.processes.queries_per_s"]
        out["telemetry.overhead_fraction"] = (
            off - rate("processes", Telemetry())
        ) / off
        return out


class ShardedChurn(Sharded):
    name = "sharded-churn"
    policy = MaintenancePolicy(check_every=8, dead_fraction=0.0005, rebalance=False)

    def setup(self) -> None:
        super().setup()
        self.writes = WriteStream(
            self.seed, self.scale.n_boxes, self.scale.sharded_churn_rows
        )
        self.n_writes = 0

    def round_ops(self, round_no: int) -> tuple[list[Op], list[np.ndarray]]:
        n_ops = self.scale.sharded_churn_ops
        n_reads = n_ops - n_ops // 5
        win = self._hotspot(inputs.FRESH, round_no, n_reads * BATCH)
        reads = iter(batches(to_queries(*win)))
        gen = inputs.rng(self.seed, inputs.WRITES, round_no)
        ops: list[Op] = []
        for i in range(n_ops):
            if i % 5 != 4:
                ops.append(next(reads))
            elif self.n_writes % 2 == 0:
                self.n_writes += 1
                ops.append(self.writes.insert(gen))
            else:
                self.n_writes += 1
                ops.append(self.writes.delete())
        return ops, [*win, *_op_arrays(ops)]

    def apply(self, op: Op) -> Any:
        kind, payload = op
        if kind == "batch":
            return self.executor.run(payload)
        if kind == "insert":
            return self.engine.insert(*payload)
        return self.engine.delete(payload)

    def gauges(self) -> dict[str, float]:
        return {
            **super().gauges(),
            **_maintenance_gauges(self.executor.scheduler),
        }

    def probe(self) -> tuple[int, float]:
        store = self.engine.store
        return self.engine.pending_updates(), store.n_dead / store.n


WORKLOADS: dict[str, type[Workload]] = {
    w.name: w
    for w in (ExploreCold, ConvergedBatch, ShardedServe, MixedChurn, ShardedChurn)
}
