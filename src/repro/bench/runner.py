"""Workload runner: per-op wall-clock timing plus work counters.

The paper's evaluation reports two time series per index (Figures 7–10):
individual query execution time ("convergence") and cumulative execution
time *including the static build step*.  :func:`run_workload` produces
both, along with per-op deltas of the machine-independent counters
(cracks, rows moved, objects tested) so reports can show *why* a curve
behaves the way it does.

It is the one op-stream driver: a stream of bare
:class:`~repro.queries.query.Query` objects is a figure's workload, a
stream of :class:`~repro.queries.workloads.WorkloadOp` interleaves
queries with insert and delete batches.  Delete victims resolve
deterministically (:mod:`repro.updates.executor`): every index starts
from an identical store copy and ids are reserved in the same order, so
the victim sequence — and therefore every query's expected result — is
identical across indexes, which is what lets Scan serve as the
correctness oracle.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from repro.index.base import IndexStats, SpatialIndex
from repro.queries.query import Query
from repro.queries.workloads import WorkloadOp
from repro.sharding.maintenance import MaintenancePolicy, MaintenanceScheduler
from repro.updates.executor import apply_write


@dataclass(frozen=True)
class OpTiming:
    """Measurements for one executed operation.

    ``results`` is the result count of a query or the batch size of an
    insert / delete; the three work counters are the index's cumulative
    :class:`~repro.index.base.IndexStats` deltas around the op.
    """

    seq: int
    kind: str
    seconds: float
    results: int
    objects_tested: int
    cracks: int
    rows_reorganized: int


@dataclass
class RunResult:
    """A full workload execution for one index.

    Attributes
    ----------
    name:
        Index display name.
    build_seconds:
        Static pre-processing wall-clock time (0 for incremental indexes).
    timings:
        One :class:`OpTiming` per executed op, in order.
    build_work:
        Rows processed by the build step (machine-independent cost).
    query_results:
        The sorted id array of each :class:`WorkloadOp` query, in op
        order (``None`` for a count-only query).  A mixed stream's
        answers cannot be recomputed once the writes behind them have
        moved on, so they are kept for the cross-check against the Scan
        oracle; a bare ``Query`` stream — a figure's workload, up to
        10 % selectivity — keeps none.
    stats:
        The index's :class:`~repro.index.base.IndexStats` delta over the
        run (``inserts``, ``deletes``, ``merges``, ``compactions``,
        ``rebalances``, ``shards_visited``, ...).
    maintenance_seconds:
        Wall-clock the maintenance scheduler spent between ops (0.0
        without a policy) — *excluded* from every per-op timing, so
        throughput and maintenance cost can be priced separately.
    final_live:
        Live objects after the last op.
    """

    name: str
    build_seconds: float
    timings: list[OpTiming] = field(default_factory=list)
    build_work: int = 0
    query_results: list[np.ndarray | None] = field(default_factory=list)
    stats: IndexStats = field(default_factory=IndexStats)
    maintenance_seconds: float = 0.0
    final_live: int = 0

    @property
    def n_ops(self) -> int:
        """Number of executed ops."""
        return len(self.timings)

    @property
    def n_queries(self) -> int:
        """Number of executed queries."""
        return sum(1 for t in self.timings if t.kind == "query")

    def query_seconds(self) -> np.ndarray:
        """Per-query wall-clock seconds (the convergence series)."""
        return np.array(
            [t.seconds for t in self.timings if t.kind == "query"],
            dtype=np.float64,
        )

    def cumulative_seconds(self, include_build: bool = True) -> np.ndarray:
        """Cumulative seconds after each op (the cumulative series)."""
        base = self.build_seconds if include_build else 0.0
        return base + np.cumsum([t.seconds for t in self.timings])

    def total_seconds(self, include_build: bool = True) -> float:
        """Total time for the whole run."""
        if not self.timings:
            return self.build_seconds if include_build else 0.0
        return float(self.cumulative_seconds(include_build)[-1])

    def throughput(self) -> float:
        """Ops per second over the whole run, build excluded."""
        total = self.total_seconds(include_build=False)
        return self.n_ops / total if total > 0 else float("inf")

    def first_answer_seconds(self) -> float:
        """Data-to-insight time: build plus the first query."""
        first = self.timings[0].seconds if self.timings else 0.0
        return self.build_seconds + first

    def tail_mean_seconds(self, tail: int = 100) -> float:
        """Mean per-query seconds over the last ``tail`` queries
        (converged performance)."""
        series = self.query_seconds()
        return float(series[-tail:].mean()) if series.size else 0.0

    def total_objects_tested(self) -> int:
        """Sum of candidate objects tested across all queries."""
        return sum(t.objects_tested for t in self.timings)

    def total_rows_reorganized(self) -> int:
        """Sum of rows physically moved across all queries."""
        return sum(t.rows_reorganized for t in self.timings)

    def queries_with_reorganization(self) -> int:
        """How many queries physically moved data (incremental cost)."""
        return sum(1 for t in self.timings if t.rows_reorganized > 0)

    def query_work(self) -> np.ndarray:
        """Per-query rows touched (tested + moved) — the uniform cost model."""
        return np.array(
            [t.objects_tested + t.rows_reorganized for t in self.timings],
            dtype=np.int64,
        )

    def cumulative_work(self, include_build: bool = True) -> np.ndarray:
        """Cumulative rows touched after each query, optionally including
        build work.  Machine-independent analogue of
        :meth:`cumulative_seconds`, immune to the Python-vs-C++ constant
        factors (docs/BENCH.md, "work model")."""
        base = self.build_work if include_build else 0
        return base + np.cumsum(self.query_work())

    def total_work(self, include_build: bool = True) -> int:
        """Total rows touched for the whole run."""
        if not self.timings:
            return self.build_work if include_build else 0
        return int(self.cumulative_work(include_build)[-1])


def run_workload(
    index: SpatialIndex,
    ops: Iterable[Query | WorkloadOp],
    build: bool = True,
    victim_seed: int = 0,
    maintenance: MaintenancePolicy | None = None,
) -> RunResult:
    """Build (optionally) then execute every op, timing each one.

    Work-counter deltas are read off the index's cumulative
    :class:`~repro.index.base.IndexStats` around each op, so the per-op
    numbers are self-contained and mean the same for every engine — a
    sharded engine's results carry no per-query stats, but its fleet
    roll-up lands in ``index.stats`` before ``execute`` returns.

    The runner keeps its own live-id set (seeded from the store) purely
    to resolve delete victims; the index is never consulted for
    membership, so a broken index cannot steer the workload.  Write ops
    need a :class:`~repro.index.base.MutableSpatialIndex`.

    With ``maintenance`` given, a
    :class:`~repro.sharding.maintenance.MaintenanceScheduler` is ticked
    after every op: compaction and (for sharded engines) rebalancing run
    between ops under the policy's thresholds.  Their cost lands in
    ``maintenance_seconds`` and their work in ``stats``, never in an
    op's own timing.
    """
    build_seconds = 0.0
    if build and not index.is_built:
        t0 = time.perf_counter()
        index.build()
        build_seconds = time.perf_counter() - t0
    scheduler = (
        MaintenanceScheduler(index, maintenance)
        if maintenance is not None
        else None
    )
    store = index.store
    # Maintained incrementally as a flat array: converting/sorting a
    # Python set per delete op would dominate the harness at scale
    # (victim resolution sorts internally, so order here is free).
    live = store.ids[store.live_rows()].copy()
    stats = index.stats
    start = stats.snapshot()
    result = RunResult(
        name=index.name,
        build_seconds=build_seconds,
        build_work=index.build_work,
    )
    for op in ops:
        query = op if isinstance(op, Query) else op.query
        before = (stats.objects_tested, stats.cracks, stats.rows_reorganized)
        if query is not None:
            t0 = time.perf_counter()
            res = index.execute(query)
            seconds = time.perf_counter() - t0
            kind, rows = "query", res.count
            if query is not op:
                result.query_results.append(
                    None if res.ids is None else np.sort(res.ids)
                )
        else:
            ids, live, seconds = apply_write(
                index, op, live, op.seq, victim_seed
            )
            kind, rows = op.kind, int(ids.size)
        result.timings.append(
            OpTiming(
                seq=op.seq,
                kind=kind,
                seconds=seconds,
                results=rows,
                objects_tested=stats.objects_tested - before[0],
                cracks=stats.cracks - before[1],
                rows_reorganized=stats.rows_reorganized - before[2],
            )
        )
        if scheduler is not None:
            scheduler.after_ops(1)
    result.stats = stats.delta_since(start)
    if scheduler is not None:
        result.maintenance_seconds = scheduler.report.seconds
    result.final_live = int(live.size)
    return result
