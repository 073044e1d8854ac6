"""Workload runner: per-query wall-clock timing plus work counters.

The paper's evaluation reports two time series per index (Figures 7–10):
individual query execution time ("convergence") and cumulative execution
time *including the static build step*.  :func:`run_workload` produces
both, along with per-query deltas of the machine-independent counters
(cracks, rows moved, objects tested) so reports can show *why* a curve
behaves the way it does.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.index.base import SpatialIndex
from repro.queries.query import Query


@dataclass(frozen=True)
class QueryTiming:
    """Measurements for one executed query."""

    seq: int
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
        One :class:`QueryTiming` per executed query, in order.
    build_work:
        Rows processed by the build step (machine-independent cost).
    """

    name: str
    build_seconds: float
    timings: list[QueryTiming] = field(default_factory=list)
    build_work: int = 0

    @property
    def n_queries(self) -> int:
        """Number of executed queries."""
        return len(self.timings)

    def query_seconds(self) -> np.ndarray:
        """Per-query wall-clock seconds (the convergence series)."""
        return np.array([t.seconds for t in self.timings], dtype=np.float64)

    def cumulative_seconds(self, include_build: bool = True) -> np.ndarray:
        """Cumulative seconds after each query (the cumulative series)."""
        base = self.build_seconds if include_build else 0.0
        return base + np.cumsum(self.query_seconds())

    def total_seconds(self, include_build: bool = True) -> float:
        """Total time for the whole run."""
        if not self.timings:
            return self.build_seconds if include_build else 0.0
        return float(self.cumulative_seconds(include_build)[-1])

    def first_answer_seconds(self) -> float:
        """Data-to-insight time: build plus the first query."""
        first = self.timings[0].seconds if self.timings else 0.0
        return self.build_seconds + first

    def tail_mean_seconds(self, tail: int = 100) -> float:
        """Mean per-query seconds over the last ``tail`` queries
        (converged performance)."""
        if not self.timings:
            return 0.0
        return float(self.query_seconds()[-tail:].mean())

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
    queries: list[Query],
    build: bool = True,
) -> RunResult:
    """Build (optionally) then execute every query, timing each step.

    Counter deltas are taken around each query so the per-query numbers are
    self-contained even though :class:`IndexStats` accumulates globally.
    """
    build_seconds = 0.0
    if build and not index.is_built:
        t0 = time.perf_counter()
        index.build()
        build_seconds = time.perf_counter() - t0
    result = RunResult(
        name=index.name,
        build_seconds=build_seconds,
        build_work=index.build_work,
    )
    for q in queries:
        # The first-class API carries the per-query counter delta and
        # timing itself; the harness just records them.  (Sharded
        # engines report fleet work through the same delta after their
        # post-query roll-up.)
        res = index.execute(q)
        result.timings.append(
            QueryTiming(
                seq=q.seq,
                seconds=res.seconds,
                results=res.count,
                objects_tested=res.stats.objects_tested,
                cracks=res.stats.cracks,
                rows_reorganized=res.stats.rows_reorganized,
            )
        )
    return result
