"""Derived metrics matching the paper's evaluation vocabulary.

* **data-to-insight time** — time until the *first* query is answered,
  including any build step (the paper's headline 11.4x reduction);
* **break-even point** — the query index at which an incremental index's
  cumulative time first exceeds its static counterpart's (SFCracker: ~13,
  Mosaic: ~100, QUASII: never in the paper's runs);
* **convergence** — ratio of converged per-query time to the static
  index's per-query time (QUASII reaches ~1x of the R-Tree).
"""

from __future__ import annotations

import numpy as np

from repro.bench.runner import RunResult


def data_to_insight_factor(incremental: RunResult, static: RunResult) -> float:
    """How much faster the first answer arrives with the incremental index.

    ``> 1`` means the incremental index answered its first query sooner
    than the static one finished building + answering its first query.
    """
    inc = incremental.first_answer_seconds()
    if inc <= 0:
        return float("inf")
    return static.first_answer_seconds() / inc


def break_even_query(incremental: RunResult, static: RunResult) -> int | None:
    """First 1-based query index where the incremental cumulative time
    exceeds the static one (build included), or None if it never does."""
    n = min(incremental.n_queries, static.n_queries)
    inc = incremental.cumulative_seconds()[:n]
    sta = static.cumulative_seconds()[:n]
    above = np.flatnonzero(inc > sta)
    if above.size == 0:
        return None
    return int(above[0]) + 1


def cumulative_ratio(incremental: RunResult, static: RunResult) -> float:
    """Incremental total time as a fraction of the static total time."""
    sta = static.total_seconds()
    if sta <= 0:
        return float("inf")
    return incremental.total_seconds() / sta


def work_break_even_query(incremental: RunResult, static: RunResult) -> int | None:
    """Break-even in the uniform work model (rows touched), or None.

    Machine-independent counterpart of :func:`break_even_query` — this is
    the comparison that transfers directly to the paper's C++ setting,
    because it is immune to the NumPy-vs-interpreter constant factors that
    skew small-scale wall-clock numbers (docs/BENCH.md, "work model").
    """
    n = min(incremental.n_queries, static.n_queries)
    inc = incremental.cumulative_work()[:n]
    sta = static.cumulative_work()[:n]
    above = np.flatnonzero(inc > sta)
    if above.size == 0:
        return None
    return int(above[0]) + 1


def work_ratio(incremental: RunResult, static: RunResult) -> float:
    """Total rows touched by the incremental index relative to the static
    one (build included)."""
    sta = static.total_work()
    if sta <= 0:
        return float("inf")
    return incremental.total_work() / sta


def work_insight_factor(incremental: RunResult, static: RunResult) -> float:
    """Data-to-insight factor in the uniform work model: rows the static
    index touches before its first answer relative to the incremental."""
    inc = incremental.build_work + (
        incremental.query_work()[0] if incremental.timings else 0
    )
    if inc <= 0:
        return float("inf")
    sta = static.build_work + (static.query_work()[0] if static.timings else 0)
    return sta / inc


def converged_slowdown(
    incremental: RunResult, static: RunResult, tail: int = 100
) -> float:
    """Tail-mean per-query time of the incremental index relative to the
    static one (1.0 = parity, the paper's convergence goal)."""
    sta = static.tail_mean_seconds(tail)
    if sta <= 0:
        return float("inf")
    return incremental.tail_mean_seconds(tail) / sta


def speedup_tail(slow: RunResult, fast: RunResult, tail: int = 100) -> float:
    """Tail-mean speedup of ``fast`` over ``slow`` (the paper's 3.68x /
    4.9x comparative numbers)."""
    f = fast.tail_mean_seconds(tail)
    if f <= 0:
        return float("inf")
    return slow.tail_mean_seconds(tail) / f


def sample_indices(n: int, points: int = 15) -> list[int]:
    """Roughly geometric sample of query indices for printing series."""
    if n <= 0:
        return []
    if n <= points:
        return list(range(n))
    picks = np.unique(
        np.round(np.geomspace(1, n, points)).astype(int) - 1
    )
    return [int(p) for p in picks]


def smoothed_series(values: np.ndarray, index: int, window: int = 5) -> float:
    """Mean of ``values`` in a small window around ``index`` (stabilizes
    per-query series the way the paper's log-scale plots do visually)."""
    lo = max(0, index - window // 2)
    hi = min(len(values), index + window // 2 + 1)
    return float(values[lo:hi].mean())
