"""Low-overhead streaming metrics: histograms and counters.

The serving engine needs to *see itself run* without perturbing what it
measures.  Two pieces, composable and dependency-free:

* :class:`LatencyHistogram` — a fixed-bucket log-scale streaming
  histogram.  Recording a sample is one ``log10`` plus a list increment
  (no allocation, no sorting); percentiles are reconstructed from the
  bucket counts with relative error bounded by the bucket growth factor
  (~6% at the default 40 buckets/decade).  Histograms over the same
  layout combine associatively, so per-shard or per-worker histograms
  roll up exactly.
* :class:`MetricsRegistry` — a flat namespace of named
  :class:`Counter`/:class:`LatencyHistogram` instruments
  with get-or-create semantics, so instrumentation sites never need
  set-up order.

Canonical metric names live in :mod:`repro.telemetry.naming`;
``docs/OBSERVABILITY.md`` documents them and ``tools/check_docs.py``
keeps the two in sync.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from typing import Any, TypeVar

from repro.errors import ConfigurationError

_Instrument = TypeVar("_Instrument", bound="Counter | LatencyHistogram")

__all__ = [
    "Counter",
    "LatencyHistogram",
    "MetricsRegistry",
]


class LatencyHistogram:
    """Fixed-bucket log-scale streaming histogram of seconds.

    Buckets are geometrically spaced: bucket ``i`` covers
    ``[lo * g**i, lo * g**(i+1))`` with ``g = 10 ** (1 /
    buckets_per_decade)``.  Samples below ``lo`` clamp into the first
    bucket, samples at or above ``hi`` into the last — the range is a
    *resolution* window, not a validity gate.

    Percentiles interpolate the geometric midpoint of the bucket that
    contains the requested rank, so their relative error is bounded by
    ``sqrt(g) - 1`` (~3% at the default 40 buckets/decade) for samples
    inside the range.

    Two histograms with the same ``(lo, hi, buckets_per_decade)`` layout
    combine associatively and commutatively via :meth:`absorb`.
    """

    __slots__ = ("lo", "hi", "buckets_per_decade", "_n_buckets", "_scale",
                 "counts", "count", "sum", "max")

    def __init__(
        self,
        lo: float = 1e-6,
        hi: float = 100.0,
        buckets_per_decade: int = 40,
    ) -> None:
        if not (lo > 0 and hi > lo):
            raise ConfigurationError(
                f"histogram range must satisfy 0 < lo < hi, got [{lo}, {hi})"
            )
        if buckets_per_decade < 1:
            raise ConfigurationError(
                f"buckets_per_decade must be >= 1, got {buckets_per_decade}"
            )
        self.lo = float(lo)
        self.hi = float(hi)
        self.buckets_per_decade = int(buckets_per_decade)
        decades = math.log10(self.hi / self.lo)
        self._n_buckets = max(1, math.ceil(decades * buckets_per_decade))
        self._scale = buckets_per_decade / math.log(10.0)
        self.counts = [0] * self._n_buckets
        self.count = 0
        self.sum = 0.0
        self.max = 0.0

    # -- recording ---------------------------------------------------------
    def record(self, seconds: float) -> None:
        """Record one sample (clamped into the bucket range)."""
        v = float(seconds)
        if v <= self.lo:
            i = 0
        else:
            i = int(math.log(v / self.lo) * self._scale)
            if i >= self._n_buckets:
                i = self._n_buckets - 1
        self.counts[i] += 1
        self.count += 1
        self.sum += v
        if v > self.max:
            self.max = v

    # -- derived values ----------------------------------------------------
    def _bucket_bounds(self, i: int) -> tuple[float, float]:
        g = 10.0 ** (1.0 / self.buckets_per_decade)
        return self.lo * g**i, self.lo * g ** (i + 1)

    def percentile(self, q: float) -> float:
        """Approximate the ``q``-th percentile (0..100) in seconds.

        Returns the geometric midpoint of the bucket holding the
        requested rank; 0.0 for an empty histogram.
        """
        if not 0 <= q <= 100:
            raise ConfigurationError(f"percentile must be in [0, 100], got {q}")
        if self.count == 0:
            return 0.0
        target = max(1, math.ceil(q / 100.0 * self.count))
        seen = 0
        for i, c in enumerate(self.counts):
            seen += c
            if seen >= target:
                lo, hi = self._bucket_bounds(i)
                return math.sqrt(lo * hi)
        lo, hi = self._bucket_bounds(self._n_buckets - 1)  # pragma: no cover
        return math.sqrt(lo * hi)  # pragma: no cover

    @property
    def mean(self) -> float:
        """Arithmetic mean of recorded samples (0.0 when empty)."""
        return self.sum / self.count if self.count else 0.0

    # -- composition -------------------------------------------------------
    def _check_layout(self, other: LatencyHistogram) -> None:
        if (self.lo, self.hi, self.buckets_per_decade) != (
            other.lo, other.hi, other.buckets_per_decade
        ):
            raise ConfigurationError(
                "cannot combine histograms with different bucket layouts"
            )

    def absorb(self, other: LatencyHistogram) -> None:
        """Fold ``other``'s samples into this histogram **in place**.

        In place because the receiving instrument keeps its registry
        identity — e.g. a driver
        registry absorbing the per-batch histograms worker *processes*
        ship back, so ``/metrics`` sees process-backend samples exactly
        like sequential-backend ones.
        """
        self._check_layout(other)
        for i, c in enumerate(other.counts):
            if c:
                self.counts[i] += c
        self.count += other.count
        self.sum += other.sum
        if other.max > self.max:
            self.max = other.max

    def copy(self) -> LatencyHistogram:
        """An independent snapshot of the current state."""
        out = LatencyHistogram(self.lo, self.hi, self.buckets_per_decade)
        out.counts = list(self.counts)
        out.count = self.count
        out.sum = self.sum
        out.max = self.max
        return out

    def to_dict(self, include_buckets: bool = False) -> dict:
        """JSON-ready summary: count/sum/mean/max plus p50/p90/p99.

        With ``include_buckets``, adds a sparse ``{bucket_index: count}``
        map (stringified keys, as JSON requires) so downstream tooling
        can re-derive any percentile.
        """
        out = {
            "count": self.count,
            "sum": self.sum,
            "mean": self.mean,
            "max": self.max,
            "p50": self.percentile(50),
            "p90": self.percentile(90),
            "p99": self.percentile(99),
        }
        if include_buckets:
            out["buckets"] = {
                str(i): c for i, c in enumerate(self.counts) if c
            }
        return out

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"LatencyHistogram(count={self.count}, p50={self.percentile(50):.2e}, "
            f"p99={self.percentile(99):.2e}, max={self.max:.2e})"
        )


class Counter:
    """A monotonically increasing integer."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def inc(self, n: int = 1) -> None:
        """Add ``n`` (must be >= 0: counters only move forward)."""
        if n < 0:
            raise ConfigurationError(f"counters only increase, got inc({n})")
        self.value += int(n)


class MetricsRegistry:
    """Flat namespace of instruments with get-or-create semantics.

    Asking for the same name twice returns the same instrument; asking
    for an existing name as a different kind raises — a typo'd
    instrumentation site must fail loudly, not split its samples.
    """

    def __init__(self) -> None:
        self._instruments: dict[str, Counter | LatencyHistogram] = {}

    def _get(
        self,
        name: str,
        kind: type[_Instrument],
        factory: Callable[[], _Instrument],
    ) -> _Instrument:
        inst = self._instruments.get(name)
        if inst is None:
            inst = factory()
            self._instruments[name] = inst
        elif not isinstance(inst, kind):
            raise ConfigurationError(
                f"metric {name!r} already registered as "
                f"{type(inst).__name__}, not {kind.__name__}"
            )
        return inst

    def counter(self, name: str) -> Counter:
        """Get or create the counter called ``name``."""
        return self._get(name, Counter, Counter)

    def histogram(self, name: str, **kwargs: Any) -> LatencyHistogram:
        """Get or create the histogram called ``name``."""
        return self._get(
            name, LatencyHistogram, lambda: LatencyHistogram(**kwargs)
        )

    def names(self) -> list[str]:
        """All registered instrument names, sorted."""
        return sorted(self._instruments)

    def counters(self) -> dict[str, int]:
        """Current value of every counter."""
        return {
            n: i.value
            for n, i in self._instruments.items()
            if isinstance(i, Counter)
        }

    def histograms(self) -> dict[str, LatencyHistogram]:
        """A *snapshot copy* of every histogram (safe to keep)."""
        return {
            n: i.copy()
            for n, i in self._instruments.items()
            if isinstance(i, LatencyHistogram)
        }

