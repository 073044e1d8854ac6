"""Exporters: render metrics as Prometheus text or a JSON snapshot.

The telemetry core records; this module makes the recordings
*consumable*.  Two formats over a live
:class:`~repro.telemetry.metrics.MetricsRegistry` (the ``/metrics`` and
``/snapshot.json`` endpoints):

* **Prometheus text exposition** (:func:`render_prometheus`) — counters
  get the conventional ``_total`` suffix, gauges export verbatim, and a
  :class:`~repro.telemetry.metrics.LatencyHistogram` becomes cumulative
  ``_bucket{le="..."}`` lines plus ``_sum``/``_count``, derived from the
  existing log-scale buckets.  Only occupied bucket edges are emitted
  (the histograms are sparse by design) plus the mandatory ``+Inf``
  line, so the exposition stays small while remaining valid: cumulative
  counts are monotone and the last bucket always equals ``_count``.
* **JSON snapshot** (:func:`json_snapshot`) — a stable, sorted document
  carrying every instrument plus each histogram's bucket layout, so
  :func:`histogram_from_snapshot` can reconstruct a histogram (and its
  percentiles) losslessly on the other side of the wire.

Edge cases are part of the contract: an empty histogram exports
``_count 0`` with a zero ``+Inf`` bucket and no NaN anywhere; samples
clamped below the histogram range surface under the lowest bucket edge
and samples clamped above it under ``le="+Inf"`` (the last physical
bucket's nominal upper edge would be a lie for overflow samples).
"""

from __future__ import annotations

import re

from repro.telemetry.metrics import LatencyHistogram, MetricsRegistry

__all__ = [
    "histogram_from_snapshot",
    "json_snapshot",
    "registry_prometheus",
    "render_prometheus",
]

#: Prefix stamped onto every exported metric name.
NAMESPACE = "repro"

_INVALID = re.compile(r"[^a-zA-Z0-9_:]")
_LEADING_DIGIT = re.compile(r"^[0-9]")


def _metric_name(name: str, namespace: str) -> str:
    """``query.seconds`` -> ``repro_query_seconds`` (Prometheus charset)."""
    flat = _INVALID.sub("_", name)
    if _LEADING_DIGIT.match(flat):
        flat = "_" + flat
    return f"{namespace}_{flat}" if namespace else flat


def _escape_help(text: str) -> str:
    """Escape backslashes and newlines per the text-exposition spec."""
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def _fmt(value: float) -> str:
    """Float formatting: integral values stay short, rest keep precision."""
    v = float(value)
    if v != v:  # NaN must never reach the wire
        return "0"
    if v == int(v) and abs(v) < 1e15:
        return str(int(v))
    return repr(v)


def _histogram_lines(
    name: str, hist: LatencyHistogram, out: list[str]
) -> None:
    """Cumulative ``_bucket``/``_sum``/``_count`` lines for one histogram.

    Bucket ``le`` bounds are the log-scale buckets' upper edges.  The
    last physical bucket also holds every sample clamped at or above
    ``hi``, so it is exported as ``le="+Inf"`` rather than its nominal
    edge; samples clamped below ``lo`` sit in bucket 0 and therefore
    under the lowest edge.  Empty occupied-bucket runs are skipped —
    cumulative counts stay monotone regardless.
    """
    out.append(f"# TYPE {name} histogram")
    cumulative = 0
    for i, c in enumerate(hist.counts[:-1]):
        if c:
            cumulative += c
            upper = hist._bucket_bounds(i)[1]
            out.append(
                f'{name}_bucket{{le="{_fmt(upper)}"}} {cumulative}'
            )
    out.append(f'{name}_bucket{{le="+Inf"}} {hist.count}')
    out.append(f"{name}_sum {_fmt(hist.sum)}")
    out.append(f"{name}_count {hist.count}")


def render_prometheus(
    counters: dict[str, int],
    gauges: dict[str, float],
    histograms: dict[str, LatencyHistogram],
    namespace: str = NAMESPACE,
    help_text: dict[str, str] | None = None,
) -> str:
    """Prometheus text exposition over plain instrument mappings.

    Pure function over whatever view the caller holds (a registry's
    cumulative state in :func:`registry_prometheus`).  ``help_text``
    optionally maps *original* metric names to ``# HELP`` lines.
    """
    help_text = help_text or {}
    out: list[str] = []
    for name in sorted(counters):
        flat = _metric_name(name, namespace) + "_total"
        if name in help_text:
            out.append(f"# HELP {flat} {_escape_help(help_text[name])}")
        out.append(f"# TYPE {flat} counter")
        out.append(f"{flat} {int(counters[name])}")
    for name in sorted(gauges):
        flat = _metric_name(name, namespace)
        if name in help_text:
            out.append(f"# HELP {flat} {_escape_help(help_text[name])}")
        out.append(f"# TYPE {flat} gauge")
        out.append(f"{flat} {_fmt(gauges[name])}")
    for name in sorted(histograms):
        flat = _metric_name(name, namespace)
        if name in help_text:
            out.append(f"# HELP {flat} {_escape_help(help_text[name])}")
        _histogram_lines(flat, histograms[name], out)
    return "\n".join(out) + "\n"


def registry_prometheus(
    registry: MetricsRegistry, namespace: str = NAMESPACE
) -> str:
    """The full cumulative state of a registry as Prometheus text."""
    return render_prometheus(
        registry.counters(),
        registry.gauges(),
        registry.histograms(),
        namespace=namespace,
    )


def _histogram_dict(hist: LatencyHistogram) -> dict:
    """``to_dict(include_buckets=True)`` plus the bucket layout.

    The layout makes the snapshot self-describing:
    :func:`histogram_from_snapshot` rebuilds an identical histogram
    without access to the producing process.
    """
    out = hist.to_dict(include_buckets=True)
    out["layout"] = {
        "lo": hist.lo,
        "hi": hist.hi,
        "buckets_per_decade": hist.buckets_per_decade,
    }
    return out


def json_snapshot(registry: MetricsRegistry) -> dict:
    """A stable JSON-ready snapshot of a registry's cumulative state.

    Keys are sorted at every level so two snapshots of identical state
    serialize identically (golden files, diffing, caching all rely on
    it).
    """
    return {
        "counters": dict(sorted(registry.counters().items())),
        "gauges": dict(sorted(registry.gauges().items())),
        "histograms": {
            name: _histogram_dict(hist)
            for name, hist in sorted(registry.histograms().items())
        },
    }


def histogram_from_snapshot(doc: dict) -> LatencyHistogram:
    """Rebuild a :class:`LatencyHistogram` from its snapshot dict.

    Inverse of the histogram entries produced by :func:`json_snapshot`:
    the returned histogram reports the same count/sum/max and the same
    percentiles as the original (bucket counts are restored exactly).
    """
    layout = doc["layout"]
    hist = LatencyHistogram(
        lo=layout["lo"],
        hi=layout["hi"],
        buckets_per_decade=layout["buckets_per_decade"],
    )
    for key, value in doc.get("buckets", {}).items():
        hist.counts[int(key)] = int(value)
    hist.count = int(doc["count"])
    hist.sum = float(doc["sum"])
    hist.max = float(doc["max"])
    return hist
