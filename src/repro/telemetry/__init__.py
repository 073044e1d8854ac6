"""Telemetry: streaming metrics, span tracing, events, a live endpoint.

The observability layer for the serving engine.  It is deliberately
dependency-light (stdlib ``math``/``time``/``threading`` only) and
opt-in: hot paths accept an optional :class:`Telemetry` handle and skip
all instrumentation when it is absent, so the un-instrumented cost is a
single ``is None`` test per batch.

    telemetry = Telemetry()
    executor = QueryExecutor(engine, maintenance=policy, telemetry=telemetry)
    server = MetricsServer(telemetry, port=9464).start()
    ...serve...; server.stop()

See ``docs/OBSERVABILITY.md`` for the metric/span vocabulary and the
``BENCH_*.json`` schema the bench harness persists.
"""

from __future__ import annotations

from repro.telemetry.events import EVENTS, EventLog, EventRecord
from repro.telemetry.export import (
    histogram_from_snapshot,
    json_snapshot,
    registry_prometheus,
    render_prometheus,
)
from repro.telemetry.metrics import (
    Counter,
    Gauge,
    LatencyHistogram,
    MetricsRegistry,
)
from repro.telemetry.naming import (
    METRICS,
    SPANS,
    record_stats_delta,
    stats_metric,
)
from repro.telemetry.server import ENDPOINTS, MetricsServer
from repro.telemetry.tracer import DISABLED, Span, SpanRecord, Tracer

__all__ = [
    "Counter",
    "DISABLED",
    "ENDPOINTS",
    "EVENTS",
    "EventLog",
    "EventRecord",
    "Gauge",
    "LatencyHistogram",
    "METRICS",
    "MetricsRegistry",
    "MetricsServer",
    "SPANS",
    "Span",
    "SpanRecord",
    "Telemetry",
    "Tracer",
    "histogram_from_snapshot",
    "json_snapshot",
    "record_stats_delta",
    "registry_prometheus",
    "render_prometheus",
    "stats_metric",
]


class Telemetry:
    """One registry + one registry-backed tracer, wired together.

    The convenience bundle instrumented components accept: a
    :class:`MetricsRegistry` for counters/gauges/histograms and a
    :class:`Tracer` whose finished spans also land in ``span.<name>``
    histograms of the same registry (so pause durations appear next to
    the latency histograms on ``/metrics``).  Construct with
    ``enabled=False`` to keep the handles but silence the tracer.
    """

    def __init__(self, enabled: bool = True, max_spans: int = 32_768) -> None:
        self.enabled = bool(enabled)
        self.registry = MetricsRegistry()
        self.tracer = Tracer(
            enabled=enabled, registry=self.registry, max_spans=max_spans
        )
