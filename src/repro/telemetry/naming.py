"""Canonical metric and span names (the observability vocabulary).

Instrumentation sites import name constants from here instead of
spelling strings inline, and ``docs/OBSERVABILITY.md`` documents exactly
the names in :data:`METRICS` and :data:`SPANS` — ``tools/check_docs.py``
compares the doc tables against these dicts in both directions, so a
new metric cannot ship undocumented and the docs cannot drift.

The ``stats.*`` counter family is generated from the
:class:`~repro.index.base.IndexStats` dataclass fields: adding a counter
to ``IndexStats`` automatically adds its registry metric here (and
therefore *requires* a doc row, by the same check).
"""

from __future__ import annotations

from dataclasses import fields as dataclass_fields

from repro.index.base import IndexStats
from repro.telemetry.metrics import MetricsRegistry

__all__ = [
    "BATCH_FANOUT_SECONDS",
    "BATCH_MERGE_SECONDS",
    "BATCH_ROUTE_SECONDS",
    "BATCH_SECONDS",
    "METRICS",
    "QUERY_SECONDS",
    "SHARD_BATCH_SECONDS",
    "SPANS",
    "WORKER_BATCH_SECONDS",
    "WORKER_DISPATCHES",
    "WORKER_QUERY_SECONDS",
    "WORKER_RESPAWNS",
    "record_stats_delta",
    "stats_metric",
]

# -- histogram names (all record seconds) ---------------------------------
QUERY_SECONDS = "query.seconds"
BATCH_SECONDS = "batch.seconds"
BATCH_ROUTE_SECONDS = "batch.route.seconds"
BATCH_FANOUT_SECONDS = "batch.fanout.seconds"
BATCH_MERGE_SECONDS = "batch.merge.seconds"
SHARD_BATCH_SECONDS = "shard.batch.seconds"
WORKER_BATCH_SECONDS = "worker.batch.seconds"
WORKER_QUERY_SECONDS = "worker.query.seconds"

# -- counter names --------------------------------------------------------
WORKER_DISPATCHES = "worker.dispatches"
WORKER_RESPAWNS = "worker.respawns"

#: Every canonical metric name -> one-line meaning.  ``span.<name>``
#: histograms (auto-created by a registry-backed tracer) are documented
#: via :data:`SPANS` instead of being repeated here.
METRICS: dict[str, str] = {
    QUERY_SECONDS: "histogram: per-query wall-clock latency",
    BATCH_SECONDS: "histogram: whole query-batch wall-clock (QueryExecutor.run)",
    BATCH_ROUTE_SECONDS: "histogram: batch routing/queueing phase (shard planning)",
    BATCH_FANOUT_SECONDS: "histogram: batch fan-out phase (shard sub-batches being served)",
    BATCH_MERGE_SECONDS: "histogram: batch merge phase (partials -> per-query results)",
    SHARD_BATCH_SECONDS: "histogram: per-shard sub-batch server wall-clock",
    WORKER_BATCH_SECONDS: (
        "histogram: sub-batch wall-clock measured inside a worker process"
    ),
    WORKER_QUERY_SECONDS: (
        "histogram: per-query seconds measured inside a worker process"
    ),
    WORKER_DISPATCHES: (
        "counter: per-shard sub-batches dispatched to process workers"
    ),
    WORKER_RESPAWNS: (
        "counter: worker processes respawned after a crash mid-service"
    ),
}


def stats_metric(counter: str) -> str:
    """Registry name for an :class:`IndexStats` counter (``stats.<name>``)."""
    return f"stats.{counter}"


# The stats.* family mirrors IndexStats 1:1 — generated, not hand-listed,
# so a new IndexStats counter is automatically part of the vocabulary.
METRICS.update(
    {
        stats_metric(f.name): f"counter: IndexStats.{f.name} flowed as deltas"
        for f in dataclass_fields(IndexStats)
    }
)

#: Every span name -> one-line meaning.  A registry-backed tracer also
#: exposes each as a ``span.<name>`` duration histogram.
SPANS: dict[str, str] = {
    "maintenance.compact": "one MaintenanceScheduler check: its dead-fraction-gated compaction",
}


def record_stats_delta(registry: MetricsRegistry, delta: IndexStats) -> None:
    """Flow an :class:`IndexStats` delta into ``stats.*`` counters.

    Zero-valued entries are skipped, so registries only materialize the
    counters a workload actually moves.
    """
    for name, value in delta.as_dict().items():
        if value:
            registry.counter(stats_metric(name)).inc(value)
