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
    "DELETE_SECONDS",
    "INSERT_SECONDS",
    "METRICS",
    "OPS",
    "QUERY_SECONDS",
    "SHARDS_BALANCE",
    "SHARD_BATCH_SECONDS",
    "SPANS",
    "STORE_DEAD_FRACTION",
    "STORE_LIVE",
    "WORKER_BATCH_SECONDS",
    "WORKER_DISPATCHES",
    "WORKER_QUERY_SECONDS",
    "WORKER_RESPAWNS",
    "record_stats_delta",
    "stats_metric",
]

# -- histogram names (all record seconds) ---------------------------------
QUERY_SECONDS = "query.seconds"
INSERT_SECONDS = "insert.seconds"
DELETE_SECONDS = "delete.seconds"
BATCH_SECONDS = "batch.seconds"
BATCH_ROUTE_SECONDS = "batch.route.seconds"
BATCH_FANOUT_SECONDS = "batch.fanout.seconds"
BATCH_MERGE_SECONDS = "batch.merge.seconds"
SHARD_BATCH_SECONDS = "shard.batch.seconds"
WORKER_BATCH_SECONDS = "worker.batch.seconds"
WORKER_QUERY_SECONDS = "worker.query.seconds"

# -- counter / gauge names ------------------------------------------------
OPS = "ops"
WORKER_DISPATCHES = "worker.dispatches"
WORKER_RESPAWNS = "worker.respawns"
STORE_LIVE = "store.live"
STORE_DEAD_FRACTION = "store.dead_fraction"
SHARDS_BALANCE = "shards.balance"

#: Every canonical metric name -> one-line meaning.  ``span.<name>``
#: histograms (auto-created by a registry-backed tracer) are documented
#: via :data:`SPANS` instead of being repeated here.
METRICS: dict[str, str] = {
    QUERY_SECONDS: "histogram: per-query wall-clock latency",
    INSERT_SECONDS: "histogram: per-insert-batch wall-clock latency",
    DELETE_SECONDS: "histogram: per-delete-batch wall-clock latency",
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
    OPS: "counter: operations executed (queries + inserts + deletes)",
    WORKER_DISPATCHES: (
        "counter: per-shard sub-batches dispatched to process workers"
    ),
    WORKER_RESPAWNS: (
        "counter: worker processes respawned after a crash mid-service"
    ),
    STORE_LIVE: "gauge: live rows across the shards, buffered included",
    STORE_DEAD_FRACTION: "gauge: tombstoned fraction of the shard primaries' rows",
    SHARDS_BALANCE: "gauge: live-row balance factor (max/mean shard size)",
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
    "maintenance.check": "one MaintenanceScheduler check (compaction + rebalance gates)",
    "maintenance.compact": "dead-fraction-gated compaction pass inside a check",
    "maintenance.rebalance": "shard rebalancing pass inside a check",
}


def record_stats_delta(registry: MetricsRegistry, delta: IndexStats) -> None:
    """Flow an :class:`IndexStats` delta into ``stats.*`` counters.

    Zero-valued entries are skipped, so registries only materialize the
    counters a workload actually moves.
    """
    for name, value in delta.as_dict().items():
        if value:
            registry.counter(stats_metric(name)).inc(value)
