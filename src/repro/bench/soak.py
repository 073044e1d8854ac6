"""Steady-state soak benchmark: latency histograms over time.

The one serving-engine verb in ``repro.bench``.  Throughput, latency and
the per-layer breakdown of the engine are the ledger's job
(``benchmarks/ledger/``, 1M boxes, bounds enforced); the soak stays
because it reports what the ledger does not: the ledger runs
``rebalance=False`` and R = 1 and reports one aggregate per workload,
while a serving engine's real behavior is a *trajectory* — p99 is fine
until a compaction pass stalls the loop for 40 ms, and an aggregate over
the whole run averages the stall away.  The soak drives a time-bounded
mixed workload (drifting 90/10 hotspot traffic, skewed ingestion
bursts, periodic delete storms) through the full serving stack — a
:class:`~repro.sharding.QueryExecutor` over a
:class:`~repro.sharding.ShardedIndex` with maintenance enabled — with
telemetry on, and reports per-window latency histograms next to the
maintenance spans that ran inside each window.  A maintenance pause is
then *visible* (a p99 spike in one window) and *attributable* (the
``maintenance.compact``/``maintenance.rebalance`` span in the same
window, with its duration and the rows it touched).

The op stream is generated once and cycled — the workload *shape* is
deterministic under ``scale.seed``; only how far the loop gets within
``scale.soak.seconds`` depends on the machine.  Writes go through
:func:`~repro.updates.executor.apply_write`, the step
:func:`~repro.bench.runner.run_workload` uses: delete victims
resolve deterministically from the executed-op counter, and only the
engine call is timed.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.baselines.scan import ScanIndex
from repro.bench.reporting import ExperimentReport
from repro.datasets.generators import make_uniform
from repro.queries.query import Query
from repro.queries.workloads import WorkloadOp, drifting_hotspot_workload
from repro.sharding.executor import QueryExecutor
from repro.sharding.maintenance import MaintenancePolicy
from repro.sharding.sharded_index import ShardedIndex
from repro.telemetry import (
    EventLog,
    MetricsServer,
    Telemetry,
    TimeSeriesRecorder,
)
from repro.telemetry.naming import (
    DELETE_SECONDS,
    INSERT_SECONDS,
    OPS,
    QUERY_SECONDS,
    SHARDS_BALANCE,
    STORE_DEAD_FRACTION,
    STORE_LIVE,
    record_stats_delta,
    stats_metric,
)
from repro.updates.executor import apply_write

if TYPE_CHECKING:  # pragma: no cover - typing only (avoids import cycle)
    from repro.bench.experiments import Scale

#: Queries accumulate into executor mini-batches of this size; a write
#: op flushes the pending batch first, preserving op order.
QUERY_BATCH = 16

# The workload's shape, the same at every scale (sizing is
# :class:`SoakScale`'s job).
HOTSPOT_PHASES = 3        # hot-region random-walk steps per op cycle
# Serving traffic is high-QPS point-ish lookups: small windows keep most
# queries inside one spatial tile, where fan-out pruning pays off.
QUERY_FRACTION = 1e-4
INSERT_EVERY = 3          # every Nth op inserts a batch ...
INSERT_BATCH = 64         # ... of this many boxes
DELETE_EVERY = 25         # ops between delete storms
CHAOS_REPLICATION = 2     # replicas per shard under ``chaos``


@dataclass(frozen=True)
class SoakScale:
    """Sizing of one soak run: the values a preset or a test varies.

    Time-bounded rather than op-bounded: the op stream cycles until
    ``seconds`` elapse, with windowed telemetry every ``window``.
    """

    n_objects: int = 100_000    # base dataset (uniform)
    n_shards: int = 8           # K of the serving engine
    seconds: float = 40.0       # total serving time
    window: float = 4.0         # telemetry window width
    ops: int = 1200             # generated op-cycle length
    delete_batch: int = 2000    # rows tombstoned per storm
    slow_ms: float = 10.0       # slow-query event threshold (ms)
    chaos_every: int = 150      # executed ops between replica kills


def _soak_ops(universe, sizing: SoakScale, seed: int) -> list[WorkloadOp]:
    """One cycle of the soak op stream (queries + inserts + deletes).

    Drifting-hotspot traffic with skewed ingestion, then a delete storm
    spliced in every ``DELETE_EVERY`` operations — the engine must
    crack, absorb, reclaim, and rebalance all at once.
    """
    base = drifting_hotspot_workload(
        universe,
        n_ops=sizing.ops,
        phases=HOTSPOT_PHASES,
        volume_fraction=QUERY_FRACTION,
        insert_every=INSERT_EVERY,
        insert_batch=INSERT_BATCH,
        seed=seed + 23,
    )
    ops: list[WorkloadOp] = []
    for i, op in enumerate(base):
        if i and i % DELETE_EVERY == 0:
            ops.append(
                WorkloadOp(
                    kind="delete", seq=len(ops), count=sizing.delete_batch
                )
            )
        ops.append(op)
    return ops


def soak_experiment(
    scale: "Scale", serve_metrics: int | None = None, chaos: bool = False
) -> ExperimentReport:
    """Run the soak for ``scale.soak.seconds``; report the trajectory.

    With ``serve_metrics`` set (a port; ``0`` picks an ephemeral one), a
    :class:`~repro.telemetry.MetricsServer` exposes the live registry,
    span ring, and event log for the duration of the run — the CLI's
    ``--serve-metrics`` flag, so a running soak is scrapeable mid-flight.
    Queries slower than ``scale.soak.slow_ms`` land in a structured
    :class:`~repro.telemetry.EventLog` as ``slow_query`` events; the
    report ends with the slowest of them, fully attributed.

    With ``chaos`` on (the CLI's ``--chaos`` flag), the engine serves
    from ``CHAOS_REPLICATION`` replicas per shard, a
    deterministic replica kill fires every ``scale.soak.chaos_every``
    executed ops (always leaving each shard at least one live replica),
    and the maintenance scheduler heals corpses by ledger replay
    (``recover_replicas=True``).  Every query's result is verified
    against a Scan oracle — the run reports the mismatch count (which
    must be zero) next to the kill/recovery tallies, so the chaos soak
    doubles as an end-to-end correctness harness under failure.
    """
    report = ExperimentReport(
        "soak",
        "Steady-state serving soak: windowed latency histograms with "
        "maintenance-pause span attribution (drifting hotspot + "
        "ingestion bursts + delete storms, maintenance on"
        + (", replica-kill chaos with oracle verification" if chaos else "")
        + ")",
    )
    sizing = scale.soak
    replication = CHAOS_REPLICATION if chaos else 1
    ds = make_uniform(sizing.n_objects, seed=scale.seed)
    engine = ShardedIndex(
        ds.store.copy(),
        n_shards=sizing.n_shards,
        replication=replication,
    )
    engine.build()
    # The oracle's store starts as the same copy, so both sides assign
    # identical id streams and every query is exactly comparable.
    oracle = ScanIndex(ds.store.copy()) if chaos else None
    telemetry = Telemetry()
    events = EventLog()
    policy = MaintenancePolicy(
        check_every=16,
        dead_fraction=0.15,
        max_balance=1.2,
        max_query_skew=2.5,
        min_queries=16,
        recover_replicas=chaos,
    )
    executor = QueryExecutor(
        engine,
        max_workers=2,
        maintenance=policy,
        telemetry=telemetry,
        events=events,
        slow_query_threshold=sizing.slow_ms / 1e3,
    )
    scheduler = executor.scheduler
    assert scheduler is not None
    server: MetricsServer | None = None
    if serve_metrics is not None:
        server = MetricsServer(
            telemetry, port=serve_metrics, events=events
        ).start()
        report.add_note(
            f"live metrics served at {server.url} for the duration of the "
            "run (/metrics, /snapshot.json, /spans, /events, /healthz)"
        )
    recorder = TimeSeriesRecorder(telemetry.registry, window=sizing.window)
    registry = telemetry.registry
    ops_counter = registry.counter(OPS)
    insert_hist = registry.histogram(INSERT_SECONDS)
    delete_hist = registry.histogram(DELETE_SECONDS)
    live_gauge = registry.gauge(STORE_LIVE)
    dead_gauge = registry.gauge(STORE_DEAD_FRACTION)
    balance_gauge = registry.gauge(SHARDS_BALANCE)

    ops = _soak_ops(ds.universe, sizing, scale.seed)
    state = {"live": engine.store.ids[engine.store.live_rows()].copy()}
    pending: list[Query] = []
    chaos_rng = np.random.default_rng(scale.seed + 77)
    chaos_state = {"kills": 0, "verified": 0, "mismatches": 0}

    def flush_queries() -> None:
        if not pending:
            return
        result = executor.run(pending)
        if oracle is not None:
            for query, got in zip(pending, result.results):
                expect = oracle.execute(query).ids
                chaos_state["verified"] += 1
                if not np.array_equal(np.sort(got), np.sort(expect)):
                    chaos_state["mismatches"] += 1
        pending.clear()

    def chaos_tick() -> None:
        # Deterministic periodic kill: a random live replica of a random
        # shard, but never the shard's last one — availability outages
        # are the fault-injection suites' territory; the chaos soak
        # proves *degraded* serving stays correct while healing.
        flush_queries()
        sid = int(chaos_rng.integers(engine.n_shards))
        live = engine.shards[sid].live_replicas()
        if len(live) >= 2:
            rid = int(chaos_rng.choice([r.rid for r in live]))
            engine.kill_replica(sid, rid)
            chaos_state["kills"] += 1

    def write_tick(op: WorkloadOp, seq: int) -> None:
        # Writes tick the same scheduler the executor ticks for queries,
        # inside a stats bracket, so maintenance triggered by a delete
        # storm is attributed to the op that caused it.
        before = engine.stats.snapshot()
        ids, state["live"], seconds = apply_write(
            engine, op, state["live"], seq, scale.seed
        )
        # The oracle mirrors the write outside the timed bracket.
        if op.kind == "insert":
            insert_hist.record(seconds)
            if oracle is not None:
                mirrored = oracle.insert(op.lo, op.hi)
                assert np.array_equal(mirrored, ids), (
                    "oracle id stream diverged from the engine's"
                )
        else:
            delete_hist.record(seconds)
            if oracle is not None:
                oracle.delete(ids)
        scheduler.after_ops(1)
        record_stats_delta(registry, engine.stats.delta_since(before))

    start = time.perf_counter()
    deadline = start + sizing.seconds
    recorder.tick(start)
    executed = 0
    i = 0
    now = start
    try:
        while now < deadline:
            op = ops[i % len(ops)]
            i += 1
            if chaos and executed and executed % sizing.chaos_every == 0:
                chaos_tick()
            if op.kind == "query":
                pending.append(op.query)
                if len(pending) >= QUERY_BATCH:
                    flush_queries()
            else:
                flush_queries()
                write_tick(op, executed)
            executed += 1
            ops_counter.inc()
            live_gauge.set(sum(engine.shard_sizes()))
            rows = sum(s.store.n for s in engine.shards)
            dead = sum(s.store.n_dead for s in engine.shards)
            dead_gauge.set(dead / rows if rows else 0.0)
            balance_gauge.set(engine.balance_factor())
            now = time.perf_counter()
            recorder.tick(now)
        flush_queries()
    finally:
        if server is not None:
            server.stop()
    now = time.perf_counter()
    recorder.flush(now)
    elapsed = now - start

    # -- span attribution: which window did each maintenance pass land in
    def window_of(t: float) -> int:
        return min(
            int((t - start) / sizing.window),
            max(len(recorder.windows) - 1, 0),
        )

    def plain(value):
        # Span attrs may carry numpy scalars; JSON needs builtins.
        if isinstance(value, (bool, str)):
            return value
        if isinstance(value, float):
            return float(value)
        return int(value)

    work_spans = [
        {
            "name": r.name,
            "start": r.start - start,
            "seconds": r.seconds,
            "window": window_of(r.start),
            "attrs": {k: plain(v) for k, v in r.attrs.items()},
        }
        for r in telemetry.tracer.records
        if r.name in ("maintenance.compact", "maintenance.rebalance")
        and (r.attrs.get("rows_reclaimed") or r.attrs.get("applied"))
    ]

    # -- tables ------------------------------------------------------------
    rows = []
    for w in recorder.windows:
        qh = w.histograms.get(QUERY_SECONDS)
        check = w.histograms.get("span.maintenance.check")
        rows.append(
            [
                w.index,
                f"{w.start - start:.1f}-{w.end - start:.1f}s",
                w.counters.get(OPS, 0),
                qh.count if qh else 0,
                (qh.percentile(50) * 1e3) if qh and qh.count else 0.0,
                (qh.percentile(99) * 1e3) if qh and qh.count else 0.0,
                (qh.max * 1e3) if qh and qh.count else 0.0,
                w.counters.get(stats_metric("cracks"), 0),
                w.counters.get(stats_metric("compactions"), 0),
                w.counters.get(stats_metric("rebalances"), 0),
                (check.sum * 1e3) if check else 0.0,
            ]
        )
    report.add_table(
        "latency trajectory (per window)",
        [
            "w", "interval", "ops", "queries", "q_p50_ms", "q_p99_ms",
            "q_max_ms", "cracks", "compact", "rebal", "maint_ms",
        ],
        rows,
    )
    report.add_table(
        "maintenance spans (work performed)",
        ["span", "window", "t_ms", "dur_ms", "rows"],
        [
            [
                s["name"],
                s["window"],
                s["start"] * 1e3,
                s["seconds"] * 1e3,
                s["attrs"].get("rows_reclaimed")
                or s["attrs"].get("rows_migrated")
                or 0,
            ]
            for s in work_spans
        ],
    )
    qh_total = registry.histogram(QUERY_SECONDS)
    report.add_table(
        "overall",
        ["ops", "queries", "q_p50_ms", "q_p99_ms", "q_max_ms",
         "compact_passes", "rows_reclaimed", "rebalances", "rows_migrated",
         "maint_s", "elapsed_s"],
        [[
            executed,
            qh_total.count,
            qh_total.percentile(50) * 1e3,
            qh_total.percentile(99) * 1e3,
            qh_total.max * 1e3,
            scheduler.report.compaction_passes,
            scheduler.report.rows_reclaimed,
            scheduler.report.rebalances,
            scheduler.report.rows_migrated,
            scheduler.report.seconds,
            elapsed,
        ]],
    )

    # -- slowest queries (structured slow_query events) --------------------
    slow = sorted(
        events.recent("slow_query"),
        key=lambda e: e.payload["seconds"],
        reverse=True,
    )
    top_slow = slow[:8]
    report.add_table(
        f"slowest queries (> {sizing.slow_ms:g} ms threshold; "
        f"{len(slow)} slow_query event(s) in the log)",
        [
            "seq", "ms", "rows", "predicate", "mode", "window",
            "batch_ms", "visited", "pruned",
        ],
        [
            [
                e.payload["seq"],
                round(e.payload["seconds"] * 1e3, 3),
                e.payload["count"],
                e.payload["predicate"],
                e.payload["batch_mode"],
                "x".join(
                    f"{hi - lo:.0f}"
                    for lo, hi in zip(
                        e.payload["window_lo"], e.payload["window_hi"]
                    )
                ),
                round(e.payload["batch_seconds"] * 1e3, 2),
                e.payload["shards_visited"],
                e.payload["shards_pruned"],
            ]
            for e in top_slow
        ],
    )

    # -- notes -------------------------------------------------------------
    windowed_p99 = [
        (w.index, w.histograms[QUERY_SECONDS].percentile(99))
        for w in recorder.windows
        if QUERY_SECONDS in w.histograms
        and w.histograms[QUERY_SECONDS].count
    ]
    if windowed_p99:
        worst = max(windowed_p99, key=lambda t: t[1])
        best = min(windowed_p99, key=lambda t: t[1])
        report.add_note(
            f"query p99 ranges {best[1] * 1e3:.2f} ms (window {best[0]}) to "
            f"{worst[1] * 1e3:.2f} ms (window {worst[0]}) across "
            f"{len(recorder.windows)} windows"
        )
        in_worst = [s for s in work_spans if s["window"] == worst[0]]
        if in_worst:
            top = max(in_worst, key=lambda s: s["seconds"])
            report.add_note(
                f"worst window {worst[0]} contained {top['name']} "
                f"({top['seconds'] * 1e3:.2f} ms) — the pause is attributed, "
                "not mysterious"
            )
    if work_spans:
        top = max(work_spans, key=lambda s: s["seconds"])
        report.add_note(
            f"{len(work_spans)} maintenance pass(es) did work; slowest was "
            f"{top['name']} at {top['seconds'] * 1e3:.2f} ms in window "
            f"{top['window']}"
        )
    else:
        report.add_note(
            "no maintenance pass did work this run — lengthen soak.seconds "
            "or lower the policy thresholds"
        )
    if telemetry.tracer.dropped:
        report.add_note(
            f"{telemetry.tracer.dropped} span record(s) dropped past the "
            "tracer cap (registry histograms still complete)"
        )
    if top_slow:
        worst_q = top_slow[0]
        report.add_note(
            f"slowest query (seq {worst_q.payload['seq']}) took "
            f"{worst_q.payload['seconds'] * 1e3:.2f} ms in a "
            f"{worst_q.payload['batch_mode']} batch of "
            f"{worst_q.payload['batch_queries']} "
            f"({worst_q.payload['batch_seconds'] * 1e3:.2f} ms total)"
        )
    else:
        report.add_note(
            f"no query exceeded the {sizing.slow_ms:g} ms slow-query "
            "threshold — lower soak.slow_ms to exercise the event log"
        )
    if events.dropped:
        report.add_note(
            f"{events.dropped} event(s) dropped past the event-log ring "
            "(emitted counter still complete)"
        )
    replica_events: dict[str, int] = {}
    if chaos:
        for record in events.recent():
            if record.kind.startswith("replica."):
                replica_events[record.kind] = (
                    replica_events.get(record.kind, 0) + 1
                )
        report.add_note(
            f"chaos: {chaos_state['kills']} replica kill(s), "
            f"{scheduler.report.replicas_recovered} ledger-replay "
            f"recover(ies); {chaos_state['verified']} quer(ies) verified "
            f"against the Scan oracle with {chaos_state['mismatches']} "
            "mismatch(es)"
        )

    # -- machine-readable trajectory --------------------------------------
    report.metrics = {
        "window_seconds": sizing.window,
        "soak_seconds": sizing.seconds,
        "elapsed_seconds": elapsed,
        "ops_executed": executed,
        "windows": [w.to_dict(origin=start) for w in recorder.windows],
        "spans": work_spans,
        "maintenance": {
            "checks": scheduler.report.checks,
            "compaction_passes": scheduler.report.compaction_passes,
            "rows_reclaimed": scheduler.report.rows_reclaimed,
            "rebalances": scheduler.report.rebalances,
            "rows_migrated": scheduler.report.rows_migrated,
            "seconds": scheduler.report.seconds,
        },
        "config": {
            "n_objects": int(ds.store.n),
            "n_shards": int(engine.n_shards),
            "check_every": policy.check_every,
            "dead_fraction": policy.dead_fraction,
            "max_balance": policy.max_balance,
            "query_batch": QUERY_BATCH,
            "slow_query_threshold_ms": sizing.slow_ms,
        },
        "slow_queries": [e.to_dict() for e in top_slow],
        "chaos": {
            "enabled": chaos,
            "replication": replication,
            "kills": chaos_state["kills"],
            "recoveries": scheduler.report.replicas_recovered,
            "verified_queries": chaos_state["verified"],
            "mismatches": chaos_state["mismatches"],
            "replica_events": replica_events,
        },
        "events": {
            "emitted": events.emitted,
            "dropped": events.dropped,
            "slow_query_threshold_ms": sizing.slow_ms,
        },
    }
    return report
