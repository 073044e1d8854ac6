"""Telemetry core: histograms, registry, tracer, instrumentation.

The histogram accuracy tests compare against ``numpy.percentile`` on
random samples — the contract is a bounded *relative* error (one bucket
of slack at 40 buckets/decade), not exact agreement.
"""

from __future__ import annotations

import json
import time

import numpy as np
import pytest

from repro.datasets import make_uniform
from repro.errors import ConfigurationError
from repro.queries import uniform_workload
from repro.sharding import (
    MaintenancePolicy,
    MaintenanceScheduler,
    QueryExecutor,
    ShardedIndex,
)
from repro.telemetry import (
    DISABLED,
    EventLog,
    LatencyHistogram,
    MetricsRegistry,
    Telemetry,
    Tracer,
)
from repro.telemetry.naming import METRICS, QUERY_SECONDS, SPANS, stats_metric


# ----------------------------------------------------------------------
# LatencyHistogram
# ----------------------------------------------------------------------
class TestLatencyHistogram:
    #: One bucket spans a factor of 10**(1/40); the midpoint estimate is
    #: off by at most half a bucket, but the rank itself can sit next to
    #: a bucket edge — allow a full bucket of relative slack.
    REL_TOL = 10 ** (1 / 40) - 1  # ~5.9%

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("q", [50, 90, 99])
    def test_percentiles_track_numpy(self, seed, q):
        rng = np.random.default_rng(seed)
        samples = rng.lognormal(mean=-7.0, sigma=1.5, size=20_000)
        hist = LatencyHistogram()
        for s in samples:
            hist.record(s)
        expected = float(np.percentile(samples, q))
        assert hist.percentile(q) == pytest.approx(
            expected, rel=2 * self.REL_TOL
        )

    def test_count_sum_max_exact(self):
        hist = LatencyHistogram()
        values = [1e-4, 2e-3, 5e-2, 2e-3]
        for v in values:
            hist.record(v)
        assert hist.count == 4
        assert hist.sum == pytest.approx(sum(values))
        assert hist.max == 5e-2
        assert hist.mean == pytest.approx(sum(values) / 4)

    def test_empty_percentiles_are_zero(self):
        assert LatencyHistogram().percentile(99) == 0.0
        assert LatencyHistogram().mean == 0.0

    def test_out_of_range_samples_clamp(self):
        hist = LatencyHistogram(lo=1e-3, hi=1.0)
        hist.record(1e-9)
        hist.record(50.0)
        assert hist.count == 2
        assert hist.counts[0] == 1
        assert hist.counts[-1] == 1

    def test_merge_matches_single_stream(self):
        rng = np.random.default_rng(3)
        a, b = LatencyHistogram(), LatencyHistogram()
        both = LatencyHistogram()
        for i, s in enumerate(rng.lognormal(-7, 1.0, size=2000)):
            (a if i % 2 else b).record(s)
            both.record(s)
        merged = a.merge(b)
        assert merged.counts == both.counts
        assert merged.count == both.count
        assert merged.max == both.max
        assert merged.sum == pytest.approx(both.sum)

    def test_merge_associative_and_commutative(self):
        rng = np.random.default_rng(4)
        hists = []
        for _ in range(3):
            h = LatencyHistogram()
            for s in rng.lognormal(-6, 1.0, size=500):
                h.record(s)
            hists.append(h)
        a, b, c = hists
        left = a.merge(b).merge(c)
        right = a.merge(b.merge(c))
        swapped = c.merge(a.merge(b))
        assert left.counts == right.counts == swapped.counts
        assert left.count == right.count == swapped.count

    def test_merge_layout_mismatch_raises(self):
        with pytest.raises(ConfigurationError, match="layout"):
            LatencyHistogram().merge(LatencyHistogram(lo=1e-3))

    def test_absorb_folds_in_place(self):
        # The pool folds worker histograms into the driver's registry
        # instrument, which must keep its identity.
        target, shipped = LatencyHistogram(), LatencyHistogram()
        target.record(1e-3)
        for s in (1e-4, 2e-2):
            shipped.record(s)
        want = target.merge(shipped)
        same = target
        target.absorb(shipped)
        assert target is same
        assert target.counts == want.counts and target.count == 3
        assert target.sum == pytest.approx(want.sum) and target.max == 2e-2
        assert shipped.count == 2  # the source is left as it was
        with pytest.raises(ConfigurationError, match="layout"):
            target.absorb(LatencyHistogram(lo=1e-3))

    def test_copy_is_an_independent_snapshot(self):
        hist = LatencyHistogram(lo=1e-4, hi=1.0, buckets_per_decade=10)
        hist.record(1e-3)
        snap = hist.copy()
        hist.record(5e-1)
        assert (snap.lo, snap.hi, snap.buckets_per_decade) == (1e-4, 1.0, 10)
        assert snap.count == 1 and snap.max == 1e-3 and sum(snap.counts) == 1
        assert hist.count == 2 and hist.max == 5e-1

    def test_to_dict_keys_and_buckets(self):
        hist = LatencyHistogram()
        hist.record(1e-3)
        d = hist.to_dict(include_buckets=True)
        assert {"count", "sum", "mean", "max", "p50", "p90", "p99"} <= set(d)
        assert sum(d["buckets"].values()) == 1
        assert "buckets" not in hist.to_dict()

    def test_invalid_construction(self):
        with pytest.raises(ConfigurationError):
            LatencyHistogram(lo=0.0)
        with pytest.raises(ConfigurationError):
            LatencyHistogram(lo=1.0, hi=0.5)
        with pytest.raises(ConfigurationError):
            LatencyHistogram(buckets_per_decade=0)


# ----------------------------------------------------------------------
# MetricsRegistry
# ----------------------------------------------------------------------
class TestMetricsRegistry:
    def test_get_or_create_identity(self):
        reg = MetricsRegistry()
        assert reg.counter("a") is reg.counter("a")
        assert reg.histogram("h") is reg.histogram("h")
        assert reg.gauge("g") is reg.gauge("g")

    def test_kind_collision_raises(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(ConfigurationError, match="already registered"):
            reg.gauge("x")

    def test_snapshot_views(self):
        reg = MetricsRegistry()
        reg.counter("c").inc(3)
        reg.gauge("g").set(1.5)
        reg.histogram("h").record(1e-3)
        assert reg.counters() == {"c": 3}
        assert reg.gauges() == {"g": 1.5}
        snap = reg.histograms()["h"]
        reg.histogram("h").record(1e-3)
        assert snap.count == 1  # snapshot copies are independent
        assert reg.names() == ["c", "g", "h"]

    def test_counter_rejects_negative(self):
        with pytest.raises(ConfigurationError, match="only increase"):
            MetricsRegistry().counter("c").inc(-1)


# ----------------------------------------------------------------------
# Tracer
# ----------------------------------------------------------------------
class TestTracer:
    def test_nesting_depth_and_parent(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner", shard=3) as span:
                span.set(rows=10)
        inner, outer = tracer.records
        assert (inner.name, inner.depth, inner.parent) == ("inner", 1, "outer")
        assert (outer.name, outer.depth, outer.parent) == ("outer", 0, None)
        assert inner.attrs == {"shard": 3, "rows": 10}
        assert 0 <= inner.seconds <= outer.seconds

    def test_spans_filter_and_total(self):
        tracer = Tracer()
        for _ in range(3):
            with tracer.span("a"):
                pass
        with tracer.span("b"):
            pass
        assert len(tracer.spans("a")) == 3
        assert len(tracer.spans()) == 4
        assert tracer.total_seconds("a") == pytest.approx(
            sum(r.seconds for r in tracer.spans("a"))
        )

    def test_disabled_records_nothing(self):
        tracer = Tracer(enabled=False)
        with tracer.span("x") as span:
            span.set(ignored=1)
        assert list(tracer.records) == []
        assert DISABLED.span("y") is DISABLED.span("z")  # shared no-op

    def test_disabled_overhead_near_zero(self):
        tracer = Tracer(enabled=False)
        t0 = time.perf_counter()
        for _ in range(100_000):
            with tracer.span("hot"):
                pass
        elapsed = time.perf_counter() - t0
        # ~0.6 µs/span on any plausible machine; 2 s is a 20x margin
        # against CI noise while still catching accidental allocation.
        assert elapsed < 2.0
        assert list(tracer.records) == []

    def test_registry_backed_span_histograms(self):
        reg = MetricsRegistry()
        tracer = Tracer(registry=reg)
        with tracer.span("maintenance.compact"):
            pass
        hist = reg.histograms()["span.maintenance.compact"]
        assert hist.count == 1
        assert hist.sum > 0

    def test_max_spans_cap_drops_but_counts(self):
        reg = MetricsRegistry()
        tracer = Tracer(registry=reg, max_spans=2)
        for _ in range(5):
            with tracer.span("s"):
                pass
        assert len(tracer.records) == 2
        assert tracer.dropped == 3
        assert reg.histograms()["span.s"].count == 5  # histogram complete

    def test_ring_keeps_most_recent_records(self):
        tracer = Tracer(max_spans=3)
        for i in range(6):
            with tracer.span(f"s{i}"):
                pass
        assert [r.name for r in tracer.records] == ["s3", "s4", "s5"]
        assert tracer.dropped == 3

    def test_spans_returns_defensive_copy(self):
        tracer = Tracer()
        with tracer.span("a"):
            pass
        view = tracer.spans()
        view.clear()
        assert len(tracer.spans()) == 1
        assert tracer.spans() is not tracer.records

    def test_exception_still_records(self):
        tracer = Tracer()
        with pytest.raises(ValueError):
            with tracer.span("boom"):
                raise ValueError("x")
        assert tracer.spans("boom")
        assert tracer._stack() == []  # stack unwound


# ----------------------------------------------------------------------
# Instrumented components end to end
# ----------------------------------------------------------------------
class TestInstrumentation:
    def _engine(self, n=2000, shards=3):
        ds = make_uniform(n, seed=7)
        engine = ShardedIndex(ds.store.copy(), n_shards=shards)
        engine.build()
        return ds, engine

    def test_executor_records_batch_metrics(self):
        ds, engine = self._engine()
        telemetry = Telemetry()
        # Pinned: the in-thread server records the full fan-out profile.
        ex = QueryExecutor(
            engine, max_workers=2, backend="sequential", telemetry=telemetry
        )
        queries = uniform_workload(ds.universe, 20, seed=1)
        out = ex.run(queries)
        reg = telemetry.registry
        assert reg.histograms()[QUERY_SECONDS].count == 20
        assert reg.histograms()["batch.seconds"].count == 1
        shard_hist = reg.histograms()["shard.batch.seconds"]
        assert shard_hist.count == sum(1 for s in out.shard_seconds if s) > 0
        for phase in ("route", "fanout", "merge"):
            assert reg.histograms()[f"batch.{phase}.seconds"].count == 1
        # IndexStats deltas flowed into stats.* counters.
        counters = reg.counters()
        assert counters[stats_metric("queries")] == 20
        assert counters.get(stats_metric("objects_tested"), 0) > 0

    def test_executor_without_telemetry_has_no_registry(self):
        ds, engine = self._engine()
        ex = QueryExecutor(engine, max_workers=2)
        ex.run(uniform_workload(ds.universe, 5, seed=1))
        assert ex.telemetry is None

    def test_disabled_telemetry_is_ignored(self):
        ds, engine = self._engine()
        ex = QueryExecutor(engine, telemetry=Telemetry(enabled=False))
        ex.run(uniform_workload(ds.universe, 5, seed=1))
        assert ex.telemetry is None

    def test_scheduler_traces_maintenance_spans(self):
        _, engine = self._engine()
        telemetry = Telemetry()
        scheduler = MaintenanceScheduler(
            engine, MaintenancePolicy(check_every=1), tracer=telemetry.tracer
        )
        scheduler.run()
        (span,) = telemetry.tracer.records
        assert span.name == "maintenance.compact"
        assert "rows_reclaimed" in span.attrs
        # Registry-backed: durations appear as span.* histograms too.
        assert "span.maintenance.compact" in telemetry.registry.names()

    def test_scheduler_without_tracer_uses_disabled(self):
        _, engine = self._engine()
        scheduler = MaintenanceScheduler(engine, MaintenancePolicy())
        assert scheduler.tracer is DISABLED
        scheduler.run()  # must not record anywhere
        assert list(DISABLED.records) == []

    def test_executor_emits_slow_query_events(self):
        ds, engine = self._engine()
        events = EventLog()
        # threshold 0.0: every executed query is "slow", deterministically.
        ex = QueryExecutor(
            engine,
            max_workers=2,
            backend="sequential",
            events=events,
            slow_query_threshold=0.0,
        )
        queries = uniform_workload(ds.universe, 10, seed=1)
        out = ex.run(queries)
        slow = events.recent("slow_query")
        assert len(slow) == 10
        payload = slow[0].payload
        for key in (
            "seq", "predicate", "mode", "window_lo", "window_hi",
            "seconds", "count", "batch_mode", "batch_seconds",
            "batch_queries", "shards_visited", "shards_pruned",
            "shard_seconds", "route_seconds", "fanout_seconds",
            "merge_seconds",
        ):
            assert key in payload, key
        assert payload["batch_mode"] == out.mode == "sequential"
        assert payload["batch_queries"] == 10
        visited = sum(1 for n in out.shard_queries if n)
        assert payload["shards_visited"] == visited > 0
        assert isinstance(payload["shards_pruned"], int)
        assert payload["shards_pruned"] == engine.n_shards - visited
        json.dumps(payload)  # wire-ready without a default=

    def test_executor_without_threshold_emits_nothing(self):
        ds, engine = self._engine()
        events = EventLog()
        ex = QueryExecutor(engine, max_workers=1, events=events)
        ex.run(uniform_workload(ds.universe, 5, seed=1))
        assert events.recent() == []

    def test_executor_rejects_negative_threshold(self):
        _, engine = self._engine()
        with pytest.raises(ConfigurationError):
            QueryExecutor(
                engine, events=EventLog(), slow_query_threshold=-1.0
            )

    @pytest.mark.parametrize("threshold", [0.0, 0.01])
    def test_executor_rejects_threshold_without_event_log(self, threshold):
        # 0.0 ("every query is slow") is a threshold too, not "unset".
        _, engine = self._engine()
        with pytest.raises(ConfigurationError, match="events"):
            QueryExecutor(engine, slow_query_threshold=threshold)

    def test_scheduler_emits_compaction_event_when_work_happens(self):
        ds, engine = self._engine()
        events = EventLog()
        scheduler = MaintenanceScheduler(
            engine,
            MaintenancePolicy(check_every=1, dead_fraction=0.1),
            events=events,
        )
        scheduler.run()  # nothing dead yet: no event
        assert events.recent("maintenance.compact") == []
        engine.delete(ds.store.ids[:1000])  # half the rows tombstoned
        scheduler.run()
        (event,) = events.recent("maintenance.compact")
        assert event.payload["rows_reclaimed"] > 0
        assert event.payload["seconds"] >= 0.0
        # Events mirror the report: counts must agree.
        assert scheduler.report.compaction_passes == 1

    def test_vocabulary_covers_instrumented_names(self):
        # Every name the executor writes must be canonical.
        for name in (
            "query.seconds", "batch.seconds", "batch.route.seconds",
            "batch.fanout.seconds", "batch.merge.seconds",
            "shard.batch.seconds",
        ):
            assert name in METRICS
        assert list(SPANS) == ["maintenance.compact"]
