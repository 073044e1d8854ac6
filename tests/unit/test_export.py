"""Exporters: Prometheus text exposition and the JSON snapshot round-trip.

The golden-text tests pin the wire format (a scraper is an external
consumer; silent format drift breaks it), the property-style tests pin
the invariants the format requires — cumulative bucket monotonicity,
``+Inf`` equal to ``_count``, and no NaN on the wire even for empty
histograms.
"""

from __future__ import annotations

import re

from repro.telemetry import (
    LatencyHistogram,
    MetricsRegistry,
    json_snapshot,
    registry_prometheus,
    render_prometheus,
)
from repro.telemetry.export import _metric_name


def _simple_hist() -> LatencyHistogram:
    """Three exact decade buckets: [1, 10), [10, 100), [100, 1000)."""
    return LatencyHistogram(lo=1.0, hi=1000.0, buckets_per_decade=1)


class TestPrometheusText:
    def test_golden_full_exposition(self):
        hist = _simple_hist()
        for v in (5.0, 0.5, 500.0, 5000.0):  # 0.5 underflows, 5000 overflows
            hist.record(v)
        text = render_prometheus(
            {"ops": 3}, {"q.seconds": hist}
        )
        assert text == (
            "# TYPE repro_ops_total counter\n"
            "repro_ops_total 3\n"
            "# TYPE repro_q_seconds histogram\n"
            'repro_q_seconds_bucket{le="10"} 2\n'
            'repro_q_seconds_bucket{le="+Inf"} 4\n'
            "repro_q_seconds_sum 5505.5\n"
            "repro_q_seconds_count 4\n"
        )

    def test_overflow_sits_under_inf_not_a_nominal_edge(self):
        # A sample clamped into the last bucket must not surface under
        # that bucket's nominal upper edge (1000 would be a lie for a
        # 5000 s sample) — only under +Inf.
        hist = _simple_hist()
        hist.record(5000.0)
        text = render_prometheus({}, {"h": hist})
        assert 'le="1000"' not in text
        assert 'repro_h_bucket{le="+Inf"} 1' in text

    def test_underflow_sits_under_lowest_edge(self):
        hist = _simple_hist()
        hist.record(0.001)  # below lo=1.0: clamps into bucket 0
        text = render_prometheus({}, {"h": hist})
        assert 'repro_h_bucket{le="10"} 1' in text

    def test_empty_histogram_exports_count_zero_no_nan(self):
        text = render_prometheus({}, {"empty.seconds": _simple_hist()})
        assert text == (
            "# TYPE repro_empty_seconds histogram\n"
            'repro_empty_seconds_bucket{le="+Inf"} 0\n'
            "repro_empty_seconds_sum 0\n"
            "repro_empty_seconds_count 0\n"
        )
        assert "NaN" not in text and "nan" not in text

    def test_cumulative_buckets_monotone_and_inf_equals_count(self):
        hist = LatencyHistogram()  # production layout, 40 buckets/decade
        for i in range(500):
            hist.record(10 ** ((i % 70) / 10.0 - 6))
        text = render_prometheus({}, {"h": hist})
        counts = [
            int(m.group(1))
            for m in re.finditer(r'le="[^"]+"} (\d+)', text)
        ]
        assert counts == sorted(counts)
        assert counts[-1] == hist.count  # the +Inf line
        assert f"repro_h_count {hist.count}" in text

    def test_name_sanitization(self):
        assert _metric_name("query.seconds", "repro") == "repro_query_seconds"
        assert _metric_name("a-b c", "repro") == "repro_a_b_c"
        assert _metric_name("9lives", "") == "_9lives"

    def test_help_escaping(self):
        text = render_prometheus(
            {"ops": 1}, {},
            help_text={"ops": "line one\nback\\slash"},
        )
        assert "# HELP repro_ops_total line one\\nback\\\\slash" in text

    def test_registry_renderer_exports_live_cumulative_state(self):
        reg = MetricsRegistry()
        reg.counter("ops").inc(5)
        reg.histogram("q.seconds").record(0.01)
        first = registry_prometheus(reg)
        assert "repro_ops_total 5" in first
        assert "repro_q_seconds_count 1" in first
        reg.counter("ops").inc(2)
        reg.histogram("q.seconds").record(0.02)
        later = registry_prometheus(reg)  # cumulative, not a delta
        assert "repro_ops_total 7" in later
        assert "repro_q_seconds_count 2" in later
        assert registry_prometheus(reg, namespace="x").startswith(
            "# TYPE x_ops_total counter"
        )


class TestJsonSnapshot:
    def test_snapshot_is_sorted_and_complete(self):
        reg = MetricsRegistry()
        reg.counter("z.ops").inc(2)
        reg.counter("a.ops").inc(1)
        reg.histogram("q.seconds").record(0.02)
        doc = json_snapshot(reg)
        assert list(doc) == ["counters", "histograms"]
        assert list(doc["counters"]) == ["a.ops", "z.ops"]
        hist_doc = doc["histograms"]["q.seconds"]
        assert hist_doc["count"] == 1
        assert hist_doc["layout"]["buckets_per_decade"] == 40

    def test_histogram_entry_carries_its_buckets_and_layout(self):
        reg = MetricsRegistry()
        hist = reg.histogram("q.seconds")
        for i in range(1, 300):
            hist.record(i / 1000.0)
        doc = json_snapshot(reg)["histograms"]["q.seconds"]
        assert doc["layout"] == {
            "lo": hist.lo, "hi": hist.hi,
            "buckets_per_decade": hist.buckets_per_decade,
        }
        assert (doc["count"], doc["sum"], doc["max"]) == (hist.count, hist.sum, hist.max)
        assert sum(doc["buckets"].values()) == hist.count
        for key, value in doc["buckets"].items():
            assert hist.counts[int(key)] == value

    def test_empty_histogram_entry(self):
        reg = MetricsRegistry()
        reg.histogram("empty")
        doc = json_snapshot(reg)["histograms"]["empty"]
        assert doc["count"] == 0 and doc["buckets"] == {}
        assert doc["p99"] == 0.0 and doc["mean"] == 0.0
