"""MetricsServer: real-socket smoke tests over an ephemeral port."""

from __future__ import annotations

import json
import urllib.error
import urllib.request

import pytest

from repro.errors import ConfigurationError
from repro.telemetry import ENDPOINTS, EventLog, MetricsServer, Telemetry


def _get(url: str) -> tuple[int, str, str]:
    """(status, content-type, body) of one GET."""
    with urllib.request.urlopen(url, timeout=5) as resp:
        return resp.status, resp.headers["Content-Type"], resp.read().decode()


@pytest.fixture()
def live():
    """A running server over a telemetry handle with some state."""
    telemetry = Telemetry()
    telemetry.registry.counter("ops").inc(3)
    telemetry.registry.histogram("query.seconds").record(0.002)
    with telemetry.tracer.span("maintenance.compact") as span:
        span.set(rows_reclaimed=10)
    events = EventLog()
    events.emit("slow_query", seq=1, seconds=0.2)
    server = MetricsServer(telemetry, port=0, events=events).start()
    yield server
    server.stop()


class TestMetricsServer:
    def test_metrics_endpoint_serves_prometheus_text(self, live):
        status, ctype, body = _get(live.url + "/metrics")
        assert status == 200
        assert ctype.startswith("text/plain")
        assert "repro_ops_total 3" in body
        assert "repro_query_seconds_count 1" in body
        assert 'le="+Inf"' in body

    def test_scrape_sees_live_updates(self, live):
        _, _, before = _get(live.url + "/metrics")
        assert "repro_ops_total 3" in before
        live._telemetry.registry.counter("ops").inc(4)
        _, _, after = _get(live.url + "/metrics")
        assert "repro_ops_total 7" in after

    def test_snapshot_endpoint_serves_json(self, live):
        status, ctype, body = _get(live.url + "/snapshot.json")
        assert status == 200 and ctype == "application/json"
        doc = json.loads(body)
        assert doc["counters"]["ops"] == 3
        assert doc["histograms"]["query.seconds"]["count"] == 1

    def test_spans_endpoint_exposes_dropped(self, live):
        _, _, body = _get(live.url + "/spans")
        doc = json.loads(body)
        assert doc["dropped"] == 0
        assert doc["recorded"] == 1
        assert doc["spans"][0]["name"] == "maintenance.compact"
        assert doc["spans"][0]["attrs"] == {"rows_reclaimed": 10}

    def test_spans_endpoint_filters_and_limits(self, live):
        _, _, body = _get(live.url + "/spans?name=missing&limit=1")
        assert json.loads(body)["spans"] == []

    def test_events_endpoint(self, live):
        _, _, body = _get(live.url + "/events?kind=slow_query")
        doc = json.loads(body)
        assert doc["emitted"] == 1 and doc["dropped"] == 0
        assert doc["events"][0]["payload"]["seq"] == 1

    def test_healthz(self, live):
        _, _, body = _get(live.url + "/healthz")
        doc = json.loads(body)
        assert doc["status"] == "ok"
        assert doc["uptime_seconds"] >= 0
        assert doc["spans_recorded"] == 1
        assert doc["events_emitted"] == 1

    def test_unknown_path_is_404_listing_endpoints(self, live):
        with pytest.raises(urllib.error.HTTPError) as err:
            _get(live.url + "/nope")
        assert err.value.code == 404
        assert "/metrics" in err.value.read().decode()

    def test_every_documented_endpoint_answers(self, live):
        for path in ENDPOINTS:
            status, _, _ = _get(live.url + path)
            assert status == 200, path

    def test_stop_is_idempotent_and_restartable(self):
        server = MetricsServer(Telemetry())
        server.start()
        port = server.port
        assert port > 0
        server.stop()
        server.stop()  # no-op
        with pytest.raises(urllib.error.URLError):
            _get(f"http://127.0.0.1:{port}/healthz")
        server.start()  # a stopped server may start again
        _get(server.url + "/healthz")
        server.stop()

    def test_double_start_rejected(self):
        with MetricsServer(Telemetry()) as server:
            with pytest.raises(ConfigurationError):
                server.start()

    def test_port_validation(self):
        with pytest.raises(ConfigurationError):
            MetricsServer(Telemetry(), port=70000)

    def test_events_endpoint_without_log_is_empty(self):
        with MetricsServer(Telemetry()) as server:
            _, _, body = _get(server.url + "/events")
            doc = json.loads(body)
            assert doc == {"emitted": 0, "dropped": 0, "events": []}
