"""Live metrics endpoint: a stdlib HTTP thread over a `Telemetry` handle.

A running serving loop should be scrapeable *mid-flight*,
not only explicable post-hoc.  :class:`MetricsServer` wraps one
:class:`~repro.telemetry.Telemetry` handle (and optionally one
:class:`~repro.telemetry.events.EventLog`) in a daemon-threaded
``http.server`` — no third-party dependency, started and stopped in a
few milliseconds, safe to point Prometheus or ``curl`` at:

    server = MetricsServer(telemetry, port=9464).start()
    ...serve traffic...
    server.stop()

Reads are snapshot-based (registry accessors copy, the span ring and
event log hand out defensive copies), so a scrape never blocks or
perturbs the serving loop beyond the GIL.  The endpoint vocabulary
lives in :data:`ENDPOINTS`; ``tools/check_docs.py`` checks it against
the table in ``docs/OBSERVABILITY.md`` in both directions.
"""

from __future__ import annotations

import json
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from types import TracebackType
from typing import TYPE_CHECKING
from urllib.parse import parse_qs, urlsplit

from repro.errors import ConfigurationError
from repro.telemetry.events import EventLog
from repro.telemetry.export import json_snapshot, registry_prometheus
from repro.telemetry.tracer import Tracer

if TYPE_CHECKING:  # circular at runtime: the package __init__ imports us
    from repro.telemetry import Telemetry

__all__ = ["ENDPOINTS", "MetricsServer"]

#: Canonical endpoint -> one-line meaning (docs/OBSERVABILITY.md).
ENDPOINTS: dict[str, str] = {
    "/metrics": (
        "Prometheus text exposition of the live registry (counters as "
        "_total, gauges, histograms as cumulative _bucket/_sum/_count)"
    ),
    "/snapshot.json": (
        "stable JSON snapshot of the registry, histograms with bucket "
        "layouts included"
    ),
    "/spans": (
        "recent finished SpanRecords plus the tracer's dropped count; "
        "?name= filters, ?limit= bounds (default 256)"
    ),
    "/events": (
        "recent structured events plus emitted/dropped counts; ?kind= "
        "filters, ?limit= bounds (default 256); empty without an EventLog"
    ),
    "/healthz": (
        "liveness probe: status, uptime seconds, span/event totals"
    ),
}

#: Default record cap for ``/spans`` and ``/events`` responses.
_DEFAULT_LIMIT = 256


def _span_dicts(
    tracer: Tracer, name: str | None, limit: int
) -> list[dict[str, object]]:
    records = tracer.spans(name)
    return [
        {
            "name": r.name,
            "start": r.start,
            "seconds": r.seconds,
            "depth": r.depth,
            "parent": r.parent,
            "attrs": {
                k: (v.item() if hasattr(v, "item") else v)
                for k, v in r.attrs.items()
            },
        }
        for r in records[len(records) - min(limit, len(records)):]
    ]


class MetricsServer:
    """Serve a live `Telemetry` handle over HTTP on a daemon thread.

    Parameters
    ----------
    telemetry:
        The handle to expose; the server reads it live, so metrics a
        workload records after :meth:`start` appear in the next scrape.
    host / port:
        Bind address.  ``port=0`` binds an ephemeral port; read the
        resolved one from :attr:`port` after :meth:`start`.
    events:
        Optional :class:`EventLog`; ``/events`` serves it (and
        ``/healthz`` reports its totals) when present.
    """

    def __init__(
        self,
        telemetry: Telemetry,
        host: str = "127.0.0.1",
        port: int = 0,
        events: EventLog | None = None,
    ) -> None:
        if not 0 <= int(port) <= 65535:
            raise ConfigurationError(f"port must be in [0, 65535], got {port}")
        self._telemetry = telemetry
        self._events = events
        self._host = host
        self._requested_port = int(port)
        self._httpd: ThreadingHTTPServer | None = None
        self._thread: threading.Thread | None = None
        self._started_at = 0.0

    # -- lifecycle ---------------------------------------------------------
    def start(self) -> MetricsServer:
        """Bind and serve on a daemon thread; returns ``self`` (chainable)."""
        if self._httpd is not None:
            raise ConfigurationError("MetricsServer is already running")
        handler = self._make_handler()
        self._httpd = ThreadingHTTPServer(
            (self._host, self._requested_port), handler
        )
        self._httpd.daemon_threads = True
        self._started_at = time.time()
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            name="repro-metrics-server",
            daemon=True,
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        """Shut the server down and join its thread (idempotent)."""
        if self._httpd is None:
            return
        self._httpd.shutdown()
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
        self._httpd = None
        self._thread = None

    def __enter__(self) -> MetricsServer:
        return self.start()

    def __exit__(
        self,
        exc_type: type[BaseException] | None,
        exc: BaseException | None,
        tb: TracebackType | None,
    ) -> bool:
        self.stop()
        return False

    @property
    def port(self) -> int:
        """The bound port (resolves ``port=0`` to the ephemeral choice)."""
        if self._httpd is None:
            return self._requested_port
        return self._httpd.server_address[1]

    @property
    def url(self) -> str:
        """Base URL of the running server."""
        return f"http://{self._host}:{self.port}"

    # -- request handling --------------------------------------------------
    def _payload(
        self, path: str, query: dict[str, str]
    ) -> tuple[int, str, str]:
        """(status, content-type, body) for one GET; 404 off-vocabulary."""
        tel = self._telemetry
        if path == "/metrics":
            return (
                200,
                "text/plain; version=0.0.4; charset=utf-8",
                registry_prometheus(tel.registry),
            )
        if path == "/snapshot.json":
            return 200, "application/json", json.dumps(
                json_snapshot(tel.registry), indent=2
            )
        if path == "/spans":
            limit = _positive_int(query.get("limit"), _DEFAULT_LIMIT)
            name = query.get("name")
            body = {
                "dropped": tel.tracer.dropped,
                "recorded": len(tel.tracer.records),
                "spans": _span_dicts(tel.tracer, name, limit),
            }
            return 200, "application/json", json.dumps(body, indent=2)
        if path == "/events":
            limit = _positive_int(query.get("limit"), _DEFAULT_LIMIT)
            kind = query.get("kind")
            log = self._events
            body = {
                "emitted": log.emitted if log else 0,
                "dropped": log.dropped if log else 0,
                "events": log.to_dicts(kind=kind, limit=limit) if log else [],
            }
            return 200, "application/json", json.dumps(body, indent=2)
        if path == "/healthz":
            log = self._events
            body = {
                "status": "ok",
                "uptime_seconds": time.time() - self._started_at,
                "metrics": len(tel.registry.names()),
                "spans_recorded": len(tel.tracer.records),
                "spans_dropped": tel.tracer.dropped,
                "events_emitted": log.emitted if log else 0,
            }
            return 200, "application/json", json.dumps(body, indent=2)
        known = ", ".join(sorted(ENDPOINTS))
        return 404, "text/plain; charset=utf-8", (
            f"unknown path {path!r}; endpoints: {known}\n"
        )

    def _make_handler(self) -> type[BaseHTTPRequestHandler]:
        server = self

        class Handler(BaseHTTPRequestHandler):
            def do_GET(self) -> None:  # noqa: N802 (stdlib casing)
                split = urlsplit(self.path)
                query = {
                    k: v[-1] for k, v in parse_qs(split.query).items()
                }
                try:
                    status, ctype, body = server._payload(split.path, query)
                except Exception as exc:  # ql: allow[QL006] never kill the serving loop
                    status, ctype, body = (
                        500,
                        "text/plain; charset=utf-8",
                        f"internal error: {exc}\n",
                    )
                data = body.encode("utf-8")
                self.send_response(status)
                self.send_header("Content-Type", ctype)
                self.send_header("Content-Length", str(len(data)))
                self.end_headers()
                self.wfile.write(data)

            def log_message(self, fmt: str, *args: object) -> None:
                pass  # scrapes must not spam the bench's stdout

        return Handler


def _positive_int(raw: str | None, default: int) -> int:
    try:
        value = int(raw) if raw is not None else default
    except ValueError:
        return default
    return value if value >= 0 else default
