#!/usr/bin/env python3
"""Scrape a serving loop live: MetricsServer + slow-query events.

A short sharded serving run with the full observability stack on: a
`Telemetry` handle feeding counters/histograms/spans, an
`EventLog` catching slow-query events from the executor, and a
stdlib-only `MetricsServer` exposing all of it over HTTP *while the
loop runs*.  The script plays its own Prometheus: between batches it
scrapes `/metrics`, `/healthz`, and `/spans` with `urllib` and prints
excerpts, then finishes with the slowest queries straight from the
event log.

To scrape your own serving loop, start a `MetricsServer` on a fixed
port (say 9464) and point a real scraper, or
`curl localhost:9464/metrics`, at it mid-run.

Run:  python examples/live_metrics.py
"""

from __future__ import annotations

import json
import urllib.request

from repro import QueryExecutor, ShardedIndex, hotspot_workload, make_uniform
from repro.telemetry import EventLog, MetricsServer, Telemetry


def scrape(url: str) -> str:
    with urllib.request.urlopen(url, timeout=5) as resp:
        return resp.read().decode()


def main() -> None:
    # 1. A sharded engine with telemetry and an event log attached.
    dataset = make_uniform(100_000, seed=42)
    engine = ShardedIndex(dataset.store.copy(), n_shards=8)
    engine.build()

    telemetry = Telemetry()
    events = EventLog()
    executor = QueryExecutor(
        engine,
        backend="sequential",  # every backend records the same metrics
        telemetry=telemetry,
        events=events,
        slow_query_threshold=5e-4,  # 0.5 ms: anything slower becomes an event
    )

    # 2. The live endpoint: port=0 picks an ephemeral port.
    with MetricsServer(telemetry, port=0, events=events) as server:
        print(f"serving metrics at {server.url}  (endpoints: /metrics, "
              "/snapshot.json, /spans, /events, /healthz)\n")

        # 3. Serve hotspot batches; scrape between them like Prometheus would.
        for batch_no in range(3):
            queries = hotspot_workload(
                dataset.universe, 200, 1e-4, seed=100 + batch_no
            )
            with telemetry.tracer.span("serve.batch", batch=batch_no):
                executor.run(queries)

            exposition = scrape(server.url + "/metrics")
            excerpt = [
                line for line in exposition.splitlines()
                if line.startswith(("repro_query_seconds_count",
                                    "repro_query_seconds_sum",
                                    "repro_batch_seconds_count"))
            ]
            print(f"after batch {batch_no + 1}:")
            for line in excerpt:
                print(f"  {line}")

        # 4. The JSON sides of the same state.
        health = json.loads(scrape(server.url + "/healthz"))
        print(f"\n/healthz: status={health['status']} "
              f"spans={health['spans_recorded']} "
              f"events={health['events_emitted']}")

        spans = json.loads(scrape(server.url + "/spans?limit=3"))
        print(f"/spans:   {spans['recorded']} recorded, "
              f"{spans['dropped']} dropped")

    # 5. Post-hoc: the slowest queries, straight from the event log.
    slow = sorted(
        events.recent("slow_query"),
        key=lambda e: e.payload["seconds"],
        reverse=True,
    )
    print(f"\n{len(slow)} slow_query event(s) over the 0.5 ms threshold; "
          "slowest three:")
    for event in slow[:3]:
        p = event.payload
        print(f"  seq {p['seq']:>3}  {p['seconds'] * 1e3:6.2f} ms  "
              f"{p['predicate']}/{p['mode']}  "
              f"visited {p['shards_visited']} shard(s)")


if __name__ == "__main__":
    main()
