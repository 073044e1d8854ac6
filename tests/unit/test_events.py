"""EventLog: ring semantics, filtering, the JSONL sink, sanitization."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.telemetry import EVENTS, EventLog


class TestEventLog:
    def test_emit_and_recent_oldest_first(self):
        log = EventLog(clock=lambda: 42.0)
        log.emit("a", x=1)
        log.emit("b", x=2)
        records = log.recent()
        assert [r.kind for r in records] == ["a", "b"]
        assert records[0].t == 42.0
        assert records[1].payload == {"x": 2}
        assert log.emitted == 2 and log.dropped == 0 and len(log) == 2

    def test_ring_keeps_most_recent_and_counts_dropped(self):
        log = EventLog(capacity=3)
        for i in range(7):
            log.emit("e", seq=i)
        assert [r.payload["seq"] for r in log.recent()] == [4, 5, 6]
        assert log.emitted == 7
        assert log.dropped == 4

    def test_recent_filters_by_kind_and_limit(self):
        log = EventLog()
        for i in range(5):
            log.emit("slow_query", seq=i)
            log.emit("other", seq=i)
        slow = log.recent("slow_query")
        assert len(slow) == 5
        newest_two = log.recent("slow_query", limit=2)
        assert [r.payload["seq"] for r in newest_two] == [3, 4]
        assert log.recent("missing") == []

    def test_recent_is_a_defensive_copy(self):
        log = EventLog()
        log.emit("e")
        records = log.recent()
        records.clear()
        assert len(log.recent()) == 1

    def test_numpy_payloads_sanitized_to_builtins(self):
        log = EventLog()
        record = log.emit(
            "e",
            scalar=np.float64(1.5),
            array=np.array([1, 2, 3]),
            nested={"k": np.int32(7)},
            window=(np.float32(0.5), 2.0),
        )
        assert record.payload["scalar"] == 1.5
        assert record.payload["array"] == [1, 2, 3]
        assert record.payload["nested"] == {"k": 7}
        assert record.payload["window"] == [0.5, 2.0]
        json.dumps(record.to_dict())  # must serialize without a default=

    def test_jsonl_sink_receives_every_event(self, tmp_path):
        sink = tmp_path / "events.jsonl"
        with EventLog(capacity=2, sink=sink, clock=lambda: 1.0) as log:
            for i in range(5):
                log.emit("e", seq=i)
        lines = sink.read_text().splitlines()
        assert len(lines) == 5  # ring evicted 3, the sink kept all
        docs = [json.loads(line) for line in lines]
        assert [d["payload"]["seq"] for d in docs] == list(range(5))
        assert all(d["kind"] == "e" and d["t"] == 1.0 for d in docs)

    def test_capacity_validation(self):
        with pytest.raises(ConfigurationError):
            EventLog(capacity=0)

    def test_canonical_vocabulary(self):
        # The documented contract: executor + scheduler event kinds.
        assert "slow_query" in EVENTS
        assert "maintenance.compact" in EVENTS

    def test_every_canonical_kind_has_a_meaning(self):
        for kind, meaning in EVENTS.items():
            assert isinstance(meaning, str) and meaning.strip(), kind

    def test_the_vocabulary_is_the_executor_scheduler_and_worker_kinds(self):
        # The process tier's lifecycle is the only failure vocabulary:
        # a worker is spawned, dies and is respawned, and its shards
        # reach it as bases (refresh) and deltas.
        assert set(EVENTS) == {
            "slow_query",
            "maintenance.compact",
            "worker.spawn",
            "worker.respawn",
            "worker.refresh",
            "worker.delta",
        }

    def test_the_log_takes_kinds_outside_the_vocabulary(self):
        log = EventLog()
        record = log.emit("custom.kind", n=1)
        assert "custom.kind" not in EVENTS
        assert record.kind == "custom.kind"
        assert [r.kind for r in log.recent("custom.kind")] == ["custom.kind"]
