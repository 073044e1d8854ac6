"""Structured event log: a bounded ring of JSON-ready events.

Histograms answer "how slow is the p99"; an event log answers "*which*
query was slow, and what was the engine doing".  An :class:`EventLog`
keeps the most recent ``capacity`` events in memory (a deque ring —
full means the *oldest* event is evicted and counted in
:attr:`EventLog.dropped`) and can mirror every event to a JSON-lines
file sink for post-hoc analysis.

Event payloads are sanitized to JSON builtins at emit time (numpy
scalars are frequent in span attrs and query windows), so the in-memory
records, the file sink, and the HTTP endpoints all serialize without
caveats.  One line per event in the sink::

    {"t": 1754500000.123, "kind": "slow_query", "payload": {...}}

The canonical event vocabulary lives in :data:`EVENTS` and is checked
against ``docs/OBSERVABILITY.md`` in both directions by
``tools/check_docs.py`` — exactly like the metric and span names.  The
log itself accepts any kind string (like the registry accepts any
metric name); canonical kinds are the documented contract.
"""

from __future__ import annotations

import json
import threading
import time
from collections import deque
from collections.abc import Callable
from dataclasses import dataclass, field
from pathlib import Path
from types import TracebackType
from typing import IO

from repro.errors import ConfigurationError

__all__ = ["EVENTS", "EventLog", "EventRecord"]

#: Canonical event kinds -> one-line meaning (docs/OBSERVABILITY.md).
EVENTS: dict[str, str] = {
    "slow_query": (
        "a query exceeded the executor's slow_query_threshold; payload "
        "carries the window, predicate/mode, seconds, and the batch's "
        "fan-out profile"
    ),
    "maintenance.compact": (
        "a compaction pass reclaimed rows; payload carries rows_reclaimed "
        "and the pass duration"
    ),
    "worker.spawn": (
        "a shard-serving worker process started; payload carries the "
        "worker wid, its pid, and the pool's start method"
    ),
    "worker.respawn": (
        "a crashed worker process was replaced mid-service and its "
        "in-flight sub-batches re-dispatched; payload carries wid, the "
        "old and new pids, and the sids re-dispatched"
    ),
    "worker.refresh": (
        "a shard's whole base (its packed live rows) was (re)published "
        "to its worker, which rebuilt its index from nothing: first "
        "touch, worker respawn or err reply, or an op log that outgrew "
        "its base — never an ordinary write; payload carries sid, base "
        "version, rows, and epoch"
    ),
    "worker.delta": (
        "a shard's mutations since its last batch were shipped to its "
        "warm worker as a delta; payload carries sid, base version, the "
        "ops replayed, and the rows and bytes of its packed inserted rows"
    ),
}


def _jsonable(value: object) -> object:
    """Coerce a payload value to JSON builtins (numpy scalars included)."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    # tolist() before item(): numpy arrays expose both, and item() raises
    # for size != 1; on a numpy scalar tolist() is the builtin value.
    if hasattr(value, "tolist"):  # numpy array or scalar
        return _jsonable(value.tolist())
    if hasattr(value, "item"):  # other 0-d scalar wrappers
        return value.item()
    return str(value)


@dataclass(frozen=True)
class EventRecord:
    """One emitted event: kind, wall-clock timestamp, JSON-ready payload."""

    kind: str
    t: float
    payload: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        """The JSON-lines form (also what the file sink writes)."""
        return {"t": self.t, "kind": self.kind, "payload": self.payload}


class EventLog:
    """Bounded in-memory event ring with an optional JSON-lines sink.

    Parameters
    ----------
    capacity:
        Ring size.  Past it, the oldest in-memory event is evicted per
        emit (counted in :attr:`dropped`); the file sink, when present,
        still receives every event.
    sink:
        Optional path; every event is appended as one JSON line.  The
        file is opened lazily on first emit and closed by
        :meth:`close` (the log is also a context manager).
    clock:
        Timestamp source (``time.time`` in production; injectable for
        deterministic tests).
    """

    def __init__(
        self,
        capacity: int = 4096,
        sink: str | Path | None = None,
        clock: Callable[[], float] = time.time,
    ) -> None:
        if capacity < 1:
            raise ConfigurationError(
                f"event-log capacity must be >= 1, got {capacity}"
            )
        self.capacity = int(capacity)
        self._records: deque[EventRecord] = deque(maxlen=self.capacity)
        self._sink_path = Path(sink) if sink is not None else None
        self._sink_file: IO[str] | None = None
        self._clock = clock
        self._lock = threading.Lock()
        #: Total events emitted over the log's lifetime.
        self.emitted = 0
        #: Events evicted from the in-memory ring (sink unaffected).
        self.dropped = 0

    def emit(self, kind: str, **payload: object) -> EventRecord:
        """Record one event; returns the (sanitized, frozen) record."""
        record = EventRecord(
            kind=str(kind),
            t=float(self._clock()),
            payload={str(k): _jsonable(v) for k, v in payload.items()},
        )
        with self._lock:
            self.emitted += 1
            if len(self._records) >= self.capacity:
                self.dropped += 1
            self._records.append(record)
            if self._sink_path is not None:
                if self._sink_file is None:
                    self._sink_file = open(
                        self._sink_path, "a", encoding="utf-8"
                    )
                self._sink_file.write(json.dumps(record.to_dict()) + "\n")
                self._sink_file.flush()
        return record

    def recent(
        self, kind: str | None = None, limit: int | None = None
    ) -> list[EventRecord]:
        """The most recent events, oldest first (a defensive copy).

        ``kind`` filters; ``limit`` keeps only the newest ``limit``
        matches.
        """
        with self._lock:
            records = list(self._records)
        if kind is not None:
            records = [r for r in records if r.kind == kind]
        if limit is not None and limit >= 0:
            records = records[len(records) - min(limit, len(records)):]
        return records

    def to_dicts(
        self, kind: str | None = None, limit: int | None = None
    ) -> list[dict]:
        """JSON-ready form of :meth:`recent` (endpoints serve this)."""
        return [r.to_dict() for r in self.recent(kind=kind, limit=limit)]

    def __len__(self) -> int:
        return len(self._records)

    def close(self) -> None:
        """Close the file sink, if one was opened."""
        with self._lock:
            if self._sink_file is not None:
                self._sink_file.close()
                self._sink_file = None

    def __enter__(self) -> EventLog:
        return self

    def __exit__(
        self,
        exc_type: type[BaseException] | None,
        exc: BaseException | None,
        tb: TracebackType | None,
    ) -> bool:
        self.close()
        return False
