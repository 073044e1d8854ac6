"""Span-based tracing with near-zero cost when disabled.

A :class:`Tracer` hands out context-manager spans::

    with tracer.span("maintenance.rebalance", shard=3) as span:
        ...
        span.set(rows_migrated=1234)

Each finished span becomes an immutable :class:`SpanRecord` (name, start
time, duration, nesting depth, parent name, attributes).  When the
tracer is constructed with a :class:`~repro.telemetry.metrics.MetricsRegistry`,
every finished span additionally records its duration into the
``span.<name>`` histogram, so ``/metrics`` exports maintenance pause
durations next to the query latency histograms they compete with.

Disabled tracers (``Tracer(enabled=False)``, or the shared
:data:`DISABLED` singleton) hand out one preallocated no-op span:
``tracer.span(...)`` is then a constant-time attribute call with no
allocation, so instrumentation can stay unconditionally in place on hot
paths.

Span nesting is tracked per thread (a ``threading.local`` stack), so a
tracer can be shared by an executor and its coordinator thread; the
record list itself relies on the GIL's atomic ``list.append``.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from types import TracebackType
from dataclasses import dataclass, field

from repro.telemetry.metrics import MetricsRegistry

__all__ = ["DISABLED", "Span", "SpanRecord", "Tracer"]

#: Histogram-name prefix for per-span duration metrics in a registry.
SPAN_METRIC_PREFIX = "span."


@dataclass(frozen=True)
class SpanRecord:
    """One finished span."""

    name: str
    start: float
    seconds: float
    depth: int
    parent: str | None
    attrs: dict = field(default_factory=dict)


class Span:
    """A live span; use as a context manager, annotate via :meth:`set`."""

    __slots__ = ("_tracer", "name", "attrs", "_start", "_depth", "_parent")

    def __init__(
        self, tracer: Tracer, name: str, attrs: dict[str, object]
    ) -> None:
        self._tracer = tracer
        self.name = name
        self.attrs = attrs
        self._start = 0.0
        self._depth = 0
        self._parent: str | None = None

    def set(self, **attrs: object) -> None:
        """Attach attributes discovered while the span runs."""
        self.attrs.update(attrs)

    def __enter__(self) -> Span:
        stack = self._tracer._stack()
        self._depth = len(stack)
        self._parent = stack[-1] if stack else None
        stack.append(self.name)
        self._start = time.perf_counter()
        return self

    def __exit__(
        self,
        exc_type: type[BaseException] | None,
        exc: BaseException | None,
        tb: TracebackType | None,
    ) -> bool:
        seconds = time.perf_counter() - self._start
        self._tracer._stack().pop()
        self._tracer._finish(
            SpanRecord(
                name=self.name,
                start=self._start,
                seconds=seconds,
                depth=self._depth,
                parent=self._parent,
                attrs=self.attrs,
            )
        )
        return False


class _NullSpan:
    """Shared do-nothing span handed out by disabled tracers."""

    __slots__ = ()

    def set(self, **attrs: object) -> None:
        pass

    def __enter__(self) -> _NullSpan:
        return self

    def __exit__(
        self,
        exc_type: type[BaseException] | None,
        exc: BaseException | None,
        tb: TracebackType | None,
    ) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class Tracer:
    """Produce spans and keep their finished records.

    Parameters
    ----------
    enabled:
        ``False`` short-circuits :meth:`span` to a shared no-op span —
        no clock reads, no allocation, no records.
    registry:
        Optional :class:`MetricsRegistry`; finished spans then record
        their duration into the ``span.<name>`` histogram, making pause
        durations visible on ``/metrics``.
    max_spans:
        Record-ring cap (memory bound for long-running servers).  The ring keeps
        the *most recent* ``max_spans`` records — past the cap the
        oldest record is evicted per finished span and counted in
        :attr:`dropped`; the registry histograms stay complete either
        way.  Scrapers read :attr:`dropped` (the ``/spans`` endpoint
        exposes it) to detect truncation.
    """

    def __init__(
        self,
        enabled: bool = True,
        registry: MetricsRegistry | None = None,
        max_spans: int = 32_768,
    ) -> None:
        self.enabled = bool(enabled)
        self._registry = registry
        self._max_spans = int(max_spans)
        self._local = threading.local()
        #: Finished spans, completion order; a ring of the most recent
        #: ``max_spans`` records.
        self.records: deque[SpanRecord] = deque(maxlen=max(self._max_spans, 0))
        #: Span records evicted from the ring once ``max_spans`` was hit.
        self.dropped = 0

    def _stack(self) -> list[str]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str, **attrs: object) -> Span | _NullSpan:
        """A context-manager span named ``name`` (no-op when disabled)."""
        if not self.enabled:
            return _NULL_SPAN
        return Span(self, name, attrs)

    def _finish(self, record: SpanRecord) -> None:
        if len(self.records) >= self._max_spans:
            self.dropped += 1
        self.records.append(record)
        if self._registry is not None:
            self._registry.histogram(
                SPAN_METRIC_PREFIX + record.name
            ).record(record.seconds)

    def spans(self, name: str | None = None) -> list[SpanRecord]:
        """Finished spans (a defensive copy), optionally filtered by name.

        Always a fresh list — never the live ring — so callers can sort,
        slice, or hold the result while spans keep finishing.  When the
        ring has wrapped, only the most recent ``max_spans`` records
        remain; :attr:`dropped` counts the evicted rest.
        """
        if name is None:
            return list(self.records)
        return [r for r in self.records if r.name == name]

    def total_seconds(self, name: str) -> float:
        """Summed duration of all finished spans called ``name``."""
        return sum(r.seconds for r in self.records if r.name == name)


#: Shared always-off tracer: safe default for un-instrumented call sites.
DISABLED = Tracer(enabled=False)
