"""Span tracing from outside the program: wrap public callables, keep spans.

The program is not edited.  :func:`install` replaces each layer's public
entry points with a timing wrapper *on every name the program looks them
up by* (a function imported by name into another module is a second
name), and :func:`uninstall` puts the originals back.  A span is
``[name, start, end, parent, op_id, round, value]``; spans stay in
memory until the workload ends.

Worker processes forked while wrappers are installed inherit them; the
pid check turns them into plain calls there, so workers stay opaque and
pay nothing but the check.
"""

from __future__ import annotations

import functools
import importlib
import os
from collections import defaultdict
from time import perf_counter
from typing import Any, Callable

NAME, START, END, PARENT, OP, ROUND, VALUE = range(7)


class Tracer:
    """Span recorder; ``enabled`` is flipped per round by the runner."""

    def __init__(self) -> None:
        self.enabled = False
        self.spans: list[list] = []
        self.op_id = -1
        self.round_no = -1
        self._stack: list[int] = []
        self._pid = os.getpid()

    def wrap(
        self,
        name: str,
        fn: Callable[..., Any],
        measure: Callable[[tuple, Any], float] | None = None,
    ) -> Callable[..., Any]:
        """``fn`` timed as a span called ``name``; ``measure(args, result)``
        optionally attaches a work count (rows, bytes) to the span."""
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            if not self.enabled or os.getpid() != self._pid:
                return fn(*args, **kwargs)
            rec = [
                name, 0.0, 0.0, stack[-1] if stack else -1,
                self.op_id, self.round_no, 0,
            ]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[END] = perf_counter()
                stack.pop()
            if measure is not None:
                rec[VALUE] = measure(args, result)
            return result

        return traced


def _rows_tested(args: tuple, _result: Any) -> int:
    return int(args[1].shape[0])  # predicate_mask(predicate, lo, hi, ...)


def _segment_bytes(_args: tuple, result: Any) -> int:
    return int(result[1].size)  # publish_segment -> (spec, SharedMemory)


#: span name -> (the public callable, every name the program calls it by,
#: optional work measure).  ``module:attr`` or ``module:Class.method``.
SITES: tuple[tuple[str, tuple[str, ...], Callable | None], ...] = (
    ("core.crack", ("repro.core.cracking:crack", "repro.core.quasii:crack"), None),
    (
        "core.range_dim_stats",
        ("repro.core.cracking:range_dim_stats", "repro.core.quasii:range_dim_stats"),
        None,
    ),
    ("index.execute", ("repro.core.quasii:QuasiiIndex.execute",), None),
    ("index.execute", ("repro.core.quasii:QuasiiIndex.execute_batch",), None),
    ("index.write", ("repro.core.quasii:QuasiiIndex.insert",), None),
    ("index.write", ("repro.core.quasii:QuasiiIndex.delete",), None),
    (
        "geometry.predicate_mask",
        ("repro.geometry.predicates:predicate_mask", "repro.index.base:predicate_mask"),
        _rows_tested,
    ),
    ("datasets.store.permute", ("repro.datasets.store:BoxStore.apply_order_range",), None),
    ("datasets.store.append", ("repro.datasets.store:BoxStore.append_validated",), None),
    ("datasets.store.delete", ("repro.datasets.store:BoxStore.delete_ids",), None),
    ("datasets.store.compact", ("repro.datasets.store:BoxStore.compact",), None),
    ("updates.buffer.add", ("repro.updates.buffer:UpdateBuffer.add",), None),
    ("sharding.build", ("repro.sharding.sharded_index:ShardedIndex.build",), None),
    ("sharding.insert", ("repro.sharding.sharded_index:ShardedIndex.insert",), None),
    ("sharding.delete", ("repro.sharding.sharded_index:ShardedIndex.delete",), None),
    ("sharding.executor.run", ("repro.sharding.executor:QueryExecutor.run",), None),
    (
        "sharding.maintenance",
        ("repro.sharding.maintenance:MaintenanceScheduler.after_ops",),
        None,
    ),
    ("parallel.pool.spawn", ("repro.parallel.pool:ProcessPool.__init__",), None),
    ("parallel.pool.run_batch", ("repro.parallel.pool:ProcessPool.run_batch",), None),
    (
        "parallel.publish",
        ("repro.parallel.shm:publish_segment", "repro.parallel.pool:publish_segment"),
        _segment_bytes,
    ),
    (
        "parallel.wire.encode",
        ("repro.parallel.wire:encode_queries", "repro.parallel.pool:encode_queries"),
        None,
    ),
    (
        "parallel.wire.decode",
        ("repro.parallel.wire:decode_results", "repro.parallel.pool:decode_results"),
        None,
    ),
)


def _resolve(site: str) -> tuple[Any, str]:
    """``module:Class.method`` -> (the object holding the name, the name)."""
    module_name, _, path = site.partition(":")
    owner: Any = importlib.import_module(module_name)
    *holders, attr = path.split(".")
    for holder in holders:
        owner = getattr(owner, holder)
    return owner, attr


_ABSENT = object()


def install(tracer: Tracer) -> list[tuple[Any, str, Any]]:
    """Wrap every site; returns the undo list for :func:`uninstall`."""
    undo: list[tuple[Any, str, Any]] = []
    for name, sites, measure in SITES:
        owner, attr = _resolve(sites[0])
        wrapped = tracer.wrap(name, getattr(owner, attr), measure)
        for site in sites:
            owner, attr = _resolve(site)
            # An inherited method is not in the class's own namespace:
            # remember that, so uninstall deletes rather than restores.
            undo.append((owner, attr, vars(owner).get(attr, _ABSENT)))
            setattr(owner, attr, wrapped)
    return undo


def uninstall(undo: list[tuple[Any, str, Any]]) -> None:
    for owner, attr, original in reversed(undo):
        if original is _ABSENT:
            delattr(owner, attr)
        else:
            setattr(owner, attr, original)


def summarise(spans: list[list]) -> dict[int, dict[str, dict[str, float]]]:
    """Per round: busy, self, calls, value and longest span, by span name.

    A span's self time is its duration minus what its direct children
    cover; ``covered`` is the time under root spans, so a round's
    self times sum to ``covered`` and the rest of its wall-clock is
    untraced.
    """
    child_time = [0.0] * len(spans)
    for span in spans:
        if span[PARENT] >= 0:
            child_time[span[PARENT]] += span[END] - span[START]
    # A round without spans (a layer-free stream, an untraced round) reads
    # as zeros rather than as a missing key.
    rounds: dict[int, dict[str, dict[str, float]]] = defaultdict(
        lambda: defaultdict(lambda: defaultdict(float))
    )
    for i, span in enumerate(spans):
        out = rounds[span[ROUND]]
        name = span[NAME]
        duration = span[END] - span[START]
        out["busy"][name] += duration
        out["self"][name] += duration - child_time[i]
        out["calls"][name] += 1
        out["value"][name] += span[VALUE]
        out["max"][name] = max(out["max"][name], duration)
        if span[PARENT] < 0:
            out["covered"]["s"] += duration
    return rounds
