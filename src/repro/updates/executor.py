"""The write step of an op stream: victim resolution + one timed engine call.

:func:`apply_write` is what the op-stream driver
(:func:`repro.bench.runner.run_workload`) runs for an ``insert`` /
``delete`` :class:`~repro.queries.workloads.WorkloadOp`.

Delete resolution: a ``delete`` op carries only a count — which live ids
die is decided by :func:`resolve_delete_victims`, an RNG seeded from
``(victim_seed, seq)`` over the sorted current live-id set, so every
index fed the same stream sees the same effective update sequence.
"""

from __future__ import annotations

import time

import numpy as np

from repro.errors import ConfigurationError
from repro.index.base import MutableSpatialIndex, SpatialIndex
from repro.queries.workloads import WorkloadOp


def resolve_delete_victims(
    live_ids: np.ndarray, count: int, seq: int, victim_seed: int
) -> np.ndarray:
    """The ids a ``delete`` op kills, given the current live population.

    Deterministic in ``(victim_seed, seq, live_ids)``; clamps to the
    population size so a delete against a nearly-empty store degrades to
    a smaller batch instead of failing.
    """
    count = min(count, live_ids.size)
    if count == 0:
        return np.empty(0, dtype=np.int64)
    rng = np.random.default_rng((victim_seed, seq))
    return rng.choice(np.sort(live_ids), size=count, replace=False)


def apply_write(
    index: SpatialIndex,
    op: WorkloadOp,
    live: np.ndarray,
    seq: int,
    victim_seed: int,
) -> tuple[np.ndarray, np.ndarray, float]:
    """Run one ``insert``/``delete`` op; returns ``(ids, live, seconds)``.

    The write step of an op stream: resolve the victims
    (deletes, from ``(victim_seed, seq)`` over ``live``), call the index,
    update the live-id array.  ``seconds`` brackets the
    ``index.insert`` / ``index.delete`` call alone — victim resolution
    sorts the whole live set and the live-set filter scans it, and neither
    is the engine's work.  ``ids`` are the identifiers inserted or
    deleted, for callers that mirror the write elsewhere.
    """
    if not isinstance(index, MutableSpatialIndex):
        raise ConfigurationError(
            f"{type(index).__name__} does not support updates; "
            "use a MutableSpatialIndex"
        )
    if op.kind == "insert":
        t0 = time.perf_counter()
        ids = index.insert(op.lo, op.hi)
        seconds = time.perf_counter() - t0
        return ids, np.concatenate([live, ids]), seconds
    if op.kind != "delete":
        raise ConfigurationError(f"unknown workload op kind {op.kind!r}")
    ids = resolve_delete_victims(live, op.count, seq, victim_seed)
    t0 = time.perf_counter()
    index.delete(ids)
    seconds = time.perf_counter() - t0
    return ids, live[~np.isin(live, ids)], seconds
