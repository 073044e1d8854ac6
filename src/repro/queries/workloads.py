"""Query workload generators matching the paper's evaluation (Section 6.1).

Two workload shapes drive every figure:

* **Clustered** (:func:`clustered_workload`) — the neuroscience use case:
  ``n_clusters`` regions are picked at random, then each receives a burst
  of spatially close queries whose centers follow a Gaussian around the
  cluster center.  The paper uses 5 clusters x 100 queries with a fixed
  window volume of 10^-2 % of the universe and sigma tied to the query
  extent.  The bursts produce the five per-cluster peaks visible in
  Figures 7–9.
* **Uniform** (:func:`uniform_workload`) — up to 10,000 independently
  placed queries of a fixed volume fraction, used for the convergence,
  scalability, and selectivity studies (Figures 10–12).

Windows are always clipped to the universe so a query never asks for space
where no data can live (matching how the paper samples query centers from
the dataset extent).

Beyond the paper, :func:`mixed_workload` interleaves window queries with
insert/delete batches — the update subsystem's mixed read/write scenario
(the paper leaves updates as future work; see :mod:`repro.updates`) —
:func:`hotspot_workload` generates the skewed 90/10 serving traffic
that concentrates on few shards (shard balance and pruning).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError, QueryError
from repro.geometry.box import Box
from repro.queries.query import Query


def side_for_volume_fraction(universe: Box, fraction: float) -> float:
    """Side length of the cube covering ``fraction`` of the universe volume.

    The paper specifies query sizes as volume fractions ("selectivity");
    workload generators convert them to cubic windows with this helper.
    ``fraction == 0`` is the degenerate point-query limit and yields side
    0 — zero-extent windows are legal first-class queries.
    """
    if fraction < 0:
        raise QueryError(
            f"volume fraction must be non-negative, got {fraction}"
        )
    if fraction > 1:
        raise QueryError(f"volume fraction must be <= 1, got {fraction}")
    return float(universe.volume * fraction) ** (1.0 / universe.ndim)


def _window_at(
    center: np.ndarray, side: float, universe: Box
) -> Box:
    """Cubic window of the given side centered at ``center``, clipped."""
    half = side / 2.0
    lo = np.maximum(center - half, np.asarray(universe.lo))
    hi = np.minimum(center + half, np.asarray(universe.hi))
    hi = np.maximum(hi, lo)
    return Box(tuple(lo), tuple(hi))


def clustered_workload(
    universe: Box,
    n_clusters: int = 5,
    queries_per_cluster: int = 100,
    volume_fraction: float = 1e-4,
    sigma_in_sides: float = 2.0,
    seed: int = 0,
) -> list[Query]:
    """The paper's clustered exploration workload.

    Parameters
    ----------
    universe:
        Box to draw cluster centers from (the dataset universe).
    n_clusters, queries_per_cluster:
        Workload shape; the paper uses 5 x 100.
    volume_fraction:
        Window volume as a fraction of the universe volume.  The paper's
        "selectivity 0.01%" is ``1e-4``.
    sigma_in_sides:
        Standard deviation of query centers around their cluster center,
        expressed in window side lengths.  The paper ties sigma to the
        query volume; measuring it in window sides keeps the bursts
        overlapping (each cluster's queries repeatedly touch the same
        region) for any selectivity.
    seed:
        RNG seed.

    Returns
    -------
    list[Query]
        ``n_clusters * queries_per_cluster`` queries ordered cluster by
        cluster — the order matters, it produces the per-cluster peaks of
        Figures 7–9.
    """
    if n_clusters < 1:
        raise ConfigurationError(f"need at least one cluster, got {n_clusters}")
    if queries_per_cluster < 1:
        raise ConfigurationError(
            f"need at least one query per cluster, got {queries_per_cluster}"
        )
    if sigma_in_sides < 0:
        raise ConfigurationError(
            f"sigma_in_sides must be non-negative, got {sigma_in_sides}"
        )
    rng = np.random.default_rng(seed)
    side = side_for_volume_fraction(universe, volume_fraction)
    uni_lo = np.asarray(universe.lo)
    uni_hi = np.asarray(universe.hi)

    # Keep cluster centers away from the boundary so the windows around
    # them stay (mostly) inside the universe.
    margin = min(side * (sigma_in_sides + 1.0), float((uni_hi - uni_lo).min()) / 4)
    centers = rng.uniform(uni_lo + margin, uni_hi - margin, size=(n_clusters, universe.ndim))

    queries: list[Query] = []
    sigma = side * sigma_in_sides
    for c in range(n_clusters):
        offsets = rng.normal(0.0, sigma, size=(queries_per_cluster, universe.ndim))
        for k in range(queries_per_cluster):
            window = _window_at(centers[c] + offsets[k], side, universe)
            queries.append(Query(window, seq=len(queries)))
    return queries


def uniform_workload(
    universe: Box,
    n_queries: int = 1000,
    volume_fraction: float = 1e-3,
    seed: int = 0,
) -> list[Query]:
    """Uniformly distributed cubic windows of a fixed volume fraction."""
    if n_queries < 1:
        raise ConfigurationError(f"need at least one query, got {n_queries}")
    rng = np.random.default_rng(seed)
    side = side_for_volume_fraction(universe, volume_fraction)
    uni_lo = np.asarray(universe.lo)
    uni_hi = np.asarray(universe.hi)
    centers = rng.uniform(uni_lo, uni_hi, size=(n_queries, universe.ndim))
    return [
        Query(_window_at(centers[k], side, universe), seq=k)
        for k in range(n_queries)
    ]


def sequential_workload(
    universe: Box,
    n_queries: int = 100,
    volume_fraction: float = 1e-3,
    overlap: float = 0.0,
    dim: int = 0,
    seed: int = 0,
) -> list[Query]:
    """Windows sweeping the universe along one dimension, left to right.

    Sequential patterns are the classic adversarial case for cracking
    (each query touches a fresh, never-cracked region, so per-query
    reorganization cost never converges within the sweep — the motivation
    behind stochastic cracking [Halim et al.], which the paper cites).
    This generator exists to probe that regime for spatial cracking.

    Parameters
    ----------
    universe:
        Box to sweep.
    n_queries:
        Number of windows in the sweep.
    volume_fraction:
        Window volume as a fraction of the universe volume.
    overlap:
        Fraction of a window side shared by consecutive windows
        (``0`` = disjoint steps, ``0.5`` = half-overlapping).
    dim:
        Sweep dimension; other dimensions get a fixed random center.
    seed:
        RNG seed for the off-sweep center coordinates.
    """
    if n_queries < 1:
        raise ConfigurationError(f"need at least one query, got {n_queries}")
    if not 0.0 <= overlap < 1.0:
        raise ConfigurationError(f"overlap must be in [0, 1), got {overlap}")
    if not 0 <= dim < universe.ndim:
        raise ConfigurationError(
            f"dim {dim} out of range for a {universe.ndim}-d universe"
        )
    rng = np.random.default_rng(seed)
    side = side_for_volume_fraction(universe, volume_fraction)
    uni_lo = np.asarray(universe.lo)
    uni_hi = np.asarray(universe.hi)
    center = rng.uniform(uni_lo + side / 2, uni_hi - side / 2)
    step = side * (1.0 - overlap)
    queries: list[Query] = []
    span = max(float(uni_hi[dim] - uni_lo[dim]) - side, 1e-12)
    for k in range(n_queries):
        # Sweep wraps around once the window reaches the universe edge.
        center[dim] = uni_lo[dim] + side / 2 + ((k * step) % span)
        queries.append(Query(_window_at(center, side, universe), seq=k))
    return queries


def hotspot_workload(
    universe: Box,
    n_queries: int = 1000,
    volume_fraction: float = 1e-3,
    hotspot_fraction: float = 0.9,
    hotspot_volume: float = 0.05,
    seed: int = 0,
) -> list[Query]:
    """A skewed serving workload: most queries land inside one hot region.

    The classic 90/10 pattern of serving traffic: ``hotspot_fraction`` of
    the queries draw their centers from a single randomly placed sub-box
    occupying ``hotspot_volume`` of the universe; the rest are uniform.
    It exposes shard *imbalance* (a spatial partitioning concentrates
    the hot queries on few shards) and what MBB pruning is worth when
    traffic is not uniform; ``examples/sharded_serving.py`` shows both.

    Parameters
    ----------
    universe:
        Box to draw query centers from.
    n_queries:
        Number of queries.
    volume_fraction:
        Per-query window volume as a fraction of the universe volume.
    hotspot_fraction:
        Fraction of queries whose centers fall in the hot region.
    hotspot_volume:
        Hot region volume as a fraction of the universe volume.
    seed:
        RNG seed.  Query ``k`` is drawn from its own counter-based
        stream seeded by ``(seed, k)`` (the hot region's placement from
        ``seed`` alone), so the workload is *prefix-stable*: the first
        ``m`` queries are identical for every ``n_queries >= m``, which
        makes sweeps over the query count comparable.  (A single shared
        stream would shift every draw whenever ``n_queries`` changes.)
    """
    if n_queries < 1:
        raise ConfigurationError(f"need at least one query, got {n_queries}")
    if not 0.0 <= hotspot_fraction <= 1.0:
        raise ConfigurationError(
            f"hotspot_fraction must be in [0, 1], got {hotspot_fraction}"
        )
    if not 0.0 < hotspot_volume <= 1.0:
        raise ConfigurationError(
            f"hotspot_volume must be in (0, 1], got {hotspot_volume}"
        )
    side = side_for_volume_fraction(universe, volume_fraction)
    uni_lo = np.asarray(universe.lo)
    uni_hi = np.asarray(universe.hi)
    hot_side = side_for_volume_fraction(universe, hotspot_volume)
    hot_lo = np.random.default_rng(seed).uniform(
        uni_lo, np.maximum(uni_hi - hot_side, uni_lo)
    )
    hot_hi = np.minimum(hot_lo + hot_side, uni_hi)
    queries: list[Query] = []
    for k in range(n_queries):
        qrng = np.random.default_rng((seed, k))
        in_hot = qrng.uniform() < hotspot_fraction
        lo, hi = (hot_lo, hot_hi) if in_hot else (uni_lo, uni_hi)
        center = qrng.uniform(lo, hi)
        queries.append(Query(_window_at(center, side, universe), seq=k))
    return queries


@dataclass(frozen=True, eq=False)
class WorkloadOp:
    """One operation of a mixed read/write workload.

    Attributes
    ----------
    kind:
        ``"query"``, ``"insert"``, or ``"delete"``.
    seq:
        Zero-based position in the workload.
    query:
        The window (``kind == "query"`` only).
    lo, hi:
        ``(k, d)`` corner matrices of the boxes to insert
        (``kind == "insert"`` only).
    count:
        How many live objects to delete (``kind == "delete"`` only).
        *Which* objects is resolved at execution time against the current
        live-id set — deterministically from ``seq`` — because the victim
        population depends on all preceding operations.
    """

    kind: str
    seq: int
    query: Query | None = None
    lo: np.ndarray | None = None
    hi: np.ndarray | None = None
    count: int = 0


def mixed_workload(
    universe: Box,
    n_ops: int = 500,
    write_ratio: float = 0.2,
    delete_fraction: float = 0.5,
    batch_size: int = 8,
    volume_fraction: float = 1e-3,
    box_sides: tuple[float, float] = (1.0, 10.0),
    seed: int = 0,
) -> list[WorkloadOp]:
    """An interleaved stream of queries, insert batches, and delete batches.

    Each operation is independently a write with probability
    ``write_ratio``; writes are deletes with probability
    ``delete_fraction`` (inserts otherwise), so at the default 0.5 the
    live object count stays roughly stationary.  Queries are uniform
    cubic windows (as :func:`uniform_workload`); inserted boxes have
    uniform centers and per-dimension sides drawn from ``box_sides``
    (the paper's small-object distribution), clipped to the universe.

    Parameters
    ----------
    universe:
        Box to draw query centers and inserted boxes from.
    n_ops:
        Total operation count (reads + writes).
    write_ratio:
        Fraction of operations that are writes, in ``[0, 1]``.
    delete_fraction:
        Fraction of writes that are deletes, in ``[0, 1]``.
    batch_size:
        Objects per insert/delete batch (writes are batched, as any
        ingestion pipeline would).
    volume_fraction:
        Query window volume as a fraction of the universe volume.
    box_sides:
        Per-dimension side-length range of inserted boxes.
    seed:
        RNG seed; the op sequence is fully deterministic given it.
    """
    if n_ops < 1:
        raise ConfigurationError(f"need at least one operation, got {n_ops}")
    if not 0.0 <= write_ratio <= 1.0:
        raise ConfigurationError(
            f"write_ratio must be in [0, 1], got {write_ratio}"
        )
    if not 0.0 <= delete_fraction <= 1.0:
        raise ConfigurationError(
            f"delete_fraction must be in [0, 1], got {delete_fraction}"
        )
    if batch_size < 1:
        raise ConfigurationError(f"batch_size must be >= 1, got {batch_size}")
    rng = np.random.default_rng(seed)
    side = side_for_volume_fraction(universe, volume_fraction)
    uni_lo = np.asarray(universe.lo)
    uni_hi = np.asarray(universe.hi)
    ops: list[WorkloadOp] = []
    for seq in range(n_ops):
        roll = rng.uniform()
        if roll < write_ratio and rng.uniform() < delete_fraction:
            ops.append(WorkloadOp("delete", seq, count=batch_size))
        elif roll < write_ratio:
            centers = rng.uniform(uni_lo, uni_hi, size=(batch_size, universe.ndim))
            half = rng.uniform(
                box_sides[0], box_sides[1], size=(batch_size, universe.ndim)
            ) / 2.0
            lo = np.maximum(centers - half, uni_lo)
            hi = np.minimum(centers + half, uni_hi)
            hi = np.maximum(hi, lo)
            ops.append(WorkloadOp("insert", seq, lo=lo, hi=hi))
        else:
            center = rng.uniform(uni_lo, uni_hi, size=universe.ndim)
            ops.append(
                WorkloadOp(
                    "query", seq, query=Query(_window_at(center, side, universe), seq=seq)
                )
            )
    return ops

