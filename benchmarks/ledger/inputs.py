"""Seeded input generation for the ledger benchmark (numpy only).

Frozen copies of the paper's recipes, so the benchmark's load does not
move when the program's own generators are edited or deleted: the
program receives only the arrays and ``Query`` objects built from them.

Every draw comes from ``rng(seed, stream, round)``, a counter-based
stream, so a round's inputs depend on nothing but the seed and the
round number — two commits given the same seed see the same load, which
the sha256 a run prints lets them prove.
"""

from __future__ import annotations

import numpy as np

#: Side of the paper's synthetic universe (Section 6.1).
UNIVERSE_SIDE = 10_000.0
NDIM = 3
#: Query window volume as a fraction of the universe (the paper's 0.01 %).
WINDOW_FRACTION = 1e-4
WINDOW_SIDE = (UNIVERSE_SIDE**NDIM * WINDOW_FRACTION) ** (1.0 / NDIM)

# Stream tags for rng(): one independent stream per purpose.
BOXES, CLUSTERED, WARM, FRESH, SHUFFLE, WRITES, VICTIMS, KINDS = range(8)


def rng(seed: int, stream: int, round_no: int = 0) -> np.random.Generator:
    """The generator for one (seed, purpose, round) triple."""
    return np.random.default_rng([int(seed), int(stream), int(round_no)])


def boxes(n: int, gen: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """The paper's synthetic boxes: uniform centres, 99 % sides U(1,10),
    1 % sides U(10,1000), clipped to the universe."""
    centers = gen.uniform(0.0, UNIVERSE_SIDE, size=(n, NDIM))
    sides = gen.uniform(1.0, 10.0, size=(n, NDIM))
    n_large = int(round(n * 0.01))
    if n_large:
        rows = gen.choice(n, size=n_large, replace=False)
        sides[rows] = gen.uniform(10.0, 1000.0, size=(n_large, NDIM))
    lo = np.clip(centers - sides / 2.0, 0.0, UNIVERSE_SIDE)
    hi = np.clip(centers + sides / 2.0, 0.0, UNIVERSE_SIDE)
    return lo, np.maximum(hi, lo)


def _windows_at(centers: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Cubic windows of the benchmark's fixed side, clipped to the universe."""
    lo = np.maximum(centers - WINDOW_SIDE / 2.0, 0.0)
    hi = np.minimum(centers + WINDOW_SIDE / 2.0, UNIVERSE_SIDE)
    return lo, np.maximum(hi, lo)


#: Cluster centres of the exploration workload, as fractions of the
#: universe side.  Fixed rather than drawn: how much a burst cracks
#: depends on which slabs earlier bursts already cut, so drawn centres
#: make the work of a round swing by a quarter from seed to seed.  Five
#: distinct x, y and z slabs: every burst starts in untouched data.
CLUSTER_CENTERS = np.array(
    [
        [0.15, 0.55, 0.35],
        [0.32, 0.15, 0.75],
        [0.50, 0.85, 0.15],
        [0.68, 0.35, 0.55],
        [0.85, 0.70, 0.90],
    ]
)


def clustered_windows(
    gen: np.random.Generator, per_cluster: int = 100
) -> tuple[np.ndarray, np.ndarray]:
    """The paper's exploration workload: bursts of nearby windows, cluster
    by cluster, centres N(cluster centre, 2 window sides)."""
    centers = np.repeat(
        CLUSTER_CENTERS * UNIVERSE_SIDE, per_cluster, axis=0
    ) + gen.normal(
        0.0, 2.0 * WINDOW_SIDE, size=(len(CLUSTER_CENTERS) * per_cluster, NDIM)
    )
    return _windows_at(centers)


#: The hot region of the serving workloads: 5 % of the universe volume,
#: centred.  Centred rather than placed by seed because a 2x2 STR tiling
#: puts its seams at the data medians: a centred box loads all four shards
#: alike under every seed, where a random one would decide by seed whether
#: the two workers share the traffic or one serves it alone.
HOT_SIDE = (UNIVERSE_SIDE**NDIM * 0.05) ** (1.0 / NDIM)
HOT_LO = (UNIVERSE_SIDE - HOT_SIDE) / 2.0


def hotspot_windows(
    gen: np.random.Generator, n: int, hot_fraction: float = 0.9
) -> tuple[np.ndarray, np.ndarray]:
    """Skewed serving traffic: 90 % of centres in the hot box, 10 % uniform."""
    in_hot = gen.uniform(size=n) < hot_fraction
    unit = gen.uniform(size=(n, NDIM))
    centers = np.where(
        in_hot[:, None], HOT_LO + unit * HOT_SIDE, unit * UNIVERSE_SIDE
    )
    return _windows_at(centers)
