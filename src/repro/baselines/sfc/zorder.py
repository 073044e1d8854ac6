"""Z-order (Morton) space-filling curve substrate.

The paper maps spatial data to one dimension with the Z-order curve using
10 bits per dimension (32-bit codes, Section 6.1) and decomposes a window
query into multiple 1-d intervals that tightly cover the window (the
Tropf–Herzog technique [43]), trading a few hundred small intervals per
query for far fewer false positives.

This module provides vectorized encode/decode over cell coordinates and
the interval decomposition.  Decomposition recursion can be coarsened via
``min_size`` (emit a covering interval for any query-intersecting aligned
cube at that size): exactness is preserved because every consumer filters
candidates against the actual window; coarsening only trades false
positives for fewer intervals — the knob the paper's optimization turns.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError, GeometryError
from repro.geometry.box import Box

#: Bits per dimension used throughout the paper (10 → 1024 cells per dim).
PAPER_BITS_PER_DIM = 10


def morton_encode(cells: np.ndarray, bits: int = PAPER_BITS_PER_DIM) -> np.ndarray:
    """Interleave ``(n, d)`` integer cell coordinates into Z-order codes.

    Bit layout: code bit ``b * d + (d - 1 - k)`` holds bit ``b`` of
    dimension ``k``, i.e. within each d-bit group dimension 0 is most
    significant.  An axis-aligned cube of side ``2^m`` whose corner is
    ``2^m``-aligned therefore occupies exactly ``2^(d*m)`` consecutive
    codes — the property the range decomposition relies on.
    """
    cells = np.asarray(cells)
    if cells.ndim != 2:
        raise GeometryError("cells must be a (n, d) matrix")
    d = cells.shape[1]
    if bits < 1 or bits * d > 63:
        raise ConfigurationError(
            f"bits={bits} with d={d} does not fit a 64-bit code"
        )
    if np.any(cells < 0) or np.any(cells >= (1 << bits)):
        raise GeometryError(f"cell coordinates must lie in [0, 2^{bits})")
    cells = cells.astype(np.uint64)
    codes = np.zeros(cells.shape[0], dtype=np.uint64)
    for b in range(bits):
        for k in range(d):
            bit = (cells[:, k] >> np.uint64(b)) & np.uint64(1)
            codes |= bit << np.uint64(b * d + (d - 1 - k))
    return codes


def morton_decode(  # ql: allow[QL012] test oracle: the encode round trip
    codes: np.ndarray, ndim: int, bits: int = PAPER_BITS_PER_DIM
) -> np.ndarray:
    """Inverse of :func:`morton_encode`: codes back to ``(n, d)`` cells."""
    codes = np.asarray(codes, dtype=np.uint64)
    if bits < 1 or bits * ndim > 63:
        raise ConfigurationError(
            f"bits={bits} with d={ndim} does not fit a 64-bit code"
        )
    cells = np.zeros((codes.shape[0], ndim), dtype=np.uint64)
    for b in range(bits):
        for k in range(ndim):
            bit = (codes >> np.uint64(b * ndim + (ndim - 1 - k))) & np.uint64(1)
            cells[:, k] |= bit << np.uint64(b)
    return cells.astype(np.int64)


class ZGrid:
    """Maps continuous coordinates to the ``2^bits``-per-dim cell grid.

    The paper assigns Z-codes "using a uniform grid"; this class is that
    grid: a fixed mapping from the universe box to integer cells, shared by
    the static SFC index and SFCracker.
    """

    def __init__(self, universe: Box, bits: int = PAPER_BITS_PER_DIM) -> None:
        if bits < 1 or bits * universe.ndim > 63:
            raise ConfigurationError(
                f"bits={bits} with d={universe.ndim} does not fit 64-bit codes"
            )
        self.universe = universe
        self.bits = bits
        self.resolution = 1 << bits
        self._lo = np.asarray(universe.lo, dtype=np.float64)
        extent = np.asarray(universe.hi, dtype=np.float64) - self._lo
        if np.any(extent <= 0):
            raise GeometryError("universe must have positive extent")
        self._scale = self.resolution / extent

    def cells_of(self, points: np.ndarray) -> np.ndarray:
        """Clamped integer cell coordinates of ``(n, d)`` points."""
        rel = (np.asarray(points, dtype=np.float64) - self._lo) * self._scale
        return np.clip(rel.astype(np.int64), 0, self.resolution - 1)

    def codes_of(self, points: np.ndarray) -> np.ndarray:
        """Z-order codes of ``(n, d)`` points."""
        return morton_encode(self.cells_of(points), self.bits)


def zrange_decompose(
    cell_lo: np.ndarray,
    cell_hi: np.ndarray,
    ndim: int,
    bits: int = PAPER_BITS_PER_DIM,
    min_size: int = 1,
) -> list[tuple[int, int]]:
    """Cover the cell-space window with disjoint Z-code intervals.

    Recursively subdivides the Z-ordered cube: an aligned sub-cube fully
    inside the window contributes its whole (contiguous) code range; a
    partially overlapping cube recurses, except that cubes at or below
    ``min_size`` contribute their covering range directly (coarsening —
    possible false positives, fewer intervals).  Adjacent output intervals
    are coalesced.

    Returns inclusive ``(lo_code, hi_code)`` pairs in increasing order.
    """
    if min_size < 1:
        raise ConfigurationError(f"min_size must be >= 1, got {min_size}")
    q_lo_arr = np.asarray(cell_lo, dtype=np.int64)
    q_hi_arr = np.asarray(cell_hi, dtype=np.int64)
    if q_lo_arr.shape != (ndim,) or q_hi_arr.shape != (ndim,):
        raise GeometryError("cell corners must be length-d vectors")
    if np.any(q_lo_arr > q_hi_arr):
        raise GeometryError("window lower cell exceeds upper cell")
    # Pure-Python integers: the recursion visits thousands of cubes per
    # query, so per-visit NumPy scalar overhead would dominate the whole
    # SFC query path.
    q_lo = tuple(int(v) for v in q_lo_arr)
    q_hi = tuple(int(v) for v in q_hi_arr)
    out: list[tuple[int, int]] = []
    fanout = 1 << ndim
    dims = range(ndim)
    offsets = [
        tuple((child >> (ndim - 1 - k)) & 1 for k in dims)
        for child in range(fanout)
    ]

    def visit(corner: tuple[int, ...], size: int, code: int) -> None:
        inside = True
        for k in dims:
            c = corner[k]
            if c > q_hi[k] or c + size - 1 < q_lo[k]:
                return
            if c < q_lo[k] or c + size - 1 > q_hi[k]:
                inside = False
        if inside or size <= min_size:
            out.append((code, code + size**ndim - 1))
            return
        half = size >> 1
        step = half**ndim
        for child in range(fanout):
            off = offsets[child]
            visit(
                tuple(corner[k] + off[k] * half for k in dims),
                half,
                code + child * step,
            )

    visit((0,) * ndim, 1 << bits, 0)

    # Coalesce adjacent intervals (recursion emits them in code order).
    merged: list[tuple[int, int]] = []
    for lo, hi in out:
        if merged and lo == merged[-1][1] + 1:
            merged[-1] = (merged[-1][0], hi)
        else:
            merged.append((lo, hi))
    return merged


def adaptive_min_size(
    cell_lo: np.ndarray, cell_hi: np.ndarray, target_cells_per_dim: int = 16
) -> int:
    """Pick a decomposition granularity bounding work per query.

    Full decomposition of a ``w``-cell-wide window visits O(surface area)
    cubes — prohibitive for the paper's 10% selectivity windows.  Choosing
    ``min_size`` so the window is ~``target_cells_per_dim`` coarse cubes
    wide keeps interval counts in the paper's observed range (hundreds)
    for any selectivity.
    """
    span = int(np.max(np.asarray(cell_hi) - np.asarray(cell_lo)) + 1)
    size = 1
    while size * target_cells_per_dim < span:
        size <<= 1
    return size
