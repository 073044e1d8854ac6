"""Cracking kernels: stable partial partitioning of contiguous key columns.

Database cracking (Idreos et al.) reorganizes an array around query
boundaries instead of fully sorting it.  QUASII lifts the idea to the
spatial domain: Algorithm 2 partitions a *row range* of a
:class:`~repro.datasets.store.BoxStore` on one dimension's **lower
coordinate**, the key the paper assigns objects to slices by (Section
5.1).  SFCracker reuses the value-level helper on its Morton-code array.

The frame
---------
Refining a slice cracks its range many times — once on the query's
bounds, then recursively at artificial midpoints — and every step only
ever looks at one dimension.  A :class:`Frame` is that dimension's
``lo`` / ``hi`` copied out of the row-major store into contiguous 1-d
columns; ``lo`` is the key column.  :func:`crack` partitions a
sub-range ``[a, b)`` of the frame, addressed by **position relative to
the frame's first row**, and :func:`range_dim_stats` reduces over one;
neither touches the store.  Alongside, the frame keeps ``perm``: which
original frame row now sits at each position.  Each partition step is a
permutation of its sub-range, so applying the step's order to
``perm[a:b]`` composes it onto everything before it, and because the
steps are *stable* the composed ``perm`` is exactly the row order that
applying them one by one to the store would have produced.
:meth:`Frame.commit` therefore moves the store's rows — every dimension,
ids and live flags — **once per refined slice**, through the store's one
permutation verb.

Conventions
-----------
* A crack at bound ``b`` puts keys ``< b`` left and keys ``>= b`` right.
* Multi-bound cracks use strictly increasing bounds; bucket ``i`` holds
  keys with ``bounds[i-1] <= key < bounds[i]``.
* Partitioning is stable (equal-bucket rows keep their relative order),
  which keeps repeated cracks deterministic and lets them compose.
"""

from __future__ import annotations

from itertools import accumulate
from typing import Sequence

import numpy as np

from repro.datasets.store import BoxStore
from repro.errors import ConfigurationError

def _stable_order(
    keys: np.ndarray, bounds: Sequence[float]
) -> tuple[np.ndarray, list[int]]:
    """Stable bucket order of ``keys`` against strictly increasing bounds.

    Returns the permutation that bucket-sorts ``keys`` and the
    ``len(bounds)`` positions where its buckets split.  A real crack is a
    linear pass; this is one boolean pass per bound.
    """
    if not bounds or any(lo >= hi for lo, hi in zip(bounds, bounds[1:])):
        raise ConfigurationError(
            f"crack bounds must be non-empty and strictly increasing: {bounds}"
        )
    below = keys < bounds[0]
    buckets = [below.nonzero()[0]]
    for bound in bounds[1:]:
        upto = keys < bound
        buckets.append((upto ^ below).nonzero()[0])  # below implies upto
        below = upto
    splits = list(accumulate(bucket.size for bucket in buckets))
    buckets.append((~below).nonzero()[0])
    return np.concatenate(buckets), splits


class Frame:
    """Dimension ``dim`` of store rows ``[begin, end)`` as contiguous columns.

    ``lo`` (the key column) and ``hi`` are copies, and ``perm`` — ``None``
    until the first crack — maps frame positions to the original frame
    rows.
    """

    __slots__ = ("store", "begin", "lo", "hi", "perm")

    def __init__(self, store: BoxStore, begin: int, end: int, dim: int) -> None:
        self.store, self.begin = store, begin
        # Copies even when the store is 1-d: never an alias of its columns.
        self.lo = store.lo[begin:end, dim].copy()
        self.hi = store.hi[begin:end, dim].copy()
        self.perm: np.ndarray | None = None

    def commit(self) -> None:
        """Apply the composed permutation to the store, if any crack made one."""
        if self.perm is not None:
            self.store.apply_order_range(
                self.begin, self.begin + self.perm.size, self.perm
            )
            self.perm = None


def crack(frame: Frame, a: int, b: int, bounds: Sequence[float]) -> list[int]:
    """Crack frame positions ``[a, b)`` on the lower-coordinate key.

    Reorders the frame's columns into ``len(bounds) + 1`` contiguous
    buckets, composes the step onto ``frame.perm``, and returns the split
    positions (``len(bounds)`` values, relative to the frame like ``a``
    and ``b``); bucket ``i`` occupies ``[splits[i-1], splits[i])`` with
    the outer sentinels ``a`` and ``b``.  The store is untouched until
    :meth:`Frame.commit`.

    A one-bound call is relational cracking's classic two-way crack; the
    three-way slicing of Algorithm 2 is a two-bound call.
    """
    order, splits = _stable_order(frame.lo[a:b], bounds)
    if frame.perm is None:
        frame.perm = np.arange(frame.lo.size)
    for column in (frame.lo, frame.hi, frame.perm):
        column[a:b] = column[a:b][order]
    return [a + split for split in splits]


def crack_values(
    values: np.ndarray,
    payload: np.ndarray,
    begin: int,
    end: int,
    bound: float,
) -> int:
    """Two-way crack of a 1-d key array and its parallel payload, in place.

    Used by SFCracker on the Morton-code array (``values``) with the object
    row permutation as ``payload``.  Returns the absolute split position:
    ``values[begin:split] < bound <= values[split:end]``.
    """
    order, (split,) = _stable_order(values[begin:end], [bound])
    values[begin:end] = values[begin:end][order]
    payload[begin:end] = payload[begin:end][order]
    return begin + split


def range_dim_stats(frame: Frame, a: int, b: int) -> tuple[float, float, float]:
    """``(min lower, max lower, max upper)`` of frame positions ``[a, b)``.

    Everything slice bookkeeping needs, as contiguous reductions: the key
    range (``lo``) for slicing-type decisions and midpoints, whose minimum
    doubles as the dimension's MBB lower bound, plus the MBB upper bound
    (the paper's open-ended slice box records ``[min lower, max upper]``
    on the sliced dimension).
    """
    lo = frame.lo[a:b]
    return float(lo.min()), float(lo.max()), float(frame.hi[a:b].max())
