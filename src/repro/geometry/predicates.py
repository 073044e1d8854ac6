"""Vectorized geometric predicate kernels.

Every index in this library ultimately answers a window query by testing a
batch of candidate MBBs against the query window.  These NumPy kernels are
the shared hot path; they all take coordinate matrices of shape ``(n, d)``
(``lo`` and ``hi`` corners of ``n`` boxes) and a scalar window given by two
length-``d`` vectors, and return boolean masks of length ``n``.

All interval comparisons are *closed*: touching counts as intersecting,
matching the paper's ``b ∩ q ≠ ∅`` and the closed :class:`repro.geometry.box.Box`.
"""

from __future__ import annotations

import numpy as np

from repro.errors import GeometryError


def _as_vector(value: np.ndarray | tuple | list, ndim: int) -> np.ndarray:
    vec = np.asarray(value, dtype=np.float64)
    if vec.shape != (ndim,):
        raise GeometryError(f"expected a length-{ndim} vector, got shape {vec.shape}")
    return vec


def boxes_intersect_window(
    lo: np.ndarray,
    hi: np.ndarray,
    window_lo: np.ndarray,
    window_hi: np.ndarray,
) -> np.ndarray:
    """Mask of boxes whose closed extent intersects the closed window.

    This is the paper's result predicate ``b ∩ q ≠ ∅`` evaluated in bulk.
    """
    ndim = lo.shape[1]
    qlo = _as_vector(window_lo, ndim)
    qhi = _as_vector(window_hi, ndim)
    return np.all(lo <= qhi, axis=1) & np.all(hi >= qlo, axis=1)


def boxes_contained_in_window(
    lo: np.ndarray,
    hi: np.ndarray,
    window_lo: np.ndarray,
    window_hi: np.ndarray,
) -> np.ndarray:
    """Mask of boxes lying entirely inside the window."""
    ndim = lo.shape[1]
    qlo = _as_vector(window_lo, ndim)
    qhi = _as_vector(window_hi, ndim)
    return np.all(lo >= qlo, axis=1) & np.all(hi <= qhi, axis=1)


def boxes_contain_window(
    lo: np.ndarray,
    hi: np.ndarray,
    window_lo: np.ndarray,
    window_hi: np.ndarray,
) -> np.ndarray:
    """Mask of boxes that contain the entire window.

    With a degenerate (point) window this is the covers-point test:
    boxes whose closed extent holds the point.
    """
    ndim = lo.shape[1]
    qlo = _as_vector(window_lo, ndim)
    qhi = _as_vector(window_hi, ndim)
    return np.all(lo <= qlo, axis=1) & np.all(hi >= qhi, axis=1)


#: Predicate name -> bulk kernel.  Names follow the OGC convention with
#: the *object* as subject (see repro.queries.query): "within" means the
#: object lies within the window, "contains" that it contains the window.
#: Every predicate implies window intersection, so an index's intersects
#: candidate set is a superset of every predicate's matches — the fact
#: the shared candidate→refine kernel rests on.
_PREDICATE_KERNELS = {
    "intersects": boxes_intersect_window,
    "within": boxes_contained_in_window,
    "contains": boxes_contain_window,
    "covers_point": boxes_contain_window,
}


def predicate_mask(
    predicate: str,
    lo: np.ndarray,
    hi: np.ndarray,
    window_lo: np.ndarray,
    window_hi: np.ndarray,
) -> np.ndarray:
    """Evaluate a named predicate over a candidate batch (the refine step).

    ``window_lo``/``window_hi`` are either length-``d`` vectors (one
    window for the whole batch) or ``(n, d)`` matrices (a *per-row*
    window, used by natively batched execution where candidate rows of
    many queries are refined in one kernel call).
    """
    try:
        kernel = _PREDICATE_KERNELS[predicate]
    except KeyError:
        raise GeometryError(
            f"unknown predicate {predicate!r}; expected one of "
            f"{tuple(_PREDICATE_KERNELS)}"
        ) from None
    window_lo = np.asarray(window_lo, dtype=np.float64)
    if window_lo.ndim == 2:
        # Per-row windows: the kernels' comparisons broadcast elementwise,
        # so inline the same expressions without the vector-shape gate.
        qlo = window_lo
        qhi = np.asarray(window_hi, dtype=np.float64)
        if predicate == "intersects":
            return np.all(lo <= qhi, axis=1) & np.all(hi >= qlo, axis=1)
        if predicate == "within":
            return np.all(lo >= qlo, axis=1) & np.all(hi <= qhi, axis=1)
        return np.all(lo <= qlo, axis=1) & np.all(hi >= qhi, axis=1)
    return kernel(lo, hi, window_lo, window_hi)


def batch_predicate_masks(
    predicate: str,
    lo: np.ndarray,
    hi: np.ndarray,
    windows_lo: np.ndarray,
    windows_hi: np.ndarray,
) -> np.ndarray:
    """Evaluate one predicate for a whole query batch in one pass.

    ``lo``/``hi`` are the ``(n, d)`` corner matrices of all objects;
    ``windows_lo``/``windows_hi`` are ``(B, d)`` matrices of ``B`` query
    windows.  Returns the ``(B, n)`` boolean candidate matrix — row
    ``b`` is the match mask of query ``b`` over all objects.  Built one
    dimension at a time so the peak temporary is ``(B, n)``, never
    ``(B, n, d)``.
    """
    if predicate not in _PREDICATE_KERNELS:
        raise GeometryError(
            f"unknown predicate {predicate!r}; expected one of "
            f"{tuple(_PREDICATE_KERNELS)}"
        )
    n, d = lo.shape
    b = windows_lo.shape[0]
    mask = np.ones((b, n), dtype=bool)
    for k in range(d):
        obj_lo = lo[:, k][None, :]
        obj_hi = hi[:, k][None, :]
        win_lo = windows_lo[:, k][:, None]
        win_hi = windows_hi[:, k][:, None]
        if predicate == "intersects":
            mask &= obj_lo <= win_hi
            mask &= obj_hi >= win_lo
        elif predicate == "within":
            mask &= obj_lo >= win_lo
            mask &= obj_hi <= win_hi
        else:  # contains / covers_point
            mask &= obj_lo <= win_lo
            mask &= obj_hi >= win_hi
    return mask
