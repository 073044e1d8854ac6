"""Geometric substrate: axis-aligned boxes and vectorized predicates.

Everything in the library — data objects, query windows, index partitions,
slice bounds — is an axis-aligned (hyper-)rectangle.  This package provides
the scalar :class:`~repro.geometry.box.Box` value type plus the NumPy
vectorized predicate kernels used by every index implementation.
"""

from repro.geometry.box import Box
from repro.geometry.predicates import (
    boxes_contain_window,
    boxes_contained_in_window,
    boxes_intersect_window,
    predicate_mask,
)

__all__ = [
    "Box",
    "boxes_contain_window",
    "boxes_contained_in_window",
    "boxes_intersect_window",
    "predicate_mask",
]
