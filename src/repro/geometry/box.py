"""Axis-aligned minimum bounding box (MBB) value type.

The paper (Section 2) models every spatial object as the axis-aligned box
enclosing it, defined by its lower and upper corner: ``lower(b) = (xl, yl,
zl)`` and ``upper(b) = (xu, yu, zu)``.  :class:`Box` generalizes this to any
dimensionality ``d >= 1``; the reproduction primarily uses ``d = 3`` (the
paper's setting) and ``d = 2`` (the paper's running example, Figure 4).

Boxes are *closed*: two boxes that merely touch at a face, edge, or corner
intersect, matching the paper's ``b ∩ q ≠ ∅`` result definition.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

from repro.errors import GeometryError


@dataclass(frozen=True, slots=True)
class Box:
    """An immutable axis-aligned box, the universal shape of this library.

    Parameters
    ----------
    lo:
        Lower corner, one coordinate per dimension.
    hi:
        Upper corner; must satisfy ``lo[k] <= hi[k]`` in every dimension.

    Examples
    --------
    >>> b = Box((0.0, 0.0), (2.0, 3.0))
    >>> b.volume
    6.0
    >>> b.sides
    (2.0, 3.0)
    """

    lo: tuple[float, ...]
    hi: tuple[float, ...]

    def __post_init__(self) -> None:
        lo = tuple(float(v) for v in self.lo)
        hi = tuple(float(v) for v in self.hi)
        if len(lo) == 0:
            raise GeometryError("a Box needs at least one dimension")
        if len(lo) != len(hi):
            raise GeometryError(
                f"corner dimensionality mismatch: lo has {len(lo)} dims, "
                f"hi has {len(hi)}"
            )
        for k, (l, h) in enumerate(zip(lo, hi)):
            if math.isnan(l) or math.isnan(h):
                raise GeometryError(f"NaN coordinate in dimension {k}")
            if l > h:
                raise GeometryError(
                    f"lower corner exceeds upper corner in dimension {k}: "
                    f"{l} > {h}"
                )
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def unit(cls, ndim: int) -> Box:
        """The unit box ``[0, 1]^ndim``."""
        return cls((0.0,) * ndim, (1.0,) * ndim)

    # ------------------------------------------------------------------
    # Basic measures
    # ------------------------------------------------------------------
    @property
    def ndim(self) -> int:
        """Number of dimensions."""
        return len(self.lo)

    @property
    def sides(self) -> tuple[float, ...]:
        """Per-dimension side lengths (``hi - lo``)."""
        return tuple(h - l for l, h in zip(self.lo, self.hi))

    @property
    def volume(self) -> float:
        """Product of side lengths (area in 2-d, volume in 3-d)."""
        return math.prod(self.sides)

    @property
    def center(self) -> tuple[float, ...]:
        """Geometric center point."""
        return tuple((l + h) / 2.0 for l, h in zip(self.lo, self.hi))

    # ------------------------------------------------------------------
    # Misc
    # ------------------------------------------------------------------
    def __iter__(self) -> Iterator[tuple[float, ...]]:
        yield self.lo
        yield self.hi
