"""First-class query specs: predicates, result modes, plans, and results.

The paper's sole query type — an intersects-window returning all matching
ids — generalizes here into a small algebra (the common filter→refine
interface of "The Case for Learned Spatial Indexes"):

* :class:`Query` — a frozen spec: a window box, a *predicate* choosing
  which window/object relation counts as a match, a *result mode*
  choosing what the caller gets back, and per-query options (the top-k
  limit).  The defaults (intersects, ids) are the paper's window query,
  so ``Query(window)`` is the one spelling every generator, driver and
  index speaks.
* :class:`QueryResult` — the payload plus a per-query
  :class:`~repro.index.base.IndexStats` delta and wall-clock, so every
  answer carries its own cost accounting.
* :class:`QueryPlan` — what an index *would* touch for a query
  (nodes/cells/slices, candidate rows, shards) without executing it;
  returned by :meth:`~repro.index.base.SpatialIndex.plan`.

Predicates follow the OGC convention with the *object* as subject
(``object.predicate(window)``):

============== =====================================================
``intersects`` object ∩ window ≠ ∅ (the paper's result definition)
``within``     object lies entirely inside the window
``contains``   object contains the whole window
``covers_point`` object covers the query point (degenerate window)
============== =====================================================

Every predicate implies window intersection, which is what makes one
shared candidate→refine kernel sufficient: any index's intersects
candidate set is already a superset of every predicate's matches.

Result modes:

============== =====================================================
``ids``        unordered object identifiers (the paper's payload)
``boxes``      ids plus the matching ``(k, d)`` corner matrices
``count``      match count only — no id/coordinate materialization
``top_k``      the ``k`` largest matches by box volume (descending,
               ties broken by ascending id), ids + boxes
============== =====================================================
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.errors import QueryError
from repro.geometry.box import Box

if TYPE_CHECKING:  # pragma: no cover - layering: index sits above queries
    from repro.index.base import IndexStats

#: Supported window/object predicates (object as subject).
PREDICATES = ("intersects", "within", "contains", "covers_point")

#: Supported result modes.
RESULT_MODES = ("ids", "boxes", "count", "top_k")


@dataclass(frozen=True)
class Query:
    """One spatial query: window + predicate + result mode + options.

    Attributes
    ----------
    window:
        The query box (degenerate point/line windows are legal).
    predicate:
        One of :data:`PREDICATES`; ``covers_point`` additionally
        requires the window to be a single point (all sides zero).
    mode:
        One of :data:`RESULT_MODES`.
    k:
        Top-k limit; required (>= 1) for ``top_k`` and rejected
        otherwise.
    seq:
        Zero-based position in the workload; used by benchmark reports
        ("query sequence" axis of every figure).
    """

    window: Box
    predicate: str = "intersects"
    mode: str = "ids"
    k: int | None = None
    seq: int = 0
    _lo: np.ndarray = field(init=False, repr=False, compare=False)
    _hi: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.predicate not in PREDICATES:
            raise QueryError(
                f"unknown predicate {self.predicate!r}; expected one of "
                f"{PREDICATES}"
            )
        if self.mode not in RESULT_MODES:
            raise QueryError(
                f"unknown result mode {self.mode!r}; expected one of "
                f"{RESULT_MODES}"
            )
        if self.seq < 0:
            raise QueryError(
                f"query sequence number must be >= 0, got {self.seq}"
            )
        if self.mode == "top_k":
            if self.k is None or self.k < 1:
                raise QueryError(
                    f"top_k queries need a limit k >= 1, got {self.k}"
                )
        elif self.k is not None:
            raise QueryError(
                f"k is a top_k option; mode {self.mode!r} does not take it"
            )
        if self.predicate == "covers_point" and any(
            l != h for l, h in zip(self.window.lo, self.window.hi)
        ):
            raise QueryError(
                "covers_point queries take a point window (all sides "
                f"zero); got sides {self.window.sides}"
            )
        object.__setattr__(
            self, "_lo", np.asarray(self.window.lo, dtype=np.float64)
        )
        object.__setattr__(
            self, "_hi", np.asarray(self.window.hi, dtype=np.float64)
        )

    @classmethod
    def point(
        cls, coords: Sequence[float], mode: str = "ids", seq: int = 0
    ) -> Query:
        """A covers-point query at the given coordinates."""
        pt = tuple(float(c) for c in coords)
        return cls(
            window=Box(pt, pt), predicate="covers_point", mode=mode, seq=seq
        )

    @property
    def lo(self) -> np.ndarray:
        """Lower corner as a float64 vector (cached)."""
        return self._lo

    @property
    def hi(self) -> np.ndarray:
        """Upper corner as a float64 vector (cached)."""
        return self._hi

    @property
    def ndim(self) -> int:
        """Window dimensionality."""
        return self.window.ndim

    @property
    def count_only(self) -> bool:
        """True when no ids/coordinates need materializing."""
        return self.mode == "count"


@dataclass(frozen=True)
class QueryPlan:
    """What an index *would* touch for a query, without executing it.

    Produced by :meth:`~repro.index.base.SpatialIndex.plan`; planning
    never mutates the index (no cracking, no splitting, no counters), so
    the numbers describe the structure *as it stands* — for incremental
    indexes the actual execution may touch less after it refines.

    Attributes
    ----------
    index:
        Display name of the planning index.
    query:
        The planned query.
    nodes:
        Index nodes the walk would inspect: slices (QUASII), cells
        (grid), code intervals (SFC/SFCracker), partitions (Mosaic),
        tree nodes (R-Tree), or the sum over fanned-out shards.
    candidates:
        Candidate rows the refine step would test against the window.
    shards:
        Shards the query would fan out to (0 for unsharded indexes).
    exact:
        False when the numbers are upper bounds (an unrefined
        incremental index reorganizes *during* execution, so its plan
        describes the pre-refinement structure).
    """

    index: str
    query: Query
    nodes: int
    candidates: int
    shards: int = 0
    exact: bool = True

    def explain(self) -> str:
        """One-line human-readable rendering of the plan."""
        parts = [
            f"{self.index}: predicate={self.query.predicate}",
            f"mode={self.query.mode}",
            f"nodes={self.nodes}",
            f"candidates={self.candidates}",
        ]
        if self.shards:
            parts.append(f"shards={self.shards}")
        if not self.exact:
            parts.append("(upper bound: execution refines the structure)")
        return " ".join(parts)


@dataclass(frozen=True, eq=False)
class QueryResult:
    """One executed query's payload plus its cost accounting.

    Identity-compared (``eq=False``): the ndarray payload fields make a
    generated field-wise ``__eq__`` raise on multi-element arrays, and
    two executions are distinct events anyway — compare payloads
    (``ids``/``count``) explicitly instead.

    Attributes
    ----------
    query:
        The executed query.
    count:
        Total number of matching objects (every mode reports it; for
        ``top_k`` it counts *all* matches, of which at most ``k`` are
        materialized).
    ids:
        Matching identifiers (``None`` in ``count`` mode; at most ``k``
        entries, volume-descending, in ``top_k`` mode).
    boxes:
        ``(lo, hi)`` corner matrices parallel to ``ids`` (``boxes`` and
        ``top_k`` modes only, ``None`` otherwise).
    stats:
        Per-query :class:`~repro.index.base.IndexStats` — the work
        counters this query caused plus ``queries`` /
        ``results_returned``, the same on ``execute`` and
        ``execute_batch``.  A buffer merge is charged to the index, not
        to a query; results of a sharded engine carry ``None`` (fleet
        work cannot be attributed to a single query).
    seconds:
        Wall-clock spent executing this query: the batch is measured
        once and an equal share attributed per query.
    """

    query: Query
    count: int
    ids: np.ndarray | None = None
    boxes: tuple[np.ndarray, np.ndarray] | None = None
    stats: "IndexStats | None" = None
    seconds: float = 0.0
