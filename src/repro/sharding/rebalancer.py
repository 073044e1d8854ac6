"""Query-driven shard rebalancing: split hot shards, merge cold ones.

The serving engine's initial partitioning is *data-driven* (STR bricks of
near-equal row count) and static.  Real traffic is neither uniform nor
stationary: a hotspot concentrates queries — and, under skewed ingestion,
new rows — on few shards, so the balance factor and the per-query work
drift away from the build-time optimum.  QUASII's thesis is that the
*query* distribution should drive index structure; this module applies
the same idea one level up, to the partition layout itself (the
workload-aware partitioning direction of WISK and "The Case for Learned
Spatial Indexes"), incrementally and in cracking spirit: no
stop-the-world re-tiling, just one bounded split+merge pass whenever the
observed drift crosses a threshold.

Three pieces:

* :class:`WorkloadProfile` — the observed query distribution.  The
  engine records every planned query's window (a bounded history) and
  counts the queries routed to each shard, both on the coordinating
  thread's routing loop — so the profile reads the same on both
  servers, whoever answers.
* :class:`ShardLoad` — one shard's load since the last pass: routed
  queries and owned rows.
* :class:`Rebalancer` — the decision + mechanics.  When the live-row
  balance factor or the query-load skew drifts past its threshold, one
  pass (1) merges the coldest shard away by routing its rows to the
  least-enlargement survivors, then (2) splits the hottest shard's rows
  at the median of the observed query centroids inside it, rebuilding
  the two halves as fresh shards.  Rows migrate shard-to-shard only,
  so the union of the shards keeps its live multiset (the ledger /
  live-fingerprint invariants hold by construction), and the ownership
  map plus the routing MBBs are re-derived from the migrated stores
  before the pass returns (stale pruning MBBs must never route an
  insert).

Scheduling lives in :mod:`repro.sharding.maintenance`: a
:class:`~repro.sharding.maintenance.MaintenancePolicy` runs
:meth:`Rebalancer.maybe_rebalance` (and compaction) on the query
path of the executor, amortized exactly like cracking.
"""

from __future__ import annotations

from collections import Counter, deque
from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.errors import ConfigurationError
from repro.geometry.box import Box
from repro.queries.query import Query
from repro.sharding.shard import Shard

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.sharding.sharded_index import ShardedIndex


#: Recent query windows a profile retains; the split cut and the
#: post-split warm-up replay derive from these, so this bounds how far
#: back "the observed query distribution" looks.
PROFILE_WINDOW = 512

#: Observed centroids inside the hot shard below which a split cut falls
#: back to the row-center median (a plain data-driven STR-style split).
MIN_CENTROIDS = 8

#: Most recent observed windows replayed against the two rebuilt shards
#: before a pass returns (see :meth:`Rebalancer._warm_up`).
WARMUP = 32


@dataclass(frozen=True)
class ShardLoad:
    """One shard's observed load since the profile's last rebaseline.

    Attributes
    ----------
    sid:
        The shard id.
    queries:
        Windows routed to this shard (fan-out executions, not engine
        queries — a pruned shard's count stays flat).
    live_rows:
        Live rows currently owned by the shard, buffered inserts
        included (a point-in-time size, not a delta).
    """

    sid: int
    queries: int
    live_rows: int


class WorkloadProfile:
    """The engine's memory of recent traffic, for rebalancing decisions.

    Both records arrive push-style from the engine's routing loop, which
    every query passes exactly once whoever serves it: one
    :meth:`record` per planned window (kept in a deque of
    :data:`PROFILE_WINDOW`; centroids derive from them) and one
    :meth:`count_routed` per routed batch.  :meth:`rebaseline` (after
    every rebalance) restarts both, so drift is always measured against
    the *current* layout.  The profile never touches shard state and
    adds O(1) work per query.
    """

    def __init__(self) -> None:
        self._windows: deque[tuple[np.ndarray, np.ndarray]] = deque(
            maxlen=PROFILE_WINDOW
        )
        self._queries_seen = 0
        self._routed: Counter[int] = Counter()

    @property
    def queries_seen(self) -> int:
        """Queries recorded since the last :meth:`rebaseline`."""
        return self._queries_seen

    def record(self, query: Query) -> None:
        """Append one planned query's window (called by the engine)."""
        self._windows.append((query.lo, query.hi))
        self._queries_seen += 1

    def count_routed(self, queues: Mapping[int, Sequence[int]]) -> None:
        """Count one routed batch: ``sid -> query indexes`` (called by
        the engine)."""
        for sid, idxs in queues.items():
            self._routed[sid] += len(idxs)

    def recent_windows(self, limit: int | None = None) -> list[tuple[np.ndarray, np.ndarray]]:
        """The most recent retained ``(lo, hi)`` windows, oldest first.

        The rebalancer replays these against freshly rebuilt shards so a
        split does not hand the next hot query a completely unrefined
        slice forest (warm-up is maintenance work, paid off the query
        path like the split itself).
        """
        if limit is None or limit >= len(self._windows):
            return list(self._windows)
        return list(self._windows)[-limit:]

    def centroids(self) -> np.ndarray:
        """The retained recent query centroids as a ``(m, d)`` matrix."""
        if not self._windows:
            return np.empty((0, 0), dtype=np.float64)
        return np.stack([(lo + hi) * 0.5 for lo, hi in self._windows])

    def centroids_within(self, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
        """Retained centroids falling inside the box ``[lo, hi]``.

        The split machinery uses this to re-tile a hot shard along the
        traffic that actually landed on it.
        """
        pts = self.centroids()
        if not pts.size:
            return pts
        inside = np.all((pts >= lo) & (pts <= hi), axis=1)
        return pts[inside]

    def rebaseline(self) -> None:
        """Forget the traffic seen so far.

        Called after every rebalance so drift is always measured against
        the *current* layout, not traffic the previous layout already
        paid for.
        """
        self._windows.clear()
        self._queries_seen = 0
        self._routed.clear()

    def shard_loads(self, shards: Sequence[Shard]) -> list[ShardLoad]:
        """Per-shard load since the last rebaseline, in sid order."""
        return [
            ShardLoad(s.sid, self._routed[s.sid], s.owned_count) for s in shards
        ]

    def query_skew(self, shards: Sequence[Shard]) -> float:
        """Max/mean per-shard routed queries since rebaseline (1.0 = even).

        The traffic analogue of
        :meth:`~repro.sharding.sharded_index.ShardedIndex.balance_factor`:
        how unevenly the fan-out work lands on the fleet.  Shards that
        were routed nothing still count in the mean — an idle shard *is*
        the skew.
        """
        counts = [self._routed[s.sid] for s in shards]
        mean = sum(counts) / len(counts) if counts else 0.0
        return max(counts) / mean if mean > 0 else 1.0

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"WorkloadProfile(queries_seen={self._queries_seen})"


@dataclass(frozen=True)
class RebalanceResult:
    """Outcome of one applied rebalancing pass.

    Attributes
    ----------
    reason:
        What tripped the pass: ``"balance"`` (live-row balance factor)
        or ``"skew"`` (query-load skew).
    hot_sid, cold_sid:
        The split shard and the merged-away shard (whose sid the second
        split half reuses).
    rows_migrated:
        Rows whose owning shard changed.
    split_dim:
        Dimension of the query-driven split cut.
    split_cut:
        Coordinate of the cut (median observed query centroid).
    balance_before, balance_after:
        Engine balance factor around the pass.
    skew_before:
        Query skew that was observed when the pass was decided.
    """

    reason: str
    hot_sid: int
    cold_sid: int
    rows_migrated: int
    split_dim: int
    split_cut: float
    balance_before: float
    balance_after: float
    skew_before: float


class Rebalancer:
    """Split hot shards and merge cold ones when observed drift says so.

    Parameters
    ----------
    max_balance:
        Live-row balance factor (max/mean) above which a pass triggers.
    max_query_skew:
        Query-load skew (max/mean fan-out executions since the profile
        baseline) above which a pass triggers.
    min_queries:
        Minimum profiled queries before any decision — guards against
        re-tiling on noise right after build or a previous pass.

    A pass preserves every engine invariant: rows only move between
    shards (the union's live fingerprint is unchanged), pending shard
    buffers are flushed first so migrated stores hold every owned row,
    the ownership map is rewritten from the migrated stores, and the
    stacked routing MBBs are rebuilt before the pass returns.  The engine's
    ``rebalances`` / ``rows_migrated`` stats counters record the work.
    """

    def __init__(
        self,
        max_balance: float = 1.5,
        max_query_skew: float = 2.5,
        min_queries: int = 64,
    ) -> None:
        if max_balance < 1.0:
            raise ConfigurationError(
                f"max_balance must be >= 1.0, got {max_balance}"
            )
        if max_query_skew < 1.0:
            raise ConfigurationError(
                f"max_query_skew must be >= 1.0, got {max_query_skew}"
            )
        if min_queries < 1:
            raise ConfigurationError(
                f"min_queries must be >= 1, got {min_queries}"
            )
        self.max_balance = float(max_balance)
        self.max_query_skew = float(max_query_skew)
        self.min_queries = int(min_queries)

    # ------------------------------------------------------------------
    # Decision
    # ------------------------------------------------------------------
    def drift_reason(self, engine: ShardedIndex) -> str | None:
        """Why a pass should run now, or ``None`` if the layout is fine.

        ``"balance"`` when skewed ingestion inflated a shard past
        ``max_balance``; ``"skew"`` when traffic concentrates past
        ``max_query_skew``.  Engines with fewer than two shards, or with
        fewer than ``min_queries`` profiled queries, never drift.
        """
        if engine.n_shards < 2 or not engine.is_built:
            return None
        if engine.profile.queries_seen < self.min_queries:
            return None
        if engine.balance_factor() > self.max_balance:
            return "balance"
        if engine.profile.query_skew(engine.shards) > self.max_query_skew:
            return "skew"
        return None

    def maybe_rebalance(self, engine: ShardedIndex) -> RebalanceResult | None:
        """Run one pass if drift crossed a threshold; else do nothing."""
        reason = self.drift_reason(engine)
        if reason is None:
            return None
        return self.rebalance(engine, reason=reason)

    # ------------------------------------------------------------------
    # Mechanics
    # ------------------------------------------------------------------
    def rebalance(
        self, engine: ShardedIndex, reason: str = "forced"
    ) -> RebalanceResult | None:
        """Apply one split+merge pass unconditionally (K >= 2).

        Steps, in order:

        1. Flush pending shard buffers — migration moves *stores*, and a
           buffered row is not in its store yet.
        2. Pick the **hot** shard (under ``"balance"`` drift: most owned
           rows; otherwise: most fan-out queries since the profile
           baseline) and the **cold** shard (the least, by the same
           measure) — the pair whose union the pass re-tiles.
        3. Merge the cold shard into the hot one's row pool, freeing its
           sid.
        4. Split the pool in two along the observed query centroid
           distribution — the dimension with the greatest centroid
           spread inside the hot shard's MBB (the QUASII move applied to
           the partition layout: cut where the queries are).  The cut
           coordinate depends on the drift being fixed: ``"balance"``
           cuts at the pool's row-center median (each half gets half the
           rows, so the max shard size strictly shrinks), while
           ``"skew"`` cuts at the centroid median (each half gets half
           the observed traffic).  With too few observed centroids both
           degrade to a data-median STR-style cut.
        5. Rebuild the two halves as fresh shards on the hot/cold sids,
           rewrite ownership for every moved row, and re-derive the
           routing MBBs from the migrated stores — a pass must leave no
           stale pruning MBB behind, or the very next least-enlargement
           insert would route against geometry that no longer exists.

        Returns the applied :class:`RebalanceResult`, or ``None`` when
        the engine cannot rebalance (fewer than two shards).
        """
        if engine.n_shards < 2:
            return None
        if not engine.is_built:
            engine.build()
        balance_before = engine.balance_factor()
        skew_before = engine.profile.query_skew(engine.shards)
        engine.flush_updates()

        loads = engine.profile.shard_loads(engine.shards)
        if reason == "balance":
            # Size drift: pair the biggest shard with the smallest so
            # the row-median split strictly reduces the maximum.
            key = lambda l: (l.live_rows, l.queries)  # noqa: E731
        else:
            # Traffic drift: pair the busiest shard with the idlest so
            # the centroid-median split halves the hot traffic.
            key = lambda l: (l.queries, l.live_rows)  # noqa: E731
        hot = max(loads, key=key).sid
        cold = min((l for l in loads if l.sid != hot), key=key).sid

        shards = engine.shards
        hot_store, cold_store = shards[hot].store, shards[cold].store
        hot_rows, cold_rows = hot_store.live_rows(), cold_store.live_rows()
        lo = np.concatenate([hot_store.lo[hot_rows], cold_store.lo[cold_rows]])
        hi = np.concatenate([hot_store.hi[hot_rows], cold_store.hi[cold_rows]])
        ids = np.concatenate(
            [hot_store.ids[hot_rows], cold_store.ids[cold_rows]]
        )

        if ids.size < 2:
            left = np.arange(ids.size)
            right = np.arange(0)
            dim, cut = 0, float("nan")
        else:
            dim, cut = self._split_cut(engine, shards[hot], lo, hi, reason)
            centers = (lo[:, dim] + hi[:, dim]) * 0.5
            mask = centers <= cut
            if not mask.any() or mask.all():
                # Degenerate cut (all centers on one side): fall back to
                # an exact half split in center order.
                order = np.argsort(centers, kind="stable")
                mask = np.zeros(ids.size, dtype=bool)
                mask[order[: ids.size // 2]] = True
                cut = float(centers[order[ids.size // 2 - 1]])
            left = np.flatnonzero(mask)
            right = np.flatnonzero(~mask)

        # Rows whose owner changes: hot rows landing on the cold sid
        # plus cold rows landing on the hot sid.  (The first hot_rows.size
        # pool positions came from the hot store.)
        moved = int((left >= hot_rows.size).sum())
        moved += int((right < hot_rows.size).sum())
        engine.rebuild_shard(hot, lo[left], hi[left], ids[left])
        engine.rebuild_shard(cold, lo[right], hi[right], ids[right])
        self._warm_up(engine, (hot, cold))
        engine.finish_rebalance(rows_migrated=moved)
        return RebalanceResult(
            reason=reason,
            hot_sid=hot,
            cold_sid=cold,
            rows_migrated=moved,
            split_dim=int(dim),
            split_cut=float(cut),
            balance_before=balance_before,
            balance_after=engine.balance_factor(),
            skew_before=skew_before,
        )

    def _warm_up(self, engine: ShardedIndex, sids: tuple[int, ...]) -> None:
        """Replay recent observed windows against freshly rebuilt shards.

        A rebuilt shard index is unrefined; without warm-up the very
        next hot query pays the full re-cracking bill on the serving
        path, which is exactly the latency spike rebalancing is meant to
        remove.  The replay runs each retained recent window (up to
        :data:`WARMUP`, newest last) directly against the rebuilt shard
        indexes whose MBB it intersects — off the engine's query path,
        so engine-level flow counters (queries, results) are untouched,
        while the refinement work lands in the fleet work roll-up like
        any other cracking.  Runs before
        :meth:`ShardedIndex.finish_rebalance`.
        """
        windows = engine.profile.recent_windows(WARMUP)
        if not windows:
            return
        for sid in sids:
            shard = engine.shards[sid]
            # Count-only replays through the first-class API: cracking
            # (the whole point of the warm-up) happens identically for
            # every result mode, and count mode skips materializing ids
            # nobody reads.
            replay = [
                Query(Box(tuple(lo), tuple(hi)), mode="count")
                for lo, hi in windows
                if np.all(lo <= shard.mbb_hi) and np.all(shard.mbb_lo <= hi)
            ]
            if replay:
                shard.index.execute_batch(replay)

    def _split_cut(
        self,
        engine: ShardedIndex,
        hot: Shard,
        lo: np.ndarray,
        hi: np.ndarray,
        reason: str,
    ) -> tuple[int, float]:
        """The (dim, cut) re-tiling the pooled hot+cold rows.

        The dimension always follows the observed query centroids inside
        the hot shard's MBB (greatest spread — cutting across the axis
        queries roam keeps each half serving a coherent slice of the
        traffic).  The coordinate depends on the drift: ``"balance"``
        takes the pool's row-center median so the halves have equal row
        counts; anything else takes the centroid median so the halves
        see equal traffic.  With fewer than :data:`MIN_CENTROIDS` observed
        centroids both choices degrade to the data median (a plain
        STR-style split).
        """
        pts = engine.profile.centroids_within(hot.mbb_lo, hot.mbb_hi)
        centers = (lo + hi) * 0.5
        if pts.shape[0] < MIN_CENTROIDS:
            dim = int(np.argmax(centers.std(axis=0)))
            return dim, float(np.median(centers[:, dim]))
        dim = int(np.argmax(pts.std(axis=0)))
        if reason == "balance":
            return dim, float(np.median(centers[:, dim]))
        return dim, float(np.median(pts[:, dim]))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"Rebalancer(max_balance={self.max_balance}, "
            f"max_query_skew={self.max_query_skew}, "
            f"min_queries={self.min_queries})"
        )
