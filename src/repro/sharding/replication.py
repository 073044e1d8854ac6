"""Replicas and faults: the parts a shard's fault tolerance is made of.

QUASII's splitting fixes *data* hotspots; replication addresses the
*traffic* hotspot splitting cannot fix (the LiLIS framing): when queries
concentrate on one tile, splitting it just moves the load, but serving
the tile from R independent replicas divides it.  Every
:class:`~repro.sharding.shard.Shard` owns ``R >= 1`` replicas (routing,
the ledger-first write stream and ledger-replay recovery live there)
and :class:`~repro.sharding.sharded_index.ShardedIndex` owns the fault
seam.  This module holds the components both are built from:

* :class:`ShardReplica` / :func:`build_replica` — one replica is a
  private :class:`~repro.datasets.store.BoxStore` plus its own index
  (replicas crack independently, so their physical layouts diverge
  while their live ``(id, box)`` multisets stay identical) plus health
  state; :func:`build_replica` is the one way a replica comes to exist,
  at build, rebuild and recovery alike.
* :class:`Fault` / :class:`FaultInjector` — a deterministic,
  seed-driven failure schedule: kill/stall/slow a chosen replica at a
  chosen operation count.  It is ticked on the engine's routing path
  (exactly once per query or update, on the coordinating thread), so
  the same seed always produces the same failure interleaving —
  failures are test *inputs*.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from repro.datasets.store import BoxStore
from repro.errors import ConfigurationError
from repro.index.base import MutableSpatialIndex, SpatialIndex

#: Builds one replica's index over the private store it is handed.
IndexFactory = Callable[[BoxStore], SpatialIndex]

#: Fault actions the injector understands.
FAULT_ACTIONS = ("kill", "stall", "slow")

#: Builds (store, index) for one replica; the engine passes its own
#: factory-enforcing helper here so replicas and shards are built alike.
ReplicaFactory = Callable[[BoxStore], tuple[BoxStore, SpatialIndex]]


@dataclass(frozen=True)
class Fault:
    """One scheduled failure: *what* happens to *which* replica *when*.

    Attributes
    ----------
    at_op:
        Global engine operation count (queries + updates, 1-based) at
        which the fault fires.
    action:
        ``"kill"`` (dead until recovered), ``"stall"`` (excluded from
        read routing for ``duration`` routing decisions; still receives
        writes), or ``"slow"`` (a synthetic load multiplier, so
        least-loaded routing deprioritizes the replica without any
        wall-clock sleeping — determinism over realism).
    sid / rid:
        Target shard and replica.
    duration:
        Stall length, counted in routing decisions for the shard.
    factor:
        Slow-down multiplier applied to the replica's effective load.
    """

    at_op: int
    action: str
    sid: int
    rid: int
    duration: int = 4
    factor: float = 4.0

    def __post_init__(self) -> None:
        if self.action not in FAULT_ACTIONS:
            raise ConfigurationError(
                f"unknown fault action {self.action!r}; "
                f"expected one of {FAULT_ACTIONS}"
            )
        if self.at_op < 1:
            raise ConfigurationError(
                f"fault at_op must be >= 1, got {self.at_op}"
            )
        if self.duration < 0:
            raise ConfigurationError(
                f"fault duration must be >= 0, got {self.duration}"
            )
        if self.factor < 1.0:
            raise ConfigurationError(
                f"fault factor must be >= 1.0, got {self.factor}"
            )


class FaultInjector:
    """A deterministic failure schedule, ticked once per engine operation.

    The injector is pure clockwork: :meth:`advance` ticks the operation
    counter and returns the faults whose ``at_op`` has arrived.  It
    never touches the engine itself — the engine applies the returned
    faults — so the schedule is inspectable (:attr:`schedule`), the
    same instance replays identically after :meth:`reset`, and
    :meth:`random` builds the same schedule for the same seed.
    """

    def __init__(self, faults: Sequence[Fault] = ()) -> None:
        self._faults: tuple[Fault, ...] = tuple(
            sorted(faults, key=lambda f: f.at_op)
        )
        self._ops = 0
        self._cursor = 0

    @classmethod
    def random(
        cls,
        seed: int,
        n_faults: int,
        n_shards: int,
        replication: int,
        max_op: int,
        actions: Sequence[str] = FAULT_ACTIONS,
    ) -> FaultInjector:
        """A seed-driven schedule: same arguments, same faults, always."""
        if n_faults < 0:
            raise ConfigurationError(f"need n_faults >= 0, got {n_faults}")
        if max_op < 1:
            raise ConfigurationError(f"need max_op >= 1, got {max_op}")
        if n_shards < 1:
            raise ConfigurationError(f"need n_shards >= 1, got {n_shards}")
        if replication < 1:
            raise ConfigurationError(
                f"need replication >= 1, got {replication}"
            )
        if not actions:
            raise ConfigurationError("need at least one fault action")
        rng = np.random.default_rng(seed)
        faults = [
            Fault(
                at_op=int(rng.integers(1, max_op + 1)),
                action=str(rng.choice(list(actions))),
                sid=int(rng.integers(n_shards)),
                rid=int(rng.integers(replication)),
                duration=int(rng.integers(1, 9)),
                factor=float(rng.uniform(2.0, 8.0)),
            )
            for _ in range(n_faults)
        ]
        return cls(faults)

    @property
    def schedule(self) -> tuple[Fault, ...]:
        """The full fault schedule, ordered by firing op."""
        return self._faults

    @property
    def ops_seen(self) -> int:
        """Operations ticked so far."""
        return self._ops

    @property
    def exhausted(self) -> bool:
        """Whether every scheduled fault has fired."""
        return self._cursor >= len(self._faults)

    def advance(self) -> list[Fault]:
        """Advance the op clock by one; return the faults due now."""
        self._ops += 1
        due: list[Fault] = []
        while (
            self._cursor < len(self._faults)
            and self._faults[self._cursor].at_op <= self._ops
        ):
            due.append(self._faults[self._cursor])
            self._cursor += 1
        return due

    def reset(self) -> None:
        """Rewind the clock so the same schedule replays from op 1."""
        self._ops = 0
        self._cursor = 0

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"FaultInjector(n_faults={len(self._faults)}, ops={self._ops})"
        )


class ShardReplica:
    """One replica of a shard: a private store+index plus health state.

    ``state`` is ``"live"`` or ``"dead"``; stall and slow are routing
    modifiers on a live replica, not states of their own (a stalled
    replica still applies writes, a slowed one still serves — just
    later in the least-loaded order).
    """

    __slots__ = (
        "rid",
        "store",
        "index",
        "state",
        "reads_served",
        "stall_remaining",
        "slow_factor",
    )

    def __init__(self, rid: int, store: BoxStore, index: SpatialIndex) -> None:
        self.rid = rid
        self.store = store
        self.index = index
        self.state = "live"
        #: Read batches this replica served (the load measure routing
        #: minimizes; frozen while dead — the no-dead-reads invariant).
        self.reads_served = 0
        #: Routing decisions this replica still sits out (stall fault).
        self.stall_remaining = 0
        #: Synthetic load multiplier (slow fault; 1.0 = healthy).
        self.slow_factor = 1.0

    @property
    def alive(self) -> bool:
        return self.state == "live"

    def effective_load(self) -> float:
        """Reads served, scaled by the slow penalty (routing key)."""
        return (self.reads_served + 1) * self.slow_factor

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"ShardReplica(rid={self.rid}, state={self.state!r}, "
            f"reads={self.reads_served})"
        )


def build_replica(
    factory: IndexFactory, rid: int, store: BoxStore, via_insert: bool = False
) -> ShardReplica:
    """Build one replica over ``store``, which the replica then owns.

    The single spelling of "factory, contract check, build" that engine
    build, shard rebuild and ledger-replay recovery all go through.
    With ``via_insert`` a mutable factory starts empty and takes the
    rows through its own insert/flush path: a large batch then lands as
    an STR bulk-loaded, already-refined run (``bulk_flush_threshold``)
    instead of one coarse slice, so queries after a rebuild do not
    re-crack the shard from scratch on the serving path.
    """
    rows: BoxStore | None = None
    if via_insert:
        empty = np.empty((0, store.ndim), dtype=np.float64)
        rows, store = store, BoxStore(empty, empty.copy())
    index = factory(store)
    if index.store is not store:
        raise ConfigurationError(
            "index_factory must build the index over the shard store "
            "it was given"
        )
    if rows is None:
        index.build()
    elif not isinstance(index, MutableSpatialIndex):
        # The cheap empty-store probe only told us the factory is
        # immutable; build the real index over the populated store.
        return build_replica(factory, rid, rows)
    else:
        index.build()
        if rows.n:
            index.insert(rows.lo, rows.hi, rows.ids)
            index.flush_updates()
    return ShardReplica(rid, store, index)
