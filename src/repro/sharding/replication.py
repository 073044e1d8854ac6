"""Replicas and faults: the parts a shard's fault tolerance is made of.

Replication here buys *availability*, not throughput.  LiLIS's framing
— serving a hot tile from R independent replicas divides the traffic
splitting cannot — holds across machines; inside one thread a QUASII
reader is a writer, so spreading a shard's reads over R copies makes
every copy pay the cracking bill (measured at 1M boxes, docs/BENCH.md:
R = 2 cracked 1.6x as much as R = 1 and served 0.7-0.97x as fast).  So
the primary serves and the other replicas are standbys: they take every
write, and one of them takes over when the primary dies.  Every
:class:`~repro.sharding.shard.Shard` owns ``R >= 1`` replicas (the
ledger-first write stream, failover and ledger-replay recovery live
there) and :class:`~repro.sharding.sharded_index.ShardedIndex` owns the
fault seam.  This module holds the components both are built from:

* :class:`ShardReplica` / :func:`build_replica` — one replica is a
  private :class:`~repro.datasets.store.BoxStore` plus its own index
  (only the primary answers reads, so only it cracks: physical layouts
  diverge while the live ``(id, box)`` multisets stay identical) plus
  health state; :func:`build_replica` is the one way a replica comes to
  exist, at build, rebuild and recovery alike.
* :class:`Fault` / :class:`FaultInjector` — a deterministic,
  seed-driven failure schedule: kill a chosen replica at a chosen
  operation count.  It is ticked on the engine's routing path
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
FAULT_ACTIONS = ("kill",)


@dataclass(frozen=True)
class Fault:
    """One scheduled failure: *what* happens to *which* replica *when*.

    Attributes
    ----------
    at_op:
        Global engine operation count (queries + updates, 1-based) at
        which the fault fires.
    action:
        ``"kill"``: dead until recovered.
    sid / rid:
        Target shard and replica.
    """

    at_op: int
    action: str
    sid: int
    rid: int

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
        rng = np.random.default_rng(seed)
        faults = [
            Fault(
                at_op=int(rng.integers(1, max_op + 1)),
                action="kill",
                sid=int(rng.integers(n_shards)),
                rid=int(rng.integers(replication)),
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

    ``state`` is ``"live"`` or ``"dead"``.
    """

    __slots__ = ("rid", "store", "index", "state")

    def __init__(self, rid: int, store: BoxStore, index: SpatialIndex) -> None:
        self.rid = rid
        self.store = store
        self.index = index
        self.state = "live"

    @property
    def alive(self) -> bool:
        return self.state == "live"

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"ShardReplica(rid={self.rid}, state={self.state!r})"


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
