"""The update subsystem: mutable stores under mixed read/write workloads.

The paper evaluates QUASII on a static data array and explicitly leaves
updates as future work (Section 7).  This package closes that gap for the
reproduction:

* :class:`UpdateBuffer` — columnar staging area for pending inserts with
  pre-reserved identifiers; lazy-merging indexes (QUASII) drain it into
  the store as an appended run on the next query.
* :class:`UpdateLedger` — the executable form of the store's
  multiset-of-live-rows invariant, for tests and verification.
* :func:`run_mixed_workload` / :class:`MixedRunResult` — per-op-timed
  execution of interleaved query/insert/delete streams
  (:func:`repro.queries.workloads.mixed_workload`), with deterministic
  delete-victim resolution so Scan can serve as the correctness oracle;
  a :class:`~repro.sharding.maintenance.MaintenancePolicy` can ride
  along to run compaction/rebalancing between operations.
  :func:`apply_write` is its write step (resolve victims → timed engine
  call → live-set update), shared with the soak loop.

The write verbs themselves live on the indexes
(:class:`repro.index.base.MutableSpatialIndex`): QUASII cracks appended
runs exactly like unrefined slices, the grid and R-Tree take direct
insert paths, and every index inherits tombstone deletes from the store.
"""

from repro.updates.buffer import UpdateBuffer
from repro.updates.executor import (
    MixedRunResult,
    OpTiming,
    apply_write,
    resolve_delete_victims,
    run_mixed_workload,
)
from repro.updates.ledger import UpdateLedger

__all__ = [
    "MixedRunResult",
    "OpTiming",
    "UpdateBuffer",
    "UpdateLedger",
    "apply_write",
    "resolve_delete_victims",
    "run_mixed_workload",
]
