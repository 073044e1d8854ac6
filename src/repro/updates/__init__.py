"""The update subsystem: mutable stores under mixed read/write workloads.

The paper evaluates QUASII on a static data array and explicitly leaves
updates as future work (Section 7).  This package closes that gap for the
reproduction:

* :class:`UpdateBuffer` — columnar staging area for pending inserts with
  pre-reserved identifiers; lazy-merging indexes (QUASII) drain it into
  the store as an appended run on the next query.
* :class:`UpdateLedger` — the executable form of the store's
  multiset-of-live-rows invariant, for tests and verification.
* :func:`apply_write` — the write step of an op stream (resolve delete
  victims deterministically → timed engine call → live-set update),
  shared by :func:`repro.bench.runner.run_workload` and the soak loop.

The write verbs themselves live on the indexes
(:class:`repro.index.base.MutableSpatialIndex`): QUASII cracks appended
runs exactly like unrefined slices, Scan appends, and both inherit
tombstone deletes from the store.  The paper's other baselines are
static.
"""

from repro.updates.buffer import UpdateBuffer
from repro.updates.executor import apply_write, resolve_delete_victims
from repro.updates.ledger import UpdateLedger

__all__ = [
    "UpdateBuffer",
    "UpdateLedger",
    "apply_write",
    "resolve_delete_victims",
]
