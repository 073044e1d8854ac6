"""Process-parallel shard serving over shared-memory stores.

A QUASII query reorganizes the store it reads, so an index is never
shared across a thread pool — and the GIL would cap one at interleaving
anyway: the adaptive cracking that makes QUASII fast is pure Python.
This package overlaps shard work the only way left, by moving shard
serving into real OS processes without paying data movement:

* :mod:`~repro.parallel.shm` — shard rows as shared-memory *segments*
  (a base per shard, a small delta per write), with
  :class:`~repro.parallel.shm.SharedStoreView` giving workers a
  zero-copy :class:`~repro.datasets.store.BoxStore` over the mapping.
* :mod:`~repro.parallel.wire` — compact numpy wire structures for the
  query/result round trip (per-shard sub-batches are the dispatch
  unit, exactly as in the in-thread server).
* :mod:`~repro.parallel.worker` — the worker loop: attach a base, keep
  a warm local index, absorb deltas into it, serve, report telemetry.
* :mod:`~repro.parallel.pool` — the driver:
  :class:`~repro.parallel.pool.ProcessPool` owns segment lifecycle
  (a base on first touch, shard deltas afterwards), worker lifecycle
  (spawn, crash-respawn, shutdown), and the telemetry fold-back.

The user-facing switch is the executor seam:
``QueryExecutor(engine, backend="processes")`` (or
``QUASII_EXECUTOR_BACKEND=processes``); everything here is machinery
behind it.
"""

from repro.parallel.pool import ProcessPool
from repro.parallel.shm import (
    SegmentSpec,
    ShardDelta,
    ShardSegment,
    SharedStoreView,
    attach_segment,
    publish_delta,
    publish_segment,
    segment_nbytes,
)
from repro.parallel.wire import (
    QueryBatchWire,
    ResultBatchWire,
    decode_queries,
    decode_results,
    encode_queries,
    encode_results,
)
from repro.parallel.worker import (
    PipeEndpoint,
    ProcessShardWorker,
    worker_main,
)

__all__ = [
    "PipeEndpoint",
    "ProcessPool",
    "ProcessShardWorker",
    "QueryBatchWire",
    "ResultBatchWire",
    "SegmentSpec",
    "ShardDelta",
    "ShardSegment",
    "SharedStoreView",
    "attach_segment",
    "decode_queries",
    "decode_results",
    "encode_queries",
    "encode_results",
    "publish_delta",
    "publish_segment",
    "segment_nbytes",
    "worker_main",
]
