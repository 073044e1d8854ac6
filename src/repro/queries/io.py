"""Workload persistence: save/replay exact query sequences.

The paper's evaluation depends on *sequences* (convergence is a property
of the order queries arrive in), so reproducibility requires replaying the
exact same workload.  Generators are seeded, but persisting the queries
also guards against generator evolution across versions.

Format version 2 stores everything a :class:`~repro.queries.query.Query`
carries (window, predicate, mode, top-k limit, sequence number).  A
version-1 archive holds windows and sequence numbers only and loads as
intersects/ids queries — the defaults it was written under.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from repro.errors import QueryError
from repro.geometry.box import Box
from repro.queries.query import Query

_FORMAT_VERSION = 2


def save_workload(queries: list[Query], path: str | Path) -> Path:
    """Write a query sequence to ``path`` (``.npz`` appended if missing)."""
    if not queries:
        raise QueryError("cannot save an empty workload")
    path = Path(path)
    if path.suffix != ".npz":
        path = path.with_suffix(".npz")
    np.savez_compressed(
        path,
        version=np.int64(_FORMAT_VERSION),
        lo=np.array([q.window.lo for q in queries], dtype=np.float64),
        hi=np.array([q.window.hi for q in queries], dtype=np.float64),
        seq=np.array([q.seq for q in queries], dtype=np.int64),
        predicate=np.array([q.predicate for q in queries], dtype=np.str_),
        mode=np.array([q.mode for q in queries], dtype=np.str_),
        # 0 encodes "no limit": Query itself rejects k < 1.
        k=np.array([q.k or 0 for q in queries], dtype=np.int64),
    )
    return path


def load_workload(path: str | Path) -> list[Query]:
    """Read a query sequence written by :func:`save_workload`."""
    path = Path(path)
    if not path.exists():
        raise QueryError(f"workload file not found: {path}")
    with np.load(path, allow_pickle=False) as archive:
        try:
            version = int(archive["version"])
            if version not in (1, _FORMAT_VERSION):
                raise QueryError(
                    f"unsupported workload format version {version} "
                    f"(this build reads versions 1 and {_FORMAT_VERSION})"
                )
            lo, hi, seqs = archive["lo"], archive["hi"], archive["seq"]
            n = lo.shape[0]
            if version == 1:
                predicates = np.array(["intersects"] * n, dtype=np.str_)
                modes = np.array(["ids"] * n, dtype=np.str_)
                ks = np.zeros(n, dtype=np.int64)
            else:
                predicates = archive["predicate"]
                modes = archive["mode"]
                ks = archive["k"]
        except KeyError as exc:
            raise QueryError(f"{path} is not a repro workload archive") from exc
    return [
        Query(
            Box(tuple(lo[i]), tuple(hi[i])),
            predicate=str(predicates[i]),
            mode=str(modes[i]),
            k=int(ks[i]) or None,
            seq=int(seqs[i]),
        )
        for i in range(n)
    ]
