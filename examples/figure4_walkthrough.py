#!/usr/bin/env python3
"""The paper's Figure 4, step by step, on a 2-d toy dataset.

Ten small rectangles, the handcrafted thresholds τx = 4, τy = 2, and two
range queries.  After each query the physical data-array order and the
slice hierarchy are printed, mirroring the three rows of the paper's
Figure 4 sub-figures.

Run:  python examples/figure4_walkthrough.py
"""

from __future__ import annotations

import numpy as np

from repro.core import QuasiiConfig, QuasiiIndex
from repro.datasets import BoxStore
from repro.geometry import Box
from repro.queries import Query

EXTENT = 0.3

# Lower corners of objects o0..o9 (our coordinates; the figure's are not
# published, but the slice populations below match it).
LOWER = {
    0: (6.5, 3.0),
    1: (7.5, 7.0),
    2: (1.0, 5.0),
    3: (9.0, 0.5),
    4: (2.6, 4.5),
    5: (4.5, 1.5),
    6: (3.8, 5.5),
    7: (2.2, 1.0),
    8: (5.0, 6.5),
    9: (3.0, 2.5),
}


def show(title: str, store: BoxStore, index: QuasiiIndex) -> None:
    print(f"--- {title}")
    order = " ".join(f"o{store.id_at(i)}" for i in range(store.n))
    print(f"data array: {order}")
    print(index.format_structure())
    print()


def main() -> None:
    lo = np.array([LOWER[i] for i in range(10)], dtype=np.float64)
    store = BoxStore(lo, lo + EXTENT)
    index = QuasiiIndex(store, QuasiiConfig(ndim=2, level_thresholds=(4, 2)))

    show("initial state (Figure 4a): one slice, arbitrary order", store, index)

    q1 = Query(Box((2.0, 4.0), (4.0, 6.0)), seq=0)
    hits = sorted(index.execute(q1).ids.tolist())
    print(f"q1 = x:[2,4] y:[4,6]  ->  result {{{', '.join(f'o{i}' for i in hits)}}}\n")
    show(
        "after q1 (Figure 4b+4c): three x-slices, middle one y-refined",
        store,
        index,
    )

    q2 = Query(Box((4.4, 0.5), (9.6, 3.5)), seq=1)
    hits = sorted(index.execute(q2).ids.tolist())
    print(f"q2 = x:[4.4,9.6] y:[0.5,3.5]  ->  result {{{', '.join(f'o{i}' for i in hits)}}}\n")
    show(
        "after q2 (Figure 4d): only the coarse right slice was refined",
        store,
        index,
    )

    index.validate_structure()
    print("structure invariants: OK")


if __name__ == "__main__":
    main()
