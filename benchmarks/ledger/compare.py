"""Compare two sets of benchmark runs, metric by metric.

    python3 benchmarks/ledger/compare.py A.json B.json

``A.json`` and ``B.json`` are what ``run.py --json`` writes (``A`` is the
base, e.g. the parent commit).  One row per (workload, end-to-end
metric): both medians, the ratio B/A, the bound from ``BENCHMARK.json``
and a verdict:

* ``worse``      B's median is worse than A's by more than the bound;
* ``unresolved`` either side's own runs spread (quartile distance over
  median) wider than the bound, so the bound cannot be tested;
* ``ok``         otherwise.

Per-layer metrics counted in ``count`` must be equal when both files
hold them.  Exits 1 on any ``worse`` row or differing count.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from statistics import median, quantiles

SPEC = json.loads(
    (Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text()
)


def spread(values: list[float]) -> float | None:
    """Quartile distance over the median; None below four runs."""
    if len(values) < 4 or not median(values):
        return None
    q1, _, q3 = quantiles(values, n=4)
    return (q3 - q1) / abs(median(values))


def verdict(a: list[float], b: list[float], better: str, bound: float) -> str:
    spreads = [s for s in (spread(a), spread(b)) if s is not None]
    if spreads and max(spreads) > bound:
        return "unresolved"
    base, new = median(a), median(b)
    loss = (new - base) / base if better == "lower" else (base - new) / base
    return "worse" if loss > bound else "ok"


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__)
        return 2
    a, b = (json.loads(Path(path).read_text()) for path in argv)
    bad = 0
    print(f"{'workload':16s} {'metric':14s} {'A':>12s} {'B':>12s} {'B/A':>7s} "
          f"{'bound':>6s}  verdict")
    for workload, metrics in a["end_to_end"].items():
        for spec in SPEC["end_to_end"]:
            name = spec["name"]
            va, vb = metrics[name], b["end_to_end"][workload][name]
            result = verdict(va, vb, spec["better"], spec["bound"])
            bad += result == "worse"
            print(
                f"{workload:16s} {name:14s} {median(va):12.5g} {median(vb):12.5g} "
                f"{median(vb) / median(va):7.3f} {spec['bound']:6.2f}  {result} "
                f"({spec['unit']}, {spec['better']} is better, A is the base)"
            )
    counts = [m["name"] for m in SPEC["per_layer"] if m["unit"] == "count"]
    for workload, metrics in a.get("per_layer", {}).items():
        other = b.get("per_layer", {}).get(workload)
        for name in counts if other else ():
            if set(metrics[name]) != set(other[name]):
                bad += 1
                print(f"{workload:16s} {name}: count differs, "
                      f"{metrics[name]} vs {other[name]}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
