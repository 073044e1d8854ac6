"""Integration: the chaos soak serves correctly while workers die.

Runs the real soak harness (``soak_experiment(..., chaos=True)``) at
tiny scale: the engine serves through the ``processes`` backend under
drifting-hotspot traffic while a worker process is SIGKILLed every
``chaos_every`` ops.  The acceptance criteria: workers were actually
killed and actually respawned, zero wrong results against the Scan
oracle, no shared-memory segment outlives the run, and the report still
satisfies the persisted-results schema.
"""

from __future__ import annotations

import os

from repro.bench.experiments import Scale, run_experiment
from repro.bench.reporting import to_json_dict, validate_bench_json
from repro.bench.soak import SoakScale

#: Tiny but chaotic: kills every 25 ops over a ~1.2 s soak.
TINY_CHAOS = Scale(
    name="tiny-chaos",
    neuro_n=2_500,
    uniform_n=2_500,
    soak=SoakScale(
        n_objects=2_500, seconds=1.2, window=0.2, ops=200, delete_batch=150,
        chaos_every=25,
    ),
)


def _segments() -> set[str]:
    return {n for n in os.listdir("/dev/shm") if n.startswith("psm_")}


def test_chaos_soak_serves_zero_wrong_results():
    before = _segments()
    report = run_experiment("soak", TINY_CHAOS, chaos=True)
    chaos = report.metrics["chaos"]
    assert chaos["enabled"] is True
    assert chaos["kills"] >= 1, "the chaos soak never killed a worker"
    assert chaos["respawns"] >= 1, "the pool never respawned a killed worker"
    # Every executed query was verified against the Scan oracle.
    assert chaos["verified_queries"] > 0
    assert chaos["mismatches"] == 0, (
        f"{chaos['mismatches']} of {chaos['verified_queries']} queries "
        "returned wrong results under chaos"
    )
    assert _segments() <= before, "a respawn republish leaked a segment"
    # The chaos run still satisfies the persisted-results schema.
    assert validate_bench_json(to_json_dict(report, "tiny", 1.0)) == []


def test_plain_soak_reports_chaos_disabled():
    report = run_experiment("soak", TINY_CHAOS)
    chaos = report.metrics["chaos"]
    assert chaos["enabled"] is False
    assert chaos["kills"] == chaos["respawns"] == 0
    assert chaos["verified_queries"] == 0
