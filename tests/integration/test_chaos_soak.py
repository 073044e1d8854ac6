"""Integration: the chaos soak serves correctly while replicas die.

Runs the real soak harness (``soak_experiment(..., chaos=True)``) at
tiny scale: a replicated engine under drifting-hotspot traffic with
periodic replica kills and self-healing maintenance.  The acceptance
criteria from the replication tier: zero wrong results against the Scan
oracle, kills actually happened, recoveries actually happened, and the
canonical ``replica.*`` events were emitted.
"""

from __future__ import annotations

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


def test_chaos_soak_serves_zero_wrong_results():
    report = run_experiment("soak", TINY_CHAOS, chaos=True)
    chaos = report.metrics["chaos"]
    assert chaos["enabled"] is True
    assert chaos["replication"] == 2
    assert chaos["kills"] >= 1, "the chaos soak never killed a replica"
    assert chaos["recoveries"] >= 1, (
        "maintenance never healed a killed replica"
    )
    # Every executed query was verified against the Scan oracle.
    assert chaos["verified_queries"] > 0
    assert chaos["mismatches"] == 0, (
        f"{chaos['mismatches']} of {chaos['verified_queries']} queries "
        "returned wrong results under chaos"
    )
    # The canonical replica.* telemetry fired.
    assert chaos["replica_events"].get("replica.kill", 0) >= 1
    assert chaos["replica_events"].get("replica.recover", 0) >= 1
    # The chaos run still satisfies the persisted-results schema.
    assert validate_bench_json(to_json_dict(report, "tiny", 1.0)) == []


def test_plain_soak_reports_chaos_disabled():
    report = run_experiment("soak", TINY_CHAOS)
    chaos = report.metrics["chaos"]
    assert chaos["enabled"] is False
    assert chaos["kills"] == 0
    assert chaos["verified_queries"] == 0
