"""Smoke test of the ledger benchmark at the ``tiny`` preset (20k boxes).

Runs every workload in-process, untraced and traced, and checks what the
full-scale numbers rely on: the output schema, correctness against the
oracle, the workload contrasts, exact repeat of every count, seed-driven
inputs, and a clean shared-memory namespace afterwards.  One workload is
also run the way the driver runs it, as a script, to check that no
process of its own outlives it.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from ledger.run import END_TO_END, PER_LAYER, run_workload
from ledger.workloads import SCALES, WORKLOADS

TINY = SCALES["tiny"]
UNSHARDED = ("explore-cold", "converged-batch", "mixed-churn")


def _shm_names() -> set[str]:
    return set(os.listdir("/dev/shm")) if os.path.isdir("/dev/shm") else set()


@pytest.fixture(scope="module")
def runs():
    before = _shm_names()
    out = {
        "untraced": {
            name: run_workload(name, 8, TINY, 0.0, trace=False)
            for name in WORKLOADS
        },
        "traced": [
            {
                name: run_workload(name, 7, TINY, 0.0, trace=True)
                for name in WORKLOADS
            }
            for _ in range(2)
        ],
    }
    out["leaked"] = _shm_names() - before
    return out


def test_five_workloads_by_name():
    assert list(WORKLOADS) == [
        "explore-cold", "converged-batch", "sharded-serve",
        "mixed-churn", "sharded-churn",
    ]


def test_untraced_runs_report_every_end_to_end_metric(runs):
    for name, result in runs["untraced"].items():
        assert result["correct"] and result["failed"] == 0, name
        assert result["attempted"] >= 1
        assert set(result["metrics"]) == set(END_TO_END), name
        assert all(value > 0 for value in result["metrics"].values()), name


def test_traced_runs_report_every_layer_metric(runs):
    for name, result in runs["traced"][0].items():
        assert result["correct"] and result["failed"] == 0, name
        assert set(result["metrics"]) == set(PER_LAYER), name
        assert os.path.exists(result["trace_file"]), name


def test_workload_contrasts(runs):
    traced = {name: r["metrics"] for name, r in runs["traced"][0].items()}
    assert traced["converged-batch"]["core.crack.calls"] == 0
    assert traced["explore-cold"]["core.crack.calls"] > 0
    assert traced["sharded-serve"]["parallel.publish.calls"] == 0
    assert traced["sharded-churn"]["parallel.publish.calls"] > 0
    for name in UNSHARDED:
        for metric, value in traced[name].items():
            # The maintenance scheduler lives in repro.sharding but
            # serves plain indexes too: mixed-churn ticks it.
            if metric.startswith("sharding.maintenance."):
                continue
            if metric.startswith(("sharding.", "parallel.", "telemetry.")):
                assert value == 0, (name, metric)
    assert traced["sharded-serve"]["sharding.route.busy_s"] > 0
    assert traced["sharded-serve"]["parallel.pool.wait_s"] > 0
    assert traced["mixed-churn"]["updates.merges"] > 0


def test_counts_repeat_exactly_for_a_seed(runs):
    first, second = runs["traced"]
    counts = [name for name, spec in PER_LAYER.items() if spec["unit"] == "count"]
    for name in WORKLOADS:
        assert first[name]["digest"] == second[name]["digest"]
        for metric in counts:
            assert (
                first[name]["metrics"][metric] == second[name]["metrics"][metric]
            ), (name, metric)


def test_inputs_follow_the_seed(runs):
    for name in WORKLOADS:
        assert (
            runs["untraced"][name]["digest"] != runs["traced"][0][name]["digest"]
        )


def test_no_shared_memory_left_behind(runs):
    assert not runs["leaked"]


def _session_pids(sid: int) -> list[str]:
    """Live (non-zombie) processes whose session id is ``sid``."""
    pids = []
    for pid in filter(str.isdigit, os.listdir("/proc")):
        try:
            stat = Path(f"/proc/{pid}/stat").read_text()
        except OSError:
            continue
        state, _ppid, _pgrp, session = stat.rsplit(")", 1)[1].split()[:4]
        if int(session) == sid and state != "Z":
            pids.append(pid)
    return pids


@pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="needs /proc")
def test_script_run_leaves_no_process_behind():
    child = subprocess.Popen(
        [
            sys.executable, str(Path(__file__).with_name("run.py")),
            "--workload", "sharded-serve", "--seed", "8", "--seconds", "0",
            "--trace", "0", "--scale", "tiny",
        ],
        stdout=subprocess.PIPE, text=True, start_new_session=True,
    )
    out, _ = child.communicate()
    # Looked at right away: the resource tracker, left alone, is still
    # there for a moment after its parent has gone.
    assert _session_pids(child.pid) == []
    assert child.returncode == 0
    assert json.loads(out.splitlines()[-1])["correct"]
