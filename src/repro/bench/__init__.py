"""Benchmark harness: regenerates every figure of the paper's evaluation."""

from repro.bench.experiments import EXPERIMENTS, SCALES, Scale, run_experiment
from repro.bench.metrics import (
    break_even_query,
    converged_slowdown,
    cumulative_ratio,
    data_to_insight_factor,
    speedup_tail,
)
from repro.bench.reporting import (
    BENCH_SCHEMA,
    ExperimentReport,
    to_json_dict,
    validate_bench_json,
    write_bench_json,
)
from repro.bench.runner import OpTiming, RunResult, run_workload
from repro.bench.soak import SoakScale, soak_experiment

__all__ = [
    "BENCH_SCHEMA",
    "EXPERIMENTS",
    "ExperimentReport",
    "OpTiming",
    "RunResult",
    "SCALES",
    "Scale",
    "SoakScale",
    "break_even_query",
    "converged_slowdown",
    "cumulative_ratio",
    "data_to_insight_factor",
    "run_experiment",
    "run_workload",
    "soak_experiment",
    "speedup_tail",
    "to_json_dict",
    "validate_bench_json",
    "write_bench_json",
]
