"""Command-line entry point: ``quasii-bench`` / ``python -m repro.bench``.

Examples::

    quasii-bench headline                 # the paper's headline numbers
    quasii-bench fig7 fig8 --scale smoke  # quick versions of two figures
    quasii-bench all --scale small        # every figure at default scale
    quasii-bench soak --smoke             # latency-over-time serving soak
    quasii-bench soak --smoke --serve-metrics 9464  # + live /metrics endpoint
    quasii-bench soak --smoke --chaos     # + replica kills, oracle-verified
    quasii-bench soak --json-out results  # also persist BENCH_soak.json

Reports print to stdout.  With ``--json-out DIR`` each run is also
persisted as ``DIR/BENCH_<verb>.json`` (schema ``repro-bench/1``; see
docs/OBSERVABILITY.md); without it nothing is written.  Experiment ids,
their tables, and the meaning of each reported metric are documented in
docs/BENCH.md — which also says where the serving engine's throughput
and latency are measured (``benchmarks/ledger/``, not here).
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

from repro.bench.experiments import EXPERIMENTS, SCALES, run_experiment
from repro.bench.reporting import write_bench_json


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quasii-bench",
        description=(
            "Regenerate the tables/figures of 'QUASII: QUery-Aware Spatial "
            "Incremental Index' (EDBT 2018) on scaled-down workloads."
        ),
    )
    parser.add_argument(
        "experiments",
        nargs="+",
        help=(
            "experiment ids ('all' for everything): "
            + ", ".join(sorted(EXPERIMENTS))
        ),
    )
    parser.add_argument(
        "--scale",
        default="small",
        choices=sorted(SCALES),
        help="workload size preset (default: small)",
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="shorthand for --scale smoke",
    )
    parser.add_argument(
        "--output",
        default=None,
        help="also append the rendered reports to this file",
    )
    parser.add_argument(
        "--json-out",
        default=None,
        metavar="DIR",
        help=(
            "also persist each run as DIR/BENCH_<verb>.json "
            "(default: nothing is written)"
        ),
    )
    parser.add_argument(
        "--serve-metrics",
        type=int,
        default=None,
        metavar="PORT",
        help=(
            "soak only: serve live /metrics, /snapshot.json, /spans, "
            "/events, /healthz on this port for the duration of the run "
            "(0 = ephemeral)"
        ),
    )
    parser.add_argument(
        "--chaos",
        action="store_true",
        help=(
            "soak only: serve from replicated shards, kill a replica every "
            "soak.chaos_every ops (self-healing by ledger replay), "
            "and verify every query against a Scan oracle"
        ),
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    scale = "smoke" if args.smoke else args.scale
    names = list(EXPERIMENTS) if "all" in args.experiments else args.experiments
    unknown = [n for n in names if n not in EXPERIMENTS]
    if unknown:
        print(f"unknown experiment(s): {', '.join(unknown)}", file=sys.stderr)
        print("available: " + ", ".join(sorted(EXPERIMENTS)), file=sys.stderr)
        return 2
    json_dir = Path(args.json_out) if args.json_out else None
    if json_dir is not None:
        json_dir.mkdir(parents=True, exist_ok=True)
    chunks: list[str] = []
    for name in names:
        # Per-verb extras ride through run_experiment's kwargs; only the
        # soak knows how to serve live metrics mid-run or inject chaos.
        kwargs: dict = {}
        if name == "soak":
            if args.serve_metrics is not None:
                kwargs["serve_metrics"] = args.serve_metrics
            if args.chaos:
                kwargs["chaos"] = True
        t0 = time.perf_counter()
        report = run_experiment(name, scale, **kwargs)
        elapsed = time.perf_counter() - t0
        text = report.render()
        chunks.append(text)
        print(text)
        done = f"[{name} completed in {elapsed:.1f}s at scale '{scale}'"
        if json_dir is not None:
            done += f" -> {write_bench_json(report, json_dir, scale, elapsed)}"
        print(done + "]\n")
    if args.output:
        with open(args.output, "a", encoding="utf-8") as fh:
            fh.write("\n".join(chunks))
            fh.write("\n")
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
