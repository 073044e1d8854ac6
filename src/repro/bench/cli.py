"""Command-line entry point: ``quasii-bench`` / ``python -m repro.bench``.

Examples::

    quasii-bench headline                 # the paper's headline numbers
    quasii-bench fig7 fig8 --scale smoke  # quick versions of two figures
    quasii-bench query-api                # batch vs loop, predicates, count-only
    quasii-bench shard-scaling            # sharded serving engine sweep
    quasii-bench mixed-workload           # update subsystem, incl. sharded
    quasii-bench compaction               # reclaim tombstoned rows: before/after
    quasii-bench rebalance                # shard rebalancing vs static STR
    quasii-bench soak --smoke             # latency-over-time serving soak
    quasii-bench soak --smoke --serve-metrics 9464  # + live /metrics endpoint
    quasii-bench soak --smoke --chaos     # + replica kills, oracle-verified
    quasii-bench replication --smoke      # replicated serving + mid-run kill
    quasii-bench report                   # trajectory from saved BENCH_*.json
    quasii-bench diff --json-out bench-results      # regression gate vs baseline
    quasii-bench all --scale small        # every figure at default scale

Every run persists its result as ``BENCH_<verb>.json`` (schema
``repro-bench/1``; see docs/OBSERVABILITY.md) into ``--json-out``,
which defaults to the repository root — so each bench invocation leaves
a perf-trajectory data point the ``report`` verb (and the next reader)
can pick up.  Experiment ids, their tables, and the meaning of each
reported metric are documented in docs/BENCH.md.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

from repro.bench.experiments import EXPERIMENTS, SCALES, run_experiment
from repro.bench.regression import DEFAULT_TOLERANCE, run_diff
from repro.bench.reporting import (
    load_bench_files,
    render_trajectory,
    validate_bench_json,
    write_bench_json,
)

#: CLI verbs that are not experiments (check_docs allows these in the
#: BENCH.md verb table alongside EXPERIMENTS and SCALES).
EXTRA_VERBS: dict[str, str] = {
    "report": "render a perf-trajectory summary from saved BENCH_*.json files",
    "diff": (
        "compare headline metrics in --json-out against a baseline "
        "directory; non-zero exit on regression past --tolerance"
    ),
}


def default_json_dir() -> Path:
    """The repository root (nearest ancestor with a pyproject.toml).

    Falls back to the current directory when run outside a checkout
    (e.g. from an installed wheel).
    """
    here = Path.cwd().resolve()
    for candidate in (here, *here.parents):
        if (candidate / "pyproject.toml").is_file():
            return candidate
    return here


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
            "experiment ids ('all' for everything, 'report' for a "
            "trajectory summary of saved results): "
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
            "directory for persisted BENCH_<verb>.json results "
            "(default: the repository root)"
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
            "scale.soak_chaos_every ops (self-healing by ledger replay), "
            "and verify every query against a Scan oracle"
        ),
    )
    diff_group = parser.add_argument_group("diff verb")
    diff_group.add_argument(
        "--baseline",
        default=None,
        metavar="DIR",
        help=(
            "baseline directory of BENCH_*.json files for 'diff' "
            "(default: the repository root — the committed trajectory)"
        ),
    )
    diff_group.add_argument(
        "--tolerance",
        type=float,
        default=DEFAULT_TOLERANCE,
        help=(
            "relative headline-metric regression that counts as a breach "
            f"(default: {DEFAULT_TOLERANCE})"
        ),
    )
    diff_group.add_argument(
        "--noise-floor",
        type=float,
        default=1.0,
        metavar="SCALE",
        help=(
            "multiplier on the per-metric absolute noise floors "
            "(0 disables absolute gating; default: 1.0)"
        ),
    )
    diff_group.add_argument(
        "--warn-only",
        action="store_true",
        help="print the drift table but exit 0 even on breaches",
    )
    diff_group.add_argument(
        "--drift-out",
        default=None,
        metavar="FILE",
        help="also write the rendered drift table to this file",
    )
    return parser


def run_report_verb(json_dir: Path) -> int:
    """Validate and summarize every ``BENCH_*.json`` in ``json_dir``.

    Prints the trajectory summary; returns 1 when any file fails schema
    validation (CI uses this as the gate), 0 otherwise.
    """
    loaded = load_bench_files(json_dir)
    invalid = 0
    docs = []
    for path, doc in loaded:
        problems = (
            [doc] if isinstance(doc, str) else validate_bench_json(doc)
        )
        if problems:
            invalid += 1
            for problem in problems:
                print(f"{path.name}: {problem}", file=sys.stderr)
        else:
            docs.append(doc)
    print(render_trajectory(docs))
    if invalid:
        print(
            f"report: {invalid} of {len(loaded)} result file(s) failed "
            "schema validation",
            file=sys.stderr,
        )
        return 1
    print(f"[report over {len(docs)} result file(s) in {json_dir}]")
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    scale = "smoke" if args.smoke else args.scale
    requested = list(args.experiments)
    want_report = "report" in requested
    want_diff = "diff" in requested
    requested = [n for n in requested if n not in EXTRA_VERBS]
    names = list(EXPERIMENTS) if "all" in requested else requested
    unknown = [n for n in names if n not in EXPERIMENTS]
    if unknown:
        print(f"unknown experiment(s): {', '.join(unknown)}", file=sys.stderr)
        print(
            "available: "
            + ", ".join(sorted([*EXPERIMENTS, *EXTRA_VERBS])),
            file=sys.stderr,
        )
        return 2
    json_dir = (
        Path(args.json_out) if args.json_out else default_json_dir()
    )
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
        json_path = write_bench_json(report, json_dir, scale, elapsed)
        print(
            f"[{name} completed in {elapsed:.1f}s at scale '{scale}' "
            f"-> {json_path}]\n"
        )
    if args.output:
        with open(args.output, "a", encoding="utf-8") as fh:
            fh.write("\n".join(chunks))
            fh.write("\n")
    status = 0
    if want_report:
        status = run_report_verb(json_dir)
    if want_diff:
        baseline_dir = (
            Path(args.baseline) if args.baseline else default_json_dir()
        )
        diff_status = run_diff(
            baseline_dir,
            json_dir,
            tolerance=args.tolerance,
            noise_scale=args.noise_floor,
            warn_only=args.warn_only,
            out_file=args.drift_out,
        )
        status = status or diff_status
    return status


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
