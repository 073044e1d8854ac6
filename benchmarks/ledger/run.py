"""Entry point of the layer-ledger benchmark.

One workload, as the regression driver calls it (the last stdout line is
the result object)::

    python3 benchmarks/ledger/run.py --workload explore-cold --seed 1 \
        --seconds 10 --trace 0

All five, each in a fresh child process, one after another::

    python3 benchmarks/ledger/run.py --seed 1 [--traced] [--repeat 5] [--json OUT]

Closed loop, one client.  A stream is cut into rounds of identical op
count; every rate, time and latency percentile is taken per round and the
median round is reported.  See README.md for the workloads and every metric.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import subprocess
import sys
import traceback
from collections import defaultdict
from multiprocessing import resource_tracker
from pathlib import Path
from statistics import median
from time import perf_counter
from typing import Any

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]

if __name__ == "__main__":
    # Run as a script: make ``ledger`` importable as a package (so its
    # trace.py cannot shadow the standard library's) and find the program.
    if not (ROOT / "src" / "repro").is_dir():
        sys.exit(f"ledger benchmark: no program to measure under {ROOT / 'src'}")
    sys.path[0] = str(HERE.parent)
    sys.path.insert(1, str(ROOT / "src"))
    from ledger.run import main

    sys.exit(main())

import numpy as np

from repro.sharding.executor import BatchResult

from . import trace as tracing
from .calibrate import REFERENCE_BURST_S, Calibrator
from .workloads import SCALES, WORKLOADS, Op, Scale, Workload

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m for m in SPEC["per_layer"]}

#: ``round`` tag of spans recorded during set-up.
SETUP = -1

#: The memory high-water mark is read after this many rounds: late enough
#: to hold set-up, steady-state structures, an absorb and a compaction,
#: early enough that every run has done the same work.  Read later it
#: creeps with the rows a longer stream inserts and with allocator luck
#: (317-355 MB on mixed-churn after four rounds, 266-267 MB after two).
RSS_ROUNDS = 2

#: IndexStats counters the ledger reads.
COUNTERS = (
    "cracks", "rows_reorganized", "nodes_visited", "objects_tested",
    "results_returned", "merges", "shards_visited", "shards_pruned",
)


def _ids_at(result: Any, j: int) -> np.ndarray:
    """Ids of query ``j`` of a read call's result, whatever its shape."""
    if isinstance(result, BatchResult):
        return result.results[j]
    if isinstance(result, list):
        return result[j].ids
    return result.ids


def _hash(digest: Any, arrays: list[np.ndarray]) -> None:
    for array in arrays:
        digest.update(memoryview(np.ascontiguousarray(array)).cast("B"))


def _verify(workload: Workload, ops: list[Op], samples: dict[int, list]) -> int:
    """Replay the round's writes into the oracle, checking sampled reads
    at the point of the stream where they ran; returns the mismatches."""
    oracle = workload.oracle
    wrong = 0
    for i, (kind, payload) in enumerate(ops):
        if kind == "insert":
            oracle.insert(*payload)
        elif kind == "delete":
            oracle.delete(payload)
        for query, ids in samples.get(i, ()):
            if not np.array_equal(np.sort(ids), oracle.query(query.lo, query.hi)):
                wrong += 1
    return wrong


def _run_round(
    workload: Workload, ops: list[Op], tracer: tracing.Tracer | None
) -> dict[str, Any]:
    """One timed round; oracle samples are only stashed here."""
    every = workload.scale.oracle_every
    traced = tracer is not None and tracer.enabled
    reads: list[float] = []
    writes: list[float] = []
    samples: dict[int, list] = defaultdict(list)
    phases: dict[str, float] = defaultdict(float)
    skews: list[float] = []
    n_queries = failed = pending_peak = 0
    dead_peak = 0.0
    t_round = perf_counter()
    for i, op in enumerate(ops):
        kind, payload = op
        if tracer is not None:
            tracer.op_id += 1
        t0 = perf_counter()
        try:
            result = workload.apply(op)
            seconds = perf_counter() - t0
            workload.after_op()
        except Exception:  # the benchmark must report a failing op, not die
            failed += 1
            if failed == 1:
                traceback.print_exc()
            continue
        if kind in ("query", "batch"):
            reads.append(seconds)
            n = 1 if kind == "query" else len(payload)
            for j in range(-n_queries % every, n, every):
                query = payload if kind == "query" else payload[j]
                samples[i].append((query, _ids_at(result, j)))
            n_queries += n
        else:
            writes.append(seconds)
        if traced:
            pending, dead = workload.probe()
            pending_peak = max(pending_peak, pending)
            dead_peak = max(dead_peak, dead)
            if isinstance(result, BatchResult) and result.fanout_seconds:
                phases["route"] += result.route_seconds
                phases["fanout"] += result.fanout_seconds
                phases["merge"] += result.merge_seconds
                visited = [s for s in result.shard_seconds if s]
                phases["shard"] += sum(visited)
                skews.append(max(visited) * len(visited) / sum(visited))
    return {
        "round_s": perf_counter() - t_round,
        "n_ops": len(ops),
        "n_queries": n_queries,
        "reads": reads,
        "writes": writes,
        "failed": failed,
        "samples": samples,
        "traced": traced,
        "phases": phases,
        "skews": skews,
        "pending_peak": pending_peak,
        "dead_peak": dead_peak,
    }


def run_workload(
    name: str,
    seed: int,
    scale: Scale,
    seconds: float,
    trace: bool,
) -> dict[str, Any]:
    """Set up, stream, verify; returns the result object plus details.

    Rounds run until ``seconds`` of timed stream have passed, and at
    least ``scale.min_rounds`` of them (exactly that many at 0 seconds).
    """
    tracer = tracing.Tracer() if trace else None
    undo = tracing.install(tracer) if tracer is not None else []
    try:
        return _measure(WORKLOADS[name], seed, scale, seconds, tracer)
    finally:
        tracing.uninstall(undo)


def _measure(
    cls: type[Workload],
    seed: int,
    scale: Scale,
    seconds: float,
    tracer: tracing.Tracer | None,
) -> dict[str, Any]:
    calibrator = Calibrator()
    calibrator.burst()  # the first one pays for page faults
    bursts = [calibrator.burst()]
    # Set-up is repeated and its median reported, so that one slow start
    # does not read as a regression.  A traced run reports no setup_s and
    # sets up once, with spans on.
    setups: list[float] = []
    reps = 1 if tracer is not None else scale.setup_reps
    for rep in range(reps):
        workload = cls(seed, scale)
        if tracer is not None:
            tracer.enabled, tracer.round_no = True, SETUP
        t0 = perf_counter()
        workload.setup()
        setups.append(perf_counter() - t0)
        if tracer is not None:
            tracer.enabled = False
        bursts.append(calibrator.burst())
        if rep < reps - 1:
            workload.teardown()

    digest = hashlib.sha256()
    _hash(digest, workload.generated)
    records: list[dict[str, Any]] = []
    window = dict.fromkeys(COUNTERS, 0)
    stream_cracks = 0
    gauges: dict[str, float] = {}
    mismatched = 0
    timed = 0.0
    try:
        r = 0
        while r < scale.min_rounds or timed < seconds:
            ops, arrays = workload.round_ops(r)
            if r < scale.min_rounds:
                _hash(digest, arrays)
            before = workload.stats().snapshot()
            bursts.append(calibrator.burst())
            if tracer is not None:
                # Even rounds traced, odd rounds not: the pair prices the
                # tracing itself under the same drift.
                tracer.enabled, tracer.round_no = r % 2 == 0, r
            record = _run_round(workload, ops, tracer)
            if tracer is not None:
                tracer.enabled = False
            bursts.append(calibrator.burst())
            delta = workload.stats().delta_since(before)
            stream_cracks += delta.cracks
            if r < scale.min_rounds:
                for counter in COUNTERS:
                    window[counter] += getattr(delta, counter)
            mismatched += _verify(workload, ops, record.pop("samples"))
            records.append(record)
            timed += record["round_s"]
            r += 1
            if r == RSS_ROUNDS:
                peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            if tracer is not None and r == scale.min_rounds:
                gauges = workload.gauges()
    finally:
        workload.teardown()

    attempted = sum(rec["n_ops"] for rec in records)
    failed = sum(rec["failed"] for rec in records) + mismatched
    # > 1 when the machine ran slower than the reference box's fast mood.
    speed = median(bursts) / REFERENCE_BURST_S
    measured = _end_to_end(records, setups, peak_rss_mb, tracer is not None)
    out: dict[str, Any] = {
        "workload": cls.name,
        "seed": seed,
        "rounds": len(records),
        "stream_s": timed,
        "machine_speed": speed,
        "digest": digest.hexdigest(),
        "attempted": attempted,
        "failed": failed,
    }
    if tracer is None:
        problems = workload.violations(stream_cracks, None)
        out["metrics"] = _to_reference(measured, END_TO_END, speed)
    else:
        summary = tracing.summarise(tracer.spans)
        publishes = sum(
            per_round["calls"]["parallel.publish"]
            for r, per_round in summary.items()
            if r != SETUP
        )
        problems = workload.violations(stream_cracks, publishes)
        ledger, drift = _per_layer(records, summary, window, gauges, scale)
        if drift > 0.02:
            problems.append(f"layer self times miss the wall-clock by {drift:.1%}")
        ledger.update(workload.reference({**measured, **ledger}))
        unknown = set(ledger) - set(PER_LAYER)
        if unknown:
            raise KeyError(f"metrics missing from BENCHMARK.json: {sorted(unknown)}")
        out["metrics"] = _to_reference(
            {name: ledger.get(name, 0.0) for name in PER_LAYER}, PER_LAYER, speed
        )
        out["trace_file"] = _write_trace(cls.name, seed, tracer)
    for problem in problems:
        print(f"VIOLATION: {problem}", file=sys.stderr)
    out["correct"] = failed == 0 and not problems
    return out


def _to_reference(
    metrics: dict[str, float], spec: dict[str, dict[str, Any]], speed: float
) -> dict[str, float]:
    """Times as the reference box would have shown them (see calibrate.py)."""
    scale = {"s": 1.0 / speed, "ms": 1.0 / speed, "1/s": speed}
    return {
        name: value * scale.get(spec[name]["unit"], 1.0)
        for name, value in metrics.items()
    }


def _end_to_end(
    records: list[dict[str, Any]],
    setups: list[float],
    peak_rss_mb: float,
    traced_run: bool,
) -> dict[str, float]:
    """The end-to-end metrics; in a traced run, from its untraced rounds."""
    if traced_run:
        records = [rec for rec in records if not rec["traced"]] or records
    return {
        "setup_s": median(setups),
        "peak_rss_mb": peak_rss_mb,
        "queries_per_s": median(rec["n_queries"] / rec["round_s"] for rec in records),
        # Percentiles per round, then the median round: a one-second
        # hiccup of the machine spoils one round, not the pooled tail.
        "call_p50_ms": median(float(np.percentile(rec["reads"], 50)) for rec in records) * 1e3,
        "call_p90_ms": median(float(np.percentile(rec["reads"], 90)) for rec in records) * 1e3,
    }


def _per_layer(
    records: list[dict[str, Any]],
    summary: dict[int, dict[str, dict[str, float]]],
    window: dict[str, int],
    gauges: dict[str, float],
    scale: Scale,
) -> tuple[dict[str, float], float]:
    """The ledger, and by how much self times + untraced miss the wall-clock.

    Times are seconds per round, the median over traced rounds; counts
    cover the first ``min_rounds`` rounds (span counts: the traced ones
    among them), which every run executes, so they repeat exactly.
    """
    traced = [r for r, rec in enumerate(records) if rec["traced"]]
    plain = [rec for rec in records if not rec["traced"]]
    counted_in = records[: scale.min_rounds]
    def per_round(kind: str, *names: str) -> float:
        return median(
            sum(summary[r][kind][n] for n in names) for r in traced
        )

    def counted(kind: str, name: str) -> float:
        return float(sum(
            summary[r][kind][name] for r in traced if r < scale.min_rounds
        ))

    def phase(name: str) -> float:
        return median(records[r]["phases"][name] for r in traced)

    setup = summary[SETUP]
    round_s = median(records[r]["round_s"] for r in traced)
    covered = [summary[r]["covered"]["s"] for r in traced]
    self_sums = [sum(summary[r]["self"].values()) for r in traced]
    walls = [records[r]["round_s"] for r in traced]
    untraced = [1.0 - c / w for c, w in zip(covered, walls)]
    drift = max(
        abs(s + u * w - w) / w for s, u, w in zip(self_sums, untraced, walls)
    )
    skews = [s for r in traced for s in records[r]["skews"]]
    fanout = sum(records[r]["phases"]["fanout"] for r in traced)
    shard = sum(records[r]["phases"]["shard"] for r in traced)
    writes = [s for rec in records for s in rec["writes"]]
    routed = window["shards_visited"] + window["shards_pruned"]
    ledger = {
        "core.crack.calls": float(window["cracks"]),
        "core.crack.rows_moved": float(window["rows_reorganized"]),
        "core.crack.busy_s": per_round("busy", "core.crack", "core.range_dim_stats"),
        "core.slices.nodes_visited": float(window["nodes_visited"]),
        "index.execute.calls": counted("calls", "index.execute"),
        "index.execute.busy_s": per_round("busy", "index.execute"),
        "index.execute.self_s": per_round("self", "index.execute"),
        "index.write.busy_s": per_round("busy", "index.write"),
        "index.objects_tested_per_result": window["objects_tested"]
        / max(window["results_returned"], 1),
        "geometry.predicate_mask.calls": counted("calls", "geometry.predicate_mask"),
        "geometry.predicate_mask.rows": counted("value", "geometry.predicate_mask"),
        "geometry.predicate_mask.busy_s": per_round("busy", "geometry.predicate_mask"),
        "datasets.store.permute.busy_s": per_round("busy", "datasets.store.permute"),
        "datasets.store.append.busy_s": per_round("busy", "datasets.store.append"),
        "datasets.store.delete.busy_s": per_round("busy", "datasets.store.delete"),
        "datasets.store.compact.busy_s": per_round("busy", "datasets.store.compact"),
        "datasets.store.dead_fraction_peak": max(r["dead_peak"] for r in counted_in),
        "updates.buffer.add.busy_s": per_round("busy", "updates.buffer.add"),
        "updates.buffer.pending_peak_rows": float(
            max(r["pending_peak"] for r in counted_in)
        ),
        "updates.merges": float(window["merges"]),
        "sharding.build.busy_s": setup["busy"]["sharding.build"],
        "sharding.route.busy_s": phase("route"),
        "sharding.fanout.busy_s": phase("fanout"),
        "sharding.merge.busy_s": phase("merge"),
        "sharding.shard.busy_s": phase("shard"),
        "sharding.shard.skew": sum(skews) / len(skews) if skews else 0.0,
        "sharding.overlap_x": shard / fanout if fanout else 0.0,
        "sharding.pruned_fraction": window["shards_pruned"] / routed if routed else 0.0,
        "sharding.insert.busy_s": per_round("busy", "sharding.insert"),
        "sharding.delete.busy_s": per_round("busy", "sharding.delete"),
        "sharding.executor.self_s": per_round("self", "sharding.executor.run"),
        "sharding.maintenance.busy_s": per_round("busy", "sharding.maintenance"),
        "sharding.maintenance.pause_max_ms": 1e3
        * max(summary[r]["max"]["sharding.maintenance"] for r in traced),
        "parallel.publish.calls": counted("calls", "parallel.publish"),
        "parallel.publish.bytes": counted("value", "parallel.publish"),
        "parallel.publish.busy_s": per_round("busy", "parallel.publish"),
        "parallel.wire.encode.busy_s": per_round("busy", "parallel.wire.encode"),
        "parallel.wire.decode.busy_s": per_round("busy", "parallel.wire.decode"),
        "parallel.pool.run_batch.busy_s": per_round("busy", "parallel.pool.run_batch"),
        "parallel.pool.wait_s": per_round("self", "parallel.pool.run_batch"),
        "parallel.pool.spawn_s": setup["busy"]["parallel.pool.spawn"],
        "client.first_call_ms": median(rec["reads"][0] for rec in plain or records) * 1e3,
        "client.write_p50_ms": median(writes) * 1e3 if writes else 0.0,
        "trace.round_s": round_s,
        "trace.untraced_fraction": median(untraced),
        "trace.overhead_fraction": round_s / median(r["round_s"] for r in plain) - 1.0
        if plain
        else 0.0,
        **gauges,
    }
    return ledger, drift


def _write_trace(name: str, seed: int, tracer: tracing.Tracer) -> str:
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"trace-{name}-seed{seed}.json"
    fields = ["name", "start", "end", "parent", "op_id", "round", "value"]
    with path.open("w") as fh:
        json.dump({"workload": name, "seed": seed, "fields": fields,
                   "spans": tracer.spans}, fh)
    return str(path)


def _print_one(result: dict[str, Any], traced: bool) -> None:
    units = PER_LAYER if traced else END_TO_END
    print(
        f"{result['workload']}: seed {result['seed']}, {result['rounds']} rounds, "
        f"{result['stream_s']:.2f} s timed, {result['attempted']} ops, "
        f"{result['failed']} failed, machine at {result['machine_speed']:.3f}x "
        f"the reference burst, inputs sha256 {result['digest'][:16]}"
    )
    for name, value in result["metrics"].items():
        if value or not traced:  # a layer the workload bypasses reads 0
            print(f"  {name:40s} {value:14.6g} {units[name]['unit']}")
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {"value": value, "unit": units[name]["unit"]}
            for name, value in result["metrics"].items()
        },
    }))


def _child(name: str, args: argparse.Namespace, traced: bool) -> dict[str, Any]:
    """One workload in a fresh interpreter; returns its result object."""
    cmd = [
        sys.executable, str(HERE / "run.py"), "--workload", name,
        "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(int(traced)), "--scale", args.scale,
    ]
    done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True)
    lines = done.stdout.splitlines()
    print("\n".join(lines[:-1]))
    return json.loads(lines[-1])


def _run_all(args: argparse.Namespace) -> int:
    """Every workload, ``--repeat`` sets of them, untraced then traced."""
    report: dict[str, Any] = {
        "seed": args.seed, "scale": args.scale, "seconds": args.seconds,
        "end_to_end": defaultdict(lambda: defaultdict(list)),
        "per_layer": defaultdict(lambda: defaultdict(list)),
    }
    ok = True
    for traced in (False, True) if args.traced else (False,):
        section = report["per_layer" if traced else "end_to_end"]
        for _ in range(args.repeat):
            for name in WORKLOADS:
                result = _child(name, args, traced)
                ok = ok and result["correct"]
                for metric, cell in result["metrics"].items():
                    section[name][metric].append(cell["value"])
    if args.traced:
        churn = report["per_layer"]["sharded-churn"]["core.crack.calls"]
        serve = report["per_layer"]["sharded-serve"]["core.crack.calls"]
        print(
            "parallel.worker.recracks (sharded-churn minus sharded-serve "
            f"core.crack.calls): {churn[-1] - serve[-1]:.0f} count"
        )
    if args.json:
        Path(args.json).write_text(json.dumps(report, indent=1))
    return 0 if ok else 1


def _stop_resource_tracker() -> None:
    """Stop multiprocessing's shared-memory tracker and wait for it.

    The process backend starts it as a child of this process; left alone
    it exits only once it sees this process gone, so it outlives the
    benchmark by a moment.  By now every worker that shared its pipe has
    been joined and every segment destroyed, so it has nothing to do.
    """
    resource_tracker._resource_tracker._stop()  # noqa: SLF001 - no public verb


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--traced", action="store_true",
                        help="all-workloads mode: add a second, traced pass")
    parser.add_argument("--repeat", type=int, default=1,
                        help="all-workloads mode: sets to run back to back")
    parser.add_argument("--json", help="all-workloads mode: write the sets here")
    parser.add_argument("--scale", choices=sorted(SCALES), default="full")
    args = parser.parse_args(argv)
    if args.workload is None:
        return _run_all(args)
    try:
        result = run_workload(
            args.workload, args.seed, SCALES[args.scale], args.seconds,
            bool(args.trace),
        )
    finally:
        _stop_resource_tracker()
    _print_one(result, bool(args.trace))
    return 0
