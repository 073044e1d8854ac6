"""The enforcing gate: ``benchmarks/ledger/compare.py`` on synthetic runs.

``compare.py`` is what CI fails a pull request on and what every PR's
ledger rows are judged by, so its verdicts and exit codes are pinned here
on hand-built ``run.py --json`` documents — no benchmark is run.  Bounds
and metric directions are read from the module's own ``SPEC``
(``BENCHMARK.json``), so the cases keep their meaning if a bound moves.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[2] / "benchmarks" / "ledger" / "compare.py"
_spec = importlib.util.spec_from_file_location("ledger_compare", _PATH)
compare = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare)

WORKLOAD = "explore-cold"
END_TO_END = {m["name"]: m for m in compare.SPEC["end_to_end"]}
COUNTS = [m["name"] for m in compare.SPEC["per_layer"] if m["unit"] == "count"]
HIGHER = next(m for m in END_TO_END.values() if m["better"] == "higher")
LOWER = next(m for m in END_TO_END.values() if m["better"] == "lower")


def _doc(count: int | None = None, **runs: list[float]) -> dict:
    """One workload's document: every metric reads 100.0 unless given."""
    doc = {
        "end_to_end": {
            WORKLOAD: {name: runs.get(name, [100.0]) for name in END_TO_END}
        }
    }
    if count is not None:
        doc["per_layer"] = {WORKLOAD: {name: [count] for name in COUNTS}}
    return doc


def _run(tmp_path, a: dict, b: dict, capsys) -> tuple[int, dict[str, str]]:
    """Exit status and the verdict printed for each end-to-end metric."""
    paths = []
    for name, doc in (("a.json", a), ("b.json", b)):
        paths.append(tmp_path / name)
        paths[-1].write_text(json.dumps(doc))
    status = compare.main([str(p) for p in paths])
    verdicts = {}
    for line in capsys.readouterr().out.splitlines()[1:]:
        cells = line.split()
        if cells[:1] == [WORKLOAD] and cells[1] in END_TO_END:
            verdicts[cells[1]] = cells[6]
    return status, verdicts


def _scaled(metric: dict, loss: float) -> list[float]:
    """One run that is ``loss`` (a fraction of 100.0) worse on ``metric``."""
    sign = -1 if metric["better"] == "higher" else 1
    return [100.0 * (1 + sign * loss)]


def test_identical_inputs_exit_zero(tmp_path, capsys):
    status, verdicts = _run(tmp_path, _doc(count=7), _doc(count=7), capsys)
    assert status == 0
    assert verdicts == dict.fromkeys(END_TO_END, "ok")


@pytest.mark.parametrize("metric", [HIGHER, LOWER], ids=lambda m: m["better"])
def test_worse_past_the_bound_ok_inside_it(tmp_path, capsys, metric):
    name, bound = metric["name"], metric["bound"]
    inside = _doc(**{name: _scaled(metric, 0.8 * bound)})
    status, verdicts = _run(tmp_path, _doc(), inside, capsys)
    assert (status, verdicts[name]) == (0, "ok")
    past = _doc(**{name: _scaled(metric, 1.2 * bound)})
    status, verdicts = _run(tmp_path, _doc(), past, capsys)
    assert (status, verdicts[name]) == (1, "worse")
    assert sum(v == "worse" for v in verdicts.values()) == 1
    # The same distance in the good direction is never a finding.
    status, verdicts = _run(tmp_path, past, _doc(), capsys)
    assert (status, verdicts[name]) == (0, "ok")


@pytest.mark.parametrize("noisy_side", ["base", "change"])
def test_unresolved_when_either_side_spreads_past_the_bound(
    tmp_path, capsys, noisy_side
):
    name, bound = HIGHER["name"], HIGHER["bound"]
    noisy = [50.0, 100.0, 100.0, 200.0]
    assert compare.spread(noisy) > bound
    # The other side's median is far past the bound: without the spread
    # this pair would read "worse" (or a large win); with it, neither.
    steady = [10.0] * 4
    a, b = (noisy, steady) if noisy_side == "base" else (steady, noisy)
    status, verdicts = _run(
        tmp_path, _doc(**{name: a}), _doc(**{name: b}), capsys
    )
    assert (status, verdicts[name]) == (0, "unresolved")


def test_no_spread_below_four_runs(tmp_path, capsys):
    wild = [50.0, 100.0, 200.0]
    assert compare.spread(wild) is None
    assert compare.spread(wild + [100.0]) is not None
    name = HIGHER["name"]
    # Three runs cannot be "unresolved": the medians decide.
    status, verdicts = _run(
        tmp_path, _doc(**{name: wild}), _doc(**{name: wild}), capsys
    )
    assert (status, verdicts[name]) == (0, "ok")


def test_differing_traced_count_exits_one(tmp_path, capsys):
    status, verdicts = _run(tmp_path, _doc(count=7), _doc(count=8), capsys)
    assert status == 1
    assert verdicts == dict.fromkeys(END_TO_END, "ok")
    # Counts are only compared when both files carry a traced run.
    status, _ = _run(tmp_path, _doc(count=7), _doc(), capsys)
    assert status == 0


@pytest.mark.parametrize("argv", [[], ["only-one.json"], ["a", "b", "c"]])
def test_wrong_argc_exits_two(argv, capsys):
    assert compare.main(argv) == 2
    assert "compare.py A.json B.json" in capsys.readouterr().out
