"""Integration: every registered experiment runs end-to-end at tiny scale.

These do not validate performance numbers (that is the benchmark suite's
job); they validate that the harness produces well-formed reports for each
figure and that the CLI wiring works.
"""

from __future__ import annotations

import pytest

from repro.bench.cli import build_parser, main
from repro.bench.experiments import EXPERIMENTS, Scale, run_experiment
from repro.errors import ConfigurationError

#: Minimal scale: just enough data for every experiment to be non-trivial.
TINY = Scale(
    name="tiny",
    neuro_n=2_500,
    uniform_n=2_500,
    clusters=2,
    per_cluster=6,
    clustered_fraction=5e-3,
    uniform_queries=25,
    uniform_fraction=5e-3,
    selectivity_fractions=(1e-4, 1e-2),
    selectivity_queries=10,
    grid_candidates=(3, 6),
    grid_uniform_parts=4,
    grid_neuro_parts=6,
)


@pytest.mark.parametrize("name", sorted(EXPERIMENTS))
def test_experiment_produces_report(name):
    report = run_experiment(name, TINY)
    assert report.experiment == name
    assert report.tables, f"{name} produced no tables"
    for table in report.tables:
        assert table.headers
        assert all(len(r) == len(table.headers) for r in table.rows)
    text = report.render()
    assert name in text


def test_unknown_experiment_rejected():
    with pytest.raises(ConfigurationError, match="unknown experiment"):
        run_experiment("fig99", TINY)


def test_unknown_scale_rejected():
    with pytest.raises(ConfigurationError, match="unknown scale"):
        run_experiment("fig6a", "galactic")


class TestCli:
    def test_parser_lists_experiments(self):
        parser = build_parser()
        args = parser.parse_args(["fig6a", "--scale", "smoke"])
        assert args.experiments == ["fig6a"]
        assert args.scale == "smoke"

    def test_parser_takes_the_paper_options_only(self):
        options = [a.dest for a in build_parser()._actions if a.dest != "help"]
        assert options == ["experiments", "scale", "output", "json_out"]

    def test_main_rejects_unknown(self, capsys):
        # The retired serving verbs have no alias: unknown like any other.
        for verb in ("not-an-experiment", "query-api", "report", "diff", "soak"):
            assert main([verb, "--scale", "smoke"]) == 2
            assert "unknown experiment" in capsys.readouterr().err

    def test_main_runs_and_writes_output(self, tmp_path, capsys, monkeypatch):
        # Register a tiny scale so the end-to-end CLI test stays fast.
        # SCALES is shared between the cli and experiments modules (same
        # dict object), so one patch covers validation and lookup.
        from repro.bench.experiments import SCALES

        monkeypatch.setitem(SCALES, "tiny", TINY)
        out_file = tmp_path / "report.txt"
        rc = main(
            [
                "fig6b",
                "--scale", "tiny",
                "--output", str(out_file),
                "--json-out", str(tmp_path),
            ]
        )
        assert rc == 0
        assert out_file.exists()
        assert "fig6b" in out_file.read_text()
        assert "fig6b" in capsys.readouterr().out
        # --json-out persisted the run next to it.
        assert (tmp_path / "BENCH_fig6b.json").is_file()
