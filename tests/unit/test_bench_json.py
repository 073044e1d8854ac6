"""BENCH_<verb>.json persistence: schema, validation, CLI."""

from __future__ import annotations

import json

import pytest

from repro.bench import cli
from repro.bench.reporting import (
    BENCH_SCHEMA,
    ExperimentReport,
    to_json_dict,
    validate_bench_json,
    write_bench_json,
)


def _report(verb: str = "fig7") -> ExperimentReport:
    report = ExperimentReport(verb, "a test report")
    report.add_table("t", ["a", "b"], [[1, 2.5], ["x", "y"]])
    report.add_note("a note")
    return report


class TestSchemaRoundTrip:
    def test_to_json_dict_shape(self):
        doc = to_json_dict(_report(), "smoke", 1.25)
        assert doc["schema"] == BENCH_SCHEMA
        assert doc["verb"] == "fig7"
        assert doc["scale"] == "smoke"
        assert doc["elapsed_seconds"] == 1.25
        assert doc["created_unix"] > 0
        assert doc["tables"][0]["headers"] == ["a", "b"]
        # Cells are stringified exactly as the rendered report prints.
        assert doc["tables"][0]["rows"][0] == ["1", "2.500"]
        assert doc["notes"] == ["a note"]
        assert validate_bench_json(doc) == []

    def test_write_and_load_round_trip(self, tmp_path):
        path = write_bench_json(_report(), tmp_path, "smoke", 2.0)
        assert path == tmp_path / "BENCH_fig7.json"
        assert list(tmp_path.iterdir()) == [path]
        loaded = json.loads(path.read_text())
        assert loaded["verb"] == "fig7"
        assert validate_bench_json(loaded) == []

    def test_write_overwrites(self, tmp_path):
        write_bench_json(_report(), tmp_path, "smoke", 1.0)
        path = write_bench_json(_report(), tmp_path, "tiny", 2.0)
        assert list(tmp_path.iterdir()) == [path]
        assert json.loads(path.read_text())["scale"] == "tiny"

    def test_write_refuses_invalid(self, tmp_path):
        bad = _report()
        bad.add_table("ragged", ["a", "b"], [[1]])  # row narrower than header
        with pytest.raises(ValueError, match="refusing to persist"):
            write_bench_json(bad, tmp_path, "smoke", 1.0)
        assert list(tmp_path.iterdir()) == []


class TestValidator:
    def test_non_dict(self):
        assert validate_bench_json([1, 2]) != []

    @pytest.mark.parametrize("key", [
        "schema", "verb", "scale", "description", "created_unix",
        "elapsed_seconds", "tables", "notes", "metrics",
    ])
    def test_each_field_required(self, key):
        doc = to_json_dict(_report(), "smoke", 1.0)
        del doc[key]
        assert any(key in p for p in validate_bench_json(doc))

    def test_wrong_schema_tag(self):
        doc = to_json_dict(_report(), "smoke", 1.0)
        doc["schema"] = "repro-bench/999"
        assert validate_bench_json(doc)

    def test_row_width_mismatch(self):
        doc = to_json_dict(_report(), "smoke", 1.0)
        doc["tables"][0]["rows"].append(["only-one-cell"])
        assert any("header width" in p for p in validate_bench_json(doc))

    @pytest.mark.parametrize("breakage, problem", [
        (lambda d: d.update(verb=""), "'verb' is empty"),
        (lambda d: d.update(elapsed_seconds=-1.0), "negative"),
        (lambda d: d["tables"].__setitem__(0, "t"), "tables[0] is not an object"),
        (lambda d: d["tables"][0].pop("title"), "tables[0].title"),
        (lambda d: d["tables"][0].update(headers=[]), "tables[0].headers"),
        (lambda d: d["tables"][0].update(rows="r"), "tables[0].rows"),
    ], ids=["empty-verb", "negative-elapsed", "table-not-object", "no-title",
            "no-headers", "rows-not-list"])
    def test_each_envelope_breakage_is_named(self, breakage, problem):
        doc = to_json_dict(_report(), "smoke", 1.0)
        breakage(doc)
        problems = validate_bench_json(doc)
        assert len(problems) == 1 and problem in problems[0]

    def test_notes_must_be_strings(self):
        doc = to_json_dict(_report(), "smoke", 1.0)
        doc["notes"].append(42)
        assert any("notes" in p for p in validate_bench_json(doc))

class TestCli:
    @pytest.fixture
    def stub_bench(self, monkeypatch):
        """Replace the experiment registry with one instant stub verb."""
        def run_stub(name, scale):
            assert name == "stub"
            return _report("stub")
        monkeypatch.setattr(cli, "EXPERIMENTS", {"stub": "a stub"})
        monkeypatch.setattr(cli, "run_experiment", run_stub)

    def test_json_out_flag_writes_and_reports(self, stub_bench, tmp_path, capsys):
        rc = cli.main(["stub", "--json-out", str(tmp_path)])
        assert rc == 0
        doc = json.loads((tmp_path / "BENCH_stub.json").read_text())
        assert doc["verb"] == "stub"
        assert doc["scale"] == "small"
        assert "BENCH_stub.json" in capsys.readouterr().out

    def test_unknown_experiment_rc2(self, stub_bench, tmp_path, capsys):
        assert cli.main(["nope", "--json-out", str(tmp_path)]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_bare_run_writes_nothing(self, stub_bench, tmp_path, monkeypatch, capsys):
        # A checkout is the usual working directory: without --json-out
        # a run must print its report and leave no file behind.
        (tmp_path / "pyproject.toml").write_text("")
        monkeypatch.chdir(tmp_path)
        assert cli.main(["stub"]) == 0
        assert "a test report" in capsys.readouterr().out
        assert [p.name for p in tmp_path.iterdir()] == ["pyproject.toml"]
