"""Documentation consistency: links resolve, bench verbs documented.

Thin pytest wrapper around :mod:`tools.check_docs` so the tier-1 run
catches doc drift the same way CI does.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "tools"))

import check_docs  # noqa: E402


def test_internal_markdown_links_resolve():
    assert check_docs.check_links() == []


def test_every_bench_verb_is_documented_and_vice_versa():
    assert check_docs.check_bench_docs() == []


def test_cli_help_lists_every_experiment():
    assert check_docs.check_cli_help() == []


def test_observability_vocabulary_is_documented_both_ways():
    assert check_docs.check_observability_docs() == []


def test_event_table_is_held_to_the_canonical_kinds_alone():
    from repro.telemetry.events import EVENTS

    text = (check_docs.REPO / "docs" / "OBSERVABILITY.md").read_text(encoding="utf-8")
    table = check_docs._EVENTS_SECTION.search(text).group()
    assert check_docs.vocabulary_problems(table, set(EVENTS), "event") == []
    # A kind the code dropped (doc row left behind) ...
    (stale,) = check_docs.vocabulary_problems(
        table, set(EVENTS) - {"worker.delta"}, "event"
    )
    assert stale.endswith("documents unknown event 'worker.delta'")
    # ... and one it added without a row, even if another table has one.
    (missing,) = check_docs.vocabulary_problems(
        table, set(EVENTS) | {"batch.seconds"}, "event"
    )
    assert missing.endswith("event 'batch.seconds' is not documented")


def test_every_event_kind_has_an_emitter():
    from repro.telemetry.events import EVENTS

    assert check_docs.check_orphan_events() == []
    emitted = check_docs.emitted_event_kinds()
    assert {"slow_query", "worker.respawn", "maintenance.compact"} <= emitted
    # A kind whose last emitter was deleted is flagged by name.
    assert check_docs.orphan_problems(
        set(EVENTS) | {"replica.kill"}, emitted, check_docs.ORPHAN_EVENT
    ) == [
        "repro/telemetry/events.py: event 'replica.kill' is never emitted "
        "under src/repro"
    ]


def test_only_literal_kinds_of_emit_calls_count_as_emitted(tmp_path, monkeypatch):
    pkg = tmp_path / "src" / "repro" / "sub"
    pkg.mkdir(parents=True)
    (pkg / "a.py").write_text(
        "log.emit('a.b', x=1)\n"
        "self._events.emit(\"c.d\")\n"
        "log.emit(kind)\n"
        "log.emit(f'e.{x}')\n"
        "emit('bare.function')\n"
        "log.record('not.emit')\n"
        "log.emit(3)\n"
        "log.emit()\n",
        encoding="utf-8",
    )
    # Outside src/repro nothing counts, however it is spelled.
    (tmp_path / "tools").mkdir()
    (tmp_path / "tools" / "b.py").write_text("log.emit('tools.kind')\n", encoding="utf-8")
    monkeypatch.setattr(check_docs, "REPO", tmp_path)
    assert check_docs.emitted_event_kinds() == {"a.b", "c.d"}


def test_every_orphan_is_named_once_in_sorted_order():
    problems = check_docs.orphan_problems(
        {"z.last", "a.first", "kept"},
        {"kept", "extra.emitted"},
        check_docs.ORPHAN_EVENT,
    )
    assert problems == [
        "repro/telemetry/events.py: event 'a.first' is never emitted under src/repro",
        "repro/telemetry/events.py: event 'z.last' is never emitted under src/repro",
    ]
    # An emitted kind outside the vocabulary is QL005's business, not
    # an orphan.
    assert check_docs.orphan_problems(
        {"kept"}, {"kept", "extra"}, check_docs.ORPHAN_EVENT
    ) == []


def test_the_orphan_check_reads_the_live_vocabulary(monkeypatch):
    from repro.telemetry import events

    monkeypatch.setattr(events, "EVENTS", {**events.EVENTS, "gone.kind": "x"})
    assert check_docs.check_orphan_events() == [
        "repro/telemetry/events.py: event 'gone.kind' is never emitted under src/repro"
    ]


def test_every_metric_constant_has_a_recorder():
    assert check_docs.check_orphan_metrics() == []
    constants = check_docs.metric_constants()
    assert {"QUERY_SECONDS", "WORKER_RESPAWNS", "BATCH_SECONDS"} <= constants
    # A constant whose last recorder was deleted is flagged by name.
    assert check_docs.orphan_problems(
        constants | {"STORE_LIVE"},
        check_docs.referenced_names(),
        check_docs.ORPHAN_METRIC,
    ) == [
        "repro/telemetry/naming.py: metric 'STORE_LIVE' is never referenced "
        "under src/repro"
    ]


def test_every_hand_listed_metric_has_a_constant():
    from repro.index.base import IndexStats
    from repro.telemetry import naming

    generated = {naming.stats_metric(name) for name in IndexStats().as_dict()}
    hand_listed = set(naming.METRICS) - generated
    assert hand_listed == {
        getattr(naming, name) for name in check_docs.metric_constants()
    }


def test_only_names_used_outside_naming_count_as_referenced(tmp_path, monkeypatch):
    tel = tmp_path / "src" / "repro" / "telemetry"
    tel.mkdir(parents=True)
    (tel / "naming.py").write_text(
        'DEFINED_ONLY = "d"\nMETRICS = {DEFINED_ONLY: "x"}\n', encoding="utf-8"
    )
    (tel / "user.py").write_text(
        "from repro.telemetry.naming import BARE\n"
        "reg.histogram(BARE)\n"
        "reg.counter(naming.DOTTED)\n"
        "s = 'QUOTED'\n",
        encoding="utf-8",
    )
    # Outside src/repro nothing counts, however it is spelled.
    (tmp_path / "tools").mkdir()
    (tmp_path / "tools" / "b.py").write_text("record(TOOLS_ONLY)\n", encoding="utf-8")
    monkeypatch.setattr(check_docs, "REPO", tmp_path)
    names = check_docs.referenced_names()
    assert {"BARE", "DOTTED"} <= names
    assert not {"DEFINED_ONLY", "QUOTED", "TOOLS_ONLY"} & names


def test_the_orphan_metric_check_reads_the_live_vocabulary(monkeypatch):
    from repro.telemetry import naming

    monkeypatch.setattr(naming, "GONE_SECONDS", "gone.seconds", raising=False)
    monkeypatch.setitem(naming.METRICS, "gone.seconds", "histogram: nobody")
    assert check_docs.check_orphan_metrics() == [
        "repro/telemetry/naming.py: metric 'GONE_SECONDS' is never referenced "
        "under src/repro"
    ]


def test_every_index_stats_counter_has_a_writer():
    from repro.index.base import WORK_COUNTERS, IndexStats

    assert check_docs.check_orphan_counters() == []
    written = check_docs.written_counters()
    assert set(WORK_COUNTERS) | {"queries", "shards_pruned"} <= written
    # A counter whose last writer was deleted is flagged by name.
    assert check_docs.orphan_problems(
        set(IndexStats().as_dict()) | {"rows_shipped"},
        written,
        check_docs.ORPHAN_COUNTER,
    ) == [
        "repro/index/base.py: IndexStats counter 'rows_shipped' is never "
        "written under src/repro"
    ]


def test_only_stats_assignments_outside_the_dataclass_count_as_written(
    tmp_path, monkeypatch
):
    from repro.index.base import WORK_COUNTERS

    pkg = tmp_path / "src" / "repro" / "sub"
    pkg.mkdir(parents=True)
    (pkg / "a.py").write_text(
        "self.stats.bumped += 1\n"
        "stats.assigned = 0\n"
        "index.stats.chained += 2\n"
        "print(stats.read_only)\n"
        "other.not_stats += 1\n"
        "setattr(stats, 'by_setattr', 1)\n"
        "class IndexStats:\n"
        "    def reset(self):\n"
        "        stats.inside_the_body = 0\n",
        encoding="utf-8",
    )
    (tmp_path / "tools").mkdir()
    (tmp_path / "tools" / "b.py").write_text("stats.in_tools = 1\n", encoding="utf-8")
    monkeypatch.setattr(check_docs, "REPO", tmp_path)
    assert check_docs.written_counters() == set(WORK_COUNTERS) | {
        "bumped", "assigned", "chained"
    }


def test_the_orphan_counter_check_reads_the_live_vocabulary(monkeypatch):
    from dataclasses import dataclass

    from repro.index import base

    @dataclass
    class Extended(base.IndexStats):
        passes_applied: int = 0

    monkeypatch.setattr(base, "IndexStats", Extended)
    assert check_docs.check_orphan_counters() == [
        "repro/index/base.py: IndexStats counter 'passes_applied' is never "
        "written under src/repro"
    ]


def test_the_script_runs_the_counter_check(monkeypatch, capsys):
    from dataclasses import dataclass

    from repro.index import base

    assert check_docs.main() == 0
    assert "counter writers" in capsys.readouterr().out

    @dataclass
    class Extended(base.IndexStats):
        rows_shipped: int = 0

    monkeypatch.setattr(base, "IndexStats", Extended)
    assert check_docs.main() == 1
    assert "IndexStats counter 'rows_shipped'" in capsys.readouterr().err


def test_lint_rule_table_matches_the_registry_both_ways():
    assert check_docs.check_analysis_docs() == []


def test_query_layer_section_names_only_real_hooks():
    assert check_docs.check_query_layer_hooks() == []
    # The check sees the hooks the section is about (not an empty match).
    section = check_docs._QUERY_LAYER.search(
        (check_docs.REPO / "docs" / "ARCHITECTURE.md").read_text(encoding="utf-8")
    ).group()
    assert {"_candidates", "_execute_batch", "_refine_stacked"} <= set(
        check_docs._HOOK.findall(section)
    )


def test_docs_and_code_carry_no_numbered_roadmap_pointers():
    assert check_docs.check_roadmap_pointers() == []
    # ROADMAP renumbers at every re-anchor: a number is caught, even
    # when a line break splits it from "item"; a named target is not.
    text = 'see ROADMAP.md item 2.\nper ROADMAP item\n3(a); ROADMAP\'s "flat forest"'
    assert check_docs.roadmap_pointer_problems("doc.md", text) == [
        "doc.md:1: numbered pointer 'ROADMAP.md item 2'; name what it "
        "points at instead",
        "doc.md:2: numbered pointer 'ROADMAP item 3'; name what it "
        "points at instead",
    ]


def test_dotted_repro_names_in_the_docs_resolve():
    assert check_docs.check_dotted_names() == []


@pytest.mark.parametrize(
    "cited",
    [
        "`repro.bench`",  # a package
        "`repro.bench.runner.run_workload(index, ops)`",  # a called function
        "`repro.core.slices.SliceList.probe`",  # a method, via its class
        "`repro.telemetry.naming.METRICS`",  # a module constant
    ],
)
def test_dotted_names_that_resolve_are_silent(cited):
    assert check_docs.dotted_name_problems("doc.md", f"see {cited}.") == []


@pytest.mark.parametrize(
    "dotted",
    [
        "repro.datasets.io",  # a deleted module
        "repro.updates.ledger.UpdateLedger",  # a class in a deleted module
        "repro.geometry.Box.intersects",  # a deleted method
        "repro.nowhere",  # never was
    ],
)
def test_a_dotted_name_that_does_not_resolve_fires(dotted):
    assert check_docs.dotted_name_problems("doc.md", f"`{dotted}`") == [
        f"doc.md: `{dotted}` does not resolve"
    ]


def test_dotted_names_that_do_not_resolve_fire_once_each():
    text = (
        "`repro.updates.ledger.UpdateLedger` and `repro.datasets.io` are gone, "
        "`repro.geometry.Box.intersects` was deleted, twice: "
        "`repro.geometry.Box.intersects`; `repro.nowhere.at_all` never was."
    )
    assert check_docs.dotted_name_problems("doc.md", text) == [
        "doc.md: `repro.datasets.io` does not resolve",
        "doc.md: `repro.geometry.Box.intersects` does not resolve",
        "doc.md: `repro.nowhere.at_all` does not resolve",
        "doc.md: `repro.updates.ledger.UpdateLedger` does not resolve",
    ]


def _parameter_problems(source: str) -> list[str]:
    import ast
    import textwrap

    return check_docs.parameter_doc_problems("m.py", ast.parse(textwrap.dedent(source)))


def test_every_parameters_section_matches_its_signature():
    assert check_docs.check_documented_parameters() == []


def test_parameter_sections_that_match_are_silent():
    assert _parameter_problems(
        '''
        def f(lo, hi, *rest, seed=0, **extra):
            """Summary.

            Parameters
            ----------
            lo, hi:
                Two names on one line.
            *rest:
                Star-args by their bare name.
            seed : int
                A numpydoc type after the colon.
            **extra:
                Keyword catch-all.

            Examples
            --------
            >>> f(1, 2)  # lines past the next header are not entries
            """


        class Server:
            """Summary.

            Parameters
            ----------
            host / port:
                Also two names.
            """

            def __init__(self, host, port):
                pass


        @dataclass(frozen=True)
        class Point:
            """Summary.

            Parameters
            ----------
            x:
                A field of the generated __init__.
            """

            x: float


        def undocumented(a, b):
            """No Parameters section: nothing to check."""
        '''
    ) == []


def test_parameter_sections_fire_both_ways():
    assert _parameter_problems(
        '''
        class Index:
            """Summary.

            Parameters
            ----------
            store:
                Kept.
            representative:
                An option the signature lost.
            """

            def __init__(self, store, tau=60):
                pass


        class Plain:
            """Summary.

            Parameters
            ----------
            x:
                Nothing to hold it to.
            """
        '''
    ) == [
        "m.py:2: Index documents 'representative', not a parameter",
        "m.py:2: Index does not document parameter 'tau'",
        "m.py:17: Plain documents Parameters but has no __init__",
    ]
