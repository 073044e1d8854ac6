"""Documentation consistency: links resolve, bench verbs documented.

Thin pytest wrapper around :mod:`tools.check_docs` so the tier-1 run
catches doc drift the same way CI does.
"""

from __future__ import annotations

import sys
from pathlib import Path

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
    assert check_docs.orphan_event_problems(
        set(EVENTS) | {"replica.kill"}, emitted
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
    problems = check_docs.orphan_event_problems(
        {"z.last", "a.first", "kept"}, {"kept", "extra.emitted"}
    )
    assert problems == [
        "repro/telemetry/events.py: event 'a.first' is never emitted under src/repro",
        "repro/telemetry/events.py: event 'z.last' is never emitted under src/repro",
    ]
    # An emitted kind outside the vocabulary is QL005's business, not
    # an orphan.
    assert check_docs.orphan_event_problems({"kept"}, {"kept", "extra"}) == []


def test_the_orphan_check_reads_the_live_vocabulary(monkeypatch):
    from repro.telemetry import events

    monkeypatch.setattr(events, "EVENTS", {**events.EVENTS, "gone.kind": "x"})
    assert check_docs.check_orphan_events() == [
        "repro/telemetry/events.py: event 'gone.kind' is never emitted under src/repro"
    ]


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
