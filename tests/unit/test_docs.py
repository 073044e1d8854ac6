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
        table, set(EVENTS) - {"replica.kill"}, "event"
    )
    assert stale.endswith("documents unknown event 'replica.kill'")
    # ... and one it added without a row, even if another table has one.
    (missing,) = check_docs.vocabulary_problems(
        table, set(EVENTS) | {"batch.seconds"}, "event"
    )
    assert missing.endswith("event 'batch.seconds' is not documented")


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
