#!/usr/bin/env python3
"""Documentation consistency checks (run by CI and the test suite).

Eight checks, all filesystem/CLI-only:

1. **Internal links resolve** — every relative markdown link in
   ``README.md`` and ``docs/*.md`` points at a file that exists.
2. **Bench verbs documented** — every experiment id registered in
   ``repro.bench.experiments.EXPERIMENTS`` appears in ``docs/BENCH.md``,
   and every ``experiment-id``-looking verb documented there is
   actually registered (docs and CLI cannot drift apart).
3. **CLI help lists the verbs** — ``python -m repro.bench --help``
   mentions every registered experiment id.
4. **Observability vocabulary documented** — the metric/span/event name
   tables in ``docs/OBSERVABILITY.md`` match
   ``repro.telemetry.naming.METRICS``/``SPANS`` and
   ``repro.telemetry.events.EVENTS`` in both directions, so a new
   metric cannot ship undocumented and doc rows cannot go stale.  The
   event table is held to ``EVENTS`` alone and the other tables to the
   metrics and spans, so an event kind cannot hide in (or borrow a row
   from) a metric table.
5. **HTTP endpoints documented** — the endpoint table in
   ``docs/OBSERVABILITY.md`` matches
   ``repro.telemetry.server.ENDPOINTS`` in both directions.
6. **Lint rules documented** — the rule table in ``docs/ANALYSIS.md``
   matches the ``tools/analysis`` rule registry in both directions, so
   a quasii-lint rule cannot ship undocumented and a doc row cannot
   outlive its rule.
7. **Query-layer hooks exist** — every backticked ``_hook`` name in the
   query-layer section of ``docs/ARCHITECTURE.md`` is an attribute of
   ``repro.index.base.SpatialIndex``, so the section cannot keep
   describing a hook the base class no longer has.
8. **No numbered ROADMAP pointers** — README, ``docs/``, ``src/`` and
   ``examples/`` never cite ``ROADMAP item <n>``: ROADMAP renumbers its
   items at every re-anchor, so a pointer names what it points at
   instead.  ROADMAP.md and CHANGES.md themselves are exempt.

Exit status 0 when everything holds; 1 with a per-problem report
otherwise.  Run from the repository root::

    PYTHONPATH=src python tools/check_docs.py
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

#: Markdown files whose relative links must resolve.
LINKED_DOCS = [
    "README.md",
    "docs/ANALYSIS.md",
    "docs/ARCHITECTURE.md",
    "docs/BENCH.md",
    "docs/OBSERVABILITY.md",
]

_LINK = re.compile(r"\[[^\]]+\]\(([^)#\s]+)(?:#[^)\s]*)?\)")

#: First-column backticked ids in markdown tables: ``| `name` | ...``.
#: The metric charset (dots/underscores) is disjoint from the verb
#: charset (hyphens), so each check sees only its own vocabulary.
_VERB_ROW = re.compile(r"^\| `([a-z0-9-]+)` \|", re.MULTILINE)
_NAME_ROW = re.compile(r"^\| `([a-z0-9_.]+)` \|", re.MULTILINE)
#: Endpoint paths start with a slash, so neither charset above sees them.
_ENDPOINT_ROW = re.compile(r"^\| `(/[a-z0-9_./-]*)` \|", re.MULTILINE)
#: Lint rule ids are uppercase, disjoint from every charset above.
_RULE_ROW = re.compile(r"^\| `(QL\d{3})` \|", re.MULTILINE)
#: OBSERVABILITY.md's structured-events section, heading to next heading.
_EVENTS_SECTION = re.compile(
    r"^### Structured events.*?(?=^#{2,3} )", re.MULTILINE | re.DOTALL
)
#: The query-layer section of ARCHITECTURE.md, heading to next heading.
_QUERY_LAYER = re.compile(r"^## The query layer.*?(?=^## )", re.MULTILINE | re.DOTALL)
#: Backticked private names, bare or called: `_gate`, `_execute_batch([q])`.
_HOOK = re.compile(r"`(_[a-z][a-z_]*)[`(]")
#: A numbered ROADMAP pointer, which the next re-anchor silently retargets.
_ROADMAP_ITEM = re.compile(r"ROADMAP(?:\.md)?\s+item\s+\d+")
#: Where such pointers are refused (ROADMAP.md and CHANGES.md are not).
POINTER_FREE = ["README.md", "docs/*.md", "src/**/*.py", "examples/*.py"]


def check_links() -> list[str]:
    """Relative markdown links in the documented files must resolve."""
    problems = []
    for name in LINKED_DOCS:
        doc = REPO / name
        if not doc.is_file():
            problems.append(f"{name}: file missing")
            continue
        for target in _LINK.findall(doc.read_text(encoding="utf-8")):
            if "://" in target or target.startswith("mailto:"):
                continue
            resolved = (doc.parent / target).resolve()
            if not resolved.exists():
                problems.append(f"{name}: broken link -> {target}")
    return problems


def check_bench_docs() -> list[str]:
    """docs/BENCH.md and the EXPERIMENTS registry must agree."""
    from repro.bench.experiments import EXPERIMENTS, SCALES

    problems = []
    bench_md = REPO / "docs" / "BENCH.md"
    if not bench_md.is_file():
        return ["docs/BENCH.md: file missing"]
    text = bench_md.read_text(encoding="utf-8")
    documented = set(_VERB_ROW.findall(text))
    registered = set(EXPERIMENTS)
    for verb in sorted(registered - documented):
        problems.append(f"docs/BENCH.md: experiment {verb!r} is not documented")
    # Scale presets are documented in the same table style; they are
    # known ids, not unknown experiments.
    for verb in sorted(documented - registered - set(SCALES)):
        problems.append(
            f"docs/BENCH.md: documents unknown experiment {verb!r}"
        )
    return problems


def check_cli_help() -> list[str]:
    """``python -m repro.bench --help`` must list every experiment id."""
    from repro.bench.cli import build_parser
    from repro.bench.experiments import EXPERIMENTS

    # argparse wraps long id lists and may break them at hyphens
    # ("ablation-\nrep"); squash all whitespace before matching.
    help_text = re.sub(r"\s+", "", build_parser().format_help())
    return [
        f"bench --help does not mention verb {verb!r}"
        for verb in sorted(EXPERIMENTS)
        if verb not in help_text
    ]


def vocabulary_problems(text: str, canonical: set[str], what: str) -> list[str]:
    """The name rows of ``text`` against ``canonical``, both directions."""
    documented = set(_NAME_ROW.findall(text))
    return [
        f"docs/OBSERVABILITY.md: {what} {name!r} is not documented"
        for name in sorted(canonical - documented)
    ] + [
        f"docs/OBSERVABILITY.md: documents unknown {what} {name!r}"
        for name in sorted(documented - canonical)
    ]


def check_observability_docs() -> list[str]:
    """docs/OBSERVABILITY.md tables must match the code registries.

    Both directions, for all three vocabularies: every canonical
    metric/span/event name needs a doc row and every documented name
    must exist in a registry — events in the structured-events section
    (:func:`vocabulary_problems` against ``EVENTS`` alone), metrics and
    spans everywhere else; the same holds for the HTTP endpoint table
    against ``repro.telemetry.server.ENDPOINTS``.  Metric names contain
    dots and endpoints contain slashes, so the verb tables of BENCH.md
    never collide here.
    """
    from repro.telemetry.events import EVENTS
    from repro.telemetry.naming import METRICS, SPANS
    from repro.telemetry.server import ENDPOINTS

    obs_md = REPO / "docs" / "OBSERVABILITY.md"
    if not obs_md.is_file():
        return ["docs/OBSERVABILITY.md: file missing"]
    text = obs_md.read_text(encoding="utf-8")
    section = _EVENTS_SECTION.search(text)
    if section is None:
        return ["docs/OBSERVABILITY.md: no 'Structured events' section"]
    events_text = section.group()
    problems = vocabulary_problems(
        text.replace(events_text, ""), set(METRICS) | set(SPANS), "metric/span"
    ) + vocabulary_problems(events_text, set(EVENTS), "event")

    documented_paths = set(_ENDPOINT_ROW.findall(text))
    for path in sorted(set(ENDPOINTS) - documented_paths):
        problems.append(
            f"docs/OBSERVABILITY.md: endpoint {path!r} is not documented"
        )
    for path in sorted(documented_paths - set(ENDPOINTS)):
        problems.append(
            f"docs/OBSERVABILITY.md: documents unknown endpoint {path!r}"
        )
    return problems


def check_analysis_docs() -> list[str]:
    """docs/ANALYSIS.md's rule table must match the lint registry.

    ``tools/analysis`` is importable as the top-level ``analysis``
    package because this script's own directory (``tools/``) is on
    ``sys.path`` — both when run as a script and via the test suite's
    explicit insert.
    """
    from analysis.rules import RULES

    analysis_md = REPO / "docs" / "ANALYSIS.md"
    if not analysis_md.is_file():
        return ["docs/ANALYSIS.md: file missing"]
    documented = set(_RULE_ROW.findall(analysis_md.read_text(encoding="utf-8")))
    problems = []
    for rule_id in sorted(set(RULES) - documented):
        problems.append(
            f"docs/ANALYSIS.md: lint rule {rule_id!r} is not documented"
        )
    for rule_id in sorted(documented - set(RULES)):
        problems.append(
            f"docs/ANALYSIS.md: documents unknown lint rule {rule_id!r}"
        )
    return problems


def check_query_layer_hooks() -> list[str]:
    """ARCHITECTURE.md's query-layer section names only real hooks."""
    from repro.index.base import SpatialIndex

    arch_md = REPO / "docs" / "ARCHITECTURE.md"
    if not arch_md.is_file():
        return ["docs/ARCHITECTURE.md: file missing"]
    section = _QUERY_LAYER.search(arch_md.read_text(encoding="utf-8"))
    if section is None:
        return ["docs/ARCHITECTURE.md: no 'The query layer' section"]
    return [
        f"docs/ARCHITECTURE.md: query layer names {hook!r}, which "
        "SpatialIndex does not have"
        for hook in sorted(set(_HOOK.findall(section.group())))
        if not hasattr(SpatialIndex, hook)
    ]


def roadmap_pointer_problems(rel: str, text: str) -> list[str]:
    """Every numbered ``ROADMAP item <n>`` pointer in one file's text."""
    problems = []
    for m in _ROADMAP_ITEM.finditer(text):
        line = text.count("\n", 0, m.start()) + 1
        pointer = " ".join(m.group().split())
        problems.append(
            f"{rel}:{line}: numbered pointer {pointer!r}; name what it "
            "points at instead"
        )
    return problems


def check_roadmap_pointers() -> list[str]:
    """README, docs/, src/ and examples/ carry no numbered ROADMAP pointer."""
    problems = []
    for pattern in POINTER_FREE:
        for path in sorted(REPO.glob(pattern)):
            problems += roadmap_pointer_problems(
                str(path.relative_to(REPO)), path.read_text(encoding="utf-8")
            )
    return problems


def main() -> int:
    problems = (
        check_links()
        + check_bench_docs()
        + check_cli_help()
        + check_observability_docs()
        + check_analysis_docs()
        + check_query_layer_hooks()
        + check_roadmap_pointers()
    )
    for problem in problems:
        print(f"docs-check: {problem}", file=sys.stderr)
    if problems:
        print(f"docs-check: {len(problems)} problem(s)", file=sys.stderr)
        return 1
    print(
        "docs-check: README/docs links, BENCH.md verbs, CLI help, "
        "OBSERVABILITY.md metric/span/event/endpoint tables, the "
        "ANALYSIS.md lint-rule table, ARCHITECTURE.md's query-layer "
        "hooks and the ROADMAP pointers all consistent"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
