#!/usr/bin/env python3
"""Documentation consistency checks (run by CI and the test suite).

Twelve checks, all filesystem/CLI-only:

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
9. **No orphan event kinds** — every kind in
   ``repro.telemetry.events.EVENTS`` is the literal first argument of
   some ``.emit(...)`` call under ``src/repro``.  Check 4 and quasii-lint
   rule QL005 hold vocabulary <-> docs and code -> vocabulary; this is
   vocabulary -> code, so a kind cannot outlive its last emitter.
10. **No orphan metrics** — every hand-listed metric constant of
    ``repro.telemetry.naming`` (a ``METRICS`` name; the generated
    ``stats.*`` family has no constants) is referenced by name in some
    module under ``src/repro`` other than ``naming.py``, so a metric
    cannot outlive its last recorder.
11. **No orphan counters** — every ``repro.index.base.IndexStats``
    field is written under ``src/repro`` outside the dataclass body:
    assigned as ``stats.<field>`` (``self.stats.<field> += ...`` and the
    like), or listed in ``WORK_COUNTERS`` (which the fleet roll-ups
    write by name), so a counter cannot outlive its last writer and
    export a ``stats.*`` metric that always reads 0.
12. **Documented parameters match the signature** — every numpydoc
    ``Parameters`` section under ``src/repro`` names exactly the
    parameters of its function, or of its class's ``__init__`` (``self``
    aside; ``a, b:`` and ``host / port:`` entries name two), in both
    directions, so a deleted option cannot stay documented and a new one
    cannot ship undocumented.

Exit status 0 when everything holds; 1 with a per-problem report
otherwise.  Run from the repository root::

    PYTHONPATH=src python tools/check_docs.py
"""

from __future__ import annotations

import ast
import inspect
import re
import sys
from collections.abc import Iterator
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


def src_trees() -> Iterator[tuple[str, ast.AST]]:
    """``(repo-relative path, parsed module)`` for every module under
    ``src/repro``: what the orphan checks search."""
    for path in sorted((REPO / "src" / "repro").rglob("*.py")):
        rel = path.relative_to(REPO).as_posix()
        yield rel, ast.parse(path.read_text(encoding="utf-8"))


def emitted_event_kinds() -> set[str]:
    """Every string literal passed first to an ``.emit(...)`` call
    under ``src/repro`` (the spelling QL005 holds to the vocabulary)."""
    kinds = set()
    for _, tree in src_trees():
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "emit"
                and node.args
                and isinstance(node.args[0], ast.Constant)
                and isinstance(node.args[0].value, str)
            ):
                kinds.add(node.args[0].value)
    return kinds


#: One problem line per orphan, by vocabulary.
ORPHAN_EVENT = "repro/telemetry/events.py: event {!r} is never emitted under src/repro"
ORPHAN_METRIC = (
    "repro/telemetry/naming.py: metric {!r} is never referenced under src/repro"
)
ORPHAN_COUNTER = (
    "repro/index/base.py: IndexStats counter {!r} is never written under src/repro"
)


def orphan_problems(canonical: set[str], used: set[str], message: str) -> list[str]:
    """One ``message`` per canonical name that ``used`` lacks, sorted."""
    return [message.format(name) for name in sorted(canonical - used)]


def check_orphan_events() -> list[str]:
    """Every canonical event kind has an emitter under ``src/repro``."""
    from repro.telemetry.events import EVENTS

    return orphan_problems(set(EVENTS), emitted_event_kinds(), ORPHAN_EVENT)


def metric_constants() -> set[str]:
    """The hand-listed metric constants: module-level names of
    ``repro.telemetry.naming`` bound to a ``METRICS`` key."""
    from repro.telemetry import naming

    return {
        name
        for name, value in vars(naming).items()
        if name.isupper() and isinstance(value, str) and value in naming.METRICS
    }


def referenced_names() -> set[str]:
    """Every bare or attribute name used under ``src/repro``, outside
    ``naming.py`` (where each constant is defined, not recorded)."""
    names = set()
    for rel, tree in src_trees():
        if rel == "src/repro/telemetry/naming.py":
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
    return names


def check_orphan_metrics() -> list[str]:
    """Every hand-listed metric constant is used under ``src/repro``."""
    return orphan_problems(metric_constants(), referenced_names(), ORPHAN_METRIC)


def _is_stats(node: ast.expr) -> bool:
    """``stats`` or ``<anything>.stats``: an ``IndexStats`` holder."""
    return (isinstance(node, ast.Name) and node.id == "stats") or (
        isinstance(node, ast.Attribute) and node.attr == "stats"
    )


def written_counters() -> set[str]:
    """Every field assigned as ``stats.<field>`` under ``src/repro``
    outside the ``IndexStats`` body, plus the ``WORK_COUNTERS`` names."""
    from repro.index.base import WORK_COUNTERS

    written = set(WORK_COUNTERS)
    for _, tree in src_trees():
        body = {
            id(inner)
            for node in ast.walk(tree)
            if isinstance(node, ast.ClassDef) and node.name == "IndexStats"
            for inner in ast.walk(node)
        }
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.ctx, ast.Store)
                and _is_stats(node.value)
                and id(node) not in body
            ):
                written.add(node.attr)
    return written


def check_orphan_counters() -> list[str]:
    """Every ``IndexStats`` counter has a writer under ``src/repro``."""
    from repro.index import base

    return orphan_problems(
        set(base.IndexStats().as_dict()), written_counters(), ORPHAN_COUNTER
    )


#: A numpydoc section underline.
_RULE = re.compile(r"-{3,}")


def documented_parameters(doc: str) -> list[str] | None:
    """The names a numpydoc ``Parameters`` section lists, in order;
    ``None`` when ``doc`` has no such section.

    Entries are the section's unindented lines, up to the next section
    header; an entry's names run to its first colon, split at commas
    and slashes.
    """
    lines = inspect.cleandoc(doc).splitlines()
    headers = [
        i for i in range(len(lines) - 1)
        if lines[i].strip() and _RULE.fullmatch(lines[i + 1].strip())
    ]
    start = next((i for i in headers if lines[i].strip() == "Parameters"), None)
    if start is None:
        return None
    end = min((i for i in headers if i > start), default=len(lines))
    names = []
    for line in lines[start + 2 : end]:
        if line.strip() and not line[0].isspace():
            entry = line.split(":", 1)[0]
            names += [name.strip().lstrip("*") for name in re.split(r"[,/]", entry)]
    return names


def _signature(func: ast.FunctionDef | ast.AsyncFunctionDef) -> list[str]:
    args = func.args
    names = [a.arg for a in (*args.posonlyargs, *args.args, *args.kwonlyargs)]
    names += [a.arg for a in (args.vararg, args.kwarg) if a is not None]
    return [name for name in names if name not in ("self", "cls")]


def _init_parameters(cls: ast.ClassDef) -> list[str] | None:
    """The parameters of ``cls.__init__``: its own, or a dataclass's
    generated one (the annotated fields); ``None`` when it has neither."""
    for item in cls.body:
        if isinstance(item, ast.FunctionDef) and item.name == "__init__":
            return _signature(item)
    decorators = [d.func if isinstance(d, ast.Call) else d for d in cls.decorator_list]
    if any(isinstance(d, ast.Name) and d.id == "dataclass" for d in decorators):
        return [
            item.target.id
            for item in cls.body
            if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)
        ]
    return None


def parameter_doc_problems(rel: str, tree: ast.AST) -> list[str]:
    """Check 12 over one parsed module (``rel`` labels the problems)."""
    problems = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        doc = ast.get_docstring(node, clean=False)
        documented = documented_parameters(doc) if doc else None
        if documented is None:
            continue
        where = f"{rel}:{node.lineno}: {node.name}"
        actual = (
            _init_parameters(node) if isinstance(node, ast.ClassDef) else _signature(node)
        )
        if actual is None:
            problems.append(f"{where} documents Parameters but has no __init__")
            continue
        for name in documented:
            if name not in actual:
                problems.append(f"{where} documents {name!r}, not a parameter")
        for name in actual:
            if name not in documented:
                problems.append(f"{where} does not document parameter {name!r}")
    return problems


def check_documented_parameters() -> list[str]:
    """Every ``Parameters`` section under ``src/repro`` fits its signature."""
    problems = []
    for rel, tree in src_trees():
        problems += parameter_doc_problems(rel, tree)
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
        + check_orphan_events()
        + check_orphan_metrics()
        + check_orphan_counters()
        + check_documented_parameters()
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
        "hooks, the ROADMAP pointers, the event emitters, the metric "
        "recorders, the counter writers and the documented parameters "
        "all consistent"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
