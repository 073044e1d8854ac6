"""Report rendering and persistence for experiments.

Every experiment produces an :class:`ExperimentReport`: a set of titled
tables (the "rows/series the paper reports") plus free-form notes that
state the expected shape from the paper next to the measured outcome,
and an optional machine-readable ``metrics`` payload (time-series
windows, span attributions) for experiments that produce more than
tables.

Reports render to plain text for humans *and*, on request
(``--json-out``), persist to ``BENCH_<verb>.json`` files under a shared
schema (:data:`BENCH_SCHEMA`, documented in docs/OBSERVABILITY.md).
:func:`validate_bench_json` is the single gatekeeper:
:func:`write_bench_json` refuses to write a document that fails it.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

#: Schema identifier stamped into every persisted bench result.
BENCH_SCHEMA = "repro-bench/1"

#: Filename pattern for persisted results (``verb`` is the experiment id).
BENCH_FILENAME = "BENCH_{verb}.json"


@dataclass
class Table:
    """One printable table."""

    title: str
    headers: list[str]
    rows: list[list[str]]


@dataclass
class ExperimentReport:
    """Everything an experiment run produced."""

    experiment: str
    description: str
    tables: list[Table] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)
    #: Machine-readable payload persisted verbatim into the JSON result
    #: (must be JSON-serializable).  The figures put the
    #: machine-independent totals behind their claims here (what
    #: ``benchmarks/test_*.py`` asserts on).
    metrics: dict = field(default_factory=dict)

    def add_table(
        self, title: str, headers: Sequence[str], rows: Sequence[Sequence[object]]
    ) -> None:
        """Append a table, stringifying all cells."""
        self.tables.append(
            Table(title, [str(h) for h in headers], [[_fmt(c) for c in r] for r in rows])
        )

    def add_note(self, note: str) -> None:
        """Append a free-form observation line."""
        self.notes.append(note)

    def render(self) -> str:
        """Render the full report as plain text."""
        out: list[str] = []
        bar = "=" * 72
        out.append(bar)
        out.append(f"{self.experiment}: {self.description}")
        out.append(bar)
        for table in self.tables:
            out.append("")
            out.append(f"-- {table.title}")
            out.append(render_table(table.headers, table.rows))
        if self.notes:
            out.append("")
            for note in self.notes:
                out.append(f"* {note}")
        out.append("")
        return "\n".join(out)


def _fmt(cell: object) -> str:
    if isinstance(cell, float):
        if cell == 0:
            return "0"
        if abs(cell) >= 1000:
            return f"{cell:,.0f}"
        if abs(cell) >= 1:
            return f"{cell:.3f}"
        return f"{cell:.5f}"
    return str(cell)


def render_table(headers: Sequence[str], rows: Sequence[Sequence[str]]) -> str:
    """Fixed-width ASCII table."""
    cols = len(headers)
    widths = [len(h) for h in headers]
    for row in rows:
        for i in range(cols):
            widths[i] = max(widths[i], len(row[i]) if i < len(row) else 0)

    def line(cells: Sequence[str]) -> str:
        return "  ".join(
            str(cells[i]).rjust(widths[i]) if i else str(cells[i]).ljust(widths[i])
            for i in range(cols)
        )

    sep = "  ".join("-" * w for w in widths)
    body = [line(headers), sep]
    body.extend(line(r) for r in rows)
    return "\n".join(body)


# ---------------------------------------------------------------------------
# Persistence: BENCH_<verb>.json under the repro-bench/1 schema
# ---------------------------------------------------------------------------

def to_json_dict(
    report: ExperimentReport, scale: str, elapsed_seconds: float
) -> dict:
    """The ``repro-bench/1`` document for one experiment run."""
    return {
        "schema": BENCH_SCHEMA,
        "verb": report.experiment,
        "scale": scale,
        "created_unix": time.time(),
        "elapsed_seconds": float(elapsed_seconds),
        "description": report.description,
        "tables": [
            {"title": t.title, "headers": list(t.headers), "rows": [list(r) for r in t.rows]}
            for t in report.tables
        ],
        "notes": list(report.notes),
        "metrics": report.metrics,
    }


def write_bench_json(
    report: ExperimentReport,
    directory: str | Path,
    scale: str,
    elapsed_seconds: float,
) -> Path:
    """Persist one run as ``<directory>/BENCH_<verb>.json`` (overwrite).

    The document is validated before writing — a bench verb that would
    persist a malformed trajectory point fails at the source, not in CI.
    """
    doc = to_json_dict(report, scale, elapsed_seconds)
    problems = validate_bench_json(doc)
    if problems:
        raise ValueError(
            f"refusing to persist invalid bench result: {'; '.join(problems)}"
        )
    path = Path(directory) / BENCH_FILENAME.format(verb=report.experiment)
    path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    return path


def validate_bench_json(doc: object) -> list[str]:
    """Check a document against the ``repro-bench/1`` schema.

    Returns a list of human-readable problems (empty = valid).
    """
    problems: list[str] = []
    if not isinstance(doc, dict):
        return [f"document is {type(doc).__name__}, expected object"]
    if doc.get("schema") != BENCH_SCHEMA:
        problems.append(
            f"schema is {doc.get('schema')!r}, expected {BENCH_SCHEMA!r}"
        )
    for key, kind in (
        ("verb", str),
        ("scale", str),
        ("description", str),
        ("created_unix", (int, float)),
        ("elapsed_seconds", (int, float)),
        ("tables", list),
        ("notes", list),
        ("metrics", dict),
    ):
        if not isinstance(doc.get(key), kind):
            problems.append(f"field {key!r} missing or not {kind}")
    if problems:
        return problems
    if not doc["verb"]:
        problems.append("field 'verb' is empty")
    if doc["elapsed_seconds"] < 0:
        problems.append("field 'elapsed_seconds' is negative")
    for i, table in enumerate(doc["tables"]):
        where = f"tables[{i}]"
        if not isinstance(table, dict):
            problems.append(f"{where} is not an object")
            continue
        headers = table.get("headers")
        if not isinstance(table.get("title"), str):
            problems.append(f"{where}.title missing or not a string")
        if not isinstance(headers, list) or not headers:
            problems.append(f"{where}.headers missing or empty")
            continue
        rows = table.get("rows")
        if not isinstance(rows, list):
            problems.append(f"{where}.rows missing or not a list")
            continue
        for j, row in enumerate(rows):
            if not isinstance(row, list) or len(row) != len(headers):
                problems.append(
                    f"{where}.rows[{j}] does not match the header width"
                )
    if not all(isinstance(n, str) for n in doc["notes"]):
        problems.append("field 'notes' must contain only strings")
    return problems
