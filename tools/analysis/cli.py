"""The ``quasii-lint`` command line.

Run from the repository root::

    python -m tools.analysis                 # human report
    python -m tools.analysis --json          # machine-readable report
    python -m tools.analysis --update-baseline

Exit codes: ``0`` clean (baselined findings allowed), ``1`` new
findings or stale baseline entries, ``2`` usage/internal error.  CI
runs the ``--json`` form and uploads the report as an artifact.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from pathlib import Path

from .baseline import Baseline
from .core import AnalysisConfig, Finding, analyze
from .rules import RULES, all_rules
from .vocab import load_repo_vocab

__all__ = ["main", "mypy_burn_down"]

REPO = Path(__file__).resolve().parents[2]
DEFAULT_ROOT = REPO / "src" / "repro"
DEFAULT_BASELINE = Path(__file__).resolve().parent / "baseline.json"
#: The trees whose references keep a definition alive (QL012); tests
#: are not among them.
REFERENCE_ROOTS = tuple(
    REPO / tree for tree in ("src", "benchmarks", "examples", "tools")
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quasii-lint",
        description=(
            "AST-based invariant analyzer for the QUASII engine: "
            "mutation/compaction/concurrency discipline, dtype and "
            "telemetry-vocabulary checks, orphan definitions (rules QL001..QL012)."
        ),
    )
    parser.add_argument(
        "root",
        nargs="?",
        default=str(DEFAULT_ROOT),
        help="directory tree to analyze (default: src/repro)",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="emit a machine-readable JSON report on stdout",
    )
    parser.add_argument(
        "--baseline",
        default=str(DEFAULT_BASELINE),
        help="baseline file (default: tools/analysis/baseline.json)",
    )
    parser.add_argument(
        "--no-baseline",
        action="store_true",
        help="ignore the baseline: every finding is blocking",
    )
    parser.add_argument(
        "--update-baseline",
        action="store_true",
        help="rewrite the baseline to exactly the current findings",
    )
    parser.add_argument(
        "--rules",
        default=None,
        metavar="IDS",
        help="comma-separated rule ids to run (default: all)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="list registered rules and exit",
    )
    parser.add_argument(
        "--no-vocab",
        action="store_true",
        help="skip loading the telemetry vocabulary (disables QL005)",
    )
    return parser


def mypy_burn_down(pyproject: Path) -> list[str]:
    """Modules still on the strict-mypy ignore ladder, from pyproject.

    Parses ``[[tool.mypy.overrides]]`` entries carrying
    ``ignore_errors = true``.  Returns ``[]`` when the file, the
    section, or a TOML parser (stdlib ``tomllib``, 3.11+) is missing —
    the burn-down report is informational, never blocking.
    """
    if not pyproject.is_file():
        return []
    try:
        import tomllib
    except ImportError:  # pragma: no cover - Python 3.10
        return []
    try:
        data = tomllib.loads(pyproject.read_text(encoding="utf-8"))
    except tomllib.TOMLDecodeError:
        return []
    overrides = data.get("tool", {}).get("mypy", {}).get("overrides", [])
    modules: list[str] = []
    for entry in overrides:
        if not entry.get("ignore_errors"):
            continue
        listed = entry.get("module", [])
        if isinstance(listed, str):
            listed = [listed]
        modules.extend(listed)
    return sorted(modules)


def _render_human(
    findings: list[Finding],
    new_fps: set[int],
    stale: list[str],
    ladder: list[str],
    root_display: str,
) -> None:
    for finding in findings:
        status = "new" if id(finding) in new_fps else "baselined"
        print(
            f"{root_display}/{finding.path}:{finding.line}:{finding.col + 1}: "
            f"{finding.rule} [{status}] {finding.message}"
        )
    for fingerprint in stale:
        print(f"stale baseline entry (fix shipped? run --update-baseline): "
              f"{fingerprint}")
    counts: dict[str, int] = {}
    for finding in findings:
        counts[finding.rule] = counts.get(finding.rule, 0) + 1
    summary = ", ".join(f"{k}={v}" for k, v in sorted(counts.items()))
    n_new = len(new_fps)
    print(
        f"quasii-lint: {len(findings)} finding(s) "
        f"({n_new} new, {len(findings) - n_new} baselined, "
        f"{len(stale)} stale baseline entr{'y' if len(stale) == 1 else 'ies'})"
        + (f" [{summary}]" if summary else "")
    )
    if ladder:
        print(
            f"strict-typing burn-down: {len(ladder)} module pattern(s) "
            f"still on the mypy ignore ladder: {', '.join(ladder)}"
        )


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule_id in sorted(RULES):
            print(f"{rule_id}  {RULES[rule_id].title}")
        return 0

    root = Path(args.root)
    if not root.is_dir():
        print(f"quasii-lint: no such directory: {root}", file=sys.stderr)
        return 2

    config = AnalysisConfig(reference_roots=REFERENCE_ROOTS)
    if not args.no_vocab:
        try:
            config = config.with_vocab(load_repo_vocab(REPO))
        except ImportError as exc:
            print(
                f"quasii-lint: cannot load telemetry vocabulary ({exc}); "
                "QL005 disabled",
                file=sys.stderr,
            )

    rules = all_rules()
    if args.rules:
        wanted = {part.strip().upper() for part in args.rules.split(",")}
        unknown = wanted - set(RULES)
        if unknown:
            print(
                f"quasii-lint: unknown rule id(s): {', '.join(sorted(unknown))}",
                file=sys.stderr,
            )
            return 2
        rules = [rule for rule in rules if rule.id in wanted]

    findings = analyze(root, config, rules)

    baseline_path = Path(args.baseline)
    if args.update_baseline:
        Baseline.from_findings(findings).save(baseline_path)
        print(
            f"quasii-lint: baseline updated with {len(findings)} "
            f"fingerprint(s) -> {baseline_path}"
        )
        return 0

    baseline = (
        Baseline([]) if args.no_baseline else Baseline.load(baseline_path)
    )
    diff = baseline.diff(findings)
    new_ids = {id(finding) for finding in diff.new}

    try:
        root_display = root.resolve().relative_to(REPO).as_posix()
    except ValueError:
        root_display = str(root)

    ladder = mypy_burn_down(REPO / "pyproject.toml")

    if args.json:
        report = {
            "format": "quasii-lint/1",
            "root": root_display,
            "rules": {rule_id: RULES[rule_id].title for rule_id in sorted(RULES)},
            "findings": [
                {**finding.to_dict(), "status": (
                    "new" if id(finding) in new_ids else "baselined"
                )}
                for finding in findings
            ],
            "stale_baseline": diff.stale,
            "mypy_burn_down": ladder,
            "summary": {
                "total": len(findings),
                "new": len(diff.new),
                "baselined": len(diff.baselined),
                "stale": len(diff.stale),
            },
        }
        print(json.dumps(report, indent=2))
    else:
        _render_human(findings, new_ids, diff.stale, ladder, root_display)
        if not findings and not diff.stale:
            print("quasii-lint: clean")

    return 1 if diff.blocking else 0


# Re-exported so ``tools/check_docs.py`` can verify the doc table.
RULE_ID_PATTERN = re.compile(r"QL\d{3}")
