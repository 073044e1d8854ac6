"""quasii-lint: repo-specific static analysis for the QUASII engine.

The engine's correctness rests on conventions that generic linters
cannot see: the four-mutation :class:`BoxStore` contract, explicit numpy
dtypes, the canonical telemetry vocabulary, picklable process-boundary
payloads, and the slice-column writers.  This package parses
``src/repro`` with :mod:`ast`, builds a lightweight module/class/call
index (:class:`~analysis.core.RepoIndex`), and runs pluggable rules
(QL001..QL010 minus the two retired ids, 002 and 003; registered in
:mod:`analysis.rules`) over it.

Usage (from the repository root)::

    python -m tools.analysis                # human report, exit 1 on findings
    python -m tools.analysis --json         # machine-readable findings
    python -m tools.analysis --update-baseline

Findings are suppressed either inline (``# ql: allow[QL004]`` on the
flagged line) or via the committed baseline file
(``tools/analysis/baseline.json``); a baseline entry that no longer
matches any finding is *stale* and fails the run, so the baseline can
only ever shrink.  See ``docs/ANALYSIS.md`` for the rule catalogue and
the workflow.
"""

from .core import AnalysisConfig, Finding, RepoIndex, analyze
from .rules import RULES, all_rules

__all__ = [
    "AnalysisConfig",
    "Finding",
    "RULES",
    "RepoIndex",
    "all_rules",
    "analyze",
]
