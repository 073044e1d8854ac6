"""QL005: telemetry vocabulary discipline.

``tools/check_docs.py`` already proves that the *vocabulary*
(``telemetry/naming.py``'s METRICS/SPANS, ``events.py``'s EVENTS) and
``docs/OBSERVABILITY.md`` agree — but it cannot see the code->vocabulary
direction: an instrumentation site spelling a string literal inline
(``registry.histogram("query.sceonds")``) would silently create an
undocumented, misspelled metric.  This rule closes that direction:
every *string literal* passed as the name argument of a
``histogram()``/``counter()``/``span()``/``emit()`` call
must be a canonical name.  Non-literal arguments (the ``naming.py``
constants, ``stats_metric(...)``, f-strings) are the sanctioned
spelling and pass untouched.
"""

from __future__ import annotations

import ast

from ..core import AnalysisConfig, Finding, RepoIndex
from . import register


@register
class TelemetryVocabulary:
    id = "QL005"
    title = "telemetry name literals come from the canonical vocabulary"

    def run(
        self, index: RepoIndex, config: AnalysisConfig
    ) -> list[Finding]:
        if config.vocab is None:
            return []
        findings: list[Finding] = []
        for source in index.files:
            for node in ast.walk(source.tree):
                if not isinstance(node, ast.Call):
                    continue
                func = node.func
                if not (
                    isinstance(func, ast.Attribute)
                    and func.attr in config.vocab_calls
                ):
                    continue
                if not node.args:
                    continue
                first = node.args[0]
                if not (
                    isinstance(first, ast.Constant)
                    and isinstance(first.value, str)
                ):
                    continue
                if first.value in config.vocab:
                    continue
                findings.append(
                    Finding(
                        rule=self.id,
                        path=source.rel,
                        line=node.lineno,
                        col=node.col_offset,
                        symbol=f"{source.module}:",
                        message=(
                            f".{func.attr}({first.value!r}) uses a name "
                            "outside the canonical telemetry vocabulary "
                            "(telemetry/naming.py METRICS/SPANS, "
                            "events.py EVENTS); add it there (and to "
                            "docs/OBSERVABILITY.md) or import the "
                            "existing constant"
                        ),
                        tag=f"{func.attr}:{first.value}",
                    )
                )
        return findings
