"""QL007: export discipline.

The typed public surface (``py.typed``) is only explicit if every
package ``__init__.py`` says what it exports: every name imported at
the top level of an ``__init__.py`` must appear in ``__all__`` (or be
underscore-private), and every ``__all__`` entry must actually be
imported or defined there.  Without this, ``from repro.x import *``
and static importers (mypy's ``implicit_reexport = False`` under
strict mode) disagree with the human-visible API.
"""

from __future__ import annotations

import ast

from ..core import AnalysisConfig, Finding, RepoIndex, literal_strings
from . import register


@register
class ExportDiscipline:
    id = "QL007"
    title = "package __init__ exports match __all__ both ways"

    def run(
        self, index: RepoIndex, config: AnalysisConfig
    ) -> list[Finding]:
        findings: list[Finding] = []
        for source in index.files:
            if not source.rel.endswith("__init__.py"):
                continue
            imported: dict[str, int] = {}
            defined: dict[str, int] = {}
            dunder_all: list[str] | None = None
            all_lineno = 1
            for node in source.tree.body:
                if isinstance(node, (ast.Import, ast.ImportFrom)):
                    if (
                        isinstance(node, ast.ImportFrom)
                        and node.module == "__future__"
                    ):
                        continue
                    for alias in node.names:
                        name = alias.asname or alias.name.split(".")[0]
                        imported[name] = node.lineno
                elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                    defined[node.name] = node.lineno
                elif isinstance(node, ast.Assign):
                    for target in node.targets:
                        if isinstance(target, ast.Name):
                            if target.id == "__all__":
                                dunder_all = literal_strings(node.value)
                                all_lineno = node.lineno
                            else:
                                defined[target.id] = node.lineno
            if not imported and not defined:
                continue  # empty namespace __init__
            if dunder_all is None:
                findings.append(
                    Finding(
                        rule=self.id,
                        path=source.rel,
                        line=1,
                        col=0,
                        symbol=f"{source.module}:",
                        message=(
                            "package __init__ imports names but defines "
                            "no __all__; the public surface is implicit"
                        ),
                        tag="missing-__all__",
                    )
                )
                continue
            exported = set(dunder_all)
            available = {**imported, **defined}
            public = {
                name: line
                for name, line in available.items()
                if not name.startswith("_")
            }
            for name in sorted(set(public) - exported):
                findings.append(
                    Finding(
                        rule=self.id,
                        path=source.rel,
                        line=public[name],
                        col=0,
                        symbol=f"{source.module}:",
                        message=(
                            f"{name!r} is imported/defined at package "
                            "level but missing from __all__"
                        ),
                        tag=f"unexported:{name}",
                    )
                )
            for name in sorted(exported - set(available)):
                findings.append(
                    Finding(
                        rule=self.id,
                        path=source.rel,
                        line=all_lineno,
                        col=0,
                        symbol=f"{source.module}:",
                        message=(
                            f"__all__ lists {name!r} which is neither "
                            "imported nor defined in the __init__"
                        ),
                        tag=f"phantom:{name}",
                    )
                )
        return findings
