"""QL012: every public definition has a caller outside the tests.

A public function or class, or a public method of a module-level class,
that only tests reach is code the engine carries for nobody: it is read,
type-checked and kept in step with every refactor, and it never runs in
a benchmark, an example or a served query.  Such a definition needs one
reference outside its own body, in some module of the scan root or of
the configured reference roots (``src``, ``benchmarks``, ``examples``,
``tools``).  A reference is a ``Name`` or an ``Attribute`` with the
definition's name; string annotations count, read the way QL010 reads
them.  Imports and ``__all__`` strings re-export a name and so never
count.

The match is by name: if a used definition elsewhere shares the name,
the orphan passes.  Exempt: private and dunder names, members of a
``Protocol`` and classes nested in a function or class.  A test oracle
(a structure check, a round-trip inverse) carries
``# ql: allow[QL012] <its role>`` on its ``def`` line.
"""

from __future__ import annotations

import ast
from collections import defaultdict
from pathlib import Path

from ..core import AnalysisConfig, Finding, RepoIndex, string_annotations
from . import register

#: One reference: (file, line) of the node naming the definition.
_Site = tuple[str, int]


@register
class OrphanDefinitions:
    id = "QL012"
    title = "public definitions are reached by non-test code"

    def run(
        self, index: RepoIndex, config: AnalysisConfig
    ) -> list[Finding]:
        sites: dict[str, list[_Site]] = defaultdict(list)
        scanned = {source.path.resolve() for source in index.files}
        for source in index.files:
            _collect(source.tree, str(source.path.resolve()), sites)
        for root in config.reference_roots:
            for path in sorted(Path(root).rglob("*.py")):
                if path.resolve() in scanned:
                    continue
                scanned.add(path.resolve())
                tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
                _collect(tree, str(path.resolve()), sites)

        findings: list[Finding] = []
        for source in index.files:
            where = str(source.path.resolve())
            for node, qualname in _definitions(source.tree):
                span = range(node.lineno, (node.end_lineno or node.lineno) + 1)
                if any(
                    path != where or line not in span
                    for path, line in sites.get(node.name, ())
                ):
                    continue
                findings.append(
                    Finding(
                        rule=self.id,
                        path=source.rel,
                        line=node.lineno,
                        col=node.col_offset,
                        symbol=f"{source.module}:{qualname}",
                        message=(
                            f"{qualname!r} is referenced by no module outside "
                            "the tests; delete it, or pragma a test oracle"
                        ),
                        tag=f"orphan:{qualname}",
                    )
                )
        return findings


def _collect(tree: ast.Module, path: str, sites: dict[str, list[_Site]]) -> None:
    """Record every ``Name``/``Attribute`` of ``tree``, and of its string
    annotations (at the annotated node's line), by the name it reads."""
    for node in ast.walk(tree):
        parsed = [sub for expr in string_annotations(node) for sub in ast.walk(expr)]
        for sub in (node, *parsed):
            if isinstance(sub, ast.Name):
                sites[sub.id].append((path, node.lineno))
            elif isinstance(sub, ast.Attribute):
                sites[sub.attr].append((path, node.lineno))


_Def = ast.FunctionDef | ast.AsyncFunctionDef | ast.ClassDef


def _definitions(tree: ast.Module) -> list[tuple[_Def, str]]:
    """Public module-level functions and classes, and the public methods
    of module-level classes that are not ``Protocol`` s."""
    found: list[tuple[_Def, str]] = []
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        if node.name.startswith("_"):
            continue
        found.append((node, node.name))
        if not isinstance(node, ast.ClassDef) or _is_protocol(node):
            continue
        for member in node.body:
            if isinstance(
                member, (ast.FunctionDef, ast.AsyncFunctionDef)
            ) and not member.name.startswith("_"):
                found.append((member, f"{node.name}.{member.name}"))
    return found


def _is_protocol(node: ast.ClassDef) -> bool:
    return any(
        (isinstance(base, ast.Name) and base.id == "Protocol")
        or (isinstance(base, ast.Attribute) and base.attr == "Protocol")
        for base in node.bases
    )
