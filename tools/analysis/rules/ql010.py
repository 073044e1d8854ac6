"""QL010: no unused imports.

The check ruff's F401 makes, on stdlib :mod:`ast` so it runs wherever
the analyzer runs.  An import whose bound name is never read anywhere in
its module is dead weight at best and, at worst, the last trace of a
deleted code path that a reader goes looking for.  A name counts as
read when it appears as a ``Name`` node anywhere in the module, or
inside a string annotation (``x: "Foo"``), which postponed evaluation
still resolves against the imports.

Exempt: ``from __future__`` imports, names listed in the module's
``__all__`` (a re-export is a use), star imports, and package
``__init__.py`` files, whose imports are their public surface (QL007
checks those against ``__all__``).
"""

from __future__ import annotations

import ast

from ..core import AnalysisConfig, Finding, RepoIndex, literal_strings
from . import register


@register
class UnusedImports:
    id = "QL010"
    title = "no unused imports"

    def run(
        self, index: RepoIndex, config: AnalysisConfig
    ) -> list[Finding]:
        findings: list[Finding] = []
        for source in index.files:
            if source.rel.endswith("__init__.py"):
                continue
            used = _names_read(source.tree) | _dunder_all(source.tree)
            for node in ast.walk(source.tree):
                if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                    continue
                if not isinstance(node, (ast.Import, ast.ImportFrom)):
                    continue
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    bound = alias.asname or alias.name.split(".")[0]
                    if bound in used:
                        continue
                    findings.append(
                        Finding(
                            rule=self.id,
                            path=source.rel,
                            line=node.lineno,
                            col=node.col_offset,
                            symbol=f"{source.module}:",
                            message=f"{bound!r} is imported but never used",
                            tag=f"unused:{bound}",
                        )
                    )
        return findings


def _names_read(tree: ast.Module) -> set[str]:
    names: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        for annotation in _annotations(node):
            for sub in ast.walk(annotation):
                if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                    names |= _names_in_string(sub.value)
    return names


def _annotations(node: ast.AST) -> list[ast.expr]:
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        args = node.args
        every = [*args.posonlyargs, *args.args, *args.kwonlyargs]
        every += [a for a in (args.vararg, args.kwarg) if a is not None]
        found = [a.annotation for a in every if a.annotation is not None]
        return found + ([node.returns] if node.returns is not None else [])
    if isinstance(node, ast.AnnAssign):
        return [node.annotation]
    return []


def _names_in_string(text: str) -> set[str]:
    try:
        expr = ast.parse(text, mode="eval")
    except SyntaxError:
        return set()
    return {n.id for n in ast.walk(expr) if isinstance(n, ast.Name)}


def _dunder_all(tree: ast.Module) -> set[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return set(literal_strings(node.value))
    return set()
