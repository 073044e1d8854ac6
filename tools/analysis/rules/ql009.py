"""QL009: slice-column write discipline.

A ``SliceList`` owns its siblings as parallel columns (``cut_lo``,
``begin``, ``end``, ``mbb_lo``, ``mbb_hi``, ``final``, ``children``) and
the walk trusts them blindly: one masked comparison over a column range
replaces every per-slice check.  The invariants between the columns —
equal length, contiguous ranges, increasing cuts, boxes covering members
— are maintained by exactly two modules, the list itself
(``core/slices.py``) and the index that refines, coalesces and remaps it
(``core/quasii.py``).  Any other module may read the columns but not
write them: no assignment, augmented assignment, deletion or in-place
mutator call on a column, whole or subscripted.

The column names are ordinary words (an R-Tree node has ``children``
too), so the rule only looks inside modules that can hold a slice list
at all: those naming ``SliceList`` or one of the forest accessors
(``_tops``, ``_top``, ``_lists``).  As in QL001, ``self.X`` is exempt in
a class that assigns its own ``X``.
"""

from __future__ import annotations

import ast

from ..core import AnalysisConfig, Finding, RepoIndex, flatten_targets
from . import register


def _names_the_forest(tree: ast.Module, config: AnalysisConfig) -> bool:
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and node.id == config.slice_list_class:
            return True
        if isinstance(node, ast.alias) and node.name == config.slice_list_class:
            return True
        if isinstance(node, ast.Attribute) and (
            node.attr in config.forest_accessors
            or node.attr == config.slice_list_class
        ):
            return True
    return False


def _column_of(expr: ast.expr, config: AnalysisConfig) -> ast.Attribute | None:
    """The column attribute ``expr`` writes through (subscripts peeled)."""
    while isinstance(expr, ast.Subscript):
        expr = expr.value
    if isinstance(expr, ast.Attribute) and expr.attr in config.slice_columns:
        return expr
    return None


@register
class SliceColumnDiscipline:
    id = "QL009"
    title = "SliceList columns are only written by core/slices.py and core/quasii.py"

    def run(
        self, index: RepoIndex, config: AnalysisConfig
    ) -> list[Finding]:
        findings: dict[tuple[str, int, int], Finding] = {}
        watched = {
            source.rel
            for source in index.files
            if source.module not in config.slice_writer_modules
            and _names_the_forest(source.tree, config)
        }
        for fn in index.functions:
            if fn.file.rel not in watched:
                continue
            own = fn.cls.own_attrs if fn.cls is not None else set()
            for node in ast.walk(fn.node):
                targets: list[ast.expr] = []
                if isinstance(node, ast.Assign):
                    targets = list(node.targets)
                elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                    targets = [node.target]
                elif isinstance(node, ast.Delete):
                    targets = list(node.targets)
                elif (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in config.inplace_mutators
                ):
                    targets = [node.func.value]
                for target in targets:
                    for leaf in flatten_targets(target):
                        column = _column_of(leaf, config)
                        if column is None:
                            continue
                        base = column.value
                        if (
                            isinstance(base, ast.Name)
                            and base.id == "self"
                            and column.attr in own
                        ):
                            continue  # the class's own same-named attribute
                        # Nested functions are indexed on their own and
                        # walked again under their parent: keep one.
                        key = (fn.file.rel, column.lineno, column.col_offset)
                        findings.setdefault(
                            key,
                            Finding(
                                rule=self.id,
                                path=fn.file.rel,
                                line=column.lineno,
                                col=column.col_offset,
                                symbol=fn.symbol,
                                message=(
                                    f"{config.slice_list_class} column "
                                    f"'.{column.attr}' written outside "
                                    "core/slices.py and core/quasii.py; "
                                    "the columns are read-only elsewhere"
                                ),
                                tag=f"{ast.unparse(base)}.{column.attr}",
                            ),
                        )
        return list(findings.values())
