"""QL001: BoxStore mutation discipline.

The store supports exactly four mutations (permute, append, tombstone
delete, compact) and every index/test invariant is phrased against
them.  Code that reaches into the store's private arrays (``_lo``,
``_live``, ``_epoch``, ...) from outside the :class:`BoxStore` class
can silently break the live-multiset invariant, skip the epoch bump,
or desynchronize ``_n_dead`` — so those attributes may only be touched
inside the store's own methods.  Everything else goes through the
public views (``store.lo``/``store.live``) and the verb methods.

A class other than the store may own a same-named attribute of its own
(the frozen ``Query`` caches its corners as ``self._lo`` / ``self._hi``);
``self.X`` accesses are therefore exempt when the enclosing class itself
assigns ``X``.
"""

from __future__ import annotations

import ast

from ..core import AnalysisConfig, Finding, RepoIndex
from . import register


@register
class MutationDiscipline:
    id = "QL001"
    title = "private BoxStore state is only touched inside the store"

    def run(
        self, index: RepoIndex, config: AnalysisConfig
    ) -> list[Finding]:
        findings: list[Finding] = []
        for fn in index.functions:
            cls = fn.cls
            if cls is not None and cls.name == config.store_class:
                continue
            own = cls.own_attrs if cls is not None else set()
            for node in ast.walk(fn.node):
                if not isinstance(node, ast.Attribute):
                    continue
                if node.attr not in config.store_private_attrs:
                    continue
                base = node.value
                if (
                    isinstance(base, ast.Name)
                    and base.id == "self"
                    and node.attr in own
                ):
                    continue  # the class's own same-named attribute
                findings.append(
                    Finding(
                        rule=self.id,
                        path=fn.file.rel,
                        line=node.lineno,
                        col=node.col_offset,
                        symbol=fn.symbol,
                        message=(
                            f"private {config.store_class} state "
                            f"'.{node.attr}' accessed outside the store; "
                            "use the public views or the "
                            "append/delete_ids/compact/apply_order verbs"
                        ),
                        tag=f"{ast.unparse(base)}.{node.attr}",
                    )
                )
        return findings
