"""The pluggable rule registry.

Each rule is a class with an ``id`` (``QLnnn``), a one-line ``title``,
and a ``run(index, config) -> list[Finding]`` method.  :data:`RULES`
maps id -> rule class; ``docs/ANALYSIS.md``'s rule table is checked
against it in both directions by ``tools/check_docs.py``, so a rule
cannot ship undocumented and a doc row cannot go stale.

Adding a rule: drop a module here, decorate the class with
:func:`register`, document it in docs/ANALYSIS.md, and give it a
fixture test in ``tests/unit/test_quasii_lint.py`` proving it fires.
"""

from __future__ import annotations

from typing import Protocol

from ..core import AnalysisConfig, Finding, RepoIndex

__all__ = ["RULES", "Rule", "all_rules", "register"]


class Rule(Protocol):
    id: str
    title: str

    def run(
        self, index: RepoIndex, config: AnalysisConfig
    ) -> list[Finding]: ...


RULES: dict[str, type] = {}


def register(rule_cls: type) -> type:
    """Class decorator adding a rule to :data:`RULES` (id collision raises)."""
    rule_id = rule_cls.id
    if rule_id in RULES:
        raise ValueError(f"duplicate rule id {rule_id!r}")
    RULES[rule_id] = rule_cls
    return rule_cls


def all_rules() -> list[Rule]:
    """One instance of every registered rule, in id order."""
    return [RULES[rule_id]() for rule_id in sorted(RULES)]


# Importing the modules populates the registry.
from . import (  # noqa: E402,F401
    ql001, ql004, ql005, ql006, ql007, ql008, ql009, ql010,
)
