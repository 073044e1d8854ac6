"""Analysis substrate: source loading, the repo index, findings, pragmas.

Everything here is rule-agnostic.  A :class:`RepoIndex` is built once
per run by parsing every ``*.py`` under the scan root with :mod:`ast`
and recording, per module: classes (with their bases, methods, and the
instance attributes their methods assign), module-level functions, and
nested functions (closures) with their full qualname chain.  Rules
receive the index plus an :class:`AnalysisConfig` and return
:class:`Finding` lists; :func:`analyze` applies inline-pragma
suppression and returns the surviving findings sorted by location.

Fingerprints deliberately exclude line numbers — a baseline entry must
survive unrelated edits above the finding — and are matched as a
*multiset* (two identical violations in one function need two baseline
entries).
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Iterable, Iterator

__all__ = [
    "AnalysisConfig",
    "ClassInfo",
    "FunctionInfo",
    "Finding",
    "RepoIndex",
    "SourceFile",
    "analyze",
    "flatten_targets",
    "literal_strings",
    "self_assign_targets",
]

#: Inline suppression: ``# ql: allow[QL004]`` or ``# ql: allow[QL001, QL006]``
#: or ``# ql: allow[*]``; anywhere on the flagged line.
_PRAGMA = re.compile(r"#\s*ql:\s*allow\[([A-Za-z0-9_*,\s]+)\]")


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location."""

    rule: str
    path: str  # scan-root-relative posix path
    line: int
    col: int
    symbol: str  # "module:Class.method" context ("" at module level)
    message: str
    tag: str  # stable detail key; part of the fingerprint

    @property
    def fingerprint(self) -> str:
        """Line-number-free identity used by the baseline file."""
        return f"{self.rule}|{self.path}|{self.symbol}|{self.tag}"

    def to_dict(self) -> dict[str, object]:
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "symbol": self.symbol,
            "message": self.message,
            "fingerprint": self.fingerprint,
        }


@dataclass
class SourceFile:
    """One parsed module."""

    path: Path
    rel: str  # posix path relative to the scan root
    module: str  # dotted module name relative to the scan root
    text: str
    tree: ast.Module
    #: line number -> rule ids allowed there ("*" allows everything).
    pragmas: dict[int, set[str]] = field(default_factory=dict)

    def allows(self, line: int, rule_id: str) -> bool:
        allowed = self.pragmas.get(line)
        return bool(allowed) and (rule_id in allowed or "*" in allowed)


@dataclass
class FunctionInfo:
    """A function or method definition (nested functions included)."""

    name: str
    qualname: str  # e.g. "ShardedIndex.build.split" for a closure
    node: ast.FunctionDef | ast.AsyncFunctionDef
    file: SourceFile
    cls: "ClassInfo | None" = None  # owning class for methods

    @property
    def symbol(self) -> str:
        return f"{self.file.module}:{self.qualname}"


@dataclass
class ClassInfo:
    """A class definition plus what rules need to know about it."""

    name: str
    qualname: str
    node: ast.ClassDef
    file: SourceFile
    methods: dict[str, FunctionInfo] = field(default_factory=dict)
    #: Instance attributes assigned via ``self.X = ...`` in any method.
    own_attrs: set[str] = field(default_factory=set)

    @property
    def symbol(self) -> str:
        return f"{self.file.module}:{self.qualname}"


@dataclass(frozen=True)
class AnalysisConfig:
    """Repo-specific knowledge the rules run against.

    The defaults describe ``src/repro``; fixture tests override fields
    to build minimal violating worlds.  Every allowlist here is a
    *documented discipline statement*, not a convenience: QL009's
    ``slice_writer_modules``, for instance, are exactly the modules that
    maintain the invariants between the slice columns (see
    docs/ANALYSIS.md).
    """

    # QL001 -- mutation discipline
    store_class: str = "BoxStore"
    store_private_attrs: frozenset[str] = frozenset(
        {
            "_lo",
            "_hi",
            "_ids",
            "_live",
            "_buffers",
            "_n_dead",
            "_epoch",
            "_max_extent",
            "_next_id",
            "_staged",
        }
    )
    # QL004 -- dtype discipline
    numpy_aliases: frozenset[str] = frozenset({"np", "numpy"})
    numpy_allocators: frozenset[str] = frozenset(
        {"zeros", "empty", "full", "array"}
    )
    # QL005 -- telemetry vocabulary
    vocab_calls: frozenset[str] = frozenset(
        {"histogram", "counter", "gauge", "span", "emit"}
    )
    #: Canonical metric/span/event names; ``None`` skips QL005 (the CLI
    #: always supplies the live vocabulary via :mod:`analysis.vocab`).
    vocab: frozenset[str] | None = None
    # QL006 -- exception discipline
    broad_exceptions: frozenset[str] = frozenset(
        {"Exception", "BaseException"}
    )
    # QL008 -- process-boundary payload discipline
    #: Modules (dotted, relative to the scan root) whose pipe traffic is
    #: a process boundary: the package prefix matches the whole package.
    boundary_package: str = "parallel"
    #: Method names that ship a payload across the boundary.
    boundary_send_methods: frozenset[str] = frozenset({"send"})
    #: Classes whose instances cross the boundary (pickled).  These may
    #: not hold lambdas or handle-bearing resources, wherever they are
    #: defined — LatencyHistogram lives in telemetry but rides the wire.
    boundary_payload_classes: frozenset[str] = frozenset(
        {
            "SegmentSpec",
            "ShardDelta",
            "QueryBatchWire",
            "ResultBatchWire",
            "LatencyHistogram",
        }
    )
    #: Constructors whose products never survive pickling (or smuggle a
    #: live OS resource through it): locks and friends, queues, threads,
    #: pools, open file handles, shared-memory mappings.
    unpicklable_constructors: frozenset[str] = frozenset(
        {
            "Lock",
            "RLock",
            "Semaphore",
            "BoundedSemaphore",
            "Condition",
            "Event",
            "Barrier",
            "Queue",
            "SimpleQueue",
            "Thread",
            "ThreadPoolExecutor",
            "ProcessPoolExecutor",
            "Pipe",
            "open",
            "SharedMemory",
        }
    )

    # QL009 -- slice-column write discipline
    slice_list_class: str = "SliceList"
    slice_columns: frozenset[str] = frozenset(
        {"cut_lo", "begin", "end", "mbb_lo", "mbb_hi", "final", "children"}
    )
    #: Modules (dotted, relative to the scan root) that maintain the
    #: invariants between the columns and may therefore write them.
    slice_writer_modules: frozenset[str] = frozenset(
        {"core.slices", "core.quasii"}
    )
    #: Attribute names through which other code reaches a slice forest.
    forest_accessors: frozenset[str] = frozenset({"_tops", "_top", "_lists"})
    #: ndarray / list methods that mutate their receiver in place.
    inplace_mutators: frozenset[str] = frozenset(
        {
            "append", "extend", "insert", "pop", "remove", "clear",
            "reverse", "sort", "fill", "put", "resize", "partition",
        }
    )

    def with_vocab(self, names: Iterable[str]) -> "AnalysisConfig":
        return replace(self, vocab=frozenset(names))


# ---------------------------------------------------------------------------
# Index construction
# ---------------------------------------------------------------------------
class RepoIndex:
    """Parsed view of every module under one scan root."""

    def __init__(self, root: Path, files: list[SourceFile]) -> None:
        self.root = root
        self.files = files
        self.classes: list[ClassInfo] = []
        self.functions: list[FunctionInfo] = []
        self.module_functions_by_name: dict[str, list[FunctionInfo]] = {}
        self.methods_by_name: dict[str, list[FunctionInfo]] = {}
        for source in files:
            self._index_file(source)

    # -- construction ---------------------------------------------------
    @classmethod
    def build(cls, root: Path) -> "RepoIndex":
        root = Path(root).resolve()
        files = []
        for path in sorted(root.rglob("*.py")):
            rel = path.relative_to(root).as_posix()
            text = path.read_text(encoding="utf-8")
            try:
                tree = ast.parse(text, filename=str(path))
            except SyntaxError as exc:  # unparseable file is itself a defect
                raise SyntaxError(f"{rel}: {exc}") from exc
            module = rel[:-3].replace("/", ".")
            if module.endswith(".__init__"):
                module = module[: -len(".__init__")]
            source = SourceFile(
                path=path, rel=rel, module=module, text=text, tree=tree
            )
            for lineno, line in enumerate(text.splitlines(), start=1):
                match = _PRAGMA.search(line)
                if match:
                    ids = {
                        part.strip()
                        for part in match.group(1).split(",")
                        if part.strip()
                    }
                    source.pragmas[lineno] = ids
            files.append(source)
        return cls(root, files)

    def _index_file(self, source: SourceFile) -> None:
        def visit(node: ast.AST, qual: list[str], cls: ClassInfo | None) -> None:
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.ClassDef):
                    info = ClassInfo(
                        name=child.name,
                        qualname=".".join([*qual, child.name]),
                        node=child,
                        file=source,
                    )
                    self.classes.append(info)
                    visit(child, [*qual, child.name], info)
                elif isinstance(
                    child, (ast.FunctionDef, ast.AsyncFunctionDef)
                ):
                    owner = cls if isinstance(node, ast.ClassDef) else None
                    fn = FunctionInfo(
                        name=child.name,
                        qualname=".".join([*qual, child.name]),
                        node=child,
                        file=source,
                        cls=owner,
                    )
                    self.functions.append(fn)
                    if owner is not None:
                        owner.methods.setdefault(child.name, fn)
                        owner.own_attrs.update(self_assign_targets(child))
                        self.methods_by_name.setdefault(
                            child.name, []
                        ).append(fn)
                    else:
                        self.module_functions_by_name.setdefault(
                            child.name, []
                        ).append(fn)
                    # Functions nested inside this one keep the chain but
                    # never belong to the class namespace.
                    visit(child, [*qual, child.name], None)

        visit(source.tree, [], None)


def self_assign_targets(
    fn: ast.FunctionDef | ast.AsyncFunctionDef,
) -> set[str]:
    """Attribute names assigned on ``self`` anywhere in ``fn``'s body.

    Covers plain/annotated/augmented assignment plus the frozen-
    dataclass idiom ``object.__setattr__(self, "attr", value)``.
    """
    attrs: set[str] = set()
    for node in ast.walk(fn):
        targets: list[ast.expr] = []
        if isinstance(node, ast.Assign):
            targets = list(node.targets)
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        elif isinstance(node, ast.Call):
            func = node.func
            if (
                isinstance(func, ast.Attribute)
                and func.attr == "__setattr__"
                and len(node.args) >= 2
                and isinstance(node.args[0], ast.Name)
                and node.args[0].id == "self"
                and isinstance(node.args[1], ast.Constant)
                and isinstance(node.args[1].value, str)
            ):
                attrs.add(node.args[1].value)
        for target in targets:
            for leaf in flatten_targets(target):
                if (
                    isinstance(leaf, ast.Attribute)
                    and isinstance(leaf.value, ast.Name)
                    and leaf.value.id == "self"
                ):
                    attrs.add(leaf.attr)
    return attrs


def literal_strings(node: ast.expr) -> list[str]:
    """The string constants of a list/tuple literal (``__all__``)."""
    if isinstance(node, (ast.List, ast.Tuple)):
        return [
            element.value
            for element in node.elts
            if isinstance(element, ast.Constant)
            and isinstance(element.value, str)
        ]
    return []


def flatten_targets(target: ast.expr) -> Iterator[ast.expr]:
    if isinstance(target, (ast.Tuple, ast.List)):
        for element in target.elts:
            yield from flatten_targets(element)
    else:
        yield target


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------
def analyze(
    root: Path | str,
    config: AnalysisConfig | None = None,
    rules: Iterable[object] | None = None,
) -> list[Finding]:
    """Run rules over every module under ``root``; pragma-suppressed.

    ``rules`` defaults to the full registry.  Findings come back sorted
    by ``(path, line, rule)``.
    """
    from .rules import all_rules

    config = config or AnalysisConfig()
    index = RepoIndex.build(Path(root))
    findings: list[Finding] = []
    by_rel = {source.rel: source for source in index.files}
    for rule in rules if rules is not None else all_rules():
        for finding in rule.run(index, config):
            source = by_rel.get(finding.path)
            if source is not None and source.allows(finding.line, finding.rule):
                continue
            findings.append(finding)
    findings.sort(key=lambda f: (f.path, f.line, f.rule, f.tag))
    return findings
