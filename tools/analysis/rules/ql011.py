"""QL011: no mutable argument defaults.

The check ruff's B006 makes, on stdlib :mod:`ast` so it runs wherever
the analyzer runs.  A default value is evaluated once, when the ``def``
runs, and every call that omits the argument shares that one object: a
``[]`` or ``{}`` default that a call appends to, or a ``set()`` it adds
to, carries one call's state into the next.  Flagged defaults, on
functions, methods and lambdas alike (positional and keyword-only):

* list, dict and set displays (``[]``, ``{}``, ``{1}``) and
  comprehensions;
* calls to the mutable builtin and ``collections`` constructors
  (``list()``, ``dict()``, ``set()``, ``bytearray()``, ``deque()``,
  ``defaultdict()``, ``OrderedDict()``, ``Counter()``), bare or
  attribute-qualified (``collections.deque()``).

The idiom is ``None`` plus a fresh object in the body, or an immutable
value (a tuple, a ``frozenset``).
"""

from __future__ import annotations

import ast

from ..core import AnalysisConfig, Finding, RepoIndex
from . import register

#: Constructors whose call builds a fresh mutable object.
_MUTABLE_CALLS = frozenset(
    {
        "list",
        "dict",
        "set",
        "bytearray",
        "deque",
        "defaultdict",
        "OrderedDict",
        "Counter",
    }
)

_MUTABLE_DISPLAYS = (
    ast.List,
    ast.Dict,
    ast.Set,
    ast.ListComp,
    ast.DictComp,
    ast.SetComp,
)

_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
_Function = ast.FunctionDef | ast.AsyncFunctionDef | ast.Lambda


@register
class MutableDefaults:
    id = "QL011"
    title = "no mutable argument defaults"

    def run(
        self, index: RepoIndex, config: AnalysisConfig
    ) -> list[Finding]:
        findings: list[Finding] = []
        for source in index.files:
            for scope, node in _functions(source.tree):
                args = node.args
                positional = [*args.posonlyargs, *args.args]
                # Positional defaults align with the *last* parameters.
                first = len(positional) - len(args.defaults)
                pairs = list(zip(positional[first:], args.defaults))
                pairs += [
                    (arg, default)
                    for arg, default in zip(args.kwonlyargs, args.kw_defaults)
                    if default is not None
                ]
                for arg, default in pairs:
                    kind = _mutable_kind(default)
                    if kind is None:
                        continue
                    findings.append(
                        Finding(
                            rule=self.id,
                            path=source.rel,
                            line=default.lineno,
                            col=default.col_offset,
                            symbol=f"{source.module}:{scope}",
                            message=(
                                f"argument {arg.arg!r} defaults to a mutable "
                                f"{kind}, shared by every call; default to "
                                "None and build it in the body"
                            ),
                            tag=f"{scope}:{arg.arg}",
                        )
                    )
        return findings


def _functions(tree: ast.Module) -> list[tuple[str, _Function]]:
    """Every function, method and lambda with its dotted scope name
    (``Class.method``, ``outer.<lambda>``)."""
    found: list[tuple[str, _Function]] = []

    def visit(node: ast.AST, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, *_FUNCTIONS)):
                name = "<lambda>" if isinstance(child, ast.Lambda) else child.name
                scope = f"{prefix}.{name}" if prefix else name
                if isinstance(child, _FUNCTIONS):
                    found.append((scope, child))
                visit(child, scope)
            else:
                visit(child, prefix)

    visit(tree, "")
    return found


def _mutable_kind(default: ast.expr) -> str | None:
    """What mutable object ``default`` builds, or ``None``."""
    if isinstance(default, _MUTABLE_DISPLAYS):
        return type(default).__name__.lower()
    if isinstance(default, ast.Call):
        # ``list()`` is a Name call, ``collections.deque()`` an Attribute one.
        name = getattr(default.func, "id", None) or getattr(default.func, "attr", None)
        if name in _MUTABLE_CALLS:
            return f"{name}()"
    return None
