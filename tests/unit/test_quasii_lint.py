"""quasii-lint self-tests: each rule fires on a violating fixture and
stays silent on clean code; pragmas and the baseline behave as
documented; the committed baseline is exact for the live tree.

The fixtures are tiny synthetic worlds written under ``tmp_path`` —
the analyzer takes any scan root, so the tests do not depend on the
engine's own sources except for the final self-run.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(REPO / "tools"))

import analysis  # noqa: E402
from analysis.baseline import Baseline  # noqa: E402
from analysis.core import AnalysisConfig  # noqa: E402


def write_tree(root: Path, files: dict[str, str]) -> Path:
    for rel, text in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")
    return root


def run_rules(
    root: Path, ids: list[str], config: AnalysisConfig | None = None
) -> list[analysis.Finding]:
    rules = [analysis.RULES[rule_id]() for rule_id in ids]
    return analysis.analyze(root, config or AnalysisConfig(), rules)


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------
def test_registry_holds_the_documented_rule_set():
    assert sorted(analysis.RULES) == [
        # QL003 (thread fan-out purity) left with the thread backend and
        # QL002 (compaction hooks) with the mutable baselines: the hook
        # is abstract on MutableSpatialIndex.  Ids are never renumbered.
        "QL001", "QL004", "QL005", "QL006", "QL007", "QL008", "QL009",
        "QL010",
    ]
    for rule in analysis.all_rules():
        assert rule.id in analysis.RULES
        assert rule.title


# ---------------------------------------------------------------------------
# QL001 mutation discipline
# ---------------------------------------------------------------------------
def test_ql001_flags_private_store_access_outside_the_store(tmp_path):
    write_tree(tmp_path, {"mod.py": (
        "def poke(store):\n"
        "    store._lo[0] = 0.0\n"
        "    store._epoch += 1\n"
    )})
    findings = run_rules(tmp_path, ["QL001"])
    assert [f.tag for f in findings] == ["store._lo", "store._epoch"]
    assert all(f.rule == "QL001" for f in findings)


def test_ql001_allows_the_store_itself_and_own_attributes(tmp_path):
    write_tree(tmp_path, {"mod.py": (
        "class BoxStore:\n"
        "    def compact(self):\n"
        "        self._lo = self._lo[self._live]\n"
        "\n"
        "class QuasiiIndex:\n"
        "    def __init__(self):\n"
        "        self._max_extent = None\n"
        "    def grow(self):\n"
        "        return self._max_extent\n"
        "\n"
        "class Query:\n"
        "    def __post_init__(self):\n"
        "        object.__setattr__(self, '_lo', ())\n"
        "    def lo(self):\n"
        "        return self._lo\n"
    )})
    assert run_rules(tmp_path, ["QL001"]) == []


# ---------------------------------------------------------------------------
# QL004 dtype discipline
# ---------------------------------------------------------------------------
def test_ql004_flags_dtype_less_allocations_only(tmp_path):
    write_tree(tmp_path, {"mod.py": (
        "import numpy as np\n"
        "a = np.zeros(4)\n"
        "b = np.zeros(4, dtype=np.float64)\n"
        "c = np.array([1, 2], np.int64)\n"
        "d = np.full(3, 0.0, np.float64)\n"
        "e = np.full(3, 0.0)\n"
        "f = np.empty((2, 2), dtype=np.int64)\n"
    )})
    findings = run_rules(tmp_path, ["QL004"])
    assert [(f.line, f.tag.split("@")[0]) for f in findings] == [
        (2, "np.zeros"), (6, "np.full"),
    ]


# ---------------------------------------------------------------------------
# QL005 telemetry vocabulary
# ---------------------------------------------------------------------------
def test_ql005_flags_non_canonical_literals(tmp_path):
    write_tree(tmp_path, {"mod.py": (
        "def instrument(registry, name):\n"
        "    registry.histogram('query.seconds')\n"
        "    registry.histogram('query.sceonds')\n"
        "    registry.histogram(name)\n"
    )})
    config = AnalysisConfig().with_vocab({"query.seconds"})
    findings = run_rules(tmp_path, ["QL005"], config)
    assert [f.tag for f in findings] == ["histogram:query.sceonds"]


def test_ql005_is_disabled_without_a_vocabulary(tmp_path):
    write_tree(tmp_path, {"mod.py": (
        "def instrument(registry):\n"
        "    registry.histogram('anything.goes')\n"
    )})
    assert run_rules(tmp_path, ["QL005"]) == []


# ---------------------------------------------------------------------------
# QL006 exception discipline
# ---------------------------------------------------------------------------
def test_ql006_flags_broad_and_bare_excepts(tmp_path):
    write_tree(tmp_path, {"mod.py": (
        "def risky():\n"
        "    try:\n"
        "        pass\n"
        "    except Exception:\n"
        "        pass\n"
        "    try:\n"
        "        pass\n"
        "    except:\n"
        "        pass\n"
        "    try:\n"
        "        pass\n"
        "    except (ValueError, BaseException):\n"
        "        pass\n"
        "    try:\n"
        "        pass\n"
        "    except ValueError:\n"
        "        pass\n"
    )})
    findings = run_rules(tmp_path, ["QL006"])
    assert [f.tag for f in findings] == [
        "risky:except-Exception",
        "risky:except-<bare>",
        "risky:except-BaseException",
    ]


# ---------------------------------------------------------------------------
# QL007 export discipline
# ---------------------------------------------------------------------------
def test_ql007_flags_missing_unexported_and_phantom_names(tmp_path):
    write_tree(tmp_path, {
        "missing/__init__.py": "from .x import thing\n",
        "drift/__init__.py": (
            "from .x import used, skipped\n"
            "__all__ = ['used', 'ghost']\n"
        ),
        "clean/__init__.py": (
            "from .x import thing\n"
            "__version__ = '1.0'\n"
            "__all__ = ['thing']\n"
        ),
        "empty/__init__.py": "",
    })
    tags = sorted(f.tag for f in run_rules(tmp_path, ["QL007"]))
    assert tags == ["missing-__all__", "phantom:ghost", "unexported:skipped"]


# ---------------------------------------------------------------------------
# QL008 process-boundary payload discipline
# ---------------------------------------------------------------------------
def test_ql008_flags_lambdas_and_generators_in_boundary_sends(tmp_path):
    write_tree(tmp_path, {
        "parallel/pipe.py": (
            "def ship(conn, items):\n"
            "    conn.send(lambda v: v + 1)\n"
            "    conn.send(('batch', (x * 2 for x in items)))\n"
            "    conn.send(('ok', [i for i in items]))\n"  # list comp pickles
        ),
        # Same code outside the boundary package: sends there are not
        # process boundaries (thread queues, sockets, mocks).
        "elsewhere.py": (
            "def ship(conn):\n"
            "    conn.send(lambda v: v)\n"
        ),
    })
    findings = run_rules(tmp_path, ["QL008"])
    assert [f.tag for f in findings] == [
        "lambda-in-send", "generator-in-send",
    ]
    assert all(f.path == "parallel/pipe.py" for f in findings)


def test_ql008_flags_resource_and_lambda_attrs_on_payload_classes(tmp_path):
    write_tree(tmp_path, {"telemetry.py": (
        "import threading\n"
        "class LatencyHistogram:\n"
        "    def __init__(self):\n"
        "        self.counts = [0]\n"
        "        self._lock = threading.Lock()\n"
        "        self.scale = lambda v: v\n"
        "class FreeClass:\n"  # not a payload class: resources are fine
        "    def __init__(self):\n"
        "        self._lock = threading.Lock()\n"
    )})
    tags = [f.tag for f in run_rules(tmp_path, ["QL008"])]
    assert tags == ["resource-attr:Lock", "lambda-attr"]


def test_ql008_covers_the_frozen_dataclass_setattr_idiom(tmp_path):
    write_tree(tmp_path, {"wire.py": (
        "class SegmentSpec:\n"
        "    def __init__(self, path):\n"
        "        object.__setattr__(self, 'handle', open(path))\n"
    )})
    findings = run_rules(tmp_path, ["QL008"])
    assert [f.tag for f in findings] == ["resource-attr:open"]


def test_ql008_covers_the_delta_payload(tmp_path):
    # The delta names its row segment by spec; holding the mapping
    # itself would try to pickle an OS handle into the batch message.
    write_tree(tmp_path, {"parallel/shm.py": (
        "from multiprocessing.shared_memory import SharedMemory\n"
        "class ShardDelta:\n"
        "    def __init__(self, ops, name):\n"
        "        self.ops = ops\n"
        "        self.rows = SharedMemory(name=name)\n"
    )})
    findings = run_rules(tmp_path, ["QL008"])
    assert [f.tag for f in findings] == ["resource-attr:SharedMemory"]


def test_ql008_stays_silent_on_the_live_parallel_package():
    findings = run_rules(REPO / "src" / "repro", ["QL008"])
    assert findings == []


# ---------------------------------------------------------------------------
# QL009 slice-column write discipline
# ---------------------------------------------------------------------------
_COLUMN_WRITES = (
    "def poke(index, rows):\n"
    "    top = index._tops[0]\n"
    "    top.begin[0] = 5\n"
    "    top.final |= True\n"
    "    top.mbb_lo[0, 1] = 0.0\n"
    "    top.begin, top.end = rows, rows\n"
    "    top.children.append(None)\n"
    "    top.children[2].cut_lo.fill(0.0)\n"
    "    del top.mbb_hi\n"
)


def test_ql009_flags_column_writes_outside_the_two_writer_modules(tmp_path):
    write_tree(tmp_path, {
        "bench/gauges.py": _COLUMN_WRITES,
        # The very same code inside the modules that own the invariants.
        "core/quasii.py": _COLUMN_WRITES,
        "core/slices.py": "class SliceList:\n" + _COLUMN_WRITES.replace(
            "def poke(index, rows)", "    def poke(self, index, rows)"
        ).replace("\n    ", "\n        "),
    })
    findings = run_rules(tmp_path, ["QL009"])
    assert [f.tag for f in findings] == [
        "top.begin", "top.final", "top.mbb_lo", "top.begin", "top.end",
        "top.children", "top.children[2].cut_lo", "top.mbb_hi",
    ]
    assert {f.path for f in findings} == {"bench/gauges.py"}
    assert all(f.symbol == "bench.gauges:poke" for f in findings)


def test_ql009_allows_reads_own_attributes_and_unrelated_modules(tmp_path):
    write_tree(tmp_path, {
        # Reads of every kind, in a module that does hold slice lists.
        "report.py": (
            "def sizes(index):\n"
            "    out = []\n"
            "    for lst in index._lists():\n"
            "        out.append((lst.end - lst.begin).tolist())\n"
            "        kids = [c for c in lst.children if c is not None]\n"
            "        first = lst.mbb_lo[0].copy()\n"
            "        first[0] = 0.0\n"
            "    return out, kids, sorted(lst.cut_lo)\n"
        ),
        # A class with same-named attributes of its own, next to a forest.
        "shard.py": (
            "from core.slices import SliceList\n"
            "class Shard:\n"
            "    def __init__(self, box):\n"
            "        self.mbb_lo, self.mbb_hi = box\n"
            "    def widen(self, lo):\n"
            "        self.mbb_lo[0] = lo\n"
        ),
        # Column-like names in a module that cannot hold a slice list.
        "rtree.py": (
            "def split(node, extra):\n"
            "    node.children.append(extra)\n"
            "    node.children = node.children[:4]\n"
            "    node.end = 3\n"
        ),
    })
    assert run_rules(tmp_path, ["QL009"]) == []


def test_ql009_reports_a_nested_function_once(tmp_path):
    write_tree(tmp_path, {"mod.py": (
        "def outer(index):\n"
        "    def inner(lst):\n"
        "        lst.final[0] = True\n"
        "    inner(index._top)\n"
    )})
    assert [f.tag for f in run_rules(tmp_path, ["QL009"])] == ["lst.final"]


def test_ql009_stays_silent_on_the_live_tree():
    assert run_rules(REPO / "src" / "repro", ["QL009"]) == []


# ---------------------------------------------------------------------------
# QL010 unused imports
# ---------------------------------------------------------------------------
def test_ql010_flags_imports_never_read(tmp_path):
    write_tree(tmp_path, {"mod.py": (
        "import os\n"
        "import numpy as np\n"
        "import xml.dom\n"
        "from typing import Sequence, cast\n"
        "def f(x):\n"
        "    from json import dumps, loads\n"
        "    return cast(int, loads(x))\n"
    )})
    tags = sorted(f.tag for f in run_rules(tmp_path, ["QL010"]))
    assert tags == [
        "unused:Sequence", "unused:dumps", "unused:np", "unused:os", "unused:xml",
    ]


def test_ql010_accepts_reads_annotations_exports_and_packages(tmp_path):
    write_tree(tmp_path, {
        "mod.py": (
            "from __future__ import annotations\n"
            "import os.path\n"
            "import numpy as np\n"
            "from typing import TYPE_CHECKING\n"
            "from .x import exported\n"
            "from .y import *\n"
            "if TYPE_CHECKING:\n"
            "    from .z import Engine, Plan\n"
            "__all__ = ['exported']\n"
            "def f(engine: 'Engine') -> list['Plan']:\n"
            "    return [os.path.sep, np.int64]\n"
        ),
        "pkg/__init__.py": "from .x import unlisted\n",
    })
    assert run_rules(tmp_path, ["QL010"]) == []


def test_ql010_stays_silent_on_the_live_tree():
    assert run_rules(REPO / "src" / "repro", ["QL010"]) == []


# ---------------------------------------------------------------------------
# Pragmas
# ---------------------------------------------------------------------------
def test_inline_pragma_suppresses_named_rule_and_wildcard(tmp_path):
    write_tree(tmp_path, {"mod.py": (
        "import numpy as np\n"
        "a = np.zeros(4)  # ql: allow[QL004]\n"
        "b = np.zeros(4)  # ql: allow[*]\n"
        "c = np.zeros(4)  # ql: allow[QL001]\n"
        "d = np.zeros(4)\n"
    )})
    findings = run_rules(tmp_path, ["QL004"])
    assert [f.line for f in findings] == [4, 5]


# ---------------------------------------------------------------------------
# Baseline semantics
# ---------------------------------------------------------------------------
def _finding(tag: str) -> analysis.Finding:
    return analysis.Finding(
        rule="QL004", path="mod.py", line=1, col=0,
        symbol="mod:", message="m", tag=tag,
    )


def test_baseline_partitions_new_baselined_and_stale():
    current = [_finding("a"), _finding("b")]
    baseline = Baseline.from_findings([_finding("b"), _finding("gone")])
    diff = baseline.diff(current)
    assert [f.tag for f in diff.new] == ["a"]
    assert [f.tag for f in diff.baselined] == ["b"]
    assert diff.stale == [_finding("gone").fingerprint]
    assert diff.blocking  # both the new finding and the stale entry block


def test_baseline_is_a_multiset():
    baseline = Baseline.from_findings([_finding("dup")])
    diff = baseline.diff([_finding("dup"), _finding("dup")])
    assert len(diff.new) == 1 and len(diff.baselined) == 1


def test_baseline_roundtrip_and_exact_match(tmp_path):
    findings = [_finding("a"), _finding("b")]
    path = tmp_path / "baseline.json"
    Baseline.from_findings(findings).save(path)
    diff = Baseline.load(path).diff(findings)
    assert not diff.blocking
    assert len(diff.baselined) == 2


# ---------------------------------------------------------------------------
# The CLI and the committed baseline
# ---------------------------------------------------------------------------
def _run_cli(*argv: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "tools.analysis", *argv],
        cwd=REPO, capture_output=True, text=True,
    )


def test_cli_self_run_matches_the_committed_baseline_exactly():
    """The live tree is lint-clean modulo the committed baseline —
    no new findings, and no stale entries left in the file."""
    proc = _run_cli("--json")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    report = json.loads(proc.stdout)
    assert report["format"] == "quasii-lint/1"
    assert report["summary"]["new"] == 0
    assert report["summary"]["stale"] == 0
    assert sorted(report["rules"]) == sorted(analysis.RULES)


def test_cli_reports_findings_and_exits_nonzero(tmp_path):
    write_tree(tmp_path, {"mod.py": "import numpy as np\na = np.zeros(4)\n"})
    proc = _run_cli(str(tmp_path), "--no-baseline", "--no-vocab", "--json")
    assert proc.returncode == 1
    report = json.loads(proc.stdout)
    assert report["summary"] == {
        "total": 1, "new": 1, "baselined": 0, "stale": 0,
    }
    (finding,) = report["findings"]
    assert finding["rule"] == "QL004"
    assert finding["status"] == "new"
    assert "fingerprint" in finding


def test_cli_list_rules_and_bad_usage_exit_codes(tmp_path):
    assert _run_cli("--list-rules").returncode == 0
    assert _run_cli(str(tmp_path / "nowhere")).returncode == 2
    assert _run_cli("--rules", "QL999").returncode == 2
