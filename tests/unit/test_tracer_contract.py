"""The ledger tracer's contract with the program's names.

``benchmarks/ledger/trace.py`` times the program from outside by wrapping
public callables *by name*, on every module that looks them up.  A
refactor that renames one, or moves the hot path off it, does not fail
the benchmark — it zeroes a ledger row (``core.crack.busy_s`` read 0 in a
prototype of the frame kernels).  This test fails instead.  It reads the
tracer and edits nothing there.
"""

from __future__ import annotations

import importlib.util
from collections import Counter
from pathlib import Path

import pytest

from repro import QuasiiIndex, make_uniform, uniform_workload

TRACE_PY = Path(__file__).resolve().parents[2] / "benchmarks" / "ledger" / "trace.py"


@pytest.fixture(scope="module")
def trace():
    spec = importlib.util.spec_from_file_location("_ledger_trace", TRACE_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_site_resolves(trace):
    for name, sites, _ in trace.SITES:
        first = getattr(*trace._resolve(sites[0]))
        assert callable(first), name
        for site in sites:
            # Every alias is the same callable: one wrapper serves them all.
            assert getattr(*trace._resolve(site)) == first, site


def test_a_cracking_query_records_the_cold_path_spans(trace):
    ds = make_uniform(5_000, seed=3)
    index = QuasiiIndex(ds.store.copy())
    (query,) = uniform_workload(ds.universe, 1, 1e-2, seed=4)
    tracer = trace.Tracer()
    undo = trace.install(tracer)
    try:
        tracer.enabled = True
        index.execute(query)
    finally:
        tracer.enabled = False
        trace.uninstall(undo)
    assert index.stats.cracks > 0
    spans = Counter(span[trace.NAME] for span in tracer.spans)
    # Both read verbs are traced as index.execute: execute must reach the
    # private batch hook, never the public verb, or one query counts twice.
    assert spans["index.execute"] == 1
    assert spans["core.crack"] == index.stats.cracks
    assert spans["core.range_dim_stats"] >= 1
    assert 1 <= spans["datasets.store.permute"] <= index.stats.cracks
    # Nothing stays wrapped.
    for _, sites, _ in trace.SITES:
        for site in sites:
            assert not hasattr(getattr(*trace._resolve(site)), "__wrapped__"), site
