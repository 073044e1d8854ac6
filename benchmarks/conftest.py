"""Shared fixtures for the figure-regeneration benchmarks.

Every ``test_figNN_*`` target regenerates one table/figure of the paper at
the ``smoke`` scale (20k boxes) and asserts the figure's claim on the
machine-independent ``IndexStats`` totals the report exposes in
``report.metrics`` — deterministic under ``seed=7``, never a wall-clock.
Where the paper's sign does not hold at 20k boxes the test's docstring
says so and asserts the ordering that does; docs/BENCH.md ("Scales")
explains why.  Run the real thing with ``quasii-bench all --scale small``.

Benchmarks print their report; run pytest with ``-s`` to see the rows.
"""

from __future__ import annotations

import pytest

from repro.bench.experiments import SCALES, run_experiment


@pytest.fixture(scope="session")
def smoke_scale():
    """The fast harness-validation scale."""
    return SCALES["smoke"]


@pytest.fixture
def regenerate():
    """Run one experiment once under pytest-benchmark; return its metrics.

    The report is printed and checked for well-formedness (every row as
    wide as its header) before the caller asserts on the numbers.
    """

    def _regenerate(benchmark, name: str, scale) -> dict:
        report = benchmark.pedantic(
            lambda: run_experiment(name, scale), rounds=1, iterations=1
        )
        print()
        print(report.render())
        assert report.experiment == name
        assert report.tables, f"experiment {name} produced no tables"
        for table in report.tables:
            assert table.headers
            assert all(len(r) == len(table.headers) for r in table.rows)
        return report.metrics

    return _regenerate
