"""Ablation benches for the design choices the paper states in passing.

* QUASII's single parameter tau (the paper fixes 60);
* query arrival order (sweep vs shuffled);
* STR bulk loading vs Guttman insertion (the paper's Section 6.1 rationale).

The lower-corner key and the midpoint cut are the only code paths; the
measurements that retired their alternatives are in ``docs/BENCH.md``.
"""


def test_ablation_tau(benchmark, smoke_scale, regenerate):
    """Small tau: more slices and refinement work, fewer objects tested."""
    metrics = regenerate(benchmark, "ablation-tau", smoke_scale)
    order = ["tau=15", "tau=60", "tau=240"]
    for counter, falling in (
        ("slices", True), ("rows_reorganized", True), ("objects_tested", False)
    ):
        values = [metrics[counter][k] for k in order]
        assert values == sorted(values, reverse=falling)
        assert len(set(values)) == len(values)


def test_ablation_sequential_access(benchmark, smoke_scale, regenerate):
    """A sweep re-cracks the large remainder: it moves several times the
    rows the same windows move in shuffled order."""
    moved = regenerate(
        benchmark, "ablation-sequential", smoke_scale
    )["rows_reorganized"]
    assert moved["sequential sweep"] > 2 * moved["shuffled"]


def test_ablation_rtree_build(benchmark, smoke_scale, regenerate):
    """Bulk loading 'reduces overlap': STR tests fewer objects."""
    tested = regenerate(
        benchmark, "ablation-rtree", smoke_scale
    )["objects_tested"]
    assert tested["str"] < tested["guttman"]
