"""Ablation benches for the design choices the paper states in passing.

* slice-assignment representative (paper footnote 1: lower/center/upper);
* QUASII's single parameter tau (the paper fixes 60);
* artificial refinement cut (midpoint vs median) and arrival order;
* STR bulk loading vs Guttman insertion (the paper's Section 6.1 rationale).
"""


def test_ablation_representative(benchmark, smoke_scale, regenerate):
    """The alternatives 'can equally be used': same answers, and neither
    cost counter moves by more than a fifth."""
    metrics = regenerate(benchmark, "ablation-rep", smoke_scale)
    assert len(set(metrics["results"].values())) == 1
    for counter in ("objects_tested", "rows_reorganized"):
        values = metrics[counter].values()
        assert max(values) < 1.2 * min(values)


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


def test_ablation_artificial_split(benchmark, smoke_scale, regenerate):
    """Median cuts balance the slices: fewer of them on skewed data."""
    metrics = regenerate(benchmark, "ablation-split", smoke_scale)
    assert metrics["slices"]["median"] < metrics["slices"]["midpoint"]


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
