"""Figure 6: the costs of space-oriented partitioning.

6a — object-assignment penalty: R-Tree vs GridQueryExt vs GridReplication
on clustered queries over the skewed dataset.
6b — grid configuration sensitivity: the best partitions-per-dimension
depends on the data distribution, and off-configurations hurt.
"""


def test_fig6a_data_assignment(benchmark, smoke_scale, regenerate):
    """Each way of assigning a multi-cell object pays somewhere.

    Query extension inflates every query's candidate set; replication
    tests fewer objects but writes more rows at build time.  The paper's
    other number — GridQueryExt tests 3.1x the R-Tree's objects — does
    not hold at 20k boxes (0.95x: the tuned cells are large next to the
    objects, so the extension is small), and is not asserted.
    """
    metrics = regenerate(benchmark, "fig6a", smoke_scale)
    tested, build = metrics["objects_tested"], metrics["build_work"]
    assert tested["GridReplication"] < tested["Grid"]
    assert build["GridReplication"] > build["Grid"]


def test_fig6b_grid_configuration(benchmark, smoke_scale, regenerate):
    """The skewed dataset wants the finer grid.

    The paper reads the best configuration off wall-clock; in counters,
    a finer grid tests fewer objects on both datasets, and going from the
    coarsest to the finest candidate buys more on the skewed one.
    """
    tested = regenerate(benchmark, "fig6b", smoke_scale)["objects_tested"]
    for counts in tested.values():
        assert counts == sorted(counts, reverse=True)
    gain = {name: counts[0] / counts[-1] for name, counts in tested.items()}
    assert gain["Neuro"] > gain["Uniform"] > 1
