"""Figure 7: per-query convergence of each incremental index toward its
static counterpart (SFCracker→SFC, Mosaic→Grid, QUASII→R-Tree), with Scan
as the flat reference, on the clustered neuroscience-like workload."""

PAIRS = {"SFCracker": "SFC", "Mosaic": "Grid", "QUASII": "R-Tree"}


def test_fig7_convergence(benchmark, smoke_scale, regenerate):
    """Reorganization decays and the refined index filters like the static.

    The very first query moves more rows than the whole last cluster of
    queries does, and over that last cluster each incremental index tests
    no more objects than its static counterpart.
    """
    metrics = regenerate(benchmark, "fig7", smoke_scale)
    first = metrics["first_query_rows_reorganized"]
    moved = metrics["last_cluster_rows_reorganized"]
    tested = metrics["last_cluster_objects_tested"]
    for incremental, static in PAIRS.items():
        assert first[incremental] > moved[incremental] > 0
        assert tested[incremental] <= tested[static]
        assert first[static] == moved[static] == 0
