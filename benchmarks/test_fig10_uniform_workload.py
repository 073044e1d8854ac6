"""Figure 10: the uniform (non-clustered) workload — QUASII vs R-Tree vs
Scan convergence over the first stretch and the last stretch, cumulative
time including Grid, and the fraction of tail queries that ran on a fully
refined structure."""


def test_fig10_uniform_workload(benchmark, smoke_scale, regenerate):
    """QUASII undercuts both static indexes, the R-Tree by more.

    Paper (in time): 0.75 of the R-Tree and 0.638 of Grid after 10,000
    queries, first answer 10.3x / 5.6x sooner.  In rows touched the
    R-Tree's sort-based build weighs more than the grid's single pass, so
    the two ratios swap order; the insight factors keep the paper's.
    """
    metrics = regenerate(benchmark, "fig10", smoke_scale)
    ratio, insight = metrics["work_ratio"], metrics["work_insight_factor"]
    assert ratio["R-Tree"] < ratio["Grid"] < 1
    assert insight["R-Tree"] > insight["Grid"] > 1
    # Most of the last stretch runs on an already refined structure
    # (paper: 64 of the last 100 queries).
    refined = metrics["tail_queries_without_reorganization"]
    assert refined > metrics["tail_queries"] / 2
    tested = metrics["objects_tested"]
    assert tested["QUASII"] < tested["R-Tree"] < tested["Grid"] < tested["Scan"]
