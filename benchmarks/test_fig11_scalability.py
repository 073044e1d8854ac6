"""Figure 11: scalability — QUASII vs R-Tree cumulative time at two
dataset sizes, with the R-Tree cost split into Building and Querying and
the count of queries QUASII completes before the R-Tree finishes
building."""


def test_fig11_scalability(benchmark, smoke_scale, regenerate):
    """The QUASII/R-Tree ratio holds as n doubles (paper: 0.75 vs 0.737)."""
    work = regenerate(benchmark, "fig11", smoke_scale)["work_vs_rtree"]
    assert work["1x"]["ratio"] < 1 and work["2x"]["ratio"] < 1
    assert abs(work["2x"]["ratio"] - work["1x"]["ratio"]) < 0.05
    assert work["1x"]["insight_factor"] > 1 and work["2x"]["insight_factor"] > 1
