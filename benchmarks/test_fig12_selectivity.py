"""Figure 12: impact of query selectivity (0.001% / 1% / 10% of the
universe volume) on the QUASII-to-R-Tree cumulative time ratio — larger
queries reorganize more data per query, narrowing QUASII's advantage."""


def test_fig12_selectivity(benchmark, smoke_scale, regenerate):
    """The ratio rises with selectivity and stays under 1 (paper: 68.8% /
    79.8% / 85.6%)."""
    ratios = regenerate(benchmark, "fig12", smoke_scale)["work_ratio"]
    assert ratios == sorted(ratios) and len(set(ratios)) == len(ratios)
    assert ratios[-1] < 1
