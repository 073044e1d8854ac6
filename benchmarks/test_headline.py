"""The paper's headline claims (data-to-insight reduction, cumulative
ratios, converged parity, comparative speedups) recomputed end-to-end from
the clustered and uniform runs."""


def test_headline_numbers(benchmark, smoke_scale, regenerate):
    """In rows touched: never behind the R-Tree, first answer far sooner
    (paper, in time: never / 0.394 / 11.4x)."""
    metrics = regenerate(benchmark, "headline", smoke_scale)
    assert metrics["work_break_even_query"] is None
    assert metrics["work_ratio"] < 1
    assert metrics["work_insight_factor"] > 1
