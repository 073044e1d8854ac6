"""QUASII core: configuration, cracking kernels, slices, and the index."""

from repro.core.config import PAPER_TAU, QuasiiConfig
from repro.core.cracking import Frame, crack, crack_values, range_dim_stats
from repro.core.quasii import QuasiiIndex
from repro.core.slices import SliceList

__all__ = [
    "PAPER_TAU",
    "Frame",
    "QuasiiConfig",
    "QuasiiIndex",
    "SliceList",
    "crack",
    "crack_values",
    "range_dim_stats",
]
