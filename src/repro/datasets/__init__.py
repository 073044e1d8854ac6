"""Datasets: the shared data array plus the paper's dataset generators."""

from repro.datasets.generators import (
    PAPER_UNIVERSE_SIDE,
    Dataset,
    make_neuro_like,
    make_uniform,
)
from repro.datasets.store import BoxStore

__all__ = [
    "PAPER_UNIVERSE_SIDE",
    "BoxStore",
    "Dataset",
    "make_neuro_like",
    "make_uniform",
]
