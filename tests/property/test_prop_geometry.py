"""Property tests for the closed-box predicate kernels."""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry import Box, boxes_intersect_window, predicate_mask

COORD = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)


@st.composite
def boxes(draw, ndim=None):
    d = ndim if ndim is not None else draw(st.integers(1, 4))
    lo = [draw(COORD) for _ in range(d)]
    hi = [l + abs(draw(COORD)) % 1e5 for l in lo]
    return Box(tuple(lo), tuple(hi))


def _holds(predicate, box, window):
    lo, hi = np.array([box.lo]), np.array([box.hi])
    return bool(predicate_mask(predicate, lo, hi, window.lo, window.hi)[0])


PAIRS = st.integers(1, 4).flatmap(lambda d: st.tuples(boxes(ndim=d), boxes(ndim=d)))


@given(boxes())
def test_intersects_is_reflexive(b):
    assert _holds("intersects", b, b)


@given(PAIRS)
def test_intersects_is_symmetric(pair):
    a, b = pair
    assert _holds("intersects", a, b) == _holds("intersects", b, a)


@given(PAIRS)
def test_within_is_the_converse_of_contains(pair):
    a, b = pair
    assert _holds("within", a, b) == _holds("contains", b, a)


@given(PAIRS)
def test_every_predicate_implies_intersects(pair):
    a, b = pair
    for predicate in ("within", "contains"):
        if _holds(predicate, a, b):
            assert _holds("intersects", a, b)


@given(st.integers(2, 50), st.integers(0, 2**31 - 1))
@settings(max_examples=50)
def test_vectorized_matches_scalar(n, seed):
    rng = np.random.default_rng(seed)
    lo = rng.uniform(-100, 100, size=(n, 3))
    hi = lo + rng.uniform(0, 50, size=(n, 3))
    qlo = rng.uniform(-100, 100, size=3)
    qhi = qlo + rng.uniform(0, 100, size=3)
    mask = boxes_intersect_window(lo, hi, qlo, qhi)
    rows_lo, rows_hi = np.tile(qlo, (n, 1)), np.tile(qhi, (n, 1))
    assert np.array_equal(mask, predicate_mask("intersects", lo, hi, rows_lo, rows_hi))
    for i in range(n):
        window = Box(tuple(qlo), tuple(qhi))
        assert mask[i] == _holds("intersects", Box(tuple(lo[i]), tuple(hi[i])), window)
