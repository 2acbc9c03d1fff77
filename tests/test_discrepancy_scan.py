"""Differential suite: the float-filtered discrepancy scan against the
all-pairs oracle, bit for bit, on inputs built to stress the filter.

The filter keeps only the indices whose float candidates lie within a
stated band of the float maximum; the exact rescan decides among them.
Grids, duplicates, zeros, tiny values and near-ties (candidates that
differ by less than the float error) are where a band that is too narrow
would drop the true maximiser.
"""

import math
from fractions import Fraction

import numpy as np
from hypothesis import example, given
from hypothesis import strategies as st

from beattykit.expsum import _kept, discrepancy
from oracles import dense_filter, discrepancy_brute

ALMOST_ONE = math.nextafter(1.0, 0.0)
SPECIAL = (0.0, 2.0 ** -1000, 5e-324, ALMOST_ONE, 0.5)

dyadic = st.builds(lambda j, k: (k % 2 ** j) / 2 ** j,
                   st.integers(0, 12), st.integers(0, 2 ** 12))
element = st.one_of(st.floats(0.0, 1.0, exclude_max=True),
                    st.sampled_from(SPECIAL), dyadic)


@st.composite
def samples(draw):
    """Points with repeated values and a run of zeros."""
    base = draw(st.lists(element, min_size=1, max_size=40))
    reps = draw(st.lists(st.integers(0, len(base) - 1), max_size=20))
    zeros = draw(st.integers(0, 5))
    return base + [base[i] for i in reps] + [0.0] * zeros


@st.composite
def perturbed_grids(draw):
    """k/M for k < M, a few of them moved by a few ulps: many gaps and
    runs tie up to rounding, so the exact rescan makes the decision."""
    M = draw(st.integers(2, 60))
    xs = [k / M for k in range(M)]
    for _ in range(draw(st.integers(1, 4))):
        i = draw(st.integers(0, M - 1))
        for _ in range(draw(st.integers(1, 3))):
            xs[i] = math.nextafter(xs[i], draw(st.sampled_from((0.0, 1.0))))
    return [x for x in xs if x < 1.0]


@given(samples())
@example([ALMOST_ONE])
@example([2.0 ** -1000, 2.0 ** -1000, 0.0])
@example([0.0, 0.0, 0.0])
def test_scan_equals_oracle(xs):
    assert discrepancy(xs) == discrepancy_brute(xs)


@given(perturbed_grids())
def test_scan_equals_oracle_on_near_ties(xs):
    assert discrepancy(xs) == discrepancy_brute(xs)


def _same_kept(xs):
    """The lean filter over the sorted points keeps the dense filter's
    indices, with the same values, counts and zeros."""
    lean = _kept(np.sort(np.asarray(xs, np.float64)))
    dense = dense_filter(xs)
    for got, want in zip(lean, dense):
        assert np.array_equal(got, want)


ALL_TIE = [k / 2 ** 12 for k in range(2 ** 12)]


@given(samples())
@example([0.0])                       # M = 1 at the value 0
@example([0.5])                       # M = 1 off it
@example([0.0, 0.0, 0.25, 0.5])       # led by a run of zeros
@example([0.0, 5e-324, 5e-324, ALMOST_ONE])
@example(ALL_TIE)                     # every gap ties: every index is kept
@example(ALL_TIE + [0.0] * 3)
def test_lean_filter_keeps_the_dense_filters_indices(xs):
    _same_kept(xs)


@given(perturbed_grids())
def test_lean_filter_keeps_the_dense_filters_indices_on_near_ties(xs):
    _same_kept(xs)


@given(element)
def test_single_point(x):
    # the interval pinched onto the point holds all of the mass, except at
    # 0, which no open subinterval holds; (0, 1) then holds none of it
    assert discrepancy([x]) == discrepancy_brute([x]) == 1.0


def test_hand_built_near_tie():
    # k/12 with three points moved by one or two ulps: the widest gap,
    # (2/3, 3/4 + 2 ulps), beats the next one by 4/2^54, which is less than
    # the filter's bound e = 8*M/2^53 in the scan's units (M times D)
    xs = np.arange(12) / 12
    xs[1] = math.nextafter(xs[1], 0.0)
    xs[2] = math.nextafter(xs[2], 1.0)
    xs[9] = math.nextafter(math.nextafter(xs[9], 1.0), 1.0)
    ends = [Fraction(x) for x in xs.tolist()] + [Fraction(1)]
    gaps = sorted(b - a for a, b in zip(ends, ends[1:]))
    assert 0 < 12 * (gaps[-1] - gaps[-2]) < Fraction(8 * 12, 2 ** 53)
    assert discrepancy(xs) == discrepancy_brute(xs) == float(gaps[-1])
