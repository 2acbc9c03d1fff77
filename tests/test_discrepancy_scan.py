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
from unittest.mock import patch

import numpy as np
from hypothesis import example, given
from hypothesis import strategies as st

from beattykit import expsum
from beattykit.expsum import _candidates, _kept, discrepancy
from oracles import dense_filter, discrepancy_brute

ALMOST_ONE = math.nextafter(1.0, 0.0)
SPECIAL = (0.0, 2.0 ** -1000, 5e-324, ALMOST_ONE, 0.5)

dyadic = st.builds(lambda j, k: (k % 2 ** j) / 2 ** j,
                   st.integers(0, 12), st.integers(0, 2 ** 12))
element = st.one_of(st.floats(0.0, 1.0, exclude_max=True),
                    st.sampled_from(SPECIAL), dyadic)


@st.composite
def samples(draw, elements=element):
    """Points with repeated values and a run of zeros."""
    base = draw(st.lists(elements, min_size=1, max_size=40))
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
@example([0.0, 0.0, 0.0, 0.1, 0.2])   # zeros not kept: z without its index
@example([0.0, 0.5, 0.5, 0.5, 0.5])
@example([0.0, 0.0, 0.9])             # the kept set starts at the value 0
def test_scan_equals_oracle(xs):
    assert discrepancy(xs) == discrepancy_brute(xs)


@given(perturbed_grids())
def test_scan_equals_oracle_on_near_ties(xs):
    assert discrepancy(xs) == discrepancy_brute(xs)


def _same_kept(xs):
    """The blocked filter over the sorted points keeps the dense filter's
    indices, with the same values, counts and zeros."""
    lean = _kept(np.sort(np.asarray(xs, np.float64)))
    vals, less, leq, cnt0, keep = dense_filter(xs)
    dense = (vals[keep], less[keep], leq[keep], cnt0, keep)
    for got, want in zip(lean, dense, strict=True):
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


def _across_blocks(xs):
    """At blocks of 1, 2, 3 and 5 points, the filter keeps the dense
    filter's indices and the scan gives the all-pairs value."""
    want = discrepancy_brute(xs)
    for size in (1, 2, 3, 5):
        with patch.object(expsum, "_BLOCK", size):
            _same_kept(xs)
            assert discrepancy(xs) == want, size


@given(samples())
@example([0.5] * 7 + [0.25, 0.75])        # a run over three or more blocks
@example([0.0] * 6 + [0.5, 0.5, 0.9])     # zeros fill the first block
@example([0.0] + [0.1] * 7)               # a run from the second point on
@example([k / 5 for k in range(5)])       # M a block size
@example([k / 6 for k in range(6)])       # M one more than a block size
@example([0.2, 0.4, 0.4, 0.6])            # a tie across a block edge
@example(ALL_TIE[:64])
def test_block_edges(xs):
    _across_blocks(xs)


@given(perturbed_grids())
def test_block_edges_on_near_ties(xs):
    _across_blocks(xs)


@given(samples(dyadic))
@example([0.0, 0.0, 0.5])
@example([k / 2 ** 10 for k in range(2 ** 10)])
def test_candidates_agree_across_dtypes(xs):
    # dyadic points with M <= 2^10 make every float candidate exact, so the
    # filter's candidates, scaled to the grid, are the exact rescan's
    M = len(xs)
    vals, less, leq, cnt0, _ = dense_filter(xs)
    scale = max(v.as_integer_ratio()[1] for v in vals.tolist())
    iv = np.array([int(v * scale) for v in vals.tolist()], object)
    fa, fb = leq - M * vals, M * vals - less
    ia = leq.astype(object) * scale - M * iv
    ib = M * iv - less.astype(object) * scale
    if cnt0:
        fb[0] = ib[0] = -np.inf
    z = cnt0 * scale
    floats = [c * scale for c in _candidates(fa, fb, (-cnt0, -np.inf, cnt0, 0),
                                             np.empty(vals.size))]
    ints = [c.copy() for c in _candidates(ia, ib, (-z, -np.inf, z, 0),
                                          np.empty(vals.size, object))]
    assert [c.tolist() for c in floats] == [c.tolist() for c in ints]


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
