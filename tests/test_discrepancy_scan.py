"""Differential suite: the float-filtered discrepancy scan against the
all-pairs oracle and the linear exact oracle, bit for bit, on inputs built
to stress the filter.

The filter keeps only the values whose float terms lie within a stated
slack of the running maxima; the exact rescan decides among them.  Grids,
duplicates, zeros, tiny values and near-ties (terms that differ by less
than the float error) are where a slack that is too narrow would drop the
true maximiser, and block edges are where a run's counts could go wrong.
"""

import math
from fractions import Fraction
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from beattykit import expsum
from beattykit.expsum import discrepancy, discrepancy_beatty
from beattykit.irrational import parse_irrational
from oracles import discrepancy_brute, discrepancy_linear, exact_maximisers

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


ALL_TIE = [k / 2 ** 12 for k in range(2 ** 12)]
SIZES = (1, 2, 3, 5, expsum._BLOCK)   # the block sizes every scan test runs at


@given(samples())
@example([ALMOST_ONE])
@example([2.0 ** -1000, 2.0 ** -1000, 0.0])
@example([0.0, 0.0, 0.0])
@example([0.0, 0.0, 0.0, 0.1, 0.2])   # the value 0 is not a maximiser
@example([0.0, 0.5, 0.5, 0.5, 0.5])
@example([0.0, 0.0, 0.9])             # the value 0 maximises a
@example([0.0])                       # M = 1 at the value 0
@example([0.5])                       # M = 1 off it
@example([0.0, 0.0, 0.25, 0.5])       # led by a run of zeros
@example([0.0, 5e-324, 5e-324, ALMOST_ONE])
@example(ALL_TIE)                     # every gap ties: every value is kept
@example(ALL_TIE + [0.0] * 3)
def test_scan_equals_oracle(xs):
    _across_blocks(xs)


@given(perturbed_grids())
def test_scan_equals_oracle_on_near_ties(xs):
    assert discrepancy(xs) == discrepancy_brute(xs)


def _same_kept(xs):
    """At blocks of 1, 2, 3, 5 and _BLOCK points, the pointwise float filter
    keeps every value the dense exact computation marks as a maximiser of
    a, with its true leq, or of b, with its true less; its counts strictly
    ascend, and each point it keeps is the sorted point of its count's
    index (i + 1 for a, i for b)."""
    ys = np.sort(np.asarray(xs, np.float64))
    vals, less, leq, top_a, top_b = exact_maximisers(xs)
    for size in SIZES:
        with patch.object(expsum, "_BLOCK", size):
            kept = expsum._kept(ys)
        for (got, cnt), want, top, shift in zip(kept, (leq, less), (top_a, top_b),
                                                (1, 0), strict=True):
            assert np.all(np.diff(cnt) > 0), size
            assert np.array_equal(got, ys[cnt - shift]), size
            pairs = set(zip(got.tolist(), cnt.tolist()))
            assert pairs >= set(zip(vals[top].tolist(), want[top].tolist())), size


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


@given(samples())
@example([2.0 ** -1000, 0.0, 0.0])
@example([0.0, 5e-324, 5e-324, ALMOST_ONE])
def test_linear_oracle_equals_brute(xs):
    assert discrepancy_linear(xs) == discrepancy_brute(xs)


def _across_blocks(xs):
    """At blocks of 1, 2, 3, 5 and _BLOCK points, the scan gives the
    all-pairs value, or the linear exact oracle's on the all-tie grids,
    where all pairs take seconds (test_linear_oracle_equals_brute)."""
    want = (discrepancy_brute if len(xs) <= 100 else discrepancy_linear)(xs)
    for size in SIZES:
        with patch.object(expsum, "_BLOCK", size):
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


BLOCK = expsum._BLOCK
ALPHAS = ["sqrt:2", "quad:1/2+sqrt:5",
          "dec:1.4142135623730950488016887242096980785697@200"]


@pytest.mark.parametrize("alpha", ALPHAS)
@pytest.mark.parametrize("M", [BLOCK + 1, 3 * BLOCK + 5])
def test_beatty_scan_across_kernel_blocks(alpha, M):
    # the real block size: the last block holds one point, or five; the
    # fractions are formed over the same m blocks as discrepancy_beatty's
    x, delta = parse_irrational(alpha), Fraction(1, 3)
    fr = np.concatenate([
        x.affine_floor_frac_many(np.arange(s + 1, min(s + BLOCK, M) + 1), delta)[1]
        for s in range(0, M, BLOCK)])
    assert discrepancy_beatty(x, delta, M) == discrepancy_linear(fr)


@given(element)
def test_single_point(x):
    # the interval pinched onto the point holds all of the mass, except at
    # 0, which no open subinterval holds; (0, 1) then holds none of it
    assert discrepancy([x]) == discrepancy_brute([x]) == 1.0


def test_hand_built_near_tie():
    # k/12 with three points moved by one or two ulps: the widest gap,
    # (2/3, 3/4 + 2 ulps), beats the next one by 4/2^54, which is less than
    # the filter's slack 8*M/2^53 in the scan's units (M times D)
    xs = np.arange(12) / 12
    xs[1] = math.nextafter(xs[1], 0.0)
    xs[2] = math.nextafter(xs[2], 1.0)
    xs[9] = math.nextafter(math.nextafter(xs[9], 1.0), 1.0)
    ends = [Fraction(x) for x in xs.tolist()] + [Fraction(1)]
    gaps = sorted(b - a for a, b in zip(ends, ends[1:]))
    assert 0 < 12 * (gaps[-1] - gaps[-2]) < Fraction(8 * 12, 2 ** 53)
    assert discrepancy(xs) == discrepancy_brute(xs) == float(gaps[-1])
