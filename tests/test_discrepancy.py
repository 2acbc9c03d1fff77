"""Exact extreme discrepancy: frozen cases, hand-worked values, the
all-pairs oracle, and a third from-first-principles check on tiny sets."""

import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from beattykit.cli import main
from beattykit.errors import AmbiguousFloor, FloorOutOfRange, PointOutOfRange
from beattykit.expsum import decay_exponent, discrepancy, discrepancy_beatty
from beattykit.irrational import parse_irrational
from oracles import discrepancy_brute


def tiny_oracle(points):
    """Supremum over open intervals from first principles, in Fractions.

    Candidates: intervals pinched onto runs of points (closed count beats
    open length) and intervals opened between neighbours (length beats
    count).  Only viable for very small sets.
    """
    xs = sorted(Fraction(x) for x in points)
    M = len(xs)
    cands = sorted({Fraction(0), Fraction(1), *xs})
    best = Fraction(0)
    for i, c in enumerate(cands):
        for d in cands[i:]:
            inside_closed = sum(1 for x in xs if c <= x <= d and x > 0)
            inside_open = sum(1 for x in xs if c < x < d)
            best = max(best, Fraction(inside_closed, M) - (d - c))
            best = max(best, (d - c) - Fraction(inside_open, M))
    return float(best)


def test_frozen_examples():
    for M in (1, 2, 10, 64):
        pts = np.arange(M) / M
        assert abs(discrepancy(pts) - 1 / M) < 1e-15
    assert discrepancy([0.5]) == 1.0
    assert discrepancy([0.0]) == 1.0


def test_hand_worked_values():
    assert discrepancy([0.25, 0.75]) == 0.5
    assert discrepancy([0.5, 0.5]) == 1.0      # pinched interval holds both
    # 0 sits in no open subinterval of [0,1), yet (0,1) still holds 0.5
    assert discrepancy([0.0, 0.5]) == 0.5
    assert discrepancy([0.2, 0.4, 0.6, 0.8]) == pytest.approx(0.4)


def test_matches_tiny_oracle():
    rng = np.random.default_rng(42)
    for _ in range(60):
        M = int(rng.integers(1, 9))
        xs = np.round(rng.random(M), 2)
        xs[xs >= 1.0] = 0.0
        want = tiny_oracle(xs.tolist())
        assert discrepancy(xs) == pytest.approx(want, abs=1e-12)
        assert discrepancy_brute(xs) == pytest.approx(want, abs=1e-12)


def test_fast_equals_brute_exactly():
    rng = np.random.default_rng(1234)
    for t in range(100):
        M = int(rng.integers(1, 201))
        xs = rng.random(M)
        if t % 3 == 0:
            xs = np.round(xs, 1)
            xs[xs >= 1.0] = 0.9
        if t % 5 == 0:
            xs[: max(1, M // 10)] = 0.0
        assert discrepancy(xs) == discrepancy_brute(xs), t


def test_validation():
    with pytest.raises(PointOutOfRange):
        discrepancy([0.5, 1.0])
    with pytest.raises(PointOutOfRange):
        discrepancy([-0.1])
    with pytest.raises(PointOutOfRange):
        discrepancy([float("nan")])
    # the sorted ends decide: NaN sorts last, -inf first, either in the middle
    for bad in ([0.3, float("nan"), 0.1], [0.3, float("-inf"), 0.1],
                [0.3, float("inf"), 0.1], [0.3, 1.5, 0.1]):
        with pytest.raises(PointOutOfRange):
            discrepancy(bad)
    assert discrepancy([-0.0, 0.5]) == discrepancy([0.0, 0.5])
    with pytest.raises(ValueError):
        discrepancy([])


@pytest.mark.parametrize("points", [[[0.25, 0.75], [0.5, 0.5]], [[0.3]],
                                    [[0.1], [0.9]], [[[0.0, 0.6]], [[0.2, 0.2]]]])
def test_points_read_flat(points):
    # any shape is a set of points: D is that of the flattened array
    flat = np.ravel(points)
    assert discrepancy(np.array(points)) == discrepancy(flat) \
        == discrepancy_brute(flat)
    assert discrepancy(points) == discrepancy(flat.tolist())
    with pytest.raises(PointOutOfRange):
        discrepancy([[0.5, 1.0], [0.2, 0.3]])


def test_beatty_sequence_decay(sqrt2, phi):
    for gam in (sqrt2.inverse(), phi.inverse()):
        d_small = discrepancy_beatty(gam, 0, 100)
        d_big = discrepancy_beatty(gam, 0, 4000)
        assert d_big < d_small
        assert decay_exponent(d_big, 4000) <= -0.7


def test_shift_does_not_change_decay(sqrt2):
    gam = sqrt2.inverse()
    e0 = decay_exponent(discrepancy_beatty(gam, 0, 4000), 4000)
    e1 = decay_exponent(discrepancy_beatty(gam, 0.37, 4000), 4000)
    assert abs(e0 - e1) <= 0.1


def test_single_point_case(sqrt2):
    assert discrepancy_beatty(sqrt2.inverse(), 0, 1) == pytest.approx(
        1.0, abs=1e-12)
    assert decay_exponent(1.0, 1) == 0.0
    with pytest.raises(ValueError):
        discrepancy_beatty(sqrt2.inverse(), 0, 0)


def test_rational_rotation_has_no_decay():
    # {m/3} never equidistributes below 1/3
    pts = np.arange(1, 301) % 3 / 3.0
    assert discrepancy(pts) >= 1 / 3


def test_near_rational_rotation_frac_rounds_safely():
    # {m * 0.333...3} approaches 1 from below for m divisible by 3; the
    # float image of the exact fractional part rounds up to 1.0, which
    # must be clamped back into [0, 1) rather than rejected
    third = parse_irrational("dec:0.333333333333333333333333")
    D = discrepancy_beatty(third, 0, 9999)
    assert 0.3 < D < 0.35


BLOCK = 1 << 14   # the kernel's block of m


@pytest.mark.parametrize("n0", [5, BLOCK, BLOCK + 1, 3 * BLOCK + 5])
def test_guard_band_point_refuses(n0):
    # delta puts the center of x*n0 + delta on the integer 7, so its floor
    # straddles 7 at x's radius; no other point comes that near an integer
    x = parse_irrational("dec:1.4142135623730950488016887242096980785697@200")
    delta, M = 7 - x.center * n0, 3 * BLOCK + 6
    with pytest.raises(AmbiguousFloor, match=r"near 7\.0 ") as blocks:
        discrepancy_beatty(x, delta, M)
    # one kernel call over m = 1..M refuses at the same first point
    with pytest.raises(AmbiguousFloor) as whole:
        x.affine_floor_frac_many(np.arange(1, M + 1), delta)
    assert str(blocks.value) == str(whole.value)


def test_floor_past_int64_in_the_last_block_refuses(sqrt2, capsys):
    # floor(sqrt(2)*m + delta) fits int64 up to m = BLOCK + 1, not at + 2
    delta = 2 ** 63 - 23172
    assert 0 <= discrepancy_beatty(sqrt2, delta, BLOCK + 1) <= 1
    with pytest.raises(FloorOutOfRange):
        discrepancy_beatty(sqrt2, delta, BLOCK + 2)
    argv = ["discrepancy", "--alpha", "sqrt:2", "--delta", str(delta),
            "--M", str(BLOCK + 2)]
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith("error:")


def test_beatty_scan_memory_per_point():
    # the fractions fill one array a block at a time, are sorted in place and
    # scanned a block at a time: 15.0 here, where one block's temporaries
    # weigh twice what they do at 2^19 (42.0 with whole-length scan arrays,
    # about 147 with the dense scan)
    gam, M = parse_irrational("sqrt:2"), 2 ** 18
    discrepancy_beatty(gam, Fraction(1, 3), 64)   # warm the kernel's caches
    tracemalloc.start()
    try:
        discrepancy_beatty(gam, Fraction(1, 3), M)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 16 * M


def test_discrepancy_leaves_its_input_alone():
    xs = np.random.default_rng(7).random(1000)
    xs[:10] = 0.0
    before = xs.copy()
    discrepancy(xs)
    assert np.array_equal(xs, before)
