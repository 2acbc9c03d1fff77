"""Differential tests of the 128-bit fixed-point floor/phase kernel.

Both backends run through surd.fixed_point_floor_frac; every output is
compared with an exact oracle: exact_floor_frac for surds, and for decimals
the Fraction interval reference below, which decides a floor only when the
whole carried interval agrees on it.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from beattykit.beatty import BeattyParams, bulk_membership, is_member
from beattykit.errors import (AmbiguousFloor, FloorOutOfRange,
                              PrecisionExhausted)
from beattykit.expsum import exp_sum_shifted
from beattykit.irrational import PrecisionReal, parse_irrational
from beattykit.sieve import ResidueClass, build_table
from beattykit.surd import (QuadraticSurd, exact_floor_frac,
                            fixed_point_floor_frac, make_real)
from oracles import bulk_floor_frac

RADICANDS = (2, 3, 5, 6, 7, 13, 61, 1009)
DEC_SQRT2 = "1.41421356237309504880168872420969807856967187537694807317667973799"
N_MAX = 1 << 40


def surd_oracle(x, eta, ns):
    A, B, C, E, W = x.affine_coeffs(eta)
    return [exact_floor_frac(A * n + B, C * n + E, W, x.d) for n in ns]


def decimal_oracle(x, eta, n):
    """(floor, exact frac of the center), or None when the interval
    center +- radius at n has points with different floors."""
    if isinstance(eta, PrecisionReal):
        c_eta, r_eta = eta.center, eta.radius
    else:
        c_eta, r_eta = Fraction(eta), Fraction(0)
    c = x.center * n + c_eta
    r = x.radius * abs(n) + r_eta
    t = math.floor(c - r)
    if t != math.floor(c + r):
        return None
    return t, c - t


def check_surd(x, eta, ns):
    ns = np.array(ns, dtype=np.int64)
    floors, fracs, err = x.affine_floor_frac_many(ns, eta)
    for i, (fl, fr) in enumerate(surd_oracle(x, eta, ns.tolist())):
        assert floors[i] == fl, (x, eta, int(ns[i]))
        assert abs(fracs[i] - fr) <= err, (x, eta, int(ns[i]))
    assert np.array_equal(x.phases_many(ns, eta), fracs)
    assert err < 1e-15


limbs = st.one_of(st.integers(0, (1 << 128) - 1),
                  st.sampled_from([0, 1, (1 << 64) - 1, 1 << 64, (1 << 127) - 1,
                                   1 << 127, (1 << 128) - 1]))


@st.composite
def limb_cases(draw):
    """(I, F, J, G, ns) with indices of both signs, all of int64 but -2**63,
    and |I*n| below 2**63; J may still carry a floor past int64."""
    I, F, J, G = draw(st.integers(-(1 << 40), 1 << 40)), draw(limbs), \
        draw(st.integers(-(1 << 40), 1 << 40)), draw(limbs)
    n_max = ((1 << 63) - 1) // (abs(I) + 1)
    ns = st.one_of(st.integers(-n_max, n_max),
                   st.sampled_from([-n_max, -1, 0, 1, n_max]))
    return I, F, J, G, draw(st.lists(ns, min_size=1, max_size=20))


@given(limb_cases())
# F + G = 2**128 + 1000: the low limbs carry into a high limb sum of 2**64 - 1
@example((0, (1 << 127) + (1 << 64) - 1, 0, ((1 << 63) - 1 << 64) + 1001, [1]))
# n < 0 with F0 = 2**64 - 1: the high limb borrows from the carry
@example((0, (1 << 64) - 1, 0, 0, [-1, -(1 << 62), 3]))
@example((-3, (1 << 128) - 1, 5, 1 << 127, [-((1 << 63) - 1) // 4, 7]))
# floors of exactly 2**63 and -2**63: refused, so -floor is an int64 too
@example((0, (1 << 128) - 1, 1, 1 << 63, [(1 << 63) - 1]))
@example((0, (1 << 128) - 1, -1, 0, [-((1 << 63) - 1)]))
def test_limb_arithmetic_matches_python_ints(case):
    # with zero error units every point is certified, so the kernel alone
    # must reproduce floor((I + F/2**128)*n + J + G/2**128) exactly; the
    # exact callable is asked only for the floors at the two ends
    I, F, J, G, ns = case
    total = lambda n: ((I << 128) + F) * n + (J << 128) + G
    calls = []

    def exact(n):
        calls.append(n)
        return total(n) >> 128, (total(n) % (1 << 128)) / (1 << 128)

    ends = (min(ns), max(ns))
    if not all(-(1 << 63) < total(n) >> 128 < 1 << 63 for n in ends):
        with pytest.raises(FloorOutOfRange):
            fixed_point_floor_frac((I, F, J, G, 0, 0), ns, exact)
        return
    floors, fracs, err = fixed_point_floor_frac((I, F, J, G, 0, 0), ns, exact)
    assert set(calls) <= set(ends)
    for i, n in enumerate(ns):
        assert floors[i] == total(n) >> 128
        assert abs(fracs[i] - (total(n) % (1 << 128)) / (1 << 128)) <= err


surds = st.builds(
    lambda u, v, w, d: make_real(u, v, w, d),
    st.integers(-10 ** 6, 10 ** 6), st.integers(-999, 999).filter(bool),
    st.integers(1, 10 ** 4), st.sampled_from(RADICANDS),
).filter(lambda x: isinstance(x, QuadraticSurd))

index_arrays = st.lists(st.integers(-N_MAX, N_MAX), min_size=1, max_size=40)
offsets = st.fractions(-10 ** 6, 10 ** 6, max_denominator=10 ** 6)


@given(surds, offsets, index_arrays)
def test_surd_rational_offset(x, eta, ns):
    check_surd(x, eta, ns)


@given(surds, st.integers(-10 ** 6, 10 ** 6), st.integers(-99, 99).filter(bool),
       st.integers(1, 999), index_arrays)
def test_surd_offset_in_the_field(x, u, v, w, ns):
    eta = make_real(u, v, w, x.d)
    assume(isinstance(eta, QuadraticSurd))
    check_surd(x, eta, ns)


@given(st.integers(-64, -1), offsets, index_arrays)
def test_negative_theta(k, eta, ns):
    # the frequencies gamma*k of the exponential sums, for negative k
    check_surd(QuadraticSurd.sqrt(2) * k, eta, ns)


@pytest.mark.parametrize("q", [408, 2378, 195025, 470832])
def test_sqrt2_convergent_denominators(q):
    # q*sqrt(2) lies within 1/(2q) of an integer
    x = QuadraticSurd.sqrt(2)
    ns = [q, 2 * q, 3 * q, q - 1, q + 1, -q, 997 * q, (N_MAX // q) * q]
    check_surd(x, 0, ns)
    check_surd(x, Fraction(1, 3), ns)


@given(st.integers(-(1 << 20), 1 << 20), st.integers(-(1 << 40), 1 << 40),
       st.integers(-999, 999).filter(bool), st.integers(-(1 << 40), 1 << 40),
       st.integers(1 << 22, 1 << 30).map(lambda w: w if w % 3 else -w),
       st.sampled_from(RADICANDS),
       st.lists(st.integers(-(1 << 10), 1 << 10), min_size=1, max_size=20))
def test_coefficients_near_2_62(da, B, C, E, W, d, ns):
    A = (1 << 62) + da
    floors, fracs, err = bulk_floor_frac(A, B, C, E, W, d, np.array(ns))
    for i, n in enumerate(ns):
        fl, fr = exact_floor_frac(A * n + B, C * n + E, W, d)
        assert floors[i] == fl
        assert abs(fracs[i] - fr) <= err


def test_rational_values_hit_the_guard_band():
    # 3n/7 is an integer at every multiple of 7, where the truncated
    # fixed-point value sits just below it: only the exact kernel gets
    # the floor right
    ns = np.arange(-50, 700, dtype=np.int64)
    floors, fracs, err = bulk_floor_frac(3, 0, 0, 0, 7, 2, ns)
    assert floors.tolist() == [3 * n // 7 for n in ns.tolist()]
    assert fracs[ns % 7 == 0].tolist() == [0.0] * int((ns % 7 == 0).sum())
    assert np.abs(fracs - (3 * ns % 7) / 7).max() <= err


def test_floors_beyond_int64_rejected_phases_kept():
    x = make_real(1 << 62, 1, 3, 2)      # (2**62 + sqrt 2)/3
    ns = np.array([1, 2, 999], dtype=np.int64)
    with pytest.raises(ValueError):
        x.affine_floor_frac_many(ns)
    want = [fr for _, fr in surd_oracle(x, 0, ns.tolist())]
    assert np.abs(x.phases_many(ns) - want).max() <= 5e-16


@pytest.mark.parametrize("alpha", ["sqrt:2", f"dec:{DEC_SQRT2}@200"])
def test_only_band_points_and_ends_reach_the_scalar_kernel(alpha):
    # n of both signs take the limb path: the exact callable sees only the
    # points within err of an integer, of which sqrt(2)*n + 1/3 has none
    # for |n| <= 20000, and with floors the two ends (the int64 check)
    x, eta = parse_irrational(alpha), Fraction(1, 3)
    ns = np.arange(-20000, 20001, dtype=np.int64)
    calls = []

    def exact(n):
        calls.append(n)
        return x.affine_floor_frac(n, eta)

    floors, fracs, err = fixed_point_floor_frac(x.fixed_point(eta), ns, exact)
    assert sorted(calls) == [-20000, 20000]
    calls.clear()
    phases = fixed_point_floor_frac(x.fixed_point(eta), ns, exact, floors=False)[1]
    assert not calls and np.array_equal(phases, fracs)
    assert all(np.array_equal(a, b) for a, b in
               zip(x.affine_floor_frac_many(ns, eta), (floors, fracs)))
    for n in ns[::97].tolist():
        fl, fr = x.affine_floor_frac(n, eta)
        assert floors[n + 20000] == fl and abs(fracs[n + 20000] - fr) <= err


# -- across blocks: the kernel runs 2**14 points at a time --------------------

BLOCK = 1 << 14
LENGTHS = (BLOCK - 1, BLOCK + 1, 3 * BLOCK + 5)


@st.composite
def block_cases(draw):
    """(x, eta, ns): a drawn pool of indices tiled over 2**14 +- 1 or
    3*2**14 + 5 points, with negative, extreme and guard-band indices placed
    in later blocks.  On surds eta may be k - x*n0, so that x*n0 + eta is
    the integer k: the fixed-point value there lies in the guard band."""
    size = draw(st.sampled_from(LENGTHS))
    ns = np.resize(np.array(draw(st.lists(st.integers(0, 1 << 20), min_size=1,
                                          max_size=50)), np.int64), size)
    n0 = draw(st.integers(1, 1 << 20))
    if draw(st.booleans()):
        x = draw(surds)
        eta = draw(st.one_of(offsets, st.builds(lambda k: k - x * n0,
                                                 st.integers(-99, 99))))
    else:
        x = PrecisionReal(draw(st.sampled_from(["", "-"])) + draw(decimal_digits),
                          draw(st.integers(160, 240)))
        eta = draw(offsets)
    special = st.one_of(st.integers(-N_MAX, -1), st.sampled_from([-N_MAX, N_MAX, n0]))
    for value in draw(st.lists(special, min_size=1, max_size=6)):
        ns[draw(st.integers(min(BLOCK, size // 2), size - 1))] = value
    return x, eta, ns


@given(block_cases())
def test_blocks_match_the_scalar_kernel(case):
    x, eta, ns = case
    exact = lambda n: x.affine_floor_frac(n, eta)
    values, where = np.unique(ns, return_inverse=True)
    try:
        want = [exact(n) for n in values.tolist()]
    except AmbiguousFloor:
        # a decimal straddle: refused in the bulk as at the point
        with pytest.raises(AmbiguousFloor):
            x.affine_floor_frac_many(ns, eta)
        return
    floors, fracs, err = x.affine_floor_frac_many(ns, eta)
    assert np.array_equal(floors, np.array([fl for fl, _ in want])[where])
    assert np.abs(fracs - np.array([fr for _, fr in want])[where]).max() <= err
    none, fracs_only, err_only = fixed_point_floor_frac(x.fixed_point(eta), ns,
                                                        exact, floors=False)
    assert none is None and err_only == err
    assert np.array_equal(fracs_only, fracs)


@given(st.sampled_from([QuadraticSurd.sqrt(2), PrecisionReal(DEC_SQRT2, 240)]),
       st.sampled_from([1, -1]), st.sampled_from([1, -1]),
       st.sampled_from(LENGTHS), st.integers(7 << 60, (1 << 63) - 1))
def test_only_the_last_block_leaves_int64(x, sign, side, size, n_big):
    # |sqrt(2)*n| > 2**63 only at the last index, which leaves int64 on
    # either side; its fraction is still formed
    x = x * sign
    ns = np.arange(size, dtype=np.int64)
    ns[-1] = side * n_big
    with pytest.raises(FloorOutOfRange):
        x.affine_floor_frac_many(ns)
    _, fr = x.affine_floor_frac(int(ns[-1]))
    assert abs(x.phases_many(ns)[-1] - fr) <= 1e-15


decimal_digits = st.builds(
    lambda i, f: f"{i}.{f}", st.integers(0, 40), st.integers(0, 10 ** 30))


def decimal_offsets(bits):
    rational = st.fractions(max_denominator=1000).filter(lambda f: abs(f) < 100)
    return st.one_of(rational, st.builds(lambda t: PrecisionReal(t, bits),
                                         decimal_digits))


@st.composite
def decimal_cases(draw, min_bits, max_bits, n_max):
    bits = draw(st.integers(min_bits, max_bits))
    sign = draw(st.sampled_from(["", "-"]))
    x = PrecisionReal(sign + draw(decimal_digits), bits)
    eta = draw(decimal_offsets(bits))
    ns = draw(st.lists(st.integers(-n_max, n_max), min_size=1, max_size=30))
    return x, eta, ns


@given(decimal_cases(100, 240, N_MAX))
def test_decimal_against_fraction_oracle(case):
    x, eta, ns = case
    want = [decimal_oracle(x, eta, n) for n in ns]
    assume(None not in want)
    floors, fracs, err = x.affine_floor_frac_many(np.array(ns), eta)
    for i, (fl, fr) in enumerate(want):
        assert floors[i] == fl
        assert abs(fracs[i] - float(fr)) <= err


@given(decimal_cases(4, 40, 1 << 12))
def test_low_bit_decimals_refuse_exactly_the_straddles(case):
    x, eta, ns = case
    for n in ns:
        want = decimal_oracle(x, eta, n)
        if want is None:
            with pytest.raises(AmbiguousFloor):
                x.affine_floor_frac_many(np.array([n]), eta)
        else:
            floors, fracs, err = x.affine_floor_frac_many(np.array([n]), eta)
            assert floors[0] == want[0]
            assert abs(fracs[0] - float(want[1])) <= err
    if any(decimal_oracle(x, eta, n) is None for n in ns):
        with pytest.raises(AmbiguousFloor):
            x.affine_floor_frac_many(np.array(ns), eta)


@given(decimal_cases(160, 240, N_MAX))
def test_decimal_phases_are_center_fractions(case):
    x, eta, ns = case
    ph = x.phases_many(np.array(ns), eta)
    c_eta = eta.center if isinstance(eta, PrecisionReal) else Fraction(eta)
    for i, n in enumerate(ns):
        c = x.center * n + c_eta
        # the bound of the center alone: 2**-128 per unit of n, plus rounding
        d = abs(Fraction(ph[i]) - (c - math.floor(c)))
        assert min(d, 1 - d) <= Fraction(abs(n) + 1, 1 << 128) + Fraction(5, 10 ** 16)


def test_decimal_phases_refuse_a_wide_radius():
    gamma = parse_irrational("dec:1.4142135623@20").inverse()
    table = build_table(3 * 10 ** 5 + 1)
    with pytest.raises(PrecisionExhausted):
        exp_sum_shifted(table, 10 ** 5, ResidueClass(1, 3), gamma, 1)
    # either side of the n where radius*n reaches 1e-12 of a turn
    x = PrecisionReal("0.7", 60)
    edge = int(Fraction(1, 10 ** 12) / x.radius)
    x.phases_many(np.array([edge - 1]))
    with pytest.raises(PrecisionExhausted):
        x.phases_many(np.array([edge + 1]))


@pytest.mark.parametrize("alpha", ["sqrt:2", "dec:1.4142135623730950488@200"])
def test_is_member_at_zero_argument(alpha):
    # m = beta - 1 and m = beta have witnesses ceil(gamma*(m - beta)) <= 0:
    # not members, decided on decimals too
    params = BeattyParams(parse_irrational(alpha), 1)
    assert is_member(params, 0) is None
    assert is_member(params, 1) is None
    assert is_member(params, 2) == 1
    mask, ns = bulk_membership(params, [0, 1, 2])
    assert mask.tolist() == [False, False, True] and ns.tolist() == [0, 0, 1]
