"""beatty_sums and main_terms against the per-index oracles, with exact ==.

The oracles walk n = 1..N (or m = 1..M) one term at a time through the exact
scalar floor and sum with math.fsum; the engine reads the class's records
once, weighs each by its step c(m + 1) - c(m), the number of indices n with
m(n) = m, cuts both sides at the record M(N), and sums exactly in integers.
Both round once, so they agree bit for bit, for surd and dec: alphas on both
sides of 1, negative beta (negative terms), q = 1, one-point grids and grids
where M(N) <= 0.  Where m(1) = beta, an integer, c(m(1)) = 0 is an integer a
dec: alpha cannot floor; a dec: alpha of 1e-20 makes every term beta, and
c(m(N) + 1) = 1e20 also leaves int64: the engine must take neither.
"""

import math
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from beattykit.beatty import BeattyParams
from beattykit.counting import MODES, beatty_sums, main_terms
from beattykit.errors import AmbiguousFloor, PrecisionExhausted
from beattykit.irrational import PrecisionReal, parse_irrational
from beattykit.sieve import _LOG_BLOCK as BLOCK
from beattykit.sieve import ResidueClass, build_table
from beattykit.surd import QuadraticSurd
from oracles import (_is_prime, class_mask, lucy_pi_ap, oracle_M, oracle_N,
                     oracle_S, oracle_T, oracle_main)

TINY = "dec:0.00000000000000000001@200"
ALPHAS = {name: parse_irrational(name) for name in (
    "sqrt:2", "quad:1/2+sqrt:5", "sqrt:7",
    "quad:0/2+sqrt:2", "quad:-1/2+sqrt:5", "quad:0/5+sqrt:2",
    "dec:3.141592653589793238462643383279502884197@200",
    "dec:0.7390851332151606416553120876738734040134@200",
    TINY,
)}
ORACLES = {"S": oracle_S, "T": oracle_T, "N": oracle_N, "M": oracle_M}

classes = st.integers(1, 12).flatmap(lambda q: st.sampled_from(
    [ResidueClass(a, q) for a in range(q) if gcd(a, q) == 1]))
grids = st.lists(st.integers(1, 300), min_size=1, max_size=4,
                 unique=True).map(sorted)


@pytest.fixture(scope="module")
def table():
    # above q*m + a for q <= 12 and every term alpha*300 + 4 reaches
    return build_table(20_000)


@given(st.sampled_from(sorted(ALPHAS)),
       st.fractions(-4, 4, max_denominator=12), classes, grids,
       st.sampled_from(MODES))
@example("quad:0/5+sqrt:2", Fraction(-4), ResidueClass(1, 2), [1, 5, 14],
         "S")                                      # every M(N) <= 0
@example("quad:0/5+sqrt:2", Fraction(-4), ResidueClass(1, 3), [1, 14, 300],
         "T")                                      # M(N) <= 0, then > 0
@example("sqrt:2", Fraction(-3, 2), ResidueClass(0, 1), [1], "N")   # q = 1
@example("dec:0.7390851332151606416553120876738734040134@200",
         Fraction(-7, 3), ResidueClass(0, 1), [250], "M")
@example("sqrt:2", Fraction(-1), ResidueClass(3, 7), [1, 2, 300],
         "S")                        # a prime, M(1) = 0: n = a is no term
@example("sqrt:2", Fraction(-1), ResidueClass(2, 5), [1, 2, 300], "N")
@example("dec:3.141592653589793238462643383279502884197@200", Fraction(0),
         ResidueClass(2, 11), [300, 579], "S")     # 11*M + 2 == limit
@example("dec:0.7390851332151606416553120876738734040134@200", Fraction(2),
         ResidueClass(0, 1), [1, 2, 3, 50, 300], "S")     # m(1) = beta
@example("dec:0.7390851332151606416553120876738734040134@200", Fraction(2),
         ResidueClass(0, 1), [1, 2, 3, 50, 300], "M")
@example(TINY, Fraction(5), ResidueClass(0, 1), [1, 200], "T")  # every term
@example(TINY, Fraction(5), ResidueClass(0, 1), [1, 200], "M")  # is beta
@example(TINY, Fraction(3), ResidueClass(1, 2), [7, 150, 300], "S")
def test_engine_equals_oracles(table, alpha, beta, r, grid, mode):
    p = BeattyParams(ALPHAS[alpha], beta)
    oracle = ORACLES[mode]
    assert beatty_sums(p, r, grid, mode, table) == \
        [oracle(p, r, N, table) for N in grid]
    assert main_terms(p, r, grid, mode, table) == \
        [oracle_main(p, r, N, mode, table) for N in grid]


@given(st.sampled_from(sorted(ALPHAS)),
       st.fractions(-4, 4, max_denominator=12), classes,
       st.lists(st.integers(1, 300), min_size=1, max_size=50,
                unique=True).map(sorted),
       st.sampled_from(MODES))
@example(TINY, Fraction(3), ResidueClass(1, 2), list(range(1, 300, 7)), "S")
@example("quad:0/2+sqrt:2", Fraction(-1, 3), ResidueClass(2, 3),
         list(range(251, 301)), "N")                        # alpha < 1
def test_carried_pass_equals_one_point_grids(table, alpha, beta, r, grid,
                                             mode):
    # one pass carries the totals across the grid; each must be the total a
    # sweep of its N alone gives
    p = BeattyParams(ALPHAS[alpha], beta)
    for f in (beatty_sums, main_terms):
        assert f(p, r, grid, mode, table) == \
            [f(p, r, [N], mode, table)[0] for N in grid]


@pytest.mark.parametrize("alpha", ["sqrt:5000",
                                   "dec:70.71067811865475244008443621048490392848@200"])
@pytest.mark.parametrize("mode", MODES)
def test_engine_equals_oracles_across_kernel_blocks(alpha, mode):
    # alpha = 50*sqrt(2) spreads 7000 terms over m <= 494975, so the class
    # 0 mod 1 holds over 2 * 2**14 records there: the sieve streams them in
    # three blocks, each with its own ceilings, and the grid's cuts fall
    # inside different ones
    p = BeattyParams(parse_irrational(alpha), Fraction(1, 3))
    r, grid = ResidueClass(0, 1), [1, 2500, 7000]
    table = build_table(p.term(grid[-1]))
    assert class_mask(table, table.limit, r).sum() > 2 * BLOCK
    assert beatty_sums(p, r, grid, mode, table) == \
        [ORACLES[mode](p, r, N, table) for N in grid]


# -- complementary sequences: counts that add up to prime counts -------------

X_MAX = 10 ** 6
DEC_SQRT2 = "dec:1.4142135623730950488016887242096980785696718753769@200"


@pytest.fixture(scope="module")
def complement_table():
    # above q*m + a for q <= 30 and m <= X_MAX
    return build_table(30 * X_MAX + 29)


surds_above_one = st.builds(QuadraticSurd, st.integers(-20, 20), st.integers(1, 9),
                            st.sampled_from((2, 3, 5, 7, 13, 1009))) \
    .filter(lambda x: 1 < x < 9)
decimals_above_one = st.builds("dec:{}.{}@{}".format, st.integers(1, 4),
                               st.integers(10 ** 12, 10 ** 15 - 1),
                               st.sampled_from((64, 128, 200))).map(parse_irrational)
classes_to_30 = st.integers(1, 30).flatmap(lambda q: st.sampled_from(
    [ResidueClass(a, q) for a in range(q) if gcd(a, q) == 1]))


@given(st.one_of(surds_above_one, decimals_above_one), classes_to_30,
       st.integers(1, X_MAX), st.sampled_from("NM"))
@example(parse_irrational("sqrt:2"), ResidueClass(3, 7), 10 ** 5, "M")
@example(parse_irrational("quad:1/2+sqrt:5"), ResidueClass(1, 10), 10 ** 5, "N")
@example(parse_irrational("sqrt:7"), ResidueClass(29, 30), X_MAX, "N")
@example(parse_irrational(DEC_SQRT2), ResidueClass(3, 7), X_MAX, "M")
def test_complementary_sequences_add_up_to_prime_counts(complement_table, alpha,
                                                         r, X, mode):
    # floor(alpha*n) and floor(alpha'*n), alpha' = alpha/(alpha - 1),
    # partition the positive integers (Rayleigh), and the terms <= X are
    # those of n <= floor(gamma*(X + 1)).  So the two mode M sums are
    # pi(X; q, a), and the two mode N sums count the primes q*m + a with
    # 1 <= m <= X.  On dec: either side may refuse, never mismatch
    try:
        total = 0.0
        for a in (alpha, alpha / (alpha - 1)):
            p = BeattyParams(a)
            N = math.floor(p.gamma * (X + 1))
            total += beatty_sums(p, r, [N], mode, complement_table)[0] if N else 0.0
    except (AmbiguousFloor, PrecisionExhausted):
        assert isinstance(alpha, PrecisionReal)
        return
    if mode == "M":
        assert total == lucy_pi_ap(X, r.q)[r.a]
    else:
        assert total == lucy_pi_ap(r.q * X + r.a, r.q)[r.a] - _is_prime(r.a)
