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

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from beattykit.beatty import BeattyParams
from beattykit.counting import MODES, beatty_sums, main_terms
from beattykit.irrational import parse_irrational
from beattykit.sieve import _LOG_BLOCK as BLOCK
from beattykit.sieve import ResidueClass, build_table
from oracles import (class_mask, oracle_M, oracle_N, oracle_S, oracle_T,
                     oracle_main)

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
