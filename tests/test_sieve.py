"""Prime-power table construction against trial division, partition
identities, and the arithmetic-progression summaries."""

import decimal
import functools
import math
import re
import tracemalloc
from fractions import Fraction
from pathlib import Path
from unittest.mock import patch

import numpy as np
import pytest
import sympy
from hypothesis import example, given, settings, strategies as st

from beattykit import sieve
from beattykit.errors import LimitTooLarge, PrecisionExhausted, TableTooSmall
from beattykit.sieve import (MAX_LIMIT, SEGMENT, MangoldtTable,
                             ResidueClass, build_table, chebyshev_psi_ap,
                             class_blocks, euler_phi, lambda_units,
                             prime_pi_ap)
from oracles import class_mask, log_correctly_rounded, lucy_pi_ap

# the primes up to 5e6 whose glibc math.log is not the correctly rounded log
LIBM_MISSES = [351497, 664679, 1070557, 1243783, 1908407, 1959253, 2784043,
               2896763, 2916841, 3555509, 3590099, 3828053, 4290469, 4595263]
# primes below MAX_LIMIT whose fast log lies within the guard band of a
# rounding midpoint (all 5 of them, found by a scan of the 16.3e6 primes)
GUARD_BAND_PRIMES = [14821333, 15594037, 94138783, 244178999, 286146017]


def mangoldt_trial(n: int) -> float:
    """Independent oracle: factor by trial division."""
    if n < 2:
        return 0.0
    for p in range(2, int(math.isqrt(n)) + 1):
        if n % p == 0:
            while n % p == 0:
                n //= p
            return log_correctly_rounded(p) if n == 1 else 0.0
    return log_correctly_rounded(n)


def test_small_table_frozen():
    t = build_table(10)
    assert t.power.tolist() == [2, 3, 4, 5, 7, 8, 9]
    assert t.base.tolist() == [2, 3, 2, 5, 7, 2, 3]
    assert t.power[t.power == t.base].tolist() == [2, 3, 5, 7]


def test_tiny_limits():
    assert build_table(2).power.tolist() == [2]
    assert build_table(1).power.tolist() == []
    with pytest.raises(ValueError):
        build_table(0)


def test_mangoldt_against_trial_division():
    t = build_table(5000)
    vals = t.mangoldt_values(np.arange(0, 5001, dtype=np.int64))
    for n in range(0, 5001):
        want = mangoldt_trial(n)
        if want == 0.0:
            assert vals[n] == 0.0, n
        else:
            # the table's log p is the correctly rounded one: bitwise equal
            assert vals[n] == want, n


def test_divisor_identity():
    """sum of Lambda(d) over d | n recovers log n."""
    N = 10 ** 4
    t = build_table(N)
    acc = np.zeros(N + 1)
    lam = t.mangoldt_values(np.arange(0, N + 1, dtype=np.int64))
    for d in range(2, N + 1):
        if lam[d]:
            acc[d::d] += lam[d]
    for n in range(2, N + 1):
        assert abs(acc[n] - math.log(n)) <= 1e-12 * math.log(n), n


def test_prime_pi_frozen():
    t = build_table(100)
    every = ResidueClass(0, 1)
    assert prime_pi_ap(t, 100, every) == 25
    assert prime_pi_ap(t, 100, ResidueClass(1, 4)) == 11
    assert prime_pi_ap(t, 100, ResidueClass(3, 4)) == 13
    assert prime_pi_ap(t, 2, every) == 1
    assert prime_pi_ap(t, 1, every) == 0


def test_psi_frozen():
    t = build_table(10)
    # psi(10) = log lcm(1..10)? no: log(2)*3 + log(3)*2 + log 5 + log 7
    want = 3 * math.log(2) + 2 * math.log(3) + math.log(5) + math.log(7)
    assert abs(chebyshev_psi_ap(t, 10, ResidueClass(0, 1)) - want) < 1e-12
    got = chebyshev_psi_ap(t, 10, ResidueClass(1, 2))
    assert abs(got - (2 * math.log(3) + math.log(5) + math.log(7))) < 1e-12
    assert chebyshev_psi_ap(t, 2, ResidueClass(1, 3)) == 0.0


@pytest.mark.parametrize("r", [ResidueClass(1, 3), ResidueClass(2, 9)])
def test_grid_totals_carry_across_cuts_and_blocks(r):
    # one read of the records for the whole grid equals one read per x:
    # x at records (primes and the prime power 4), between them, at the
    # edges of the 2**14-record blocks and beyond the class's last record;
    # 2 mod 9 is read from a table of 2 mod 3
    table = build_table(2 * 10 ** 6, ResidueClass(r.a % 3, 3))
    ns = [n for n, _ in class_blocks(table, 2 * 10 ** 6, r)]
    at = np.concatenate(ns)
    grid = sorted({1, 2, 4, 5, 6, *at[[0, 1, 2, 999, -2, -1]].tolist(),
                   *(n[0] for n in ns), *(n[-1] for n in ns),
                   *(n[-1] + 1 for n in ns), 2 * 10 ** 6} - {0})
    assert sieve._grid_totals(table, grid, r, primes=True) == \
        [prime_pi_ap(table, x, r) for x in grid]
    assert [u * 2.0 ** -53 for u in sieve._grid_totals(table, grid, r)] == \
        [chebyshev_psi_ap(table, x, r) for x in grid]


def test_psi_growth_rate():
    t = build_table(10 ** 6)
    val = chebyshev_psi_ap(t, 10 ** 6, ResidueClass(0, 1))
    assert abs(val - 10 ** 6) / 10 ** 6 < 0.01


def test_pi_partition_exact():
    t = build_table(10 ** 5)
    x = 10 ** 5
    total = prime_pi_ap(t, x, ResidueClass(0, 1))
    for q in (2, 3, 4, 6, 10):
        # non-coprime classes enter through the raw (a, q) pair form
        parts = [prime_pi_ap(t, x, (a, q)) for a in range(q)]
        assert sum(parts) == total, q


def test_psi_partition_close():
    t = build_table(10 ** 5)
    x = 10 ** 5
    total = chebyshev_psi_ap(t, x, ResidueClass(0, 1))
    for q in (2, 3, 5, 8):
        parts = math.fsum(chebyshev_psi_ap(t, x, (a, q)) for a in range(q))
        # per-class sums each round once; identity holds to an ulp or two
        assert abs(parts - total) <= 1e-12 * total, q


def segmented(limit, r, segment=SEGMENT):
    """build_table(limit, r), sieved segment members at a time."""
    with patch.object(sieve, "SEGMENT", segment):
        return build_table(limit, r)


def test_segment_size_independence():
    for r in (ResidueClass(0, 1), ResidueClass(3, 7), ResidueClass(1, 30)):
        a = segmented(100_000, r, 1 << 10)
        b = segmented(100_000, r, 1 << 16)
        c = build_table(100_000, r)
        for other in (b, c):
            assert np.array_equal(a.power, other.power)
            assert np.array_equal(a.base, other.base)
            assert a.log_base.tobytes() == other.log_base.tobytes()
    # build_table reads SEGMENT when it runs: a zero step reaches range()
    with pytest.raises(ValueError, match="range"):
        segmented(100, ResidueClass(0, 1), 0)


# -- tables of one class against the full table ------------------------------

FULL_LIMIT = 200_000


@pytest.fixture(scope="module")
def full():
    return build_table(FULL_LIMIT)


def assert_class_slice(full, limit, r, segment=SEGMENT):
    """A class table's records, bases and logs are, bit for bit, the full
    table's records of that class up to limit."""
    t = segmented(limit, r, segment)
    at = class_mask(full, limit, r)
    assert t.residue == r and t.limit == limit
    assert np.array_equal(t.power, full.power[at])
    assert np.array_equal(t.base, full.base[at])
    assert t.log_base.tobytes() == full.log_base[at].tobytes()
    return t


@st.composite
def primitive_classes(draw):
    q = draw(st.integers(1, 1000))
    a = draw(st.integers(0, q - 1).filter(lambda a: math.gcd(a, q) == 1))
    return ResidueClass(a, q)


@given(st.integers(1, FULL_LIMIT), primitive_classes(),
       st.sampled_from([64, 65, 1000, SEGMENT]))
def test_class_table_is_the_full_tables_slice(full, limit, r, segment):
    assert_class_slice(full, limit, r, segment)


def test_square_at_a_segment_edge(full):
    # 29**2 = 3*280 + 1: m = 280 is the last member of its segment at 70
    # (211..280) and the first at 93 (280..372); there the sieve crosses
    # off m = 280 first, and the merge puts 841 back as a power of 29
    r = ResidueClass(1, 3)
    for segment in (70, 93):
        t = assert_class_slice(full, 1000, r, segment)
        i = t.power.tolist().index(29 ** 2)
        assert t.base[i] == 29


def test_base_prime_inside_the_class(full):
    # 3, 17 and 31 <= sqrt(1000) are 3 mod 7 and cross off their multiples,
    # but survive themselves
    t = assert_class_slice(full, 1000, ResidueClass(3, 7))
    primes = t.power[t.power == t.base].tolist()
    assert {3, 17, 31} <= set(primes) and 3 * 17 not in primes


def test_primes_dividing_the_modulus(full):
    # 2, 3 and 5 divide q and no member, and have no inverse mod q; 7
    # crosses off 7*43 == 1 (mod 30)
    for r in (ResidueClass(1, 6), ResidueClass(1, 30), ResidueClass(7, 30)):
        t = assert_class_slice(full, 10_000, r)
        assert 301 not in t.power.tolist()


def test_short_tables(full):
    # limit < a: no member; q > limit: at most the member n = a
    assert build_table(5, ResidueClass(7, 10)).power.size == 0
    assert build_table(100, ResidueClass(37, 1000)).power.tolist() == [37]
    t = build_table(100, ResidueClass(49, 1000))
    assert t.power.tolist() == [49] and t.base.tolist() == [7]
    assert build_table(100, ResidueClass(91, 1000)).power.size == 0
    assert build_table(100, ResidueClass(1, 1000)).power.size == 0
    for limit, r in ((5, ResidueClass(7, 10)), (100, ResidueClass(37, 1000)),
                     (100, ResidueClass(49, 1000))):
        assert_class_slice(full, limit, r)


def test_modulus_past_int64():
    # neither the sieve nor the class selection forms q as an int64
    huge = 2 ** 64 + 1
    t = build_table(1000, ResidueClass(97, huge))
    assert t.power.tolist() == [97]
    assert prime_pi_ap(t, 1000, ResidueClass(97, huge)) == 1
    assert build_table(1000, ResidueClass(1, huge)).power.size == 0
    full = build_table(1000)
    assert prime_pi_ap(full, 1000, (97, 2 ** 70)) == 1
    assert prime_pi_ap(full, 1000, (98, 2 ** 70)) == 0
    assert chebyshev_psi_ap(full, 1000, (1, 2 ** 70)) == 0.0


def test_class_zero_mod_one_is_the_full_table():
    t, u = build_table(100_000), build_table(100_000, ResidueClass(0, 1))
    assert t.residue == u.residue == ResidueClass(0, 1)
    assert np.array_equal(t.power, u.power) and np.array_equal(t.base, u.base)


def test_class_table_serves_only_its_classes(full):
    t = build_table(10_000, ResidueClass(3, 7))
    for other in (ResidueClass(1, 7), ResidueClass(3, 5), ResidueClass(0, 1),
                  (1, 14)):
        with pytest.raises(ValueError, match="does not hold"):
            next(class_blocks(t, 10_000, other))
        with pytest.raises(ValueError, match="does not hold"):
            prime_pi_ap(t, 10_000, other)
    # 3 mod 14 lies inside 3 mod 7
    for r in (ResidueClass(3, 14), ResidueClass(3, 7)):
        for primes in (False, True):
            got = streamed(t, 10_000, r, primes=primes)[0]
            want = full.power[class_mask(full, 10_000, r, primes=primes)]
            assert np.array_equal(got, want)
        assert chebyshev_psi_ap(t, 10_000, r) == chebyshev_psi_ap(full, 10_000, r)


def streamed(table, L, r, min_n=2, primes=False):
    """class_blocks joined: (n, Lambda values or None, the blocks)."""
    blocks = list(class_blocks(table, L, r, min_n, primes))
    ns, lams = zip(*blocks) if blocks else ((np.empty(0, np.int64),), (np.empty(0),))
    return np.concatenate(ns), None if primes else np.concatenate(lams), blocks


@functools.cache
def class_table(a, q):
    return build_table(FULL_LIMIT, ResidueClass(a, q))


@st.composite
def stream_cases(draw):
    """(table's class, a class inside it as a pair, min_n, L): the class's
    modulus is the table's times k, and k = 10**6 or 2**70 puts it past L."""
    held_a, held_q = draw(st.sampled_from([(0, 1), (3, 7), (1, 4), (5, 6)]))
    k = draw(st.sampled_from([1, 2, 3, 10, 10 ** 6, 2 ** 70]))
    j = draw(st.one_of(st.integers(0, min(k - 1, 300)), st.integers(0, k - 1)))
    return ((held_a, held_q), (held_a + held_q * j, held_q * k),
            draw(st.integers(-2, FULL_LIMIT + 2)), draw(st.integers(-1, FULL_LIMIT)))


@given(stream_cases(), st.booleans(), st.sampled_from([None, 64]),
       st.none() | st.integers(1, 400))
@example(((0, 1), (0, 1), 2, FULL_LIMIT), False, 64, 3)     # ends on an edge
@example(((3, 7), (10, 14), 0, 30), True, None, None)       # L < q
@example(((1, 4), (5, 8), 50, 20), False, 64, None)         # L < min_n
def test_stream_is_the_mask(full, case, primes, block, edge):
    # the stream joined is the mask's records, with the same Lambda bits;
    # blocks are nonempty, at most _LOG_BLOCK positions, and views of the
    # table for its own class
    held, r, min_n, L = case
    table = full if held == (0, 1) else class_table(*held)
    with patch.object(sieve, "_LOG_BLOCK", block or sieve._LOG_BLOCK):
        size = sieve._LOG_BLOCK
        if edge is not None:    # L the last record of the edge-th block
            lo = int(np.count_nonzero(table.power < min_n))
            L = int(table.power[max(min(lo + edge * size, table.power.size), 1) - 1])
        ns, lam, blocks = streamed(table, L, r, min_n, primes)
    mask = class_mask(table, L, r, min_n, primes)
    assert ns.tolist() == table.power[mask].tolist()
    assert all(0 < n.size <= size for n, _ in blocks)
    if primes:
        assert lam is None
        assert np.array_equal(ns, table.base[mask])
    else:
        assert lam.tobytes() == table.log_base[mask].tobytes()
    if r[1] == held[1] and not primes:
        assert all(np.shares_memory(n, table.power)
                   and np.shares_memory(x, table.log_base) for n, x in blocks)


def test_prime_stream_takes_no_logs():
    t = build_table(10_000, ResidueClass(3, 7))
    assert prime_pi_ap(t, 10_000, ResidueClass(3, 7)) == 209
    assert prime_pi_ap(t, 10_000, ResidueClass(3, 14)) == 209
    assert streamed(t, 10_000, (10, 14), primes=True)[0].size == 0
    assert "log_base" not in vars(t)


def test_only_the_sieve_reads_the_table_layout():
    # the layout of a table is sieve's alone: the rest of the package
    # reads records through class_blocks
    src = Path(sieve.__file__).parent
    readers = [f.name for f in sorted(src.glob("*.py")) if f.name != "sieve.py"
               and re.search(r"\btable\.(power|base|log_base)\b", f.read_text())]
    assert readers == []


def test_class_table_knows_lambda_only_on_its_class():
    t = build_table(1000, ResidueClass(3, 7))
    with pytest.raises(ValueError, match="off its class"):
        t.mangoldt_values(np.array([3, 4], np.int64))
    power, logs = t.records_upto(100)
    assert power.tolist() == [3, 17, 31, 59, 73] and logs.size == 5
    assert np.flatnonzero(t.is_prime).tolist() == \
        t.power[t.power == t.base].tolist()


def test_build_table_refuses_an_imprimitive_class():
    for pair in ((2, 4), (0, 3), (6, 9)):
        with pytest.raises(ValueError, match="not primitive"):
            build_table(100, pair)
    assert build_table(100, (3, 7)).residue == ResidueClass(3, 7)


def test_log_base_is_an_integer_multiple_of_2_pow_minus_53():
    # lambda_units sums Lambda exactly as int64 multiples of 2**-53: every log p
    # is >= log 2 > 1/2, so a multiple of 2**-53, and stays below 2**6
    t = build_table(1_000_000)
    fixed = t.log_base * 2.0 ** 53
    assert np.array_equal(fixed, np.floor(fixed))
    assert fixed.max() < 2 ** 59
    assert math.log(MAX_LIMIT) < 2 ** 6
    assert MAX_LIMIT < 2 ** 29  # the domain of the log kernel


def test_lambda_units_is_fsum_exactly():
    # one rounding of the exact integer total gives math.fsum's result
    t = build_table(2_000_000)
    rng = np.random.default_rng(5)
    for _ in range(300):
        q = int(rng.integers(1, 41))
        a = int(rng.integers(0, q))
        power, log_base = t.records_upto(int(rng.integers(2, 2_000_001)))
        lam = log_base[power % q == a]
        want = math.fsum(lam.tolist())
        assert float(lambda_units(lam)) * 2.0 ** -53 == want
        assert chebyshev_psi_ap(t, int(power[-1]), (a, q)) == want
    # the bound of `expsum eval --q 3 --a 1 --M 5000`, as math.fsum gave it
    ns = np.arange(1, 5001, dtype=np.int64)
    units = lambda_units(t.mangoldt_values(3 * ns + 1))
    assert (float(units) * 2.0 ** -53).hex() == "0x1.d1efecacd87f6p+12"
    assert lambda_units(np.zeros(0)) == 0
    # times[i] copies of values[i]
    for _ in range(100):
        lam = t.log_base[rng.integers(0, t.log_base.size, int(rng.integers(0, 50)))]
        times = rng.integers(0, 1000, lam.size)
        assert lambda_units(lam, times) == lambda_units(np.repeat(lam, times))
    # the largest log a table holds, times just under 2**33, stays in int64
    top = sieve._log_primes(np.array([sympy.prevprime(MAX_LIMIT + 1)]))
    big = 2 ** 33 - 1
    assert lambda_units(top, np.array([big])) == \
        int(Fraction(float(top[0])) * 2 ** 53) * big


def test_residue_class_validation():
    with pytest.raises(ValueError):
        ResidueClass(2, 4)
    with pytest.raises(ValueError):
        ResidueClass(3, 3)
    with pytest.raises(ValueError):
        ResidueClass(-1, 3)
    with pytest.raises(ValueError):
        ResidueClass(0, 0)
    assert ResidueClass(0, 1).q == 1


def test_require_and_budget():
    t = build_table(1000)
    with pytest.raises(TableTooSmall):
        t.require(1001)
    with pytest.raises(TableTooSmall):
        chebyshev_psi_ap(t, 2000, ResidueClass(1, 2))
    with pytest.raises(LimitTooLarge):
        build_table(10 ** 10)


def test_records_upto_view():
    t = build_table(1000)
    power, logs = t.records_upto(100)
    assert power[-1] <= 100
    assert power.size == np.count_nonzero(t.power <= 100)
    assert logs.size == power.size


def test_euler_phi():
    assert euler_phi(1) == 1
    assert euler_phi(2) == 1
    assert euler_phi(12) == 4
    assert euler_phi(97) == 96
    for q in range(1, 200):
        assert euler_phi(q) == int(sympy.totient(q)), q


def test_mangoldt_values_clamps_small_arguments():
    t = build_table(50)
    vals = t.mangoldt_values(np.array([0, 1, 2, 49], dtype=np.int64))
    assert vals[0] == 0.0 and vals[1] == 0.0
    assert vals[2] == math.log(2)
    assert vals[3] == math.log(7)


# -- the correctly rounded log ----------------------------------------------

def test_log_is_correctly_rounded_where_libm_misses():
    t = build_table(LIBM_MISSES[-1])
    got = t.mangoldt_values(np.array(LIBM_MISSES, np.int64))
    assert got.tolist() == [log_correctly_rounded(p) for p in LIBM_MISSES]


def test_every_record_to_1e5_is_correctly_rounded():
    t = build_table(100_000)
    want = {p: log_correctly_rounded(p) for p in set(t.base.tolist())}
    assert t.log_base.tolist() == [want[p] for p in t.base.tolist()]


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(1, MAX_LIMIT - 200), min_size=1, max_size=8))
def test_log_of_primes_below_max_limit_is_correctly_rounded(starts):
    ps = sorted({sympy.nextprime(n) for n in starts})
    assert ps[-1] < MAX_LIMIT
    got = sieve._log_primes(np.array(ps, np.int64))
    assert got.tolist() == [log_correctly_rounded(p) for p in ps]


def test_guard_band_sends_its_primes_to_the_exact_path():
    # each of these lies within 2**-70 (the guard) of a rounding midpoint,
    # so the fast path must not decide it; with no guard band this fails
    ps = np.array(GUARD_BAND_PRIMES, np.int64)
    _, undecided = sieve._log_block(ps.astype(np.float64))
    assert undecided.all()
    assert sieve._log_primes(ps).tolist() == [log_correctly_rounded(p)
                                              for p in GUARD_BAND_PRIMES]


def test_exact_path_agrees_with_the_fast_path(monkeypatch):
    fast = build_table(3000)
    monkeypatch.setattr(sieve, "_LOG_GUARD", 1.0)  # every value undecided
    slow = build_table(3000)
    assert slow.log_base.tobytes() == fast.log_base.tobytes()


def test_exact_path_refuses_when_precision_runs_out(monkeypatch):
    monkeypatch.setattr(sieve, "_LOG_GUARD", 1.0)
    monkeypatch.setattr(sieve, "_LN_DIGITS", (8, 12))
    # logs are taken when Lambda is first read, so that is where it refuses
    table = build_table(10)
    with pytest.raises(PrecisionExhausted):
        table.log_base
    with pytest.raises(PrecisionExhausted):
        chebyshev_psi_ap(table, 10, ResidueClass(1, 2))


def test_log_kernel_domain():
    for bad in ([1], [2, 1 << 29]):
        with pytest.raises(ValueError):
            sieve._log_primes(np.array(bad, np.int64))
    assert sieve._log_primes(np.array([(1 << 29) - 3], np.int64))[0] == \
        log_correctly_rounded((1 << 29) - 3)


def test_log_table_constants_against_decimal():
    ctx = decimal.Context(prec=60)
    ln2 = Fraction(ctx.ln(decimal.Decimal(2)))
    hi, lo = sieve._LN2_HI, sieve._LN2_LO
    assert Fraction(hi).denominator <= 2 ** 21  # k * hi exact for k < 2**5
    assert lo == float(ln2 - Fraction(hi))
    assert abs(ln2 - Fraction(hi) - Fraction(lo)) < Fraction(17, 10 ** 26)
    assert sieve._RECIP.size == sieve._T_HI.size == sieve._T_LO.size == 128
    for j, c in enumerate(sieve._RECIP.tolist()):
        assert 0.5 < c < 1 and Fraction(c).denominator <= 2 ** 21
        # |r| = |f*c - 1| < 2**-8 over the whole bin 1 + [j, j + 1)/128
        for f in (1 + Fraction(j, 128), 1 + Fraction(j + 1, 128)):
            assert abs(f * Fraction(c) - 1) < Fraction(1, 256)
        t = -Fraction(ctx.ln(decimal.Decimal(c)))  # c is dyadic: exact
        assert sieve._T_HI[j] == float(t)
        assert sieve._T_LO[j] == float(t - Fraction(sieve._T_HI[j]))


def test_records_are_the_sorted_prime_powers():
    L = 100_000
    t = build_table(L)
    recs = sorted((p ** k, p) for p in sympy.primerange(2, L + 1)
                  for k in range(1, 18) if p ** k <= L)
    assert t.power.tolist() == [n for n, _ in recs]
    assert t.base.tolist() == [p for _, p in recs]
    assert t.power.dtype == t.base.dtype == np.int64
    # the primes are exactly the records with power == base, and the
    # bitmap built on demand marks them
    primes = t.power[t.power == t.base]
    assert primes.tolist() == list(sympy.primerange(2, L + 1))
    assert np.array_equal(np.flatnonzero(t.is_prime), primes)


def test_table_holds_only_its_records():
    # no bitmap of limit + 1 entries and no second prime array outlive
    # the build: what stays allocated is power and base
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        t = build_table(4_000_000)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert abs(held - (t.power.nbytes + t.base.nbytes)) <= 1 << 20


def test_build_peaks_near_its_records():
    # the primes are copied once, into power, and base is a copy of power
    # with the p**k positions overwritten: no third prime array at the peak
    tracemalloc.start()
    try:
        t = build_table(20_000_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.15 * (t.power.nbytes + t.base.nbytes)


@given(st.integers(1, 30), st.integers(1, 10 ** 7))
@example(7, 10 ** 7)
@example(30, 10 ** 7)
@example(1, 1)
def test_prime_counts_match_lucys_recursion(big_table, q, x):
    # pi(x; q, a) for every primitive class of q from the full table, and
    # from the class's own table (the class sieve), against an oracle
    # that shares no code with the sieve
    want = lucy_pi_ap(x, q)
    assert {a: prime_pi_ap(big_table, x, ResidueClass(a, q)) for a in want} == want
    assert {a: prime_pi_ap(build_table(x, ResidueClass(a, q)), x, ResidueClass(a, q))
            for a in want} == want
