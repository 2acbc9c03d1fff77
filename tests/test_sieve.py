"""Prime-power table construction against trial division, partition
identities, and the arithmetic-progression summaries."""

import math

import numpy as np
import pytest
import sympy

from beattykit.errors import LimitTooLarge, TableTooSmall
from beattykit.sieve import (MAX_LIMIT, MangoldtTable, ResidueClass,
                             build_table, chebyshev_psi_ap, euler_phi,
                             lambda_units, prime_pi_ap)


def mangoldt_trial(n: int) -> float:
    """Independent oracle: factor by trial division."""
    if n < 2:
        return 0.0
    for p in range(2, int(math.isqrt(n)) + 1):
        if n % p == 0:
            while n % p == 0:
                n //= p
            return math.log(p) if n == 1 else 0.0
    return math.log(n)


def test_small_table_frozen():
    t = build_table(10)
    assert t.power.tolist() == [2, 3, 4, 5, 7, 8, 9]
    assert t.base.tolist() == [2, 3, 2, 5, 7, 2, 3]
    assert t.primes.tolist() == [2, 3, 5, 7]


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
            # both sides are math.log(p); bitwise equal by construction
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


def test_segment_size_independence():
    a = build_table(100_000, segment_size=1 << 10)
    b = build_table(100_000, segment_size=1 << 16)
    c = build_table(100_000)
    for other in (b, c):
        assert np.array_equal(a.is_prime, other.is_prime)
        assert np.array_equal(a.power, other.power)
        assert np.array_equal(a.base, other.base)
        assert a.log_base.tobytes() == other.log_base.tobytes()


def test_log_base_is_an_integer_multiple_of_2_pow_minus_53():
    # lambda_units sums Lambda exactly as int64 multiples of 2**-53: every log p
    # is >= log 2 > 1/2, so a multiple of 2**-53, and stays below 2**6
    t = build_table(1_000_000)
    fixed = t.log_base * 2.0 ** 53
    assert np.array_equal(fixed, np.floor(fixed))
    assert fixed.max() < 2 ** 59
    assert math.log(MAX_LIMIT) < 2 ** 6


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
