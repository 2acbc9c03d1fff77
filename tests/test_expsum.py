"""Smoothing coefficients, exponential sums, the reindexing identity, and
the progression bound, with naive-evaluation oracles throughout."""

import cmath
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from beattykit import expsum, sieve
from beattykit.errors import DeltaOutOfRange
from beattykit.expsum import (_exact_units, progression_sum_bound,
                              bound_ratio_sweep, build_psi_delta, exp_sum_ap,
                              exp_sum_shifted, substitution_identity_check)
from beattykit.irrational import parse_irrational
from beattykit.sieve import (ResidueClass, build_table, chebyshev_psi_ap,
                             lambda_units)
from oracles import class_mask, psi_indicator, smoothed_indicator


@pytest.fixture(scope="module")
def table():
    return build_table(200_000)


def test_indicator_conventions():
    assert psi_indicator(0.5, 0.5) == 1.0
    assert psi_indicator(0.0, 0.5) == 0.0
    assert psi_indicator(0.5 + 1e-9, 0.5) == 0.0
    assert psi_indicator(3.2, 0.5) == 1.0          # reduced mod 1
    assert psi_indicator(-0.9, 0.5) == 1.0         # {-0.9} = 0.1


class TestPsiDelta:
    def test_delta_constraints(self):
        with pytest.raises(DeltaOutOfRange):
            build_psi_delta(0.5, 0.2, 10)          # >= 1/8
        with pytest.raises(DeltaOutOfRange):
            build_psi_delta(0.1, 0.06, 10)         # > min(g,1-g)/2
        with pytest.raises(DeltaOutOfRange):
            build_psi_delta(0.5, 0.0, 10)
        # an exact delta is compared before float() could overflow, or
        # round it to 0, and shown by its first digits, past the 4300 that
        # str() of an integer allows
        for delta in (Fraction(10 ** 400), Fraction(1, 10 ** 400),
                      Fraction(10 ** 5000), Fraction(-7, 10 ** 5000)):
            with pytest.raises(DeltaOutOfRange, match=r"^delta=-?[17](/1)?0{10}"):
                build_psi_delta(0.5, delta, 10)
        exact, rounded = (build_psi_delta(0.37, d, 10) for d in (Fraction(1, 20), 0.05))
        assert exact.delta == rounded.delta and np.array_equal(exact.g, rounded.g)
        with pytest.raises(ValueError):
            build_psi_delta(1.5, 0.01, 10)
        with pytest.raises(ValueError):
            build_psi_delta(0.5, 0.05, 0)

    def test_coefficient_bound_and_symmetry(self):
        for gamma in (0.5, 0.37, 1 / 2 ** 0.5):
            pd = build_psi_delta(gamma, 0.05, 2000)
            assert pd.max_bound_ratio() <= 1.0 + 1e-12
            assert pd.mean == gamma

    def test_bound_is_sharp_at_odd_k_for_half(self):
        # at gamma = 1/2 the indicator coefficient modulus is exactly 1/(pi k)
        pd = build_psi_delta(0.5, 0.01, 99)
        k = np.arange(1, 100)
        ind_mod = np.abs(pd.g) / np.abs(np.sin(2 * np.pi * k * 0.01)
                                        / (2 * np.pi * k * 0.01))
        odd = ind_mod[::2]
        assert np.allclose(odd, 1 / (np.pi * k[::2]), rtol=1e-12)

    def test_evaluate_matches_naive_series(self):
        pd = build_psi_delta(0.37, 0.03, 50)
        rng = np.random.default_rng(2)
        for x in rng.random(20):
            naive = pd.mean + 2 * math.fsum(
                (pd.g[k - 1] * cmath.exp(2j * math.pi * k * x)).real
                for k in range(1, 51))
            assert abs(pd.evaluate(float(x)) - naive) < 1e-12

    def test_pointwise_example(self):
        pd = build_psi_delta(0.5, 0.05, 10_000)
        assert abs(pd.evaluate(0.25) - 1.0) <= 1e-3
        assert abs(pd.evaluate(0.75) - 0.0) <= 1e-3

    def test_evaluate_truncation_edges(self):
        pd = build_psi_delta(0.37, 0.03, 64)
        xs = np.linspace(0.0, 1.0, 9, endpoint=False)
        assert pd.evaluate(0.2, K=0) == pd.mean
        assert np.array_equal(pd.evaluate(xs, K=0), np.full(9, pd.mean))
        assert np.array_equal(pd.evaluate(xs, K=10 ** 6), pd.evaluate(xs))
        assert pd.evaluate(0.2, K=1) == pytest.approx(
            pd.mean + 2 * (pd.g[0] * cmath.exp(0.4j * math.pi)).real,
            abs=1e-15)
        assert isinstance(pd.evaluate(0.2), float)
        assert isinstance(pd.evaluate(np.float64(0.2)), float)
        assert pd.evaluate(xs.reshape(3, 3)).shape == (3, 3)

    def test_evaluate_within_tail_of_closed_form(self):
        # the box-smoothed indicator is piecewise linear; the truncated
        # series must stay within the tail bound everywhere, including
        # across the ramps of half-width delta around 0, gamma and 1
        for gamma, delta, K in ((0.37, 0.03, 300), (0.5, 0.01, 4096),
                                (0.75, 0.1, 40)):
            pd = build_psi_delta(gamma, delta, K)
            ramps = np.concatenate([
                c + delta * np.linspace(-1.5, 1.5, 301)
                for c in (0.0, gamma, 1.0)])
            xs = np.concatenate((np.linspace(0.0, 1.0, 2001, endpoint=False),
                                 ramps[(ramps >= 0.0) & (ramps < 1.0)]))
            exact = smoothed_indicator(xs, gamma, delta)
            dev = np.abs(pd.evaluate(xs) - exact)
            assert dev.max() <= pd.tail_bound() + 1e-12

    def test_tail_bound_formula(self):
        pd = build_psi_delta(0.5, 0.05, 123)
        assert pd.tail_bound() == 1.0 / (math.pi ** 2 * 123 * 0.05)
        pd = build_psi_delta(0.5, 0.05, 50)
        assert pd.tail_bound() == 1.0 / (math.pi ** 2 * 50 * 0.05)

    def test_sandwich_away_from_jumps(self):
        gamma, delta = 0.37, 0.03
        pd = build_psi_delta(gamma, delta, 2000)
        rng = np.random.default_rng(7)
        xs = rng.random(2000)
        far = (np.minimum(xs, 1 - xs) >= delta) & \
              (np.abs(xs - gamma) >= delta)
        vals = pd.evaluate(xs[far])
        ind = np.array([psi_indicator(float(x), gamma) for x in xs[far]])
        assert np.max(np.abs(vals - ind)) <= pd.tail_bound()


class TestExpSums:
    def test_hand_worked_shifted_sum(self, table):
        # q=2, a=1, gamma=0.3, k=1, M=3: Lambda(3)e(.3)+Lambda(5)e(.6)+Lambda(7)e(.9)
        gam = parse_irrational("dec:0.3")
        want = (math.log(3) * cmath.exp(2j * math.pi * 0.3)
                + math.log(5) * cmath.exp(2j * math.pi * 0.6)
                + math.log(7) * cmath.exp(2j * math.pi * 0.9))
        got = exp_sum_shifted(table, 3, ResidueClass(1, 2), gam, 1)
        assert abs(got - want) < 1e-12

    def test_shifted_sum_against_naive_loop(self, table, sqrt3):
        r = ResidueClass(2, 3)
        M, k = 500, 2
        got = exp_sum_shifted(table, M, r, sqrt3, k)
        g = math.sqrt(3)
        acc = 0j
        lam = table.mangoldt_values(3 * np.arange(1, M + 1, dtype=np.int64) + 2)
        for m in range(1, M + 1):
            if lam[m - 1]:
                acc += float(lam[m - 1]) * cmath.exp(2j * math.pi * ((g * k * m) % 1.0))
        assert abs(got - acc) < 1e-9

    def test_empty_support_is_zero(self, table, sqrt2):
        # q=5, a=3: 5m+3 with m<=1 gives only 8 = 2^3 -> nonzero; use m range with no hits
        r = ResidueClass(0, 1)
        assert exp_sum_shifted(table, 0, r, sqrt2, 1) == 0j
        assert exp_sum_ap(table, 1, ResidueClass(2, 7), sqrt2, 1) == 0j

    def test_frequency_zero_rejected(self, table, sqrt2):
        with pytest.raises(ValueError):
            exp_sum_shifted(table, 10, ResidueClass(1, 2), sqrt2, 0)
        with pytest.raises(ValueError):
            exp_sum_ap(table, 10, ResidueClass(1, 2), sqrt2, 0)

    def test_negative_frequency_conjugates(self, table, sqrt2):
        r = ResidueClass(1, 2)
        plus = exp_sum_shifted(table, 400, r, sqrt2, 3)
        minus = exp_sum_shifted(table, 400, r, sqrt2, -3)
        assert abs(minus - plus.conjugate()) < 1e-12

    def test_ap_equals_shifted_for_trivial_class(self, table, sqrt2):
        r = ResidueClass(0, 1)
        assert exp_sum_ap(table, 5000, r, sqrt2, 2) == \
            exp_sum_shifted(table, 5000, r, sqrt2, 2)

    def test_rational_control_has_no_cancellation(self, table):
        gam = parse_irrational("dec:0.5")
        r = ResidueClass(0, 1)
        s = exp_sum_shifted(table, 50_000, r, gam, 1)
        psi = chebyshev_psi_ap(table, 50_000, r)
        assert abs(s) / psi > 0.3

    def test_irrational_cancellation_at_desk_scale(self, table, sqrt2):
        r = ResidueClass(1, 3)
        s = exp_sum_ap(table, 100_000, r, sqrt2, 1)
        psi = chebyshev_psi_ap(table, 100_000, r)
        assert abs(s) / psi <= 0.1


# every term of a sum is Lambda times a cosine or sine: below 2^5 in size
_TOP = math.nextafter(32.0, 0.0)
_TERMS = st.one_of(st.floats(-_TOP, _TOP),
                   st.floats(-2.0 ** -35, 2.0 ** -35),     # down to subnormals
                   st.sampled_from([0.0, _TOP, -_TOP, 5e-324]))


def exact_sum(xs) -> float:
    return _exact_units(np.array(xs, np.float64)) / (1 << 1074)


@given(st.lists(_TERMS, max_size=40), st.booleans())
@example([1.0, 1e-16, -1.0], False)     # np.sum gives 0.0
@example([], False)
@example([_TOP, 2.0 ** -36, -_TOP], True)
def test_exact_sum_is_fsum(xs, cancel):
    if cancel:      # exact cancellation to 0.0
        xs = xs + [-x for x in reversed(xs)]
    assert exact_sum(xs).hex() == math.fsum(xs).hex()


@pytest.mark.parametrize("top", [_TOP, -_TOP])
def test_exact_sum_of_a_full_block_does_not_wrap(top):
    # _phase_sums hands _exact_units one block of the sieve's stream
    block = max(expsum._BLOCK, sieve._LOG_BLOCK)
    xs = [top] * block
    assert exact_sum(xs) == math.fsum(xs) == top * block


def test_exact_sum_of_many_blocks_does_not_wrap():
    # 2**15 terms: the whole-part limbs summed at once would pass 2**63 and
    # wrap (-409600 in place of 638976)
    xs = [19.5] * 2 ** 15
    assert exact_sum(xs) == math.fsum(xs) == 638976


def fsum_oracle(table, M, r, gamma, k) -> complex:
    """The shifted sum with phases over all m at once and math.fsum."""
    ms = np.arange(1, M + 1, dtype=np.int64)
    lam = table.mangoldt_values(r.q * ms + r.a)
    ang = (2.0 * math.pi) * (gamma * k).phases_many(ms[lam > 0])
    lam = lam[lam > 0]
    return complex(math.fsum((lam * np.cos(ang)).tolist()),
                   math.fsum((lam * np.sin(ang)).tolist()))


def bits(sums) -> list:
    return [(z.real.hex(), z.imag.hex()) for z in sums]


@pytest.mark.parametrize("alpha", [
    "sqrt:2", "dec:1.4142135623730950488016887242096980785697@200"])
def test_one_pass_keeps_every_bit(table, alpha, monkeypatch):
    gam, r, M, ks = parse_irrational(alpha), ResidueClass(1, 3), 10 ** 4, \
        range(1, 9)
    want = bits(fsum_oracle(table, M, r, gam, k) for k in ks)

    def one_pass():     # expsum eval's pass: every k at once
        return bits(expsum._phase_sums(table, 3 * M + 1, r, 4,
                                       [(gam * k, True) for k in ks])[0])
    assert one_pass() == want
    assert bits(exp_sum_shifted(table, M, r, gam, k) for k in ks) == want
    assert bits(substitution_identity_check(table, M, r, gam, k).lhs
                for k in ks) == want
    monkeypatch.setattr(sieve, "_LOG_BLOCK", 64)    # 52 blocks of the table
    assert one_pass() == want


@pytest.mark.parametrize("block", [sieve._LOG_BLOCK, 64])
def test_lambda_total_of_the_pass(table, sqrt2, monkeypatch, block):
    # expsum eval's bound column: the pass's total of Lambda over n == a mod
    # q, q + a <= n <= q*M + a, is the whole-range total over a < n
    monkeypatch.setattr(sieve, "_LOG_BLOCK", block)
    for (a, q), M in zip([(0, 1), (1, 2), (1, 3), (2, 3), (3, 7), (6, 7),
                          (11, 30), (1, 97)], [1, 2, 100, 5000, 10_000, 28_570,
                                               6000, 2000]):
        r, L = ResidueClass(a, q), q * M + a
        want = lambda_units(table.log_base[class_mask(table, L, r, a + 1)])
        got = expsum._phase_sums(table, L, r, q + a, [(sqrt2, True)])[1]
        assert got == want, (a, q, M)


def test_sequence_of_frequencies(table, sqrt2):
    # a pass with no jobs still totals Lambda; one over no records sums to 0
    r, jobs = ResidueClass(1, 3), [(sqrt2, True), (sqrt2 * 2, True)]
    want = lambda_units(table.log_base[class_mask(table, 301, r, 4)])
    assert expsum._phase_sums(table, 301, r, 4, []) == ([], want)
    assert expsum._phase_sums(table, 1, r, 4, jobs) == ([0j, 0j], 0)


class TestSubstitutionIdentity:
    def test_hand_worked_case(self, table):
        gam = parse_irrational("dec:0.3")
        chk = substitution_identity_check(table, 3, ResidueClass(1, 2), gam, 1)
        assert chk.relative < 1e-12
        want = (math.log(3) * cmath.exp(2j * math.pi * 0.3)
                + math.log(5) * cmath.exp(2j * math.pi * 0.6)
                + math.log(7) * cmath.exp(2j * math.pi * 0.9))
        assert abs(chk.lhs - want) < 1e-12

    def test_degenerate_class(self, table, sqrt2):
        chk = substitution_identity_check(table, 1000, ResidueClass(0, 1),
                                          sqrt2, 1)
        assert chk.residual < 1e-12

    def test_randomized_instances(self, table):
        import random
        rng = random.Random(6)
        for _ in range(25):
            q = rng.randint(1, 9)
            a = rng.choice([x for x in range(q) if math.gcd(x, q) == 1] or [0])
            M = rng.randint(1, (200_000 - a) // q)
            k = rng.choice([1, 2, -1, 5])
            gam = parse_irrational(rng.choice(
                ["sqrt:2", "sqrt:7", "quad:1/2+sqrt:5", "dec:0.3"]))
            chk = substitution_identity_check(table, M, ResidueClass(a, q),
                                              gam, k)
            assert chk.relative <= 1e-9


class TestProgressionBound:
    def test_plugin_arithmetic(self):
        want = (10 ** 6 / math.sqrt(10 ** 3) + math.sqrt(10 ** 3 * 10 ** 6)
                + 10 ** 4.8) * math.log(10 ** 6) ** 3
        assert progression_sum_bound(10 ** 6, 10 ** 3) == pytest.approx(want)
        with pytest.raises(ValueError):
            progression_sum_bound(2, 1)
        with pytest.raises(ValueError):
            progression_sum_bound(100, 0)

    def test_trivial_denominator_regime(self):
        L = 10 ** 6
        assert progression_sum_bound(L, 1) == pytest.approx(
            (L + math.sqrt(L) + L ** 0.8) * math.log(L) ** 3)

    def test_sweep_rows(self, table, sqrt2):
        theta = sqrt2 / 2
        rows = bound_ratio_sweep(table, 100_000, ResidueClass(1, 2), theta)
        assert rows, "sweep must produce at least one row"
        # sqrt(2)/2 = [0; 1, 2, 2, ...] has q_0 = q_1 = 1: each den comes once
        dens = [row.den for row in rows]
        assert dens[0] == 1 and dens == sorted(set(dens))
        assert all(row.bound == progression_sum_bound(100_000, row.den)
                   for row in rows)
        assert all(row.ratio == row.abs_sum / row.bound for row in rows)
        assert any(row.hypothesis_ok for row in rows)
        # the bound bottoms out near sqrt(L)
        best = min(rows, key=lambda row: row.bound)
        assert 10 ** 2 <= best.den <= 10 ** 3.5

    def test_sweep_respects_cap(self, table, sqrt2):
        rows = bound_ratio_sweep(table, 10_000, ResidueClass(1, 2),
                                 sqrt2 / 2, max_den=50)
        assert all(row.den <= 50 for row in rows)
