"""Certified reals, the irrational grammar, continued fractions, and the
type estimator."""

import math
import operator
from decimal import Decimal
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from beattykit.errors import (AmbiguousFloor, IrrationalParseError,
                              NotPositive, PrecisionExhausted)
from beattykit.irrational import (Irrational, PrecisionReal, as_exact_ratio,
                                  best_convergent_below, cf_expand,
                                  estimate_type, floor_affine,
                                  parse_irrational)
from beattykit.surd import QuadraticSurd

mpmath.mp.prec = 300


def test_as_exact_ratio_conventions():
    assert as_exact_ratio(0.3) == Fraction(3, 10)
    assert as_exact_ratio(-1.7) == Fraction(-17, 10)
    assert as_exact_ratio(2) == Fraction(2)
    assert as_exact_ratio(Fraction(1, 3)) == Fraction(1, 3)
    assert as_exact_ratio("0.25") == Fraction(1, 4)


# both backends and the plain rationals; surds live in Q(sqrt 3) with small
# coefficients, so two distinct values differ by more than 1e-6
OPERANDS = st.one_of(
    st.integers(-20, 20),
    st.fractions(min_value=-20, max_value=20, max_denominator=12),
    st.builds(lambda u, w, v: QuadraticSurd(u, w, 3, v=v), st.integers(-30, 30),
              st.integers(1, 6), st.integers(-4, 4).filter(bool)),
    st.builds(lambda k, bits: PrecisionReal(str(Decimal(k).scaleb(-2)), bits),
              st.integers(-2000, 2000), st.integers(1, 12)))


def _oracle_sign(a, b):
    """Sign of a - b; None where a decimal's interval leaves it open."""
    if isinstance(a, PrecisionReal) or isinstance(b, PrecisionReal):
        (ca, ra), (cb, rb) = ((x.center, x.radius) if isinstance(x, PrecisionReal)
                              else (Fraction(x), 0) for x in (a, b))
        diff = ca - cb
        return None if abs(diff) <= ra + rb else (diff > 0) - (diff < 0)
    with mpmath.workdps(60):
        diff = mpmath.mpf(0)
        for x, sign in ((a, 1), (b, -1)):
            if isinstance(x, QuadraticSurd):
                diff += sign * (x.u + x.v * mpmath.sqrt(x.d)) / x.w
            else:
                diff += sign * mpmath.mpf(x.numerator) / x.denominator
        return 0 if abs(diff) < 1e-30 else (1 if diff > 0 else -1)


@given(OPERANDS, OPERANDS)
def test_orderings_and_rsub_agree_with_an_exact_oracle(a, b):
    backends = {type(x) for x in (a, b) if isinstance(x, Irrational)}
    assume(len(backends) == 1)     # mixed backends do not combine
    sign = _oracle_sign(a, b)
    for op, holds in ((operator.lt, lambda s: s < 0), (operator.le, lambda s: s <= 0),
                      (operator.gt, lambda s: s > 0), (operator.ge, lambda s: s >= 0)):
        for x, y, s in ((a, b, sign), (b, a, None if sign is None else -sign)):
            if s is None:
                with pytest.raises(PrecisionExhausted):
                    op(x, y)
            else:
                assert op(x, y) is holds(s), (op, x, y)
    # a rational minus an irrational goes through the reflected subtraction
    for r, x in ((a, b), (b, a)):
        if not isinstance(r, Irrational) and isinstance(x, Irrational):
            out = r - x
            if isinstance(x, QuadraticSurd):
                assert out + x == r and out == (-x) + r
            else:
                assert (out.center, out.radius) == (r - x.center, x.radius)


class TestPrecisionReal:
    def test_interval_width(self):
        x = PrecisionReal("1.5", bits=100)
        lo, hi = x.interval()
        assert hi - lo <= Fraction(2, 2 ** 100)
        assert lo <= Fraction(3, 2) <= hi

    def test_arithmetic_tracks_radius(self):
        x = PrecisionReal("2.718281828", bits=120)
        y = PrecisionReal("0.5", bits=120)
        z = (x + y) - y
        lo, hi = z.interval()
        xl, xh = x.interval()
        assert lo <= xh and xl <= hi     # intervals overlap
        assert float(x * y) == pytest.approx(2.718281828 * 0.5, abs=1e-12)

    def test_inverse_and_division(self):
        x = PrecisionReal("4", bits=160)
        assert float(x.inverse()) == pytest.approx(0.25, abs=1e-20)
        with pytest.raises(PrecisionExhausted):
            (x - x).inverse()

    def test_sign_refuses_straddle(self):
        x = PrecisionReal("1.25", bits=140)
        assert x.sign() == 1 and (-x).sign() == -1
        with pytest.raises(PrecisionExhausted):
            (x - x).sign()
        assert x > 1 and x < 2

    def test_floor_certified_or_refused(self):
        assert PrecisionReal("2.5", bits=100).floor() == 2
        assert PrecisionReal("-0.75", bits=100).floor() == -1
        with pytest.raises(AmbiguousFloor):
            PrecisionReal("3", bits=100).floor()   # straddles the integer

    def test_affine_bulk_matches_scalar(self):
        x = PrecisionReal("3.141592653589793238462643", bits=200)
        ns = np.arange(0, 200, dtype=np.int64)
        floors, fracs, err = x.affine_floor_frac_many(ns, Fraction(3, 10))
        for n in (0, 1, 99, 199):
            fl, fr = x.affine_floor_frac(int(n), Fraction(3, 10))
            assert floors[n] == fl
            assert abs(fracs[n] - fr) <= err + 1e-12

    def test_affine_ambiguous_at_low_bits(self):
        x = PrecisionReal("0.5", bits=40)
        with pytest.raises(AmbiguousFloor):
            x.affine_floor_frac_many(np.array([2], dtype=np.int64), 0)

    def test_phases_ignore_radius(self):
        x = PrecisionReal("1.414213562373095048801688724209698", bits=220)
        ns = np.array([1, 70, 408, 10 ** 6], dtype=np.int64)
        ph = x.phases_many(ns)
        for i, n in enumerate(ns.tolist()):
            ref = mpmath.mpf("1.414213562373095048801688724209698") * n
            want = float(ref - mpmath.floor(ref))
            assert abs(ph[i] - want) < 1e-10


class TestParseGrammar:
    def test_sqrt_forms(self):
        x = parse_irrational("sqrt:2")
        assert isinstance(x, QuadraticSurd) and float(x) == pytest.approx(2 ** 0.5)
        y = parse_irrational("sqrt:12")          # folds the square part
        assert y.d == 3 and y.v == 2

    def test_quad_form(self):
        phi = parse_irrational("quad:1/2+sqrt:5")
        assert float(phi) == pytest.approx((1 + 5 ** 0.5) / 2)
        neg = parse_irrational("quad:-1/2+sqrt:5")
        assert float(neg) == pytest.approx((5 ** 0.5 - 1) / 2)

    def test_dec_form(self):
        x = parse_irrational("dec:0.3")
        assert isinstance(x, PrecisionReal)
        y = parse_irrational("dec:1.5@40")
        lo, hi = y.interval()
        assert hi - lo <= Fraction(2, 2 ** 40)
        z = parse_irrational("dec:0.3@80")
        assert z.interval()[1] - z.interval()[0] <= Fraction(2, 2 ** 80)
        # the largest @bits; one more is refused (test_rejects)
        assert parse_irrational("dec:1.5@65536").radius == Fraction(1, 2 ** 65536)

    def test_rejects(self):
        # a literal past int()'s digit limit is refused, not a traceback
        for bad in ("sqrt:4", "sqrt:9", "quad:1/0+sqrt:2", "foo", "dec:abc",
                    "quad:1/2+sqrt:16", "", "dec:1.5@0", "sqrt:" + "2" * 4400,
                    "dec:0." + "3" * 4400, "dec:1.5@65537", "dec:1.5@99999999999"):
            with pytest.raises(IrrationalParseError):
                parse_irrational(bad)


def test_floor_affine_examples(sqrt2):
    fl, fr = floor_affine(sqrt2, 10)
    assert fl == 14 and abs(fr - 0.14213562373095048) < 1e-12
    fl, fr = floor_affine(sqrt2, 0, 0.3)
    assert fl == 0 and abs(fr - 0.3) < 1e-15
    fl, fr = floor_affine(sqrt2, 5, 0.3)
    assert fl == 7 and abs(fr - 0.3710678118654752) < 1e-12
    with pytest.raises(ValueError):
        floor_affine(sqrt2, -1)
    with pytest.raises(NotPositive):
        floor_affine(-sqrt2, 3)


class TestContinuedFractions:
    def test_sqrt2_expansion(self, sqrt2):
        cf = cf_expand(sqrt2, 4)
        assert cf.quotients == [1, 2, 2, 2, 2]
        assert cf.convergents == [(1, 1), (3, 2), (7, 5), (17, 12), (41, 29)]
        assert cf.period == (1, 1)

    def test_phi_expansion(self, phi):
        cf = cf_expand(phi, 4)
        assert cf.quotients == [1, 1, 1, 1, 1]
        assert cf.convergents == [(1, 1), (2, 1), (3, 2), (5, 3), (8, 5)]
        assert cf.period == (0, 1)

    def test_inverse_sqrt2(self, sqrt2):
        cf = cf_expand(sqrt2.inverse(), 3)
        assert cf.quotients == [0, 1, 2, 2]
        assert cf.convergents == [(0, 1), (1, 1), (2, 3), (5, 7)]

    def test_sqrt_d_against_mpmath(self):
        for d in (3, 7, 13, 61, 94):
            cf = cf_expand(QuadraticSurd.sqrt(d), 12)
            x = mpmath.sqrt(d)
            want = []
            for _ in range(13):
                a = int(mpmath.floor(x))
                want.append(a)
                x = 1 / (x - a)
            assert cf.quotients == want, d

    def test_convergents_alternate_around_value(self, sqrt3):
        cf = cf_expand(sqrt3, 10)
        val = mpmath.sqrt(3)
        signs = [mpmath.sign(mpmath.mpf(p) / q - val) for p, q in cf.convergents]
        assert all(s != t for s, t in zip(signs, signs[1:]))

    def test_precision_real_path(self):
        cf = cf_expand(parse_irrational("dec:0.3@120"), 1)
        assert cf.quotients == [0, 3]
        assert cf.period is None
        # rational inputs hit an exact quotient boundary and refuse
        with pytest.raises(PrecisionExhausted):
            cf_expand(parse_irrational("dec:0.3@120"), 2)
        with pytest.raises(PrecisionExhausted):
            cf_expand(parse_irrational("dec:1.5@40"), 3)
        # a genuinely irrational decimal goes as deep as its bits allow
        cf = cf_expand(parse_irrational("dec:3.14159265358979323846@200"), 8)
        assert cf.quotients == [3, 7, 15, 1, 292, 1, 1, 1, 2]

    def test_depth_property(self, sqrt2):
        assert cf_expand(sqrt2, 6).depth == 6


def test_best_convergent_below(sqrt2, phi):
    assert best_convergent_below(sqrt2, 100) == (99, 70)
    assert best_convergent_below(sqrt2, 1) == (1, 1)
    assert best_convergent_below(phi, 6) == (8, 5)
    assert best_convergent_below(sqrt2, 10 ** 6) == (665857, 470832)


def test_best_convergent_below_walks_only_as_deep_as_needed(sqrt2):
    # q_11 = 13860 > 10**4 settles the answer; depth 16 is past the 40 bits
    x = parse_irrational("dec:1.41421356237309504880168872420969807856967187537694@40")
    assert best_convergent_below(x, 10 ** 4) == (8119, 5741)
    with pytest.raises(PrecisionExhausted, match="at depth 16"):
        cf_expand(x, 16)
    # no depth cap: convergents of sqrt 2 solve p*p - 2*q*q = +-1, q_(k+1) < 3*q_k
    p, q = best_convergent_below(sqrt2, 10 ** 4000)
    assert abs(p * p - 2 * q * q) == 1 and q <= 10 ** 4000 < 3 * q


class TestTypeEstimate:
    def test_quadratics_are_type_one(self, sqrt2, sqrt3, phi):
        for x in (sqrt2, sqrt3, phi):
            est = estimate_type(x, K=20)
            assert 0.95 <= est.tau_hat <= 1.05, est.tau_hat

    def test_running_estimate_stays_small(self, sqrt2):
        # tau_hat recomputed at increasing depth settles fast once the
        # extrapolating fit has enough eligible denominators
        for K in range(5, 13):
            est = estimate_type(sqrt2, K=K)
            if est.samples[-1][0] >= 100:
                assert est.tau_hat < 1.1, (K, est.tau_hat)

    def test_sample_exponents_drift_toward_one(self, sqrt2):
        est = estimate_type(sqrt2, K=24)
        tail = [e for q, e in est.samples if q >= 100]
        assert all(a > b for a, b in zip(tail, tail[1:]))
        assert tail[-1] < 1.1 and tail[0] < 1.3

    def test_adaptive_depth(self, sqrt2):
        est = estimate_type(sqrt2)
        assert est.samples[-1][0] >= 10 ** 6
        assert 0.95 <= est.tau_hat <= 1.05

    @pytest.mark.parametrize("text", [
        "quad:1/2+sqrt:5",
        "dec:1.41421356237309504880168872420969807856967187537694"])
    def test_adaptive_depth_is_the_first_reaching_a_million(self, text):
        gamma = parse_irrational(text)
        est = estimate_type(gamma)
        assert est == estimate_type(gamma, K=est.depth)
        assert est.samples[-2][0] < 10 ** 6 <= est.samples[-1][0]

    @pytest.mark.parametrize("text,K", [
        ("sqrt:2", 60), ("quad:1/2+sqrt:5", 100),
        ("dec:3.1415926535897932384626433832795028841971693993751058209749445"
         "923078164062862089986280348253421170679821480865132823066470938@400", 100),
    ])
    def test_exponents_match_mpmath(self, text, K):
        # ||gamma*q|| is taken exactly; in floats it went wrong past q = 5e8
        gamma = parse_irrational(text)
        est = estimate_type(gamma, K=K)
        assert est.samples[-1][0] > 2 ** 64
        with mpmath.workprec(1000):
            if isinstance(gamma, QuadraticSurd):
                g = (gamma.u + gamma.v * mpmath.sqrt(gamma.d)) / gamma.w
            else:
                g = mpmath.mpf(gamma.center.numerator) / gamma.center.denominator
            for q, e in est.samples:
                x = g * q
                dist = min(x - mpmath.floor(x), mpmath.ceil(x) - x)
                assert e == pytest.approx(float(-mpmath.log(dist) / mpmath.log(q)),
                                          rel=1e-12, abs=0), q

    def test_rational_precision_real_refused(self):
        with pytest.raises(PrecisionExhausted):
            estimate_type(parse_irrational("dec:0.5@60"), K=6)

    def test_samples_positive_exponents(self, phi):
        est = estimate_type(phi, K=16)
        assert all(e > 0 for _, e in est.samples)
        assert all(q2 > q1 for (q1, _), (q2, _) in zip(est.samples,
                                                       est.samples[1:]))
