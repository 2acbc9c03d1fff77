"""Exact quadratic-field arithmetic against independent oracles.

The oracle for numeric values is mpmath at 300 bits; the oracle for
algebraic identities is the field structure itself (everything must
collapse back to rationals where the algebra says it should).
"""

import math
import operator
import random
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from beattykit.surd import (_ONE_BELOW, QuadraticSurd, exact_floor,
                            exact_floor_frac, make_real, squarefree_split,
                            to_fixed_point)
from oracles import bulk_floor_frac

mpmath.mp.prec = 300


def mp_value(u, v, w, d):
    return (u + v * mpmath.sqrt(d)) / w


def assert_frac_bound(fr, ref):
    """fr is ref's fractional part (clamped below 1) within half an ulp
    plus 2**-64 relative, as exact_floor_frac states."""
    exact = ref - mpmath.floor(ref)
    assert 0.0 <= fr < 1.0
    assert abs(fr - min(exact, _ONE_BELOW)) <= math.ulp(fr) / 2 + exact * 2.0 ** -64


def test_squarefree_split_basics():
    assert squarefree_split(1) == (1, 1)
    assert squarefree_split(2) == (1, 2)
    assert squarefree_split(4) == (2, 1)
    assert squarefree_split(12) == (2, 3)
    assert squarefree_split(50) == (5, 2)
    assert squarefree_split(49) == (7, 1)
    assert squarefree_split(720) == (12, 5)
    assert squarefree_split(2 * 10 ** 38) == (10 ** 19, 2)
    with pytest.raises(ValueError, match=r"2\^20"):
        squarefree_split(10 ** 30 + 1)   # refused, not factored for days


def test_squarefree_split_randomized():
    rng = random.Random(11)
    for _ in range(300):
        d = rng.randint(1, 10 ** 6)
        f, d0 = squarefree_split(d)
        assert f * f * d0 == d
        for p in range(2, 40):
            assert d0 % (p * p) != 0


def test_constructor_rejects_rational_radicand():
    with pytest.raises(ValueError):
        QuadraticSurd(0, 1, 4)
    with pytest.raises(ValueError):
        QuadraticSurd(1, 1, 9)
    with pytest.raises(ValueError):
        QuadraticSurd(0, 1, 2, v=0)


def test_make_real_collapses_square_radicands():
    assert make_real(1, 2, 2, 9) == Fraction(7, 2)
    assert make_real(0, 3, 4, 16) == Fraction(3)
    x = make_real(1, 1, 2, 8)       # (1 + 2*sqrt(2))/2 stays irrational
    assert isinstance(x, QuadraticSurd)
    assert x.d == 2 and x.v == 2


def test_square_part_folded_into_v():
    x = QuadraticSurd(0, 1, 12)     # sqrt(12) = 2 sqrt(3)
    assert (x.d, x.v) == (3, 2)
    assert abs(float(x) - math.sqrt(12)) < 1e-14


def test_field_identities():
    rng = random.Random(5)
    for _ in range(200):
        d = rng.choice([2, 3, 5, 7, 13, 61])
        u, v = rng.randint(-50, 50), rng.choice([1, -1, 2, -3, 7])
        w = rng.choice([1, 2, 3, 5, 12])
        x = QuadraticSurd(u, w, d, v=v)
        assert x + (-x) == 0
        assert x - x == 0
        assert x * x.inverse() == 1
        norm = x * x.conjugate()
        assert isinstance(norm, Fraction)
        assert norm == Fraction(u * u - v * v * d, w * w)
        y = QuadraticSurd(rng.randint(-9, 9), rng.randint(1, 4), d,
                          v=rng.choice([1, 2, -1]))
        assert (x + y) - y == x
        assert (x * y) / y == x


def test_mixed_radicand_arithmetic_rejected():
    a = QuadraticSurd.sqrt(2)
    b = QuadraticSurd.sqrt(3)
    with pytest.raises(ValueError):
        a + b
    with pytest.raises(ValueError):
        a * b


def test_rational_mixing():
    x = QuadraticSurd.sqrt(2)
    y = x + Fraction(1, 2)
    assert y - Fraction(1, 2) == x
    assert (x * 3) / 3 == x
    assert 1 / x == x.inverse()
    z = x * Fraction(0)
    assert z == 0 and isinstance(z, Fraction)


# field operations against a pair of Fractions (a, b) for a + b*sqrt(d),
# which shares no code with surd.py
_RADICANDS = st.sampled_from([2, 3, 5, 6, 7, 13, 61, 1009])
_INTS = st.one_of(st.integers(-50, 50), st.integers(-10 ** 200, 10 ** 200),
                  st.sampled_from([0, 1, -1]))
_NONZERO = _INTS.filter(bool)
_RATIONALS = st.one_of(_INTS, st.builds(Fraction, _INTS, _NONZERO))


def _surds(d):
    return st.builds(lambda u, v, w: QuadraticSurd(u, w, d, v=v),
                     _INTS, _NONZERO, _NONZERO)


def _pair(x):
    if isinstance(x, QuadraticSurd):
        return Fraction(x.u, x.w), Fraction(x.v, x.w)
    return Fraction(x), Fraction(0)


def _pair_op(op, x, y, d):
    (a, b), (c, e) = x, y
    if op is operator.add:
        return a + c, b + e
    if op is operator.sub:
        return a - c, b - e
    if op is operator.mul:
        return a * c + b * e * d, a * e + b * c
    n = c * c - e * e * d       # 0 only for y = 0: ZeroDivisionError
    return (a * c - b * e * d) / n, (b * c - a * e) / n


@st.composite
def _operands(draw):
    d = draw(_RADICANDS)
    return d, draw(_surds(d)), draw(st.one_of(_surds(d), _RATIONALS))


_OPS = [operator.add, operator.sub, operator.mul, operator.truediv]


@pytest.mark.parametrize("op", _OPS, ids=lambda op: op.__name__)
@given(_operands())
@example((2, QuadraticSurd.sqrt(2), 0))
@example((5, QuadraticSurd(-1, 2, 5), Fraction(0)))
def test_field_operations_match_the_pair_oracle(op, case):
    # surd with surd, int or Fraction, in both orders; a rational result is
    # a Fraction, an irrational one a canonical surd of the same radicand
    d, x, y = case
    for left, right in ((x, y), (y, x)):
        try:
            want = _pair_op(op, _pair(left), _pair(right), d)
        except ZeroDivisionError:
            with pytest.raises(ZeroDivisionError):
                op(left, right)
            continue
        got = op(left, right)
        assert _pair(got) == want
        assert isinstance(got, Fraction) == (want[1] == 0)
        if want[1]:
            assert got.d == d and got.w > 0 and math.gcd(got.u, got.v, got.w) == 1
    # self*n + eta = ((A*n + B) + (C*n + E)*sqrt(d))/W, eta rational or a surd
    A, B, C, E, W = x.affine_coeffs(y)
    for n in (0, 1, -7, 10 ** 30):
        a, b = _pair_op(operator.add, _pair_op(operator.mul, _pair(x), (n, 0), d),
                        _pair(y), d)
        assert (Fraction(A * n + B, W), Fraction(C * n + E, W)) == (a, b)


@pytest.mark.parametrize("op", _OPS, ids=lambda op: op.__name__)
def test_field_operations_refuse(op):
    # two radicands: ValueError; a float: TypeError; a zero divisor:
    # ZeroDivisionError
    x = QuadraticSurd(1, 3, 2, v=-5)
    for other, error in ((QuadraticSurd.sqrt(3), ValueError), (1.5, TypeError)):
        for left, right in ((x, other), (other, x)):
            with pytest.raises(error):
                op(left, right)
    with pytest.raises(ValueError):
        x.affine_coeffs(QuadraticSurd.sqrt(3))
    if op is operator.truediv:
        for zero in (0, Fraction(0)):
            with pytest.raises(ZeroDivisionError):
                x / zero


def test_float_accuracy_randomized():
    rng = random.Random(99)
    for _ in range(300):
        d = rng.choice([2, 3, 5, 6, 7, 10, 11])
        u, v, w = rng.randint(-10 ** 6, 10 ** 6), rng.randint(-999, 999), rng.randint(1, 997)
        if v == 0:
            continue
        x = QuadraticSurd(u, w, d, v=v)
        ref = mp_value(x.u, x.v, x.w, x.d)
        assert abs(float(x) - float(ref)) <= 1e-12 * max(1.0, abs(float(ref)))


def test_exact_floor_against_mpmath():
    rng = random.Random(17)
    for _ in range(500):
        d = rng.choice([2, 3, 5, 7, 19, 101])
        U = rng.randint(-10 ** 9, 10 ** 9)
        V = rng.randint(-10 ** 6, 10 ** 6)
        W = rng.choice([1, -1, 2, 3, -7, 360])
        got = exact_floor(U, V, W, d)
        ref = int(mpmath.floor(mp_value(U, V, W, d)))
        assert got == ref, (U, V, W, d)


def test_exact_floor_rational_case():
    assert exact_floor(7, 0, 2, 5) == 3
    assert exact_floor(-7, 0, 2, 5) == -4
    assert exact_floor(8, 0, 2, 5) == 4
    # a rational fraction that rounds to 1 is clamped below it too
    assert exact_floor_frac((1 << 60) - 1, 0, 1 << 60, 5) == (0, _ONE_BELOW)


def test_exact_floor_frac_accuracy():
    rng = random.Random(23)
    for _ in range(400):
        d = rng.choice([2, 3, 5, 13])
        U = rng.randint(-10 ** 7, 10 ** 7)
        V = rng.randint(1, 10 ** 5)
        W = rng.choice([1, 2, 5, 99])
        fl, fr = exact_floor_frac(U, V, W, d)
        ref = mp_value(U, V, W, d)
        assert fl == int(mpmath.floor(ref))
        assert_frac_bound(fr, ref)


@given(st.integers(-2 ** 80, 2 ** 80), st.integers(-2 ** 80, 2 ** 80),
       st.integers(-2 ** 40, 2 ** 40).filter(bool),
       st.sampled_from([0, 2, 3, 5, 8, 12, 13, 1234567]),
       st.sampled_from([0, 1, 64, 128]))
@example(1, -1, 1, 2, 0)      # floor(1 - sqrt 2) = -1
@example(-1, 1, -1, 2, 1)
@example(7, 0, -3, 0, 64)     # a decimal's parts: V = 0, d = 0
@example(5, -3, 7, 0, 128)
@example(0, 1, 1, 8, 128)     # d need not be squarefree, only not a square
def test_to_fixed_point_is_the_exact_truncation(U, V, W, d, bits):
    I, F = to_fixed_point(U, V, W, d, bits)
    assert 0 <= F < 1 << bits
    # x*2**bits, below 2**220 in size, is an integer or over 2**-261 from
    # one (its conjugate bound): 1024 bits decide the floor
    with mpmath.workprec(1024):
        ref = mpmath.floor(mp_value(U, V, W, d) * mpmath.mpf(2) ** bits)
    assert (I << bits) + F == int(ref)


def near_integers():
    """p - q*x and q*x - p, as (U, V, W, d), at the first 40 convergents
    p/q of x = sqrt(2) and of the golden ratio (1 + sqrt(5))/2."""
    p, q = 1, 1
    for _ in range(40):
        yield (p, -q, 1, 2)
        yield (-p, q, 1, 2)
        p, q = p + 2 * q, p + q
    p, q = 1, 1
    for _ in range(40):
        yield (2 * p - q, -q, 2, 5)
        yield (q - 2 * p, q, 2, 5)
        p, q = p + q, p


def test_floor_frac_at_convergents():
    # the fractions nearest an integer are the guard-band points the bulk
    # kernel hands to exact_floor_frac
    for U, V, W, d in near_integers():
        fl, fr = exact_floor_frac(U, V, W, d)
        ref = mp_value(U, V, W, d)
        assert fl == int(mpmath.floor(ref)), (U, V, W, d)
        assert_frac_bound(fr, ref)


def test_sign_at_convergents():
    for U, V, W, d in near_integers():
        x = make_real(U, V, W, d)
        ref = 1 if mp_value(U, V, W, d) > 0 else -1
        assert x.sign() == ref and (-x).sign() == -ref, (U, V, W, d)


def test_floor_frac_near_integer():
    # 99/70 is a convergent: 99 - 70*sqrt(2) is tiny but nonzero
    fl, fr = exact_floor_frac(0, 70, 1, 2)
    assert fl == 98
    assert abs(fr - (70 * math.sqrt(2) - 98)) < 1e-12
    big = 10 ** 12
    fl2, fr2 = exact_floor_frac(0, big, 1, 2)
    ref = mp_value(0, big, 1, 2)
    assert fl2 == int(mpmath.floor(ref))
    assert abs(fr2 - float(ref - fl2)) < 5e-13


class TestBulkKernel:
    def check(self, A, B, C, E, W, d, ns):
        floors, fracs, err = bulk_floor_frac(A, B, C, E, W, d, ns)
        assert err < 1e-10
        for i, n in enumerate(ns.tolist()):
            fl, fr = exact_floor_frac(A * n + B, C * n + E, W, d)
            assert floors[i] == fl, (n, floors[i], fl)
            assert abs(fracs[i] - fr) <= err + 1e-12

    def test_matches_scalar_kernel(self):
        rng = np.random.default_rng(3)
        ns = rng.integers(0, 10 ** 6, size=500).astype(np.int64)
        self.check(3, -2, 1, 0, 2, 2, ns)
        self.check(0, 1, 5, 7, 3, 5, ns)
        self.check(-1, 0, 2, -3, 7, 13, ns)

    def test_convergent_denominators_are_hard_cases(self):
        # multiples of 408: 408*sqrt(2) is within 1e-3 of integer
        ns = np.array([408, 816, 2378, 5741, 195025, 470832], dtype=np.int64)
        self.check(0, 0, 1, 0, 1, 2, ns)

    def test_overflow_falls_back_to_exact(self):
        ns = np.array([1, 2, 10, 999], dtype=np.int64)
        big, W = 1 << 62, 1 << 20    # coefficients overflow, floors still fit
        floors, fracs, err = bulk_floor_frac(big, 1, 1, 0, W, 2, ns)
        for i, n in enumerate(ns.tolist()):
            fl, fr = exact_floor_frac(big * n + 1, n, W, 2)
            assert floors[i] == fl
            assert abs(fracs[i] - fr) < 1e-12

    def test_huge_floor_rejected(self):
        ns = np.array([999], dtype=np.int64)
        with pytest.raises(ValueError):
            bulk_floor_frac(1 << 70, 1, 1, 0, 3, 2, ns)

    def test_empty_input(self):
        floors, fracs, err = bulk_floor_frac(1, 0, 1, 0, 1, 2,
                                             np.array([], dtype=np.int64))
        assert floors.size == 0 and fracs.size == 0


def test_affine_kernels_match_scalar():
    x = QuadraticSurd(1, 3, 2, v=2)     # (1 + 2 sqrt 2)/3
    eta = Fraction(3, 10)
    ns = np.arange(0, 400, dtype=np.int64)
    floors, fracs, err = x.affine_floor_frac_many(ns, eta)
    for n in (0, 1, 7, 399):
        fl, fr = x.affine_floor_frac(int(n), eta)
        assert floors[n] == fl
        assert abs(fracs[n] - fr) <= err + 1e-12


def test_affine_with_surd_offset():
    x = QuadraticSurd.sqrt(2)
    eta = QuadraticSurd(1, 2, 2)        # (1 + sqrt 2)/2
    fl, fr = x.affine_floor_frac(10, eta)
    ref = mp_value(0, 10, 1, 2) + mp_value(1, 1, 2, 2)
    assert fl == int(mpmath.floor(ref))
    assert abs(fr - float(ref - fl)) < 1e-12


def test_phases_many_exact_reduction():
    theta = QuadraticSurd.sqrt(2) * 3
    ns = np.array([1, 10, 70, 408, 10 ** 7, 10 ** 9], dtype=np.int64)
    ph = theta.phases_many(ns)
    for i, n in enumerate(ns.tolist()):
        ref = mp_value(0, 3 * n, 1, 2)
        want = float(ref - mpmath.floor(ref))
        assert abs(ph[i] - want) < 5e-13, n
        assert 0.0 <= ph[i] < 1.0


def test_comparisons_and_ordering():
    r2 = QuadraticSurd.sqrt(2)
    assert Fraction(7, 5) < r2 < Fraction(3, 2)
    assert r2 > 1 and not r2 > 2
    assert r2 <= r2 and r2 >= r2
    # different radicands live in different fields; no order between them
    with pytest.raises(ValueError):
        r2 < QuadraticSurd(1, 2, 5)
    rng = random.Random(31)
    for _ in range(100):
        a = QuadraticSurd(rng.randint(-20, 20), rng.randint(1, 9), 3,
                          v=rng.choice([1, -1, 2]))
        b = QuadraticSurd(rng.randint(-20, 20), rng.randint(1, 9), 3,
                          v=rng.choice([1, -1, 2]))
        if a == b:
            continue
        assert (a < b) == (float(mp_value(a.u, a.v, a.w, a.d))
                           < float(mp_value(b.u, b.v, b.w, b.d)))


def test_structural_equality_and_hash():
    assert QuadraticSurd(0, 1, 2) == QuadraticSurd.sqrt(2)
    assert QuadraticSurd(2, 2, 2, v=2) == QuadraticSurd(1, 1, 2)  # gcd cancels
    assert hash(QuadraticSurd(2, 2, 2, v=2)) == hash(QuadraticSurd(1, 1, 2))
    assert QuadraticSurd.sqrt(2) != QuadraticSurd.sqrt(3)
    assert QuadraticSurd.sqrt(2) != Fraction(141, 100)


def test_approx_fraction_certified():
    x = QuadraticSurd(3, 7, 11, v=-2)
    for bits in (32, 96, 200):
        fr = x.approx_fraction(bits)
        ref = mp_value(x.u, x.v, x.w, x.d)
        assert abs(mpmath.mpf(fr.numerator) / fr.denominator - ref) \
            <= mpmath.mpf(2) ** -bits


def test_sign_and_floor_helpers():
    x = QuadraticSurd(-3, 2, 2)         # (-3 + sqrt 2)/2 < 0
    assert x.sign() == -1 and not x.is_positive()
    assert x.floor() == -1
    assert x.floor_frac()[0] == -1
    assert 0.0 <= x.floor_frac()[1] < 1.0
    assert math.floor(x) == -1
