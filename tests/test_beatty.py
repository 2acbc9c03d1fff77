"""Sequence generation, the membership criterion with witnesses, and the
alpha < 1 splitting, all against brute-force oracles."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from beattykit import surd
from beattykit.beatty import (BeattyParams, _ceiling_steps, bulk_membership,
                              generate, is_member)
from beattykit.errors import (AlphaNotGreaterThanOne, AmbiguousFloor,
                              FloorOutOfRange, NotPositive,
                              PrecisionExhausted)
from beattykit.irrational import PrecisionReal, parse_irrational
from beattykit.surd import QuadraticSurd
from oracles import ceiling_steps_brute, small_alpha_terms


def test_params_invariants(sqrt2):
    p = BeattyParams(sqrt2, 0.3)
    assert p.beta == Fraction(3, 10)
    assert p.gamma == sqrt2.inverse()
    with pytest.raises(NotPositive):
        BeattyParams(-sqrt2)


def test_field_arithmetic_never_splits_the_radicand(monkeypatch):
    # the prime radicand just below 2**40 costs 0.3 s of trial division,
    # paid once at parse; surd arithmetic carries the squarefree d along
    alpha = parse_irrational("sqrt:1099511627689")

    def refuse(d):
        raise AssertionError(f"squarefree_split({d}) after parse")

    monkeypatch.setattr(surd, "squarefree_split", refuse)
    params = BeattyParams(alpha, Fraction(1, 3))
    terms = params.terms(np.arange(1, 101, dtype=np.int64))
    assert [is_member(params, int(m)) for m in terms[:10]] == list(range(1, 11))
    # the terms are about 1e6 apart, so no m + 1 is a term
    hit, witness = bulk_membership(params, np.concatenate([terms, terms + 1]))
    assert witness[hit].tolist() == list(range(1, 101)) and hit[:100].all()


def test_generate_frozen(sqrt2):
    assert generate(BeattyParams(sqrt2), 8).tolist() == [1, 2, 4, 5, 7, 8, 9, 11]
    assert generate(BeattyParams(sqrt2, 0.3), 3).tolist() == [1, 3, 4]
    phi = parse_irrational("quad:1/2+sqrt:5")
    assert generate(BeattyParams(phi), 6).tolist() == [1, 3, 4, 6, 8, 9]


def test_generate_matches_scalar_floor(sqrt3):
    p = BeattyParams(sqrt3, -1.7)
    terms = generate(p, 500)
    for n in (1, 2, 77, 500):
        assert terms[n - 1] == p.term(n)


def test_member_frozen(sqrt2):
    p = BeattyParams(sqrt2)
    assert is_member(p, 4) == 3
    assert is_member(p, 3) is None
    assert is_member(p, 1) == 1
    assert is_member(p, 2) == 2


def test_member_requires_alpha_above_one(sqrt2):
    small = BeattyParams(sqrt2.inverse())
    with pytest.raises(AlphaNotGreaterThanOne):
        is_member(small, 1)


@pytest.mark.parametrize("name", ["sqrt:2", "sqrt:3", "quad:1/2+sqrt:5",
                                  "dec:3.14159265358979323846@200"])
@pytest.mark.parametrize("beta", [0, 0.3, -1.7, 1, 2, -3])
def test_membership_against_brute_force(name, beta):
    p = BeattyParams(parse_irrational(name), beta)
    N = 200
    terms = generate(p, N)
    hit = {int(t): n for n, t in enumerate(terms.tolist(), start=1)}
    # from below the first term, so that m = beta is met for integer beta
    lo, hi = int(terms[0]) - 3, int(terms[-1])
    ms = np.arange(lo, hi + 1, dtype=np.int64)
    mask, ns = bulk_membership(p, ms)
    for i, m in enumerate(ms.tolist()):
        want = hit.get(m)
        got = is_member(p, m)
        assert got == want, (name, beta, m)
        assert mask[i] == (want is not None)
        if want is not None:
            assert ns[i] == want


def test_membership_beyond_generated_range(sqrt2):
    p = BeattyParams(sqrt2, 0.3)
    n = is_member(p, 10 ** 12 + 7)
    if n is not None:
        assert p.term(n) == 10 ** 12 + 7


def test_member_integer_beta_edge(sqrt2):
    # with beta = 2 the witness for m = 2 would be n = 0; not in range
    p = BeattyParams(sqrt2, 2)
    assert is_member(p, 2) is None
    assert is_member(p, 3) == 1


REFUSED = "refused"


def _scalar(p, m):
    try:
        return is_member(p, m)
    except (AmbiguousFloor, PrecisionExhausted):
        return REFUSED


def _truth(p, m):
    """The n >= 1 with p.term(n) == m, None, or REFUSED when a term near m
    is not certified.  Terms increase, so only n = ceil((m - beta)/alpha)
    can hit, and c below is within 1 of it."""
    a = p.alpha
    a = a.center if isinstance(a, PrecisionReal) else a.approx_fraction()
    c = math.ceil((m - p.beta) / a)
    try:
        hits = [n for n in range(max(c - 2, 1), c + 3) if p.term(n) == m]
    except (AmbiguousFloor, PrecisionExhausted):
        return REFUSED
    return hits[0] if hits else None


ALPHAS = ("sqrt:2", "sqrt:3", "quad:1/2+sqrt:5", "quad:3/2+sqrt:7", "sqrt:1009")
decimals = st.builds("dec:{}.{}@{}".format, st.integers(1, 4),
                     st.integers(10 ** 12, 10 ** 15 - 1),
                     st.sampled_from((24, 53, 64, 128, 200)))
betas = st.one_of(st.integers(-40, 40),
                  st.builds(Fraction, st.integers(-400, 400), st.integers(1, 9)))


BLOCK = surd._BLOCK
SIZES = (0, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 5)


@given(st.one_of(st.sampled_from(ALPHAS), decimals), betas,
       st.lists(st.integers(-300, 3000), max_size=30), st.sampled_from(SIZES),
       st.booleans())
@example("sqrt:2", -(1 << 62), [(1 << 62) + 1, 5], 0, False)
@example("sqrt:2", 10 ** 30, [0, 7, (1 << 63) - 1, -(1 << 63)], 0, False)
@example("dec:1.4142135623730950488@160", 2, [2, 1, 3, 3, -4], 0, False)
@example("sqrt:3", Fraction(-7, 2), [-9, 2999, 4, -3, 5], 3 * BLOCK + 5, True)
@example("dec:1.4142135623730950488@200", 5, [7, -300, 2998, 41], BLOCK + 1,
         True)
@example("quad:1/2+sqrt:5", 0, [1, 2, 3, 2000], BLOCK, False)
def test_bulk_membership_matches_is_member_and_terms(alpha, beta, pool, size,
                                                     dead_block):
    # the pool is unsorted, with duplicates and negatives, and is tiled over
    # size points when size > 0, across 2**14-point kernel blocks; with
    # dead_block its second block (its first, when it has no second) holds
    # only m <= floor(beta), of either sign.  On decimals either function
    # may refuse, never guess
    p = BeattyParams(parse_irrational(alpha), beta)
    ms = np.array(pool, np.int64)
    if size and ms.size:
        ms = np.resize(ms, size)
    if dead_block:
        dead = ms[BLOCK:2 * BLOCK] if ms.size > BLOCK else ms[:BLOCK]
        dead[:] = math.floor(p.beta) - np.arange(dead.size) % 50
    want = {m: _scalar(p, m) for m in set(ms.tolist())}
    for m, n in want.items():
        truth = _truth(p, m)
        if REFUSED not in (n, truth):
            assert n == truth, (alpha, beta, m)
    try:
        mask, ns = bulk_membership(p, ms)
    except (AmbiguousFloor, PrecisionExhausted):
        assert isinstance(p.alpha, PrecisionReal)
        return
    # whatever is_member refuses, the bulk path refuses too
    want = [want[m] for m in ms.tolist()]
    assert mask.tolist() == [n is not None for n in want]
    assert ns.tolist() == [n or 0 for n in want]


@pytest.mark.parametrize("alpha", ["sqrt:2", "dec:1.4142135623730950488@200"])
def test_bulk_membership_on_negative_values(alpha):
    # beta = -1e6 puts the terms of n near 7e5 at m < 0, so the kernel
    # indices are all negative; both functions agree with the generated
    # terms (is_member on every fifth m: a dec: one takes 0.1 ms)
    p = BeattyParams(parse_irrational(alpha), -10 ** 6)
    ms = np.arange(-20000, 0, dtype=np.int64)
    terms = generate(p, 710000)
    hit = {int(t): n for n, t in enumerate(terms.tolist(), start=1)}
    mask, ns = bulk_membership(p, ms)
    want = [hit.get(m) for m in ms.tolist()]
    assert [is_member(p, m) for m in ms[::5].tolist()] == want[::5]
    assert mask.tolist() == [n is not None for n in want]
    assert ns.tolist() == [n or 0 for n in want]


def test_bulk_membership_refuses_a_witness_beyond_int64(sqrt2):
    # a witness of 2**63 is no int64: refused, not wrapped to -2**63
    x = math.isqrt(2 << 126)  # floor(sqrt(2) * 2**63)
    p = BeattyParams(sqrt2, (1 << 62) - x)
    assert is_member(p, 1 << 62) == 1 << 63
    with pytest.raises(FloorOutOfRange):
        bulk_membership(p, [1 << 62])


@pytest.mark.parametrize("alpha, m", [("dec:1.41421356@24", 8118),
                                      ("dec:1.41421356@24", 27719),
                                      ("dec:1.41421356@10", 558)])
def test_bulk_membership_refuses_inside_the_band(alpha, m):
    # m = q - 1 for convergent denominators q of gamma: {gamma*(beta - m)}
    # lies within the carried radius of gamma, so neither path may guess.
    # At 10 bits the band needs gamma's own bound beside the kernel's.
    p = BeattyParams(parse_irrational(alpha), 0)
    with pytest.raises(AmbiguousFloor):
        is_member(p, m)
    with pytest.raises(AmbiguousFloor):
        bulk_membership(p, [m])


def test_bulk_membership_empty(sqrt2):
    mask, ns = bulk_membership(BeattyParams(sqrt2),
                               np.array([], dtype=np.int64))
    assert mask.size == 0 and ns.size == 0


def _near(r: Fraction) -> QuadraticSurd:
    """r + (p - q*sqrt(2)) with p*p - 2*q*q = 1 and p above 2**60: a surd
    within 2**-61 of the rational r."""
    p, q = 3, 2
    while p < 1 << 60:
        p, q = 3 * p + 4 * q, 2 * p + 3 * q     # times 3 + 2*sqrt(2)
    return QuadraticSurd.sqrt(2) * -q + (r + p)


STEP_ALPHAS = {name: parse_irrational(name) for name in (
    "sqrt:2", "quad:1/2+sqrt:5", "quad:0/2+sqrt:2", "quad:-1/2+sqrt:5",
    "dec:3.141592653589793238462643383279502884197@200",
    "dec:0.7390851332151606416553120876738734040134@200",
    # within 1e-30 of 3/2 and of 2/3
    "dec:1.5000000000000000000000000000001@200",
    "dec:0.6666666666666666666666666666667@200")}
STEP_ALPHAS.update({"surd near 3/2": _near(Fraction(3, 2)),
                    "surd near 2/3": _near(Fraction(2, 3))})


@given(st.sampled_from(sorted(STEP_ALPHAS)),
       st.fractions(-4, 4, max_denominator=12),
       st.lists(st.integers(-400, 400), min_size=1, max_size=40))
@example("surd near 3/2", Fraction(2), list(range(-30, 30)))
@example("surd near 2/3", Fraction(-3), list(range(-30, 30)))
@example("dec:1.5000000000000000000000000000001@200", Fraction(1, 2),
         list(range(-30, 30)))
@example("sqrt:2", Fraction(-1), [-2, -1, 0])  # {gamma*(beta - m)} = {gamma}
@example("dec:0.6666666666666666666666666666667@200", Fraction(5, 2),
         [7, 1, -40])
def test_ceiling_steps_match_two_exact_floors(alpha, beta, ms):
    # pointwise, on both sides of alpha = 1 and inside the band; on dec:
    # alphas a straddle may refuse, on either side, but no step is guessed
    p = BeattyParams(STEP_ALPHAS[alpha], beta)
    want = ceiling_steps_brute(p, ms)
    try:
        c, step = _ceiling_steps(p)(np.array(ms, np.int64))
    except AmbiguousFloor:
        assert alpha.startswith("dec:")
        return
    for m, got, w in zip(ms, zip(c.tolist(), step.tolist()), want):
        assert w is None or got == w, (alpha, beta, m)


@pytest.mark.parametrize("alpha", ["surd near 3/2", "surd near 2/3"])
def test_near_rational_surds_reach_the_band(alpha):
    # {gamma*(beta - m)} lies within 1e-16 of {gamma}, inside every band,
    # at many m: there the exact floor at m + 1 decides the step above
    g = BeattyParams(STEP_ALPHAS[alpha], 2).gamma
    gap = [g * (2 - m) - math.floor(g * (2 - m)) - (g - math.floor(g))
           for m in range(-30, 30)]
    assert sum(-Fraction(1, 10 ** 16) < x < Fraction(1, 10 ** 16) for x in gap) > 10


def test_gaps_are_two_values(sqrt2, phi):
    for alpha in (sqrt2, phi):
        terms = generate(BeattyParams(alpha), 3000)
        gaps = set(np.diff(terms).tolist())
        assert gaps == {math.floor(float(alpha)), math.ceil(float(alpha))}


class TestSmallAlpha:
    def test_multiset_identity(self):
        for name in ("quad:0/2+sqrt:2", "quad:-1/2+sqrt:5", "quad:0/3+sqrt:3"):
            alpha = parse_irrational(name)
            for beta in (0, 0.3, -1.7):
                p = BeattyParams(alpha, beta)
                for N in (1, 2, 3, 7, 100, 997):
                    direct = np.sort(p.terms(np.arange(1, N + 1)))
                    split = small_alpha_terms(p, N)
                    assert np.array_equal(direct, split), (name, beta, N)
