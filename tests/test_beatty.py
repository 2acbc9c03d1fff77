"""Sequence generation, the membership criterion with witnesses, and the
alpha < 1 splitting, all against brute-force oracles."""

import math
from fractions import Fraction

import numpy as np
import pytest

from beattykit.beatty import (BeattyParams, bulk_membership, generate,
                              is_member)
from beattykit.errors import AlphaNotGreaterThanOne, NotPositive
from beattykit.irrational import parse_irrational
from oracles import small_alpha_terms


def test_params_invariants(sqrt2):
    p = BeattyParams(sqrt2, 0.3)
    assert p.beta == Fraction(3, 10)
    assert p.gamma == sqrt2.inverse()
    assert p.delta == p.gamma * (1 - Fraction(3, 10))
    with pytest.raises(NotPositive):
        BeattyParams(-sqrt2)


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
@pytest.mark.parametrize("beta", [0, 0.3, -1.7])
def test_membership_against_brute_force(name, beta):
    p = BeattyParams(parse_irrational(name), beta)
    N = 200
    terms = generate(p, N)
    hit = {int(t): n for n, t in enumerate(terms.tolist(), start=1)}
    lo, hi = int(terms[0]), int(terms[-1])
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


def test_bulk_membership_empty(sqrt2):
    mask, ns = bulk_membership(BeattyParams(sqrt2),
                               np.array([], dtype=np.int64))
    assert mask.size == 0 and ns.size == 0


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
