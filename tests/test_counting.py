"""Weighted prime sums along the sequence, their predicted main terms, and
the sweep verdict machinery.  Oracles are direct per-index loops through
the exact floor."""

import math
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from beattykit import counting
from beattykit.beatty import BeattyParams
from beattykit.counting import (MODES, beatty_sums, density_prediction,
                                main_terms, verify_sweep)
from beattykit.errors import AmbiguousFloor, TableTooSmall
from beattykit.irrational import floor_affine, parse_irrational
from beattykit.sieve import (MAX_LIMIT, ResidueClass, build_table, euler_phi,
                             prime_pi_ap)
from oracles import _is_prime, class_mask, oracle_main, oracle_S, oracle_T


@pytest.fixture(scope="module")
def table():
    return build_table(50_000)


@pytest.mark.parametrize("name,beta,q,a", [
    ("sqrt:2", 0, 2, 1),
    ("sqrt:3", 0.3, 3, 1),
    ("quad:1/2+sqrt:5", -1.7, 5, 2),
])
def test_weighted_sums_match_oracle(table, name, beta, q, a):
    p = BeattyParams(parse_irrational(name), beta)
    r = ResidueClass(a, q)
    for N in (1, 10, 500):
        assert beatty_sums(p, r, [N], "S", table)[0] == \
            oracle_S(p, r, N, table)
        assert beatty_sums(p, r, [N], "T", table)[0] == \
            oracle_T(p, r, N, table)


def test_weighted_sums_small_alpha(table):
    # alpha < 1 runs the same direct kernel; same answers as the index loop
    p = BeattyParams(parse_irrational("quad:0/2+sqrt:2"), 0.3)
    r = ResidueClass(1, 2)
    for N in (1, 7, 400):
        assert beatty_sums(p, r, [N], "S", table)[0] == \
            oracle_S(p, r, N, table)
        assert beatty_sums(p, r, [N], "T", table)[0] == \
            oracle_T(p, r, N, table)


def test_count_primes_matches_oracle(table, sqrt2):
    p = BeattyParams(sqrt2, 0.3)
    r = ResidueClass(1, 2)
    N = 800
    n_count = 0
    m_count = 0
    for n in range(1, N + 1):
        m = p.term(n)
        if _is_prime(2 * m + 1):
            n_count += 1
        if m % 2 == 1 and _is_prime(m):
            m_count += 1
    assert beatty_sums(p, r, [N], "N", table)[0] == n_count
    assert beatty_sums(p, r, [N], "M", table)[0] == m_count


def test_spec_validation(table, sqrt2):
    p = BeattyParams(sqrt2)
    r = ResidueClass(1, 2)
    with pytest.raises(ValueError):
        beatty_sums(p, r, [0], "S", table)
    with pytest.raises(ValueError):
        beatty_sums(p, r, [100, 10], "S", table)
    with pytest.raises(ValueError):
        beatty_sums(p, r, [10], "X", table)
    # past the sieve budget the lhs lengths could overflow lambda_units
    with pytest.raises(ValueError):
        beatty_sums(p, r, [MAX_LIMIT + 1], "S", table)
    # a non-integral N is refused, not truncated; an integral float is an N
    with pytest.raises(ValueError, match="integer"):
        beatty_sums(p, r, [1000.9], "S", table)
    assert beatty_sums(p, r, [1e3], "S", table) == beatty_sums(p, r, [1000], "S", table)


@pytest.mark.parametrize("mode", MODES)
def test_a_sweep_reads_each_record_once(monkeypatch, sqrt2, mode):
    # the carried pass totals each record's weight once, plus the record
    # at each grid point's cut; a per-N re-read would total it 300x
    p = BeattyParams(sqrt2, Fraction(1, 3))
    r = ResidueClass(1, 7)
    table = build_table(7 * p.term(200_000) + 1, r)
    read, units = [], counting._units

    def counted(lam, at, lengths):
        read.append(lengths.size)
        return units(lam, at, lengths)

    monkeypatch.setattr(counting, "_units", counted)
    grid = [200_000 * i // 300 for i in range(1, 301)]
    for f in (beatty_sums, main_terms):
        read.clear()
        f(p, r, grid[-1:], mode, table)
        once = sum(read)
        assert once > 1000
        read.clear()
        f(p, r, grid, mode, table)
        assert sum(read) <= once + len(grid)


@pytest.mark.parametrize("alpha", [
    "sqrt:2", "quad:0/2+sqrt:2",
    "dec:1.4142135623730950488016887242096980785697@200"])
def test_a_count_sweep_floors_each_record_once(monkeypatch, alpha):
    # verify_sweep hands the floor kernel of -gamma each record m(1) < m <
    # M(L) once, besides m(1) + 1 and the grid's tops, and a band point's
    # m with the offset of m + 1; gamma's own fraction is taken at n = 1
    x = parse_irrational(alpha)
    p, r = BeattyParams(x, Fraction(1, 3)), ResidueClass(3, 7)
    grid = [10, 1000, 5000, 20_000]
    first, tops = p.term(1), [p.term(N) for N in grid]
    table = build_table(7 * tops[-1] + 3, r)
    eta, kernel = float(p.gamma * p.beta), type(x).affine_floor_frac_many
    sent, band = [], []

    def seen(self, ns, e=0):
        if self < 0:
            (sent if float(e) == eta else band).extend(np.asarray(ns).tolist())
        return kernel(self, ns, e)

    monkeypatch.setattr(type(x), "affine_floor_frac_many", seen)
    verify_sweep(p, r, grid, "S", table)
    ms = (table.power[class_mask(table, table.limit, r)] - 3) // 7
    inner = set(ms[(ms > first) & (ms < tops[-1])].tolist())
    ends = {first + 1, *tops}
    assert len(inner) > 1000 and inner <= set(sent)
    assert all(k <= (m in inner) + (m in ends) for m, k in Counter(sent).items())
    assert set(band) <= inner and len(band) == len(set(band))
    # the main term alone sends -gamma nothing: it floors only the tops
    del sent[:], band[:]
    main_terms(p, r, grid, "S", table)
    assert not sent and not band


@pytest.mark.parametrize("mode", MODES)
def test_main_terms_floor_no_record(mode):
    # the main term weighs each record m >= 1 by 1, so it stands where the
    # lhs refuses: on this short dec: alpha the record m = 8118 of 1 mod 5,
    # a convergent denominator less one, lies in the step's band
    p = BeattyParams(parse_irrational("dec:1.41421356@24"), 0)
    r, N = ResidueClass(1, 5), 12_000
    table = build_table(5 * p.term(N) + 1)
    if mode in ("S", "N"):
        with pytest.raises(AmbiguousFloor):
            beatty_sums(p, r, [N], mode, table)
    assert main_terms(p, r, [N], mode, table) == \
        [oracle_main(p, r, N, mode, table)]


def test_main_term_is_scaled_progression_sum(table, sqrt2):
    p = BeattyParams(sqrt2, 0.3)
    r = ResidueClass(1, 3)
    N = 2000
    M = floor_affine(p.alpha, N, p.beta)[0]
    gf = float(p.gamma)
    ms = np.arange(1, M + 1, dtype=np.int64)
    want = gf * math.fsum(table.mangoldt_values(3 * ms + 1).tolist())
    assert main_terms(p, r, [N], "S", table)[0] == \
        pytest.approx(want, rel=1e-14)
    # T: progression restricted to m <= M itself
    sel = ms[ms % 3 == 1]
    sel = sel[sel >= 2]
    want_t = gf * math.fsum(table.mangoldt_values(sel).tolist())
    assert main_terms(p, r, [N], "T", table)[0] == \
        pytest.approx(want_t, rel=1e-14)
    # M-mode counts primes in the class up to M
    want_m = gf * prime_pi_ap(table, M, r)
    assert main_terms(p, r, [N], "M", table)[0] == \
        pytest.approx(want_m, rel=1e-14)


def test_main_term_empty_range(table, sqrt2):
    p = BeattyParams(sqrt2, -1.7)
    assert main_terms(p, ResidueClass(1, 2), [1], "S", table)[0] == 0.0


@pytest.mark.parametrize("mode", MODES)
def test_table_built_exactly_to_the_top_value(sqrt2, mode):
    # the largest value a mode reads is q*M + a (S, N) or M (T, M)
    p = BeattyParams(sqrt2, 0.3)
    r, grid = ResidueClass(3, 7), [10, 100, 1000]
    M = floor_affine(p.alpha, grid[-1], p.beta)[0]
    top = 7 * M + 3 if mode in ("S", "N") else M
    exact, larger = build_table(top), build_table(2 * top)
    short = build_table(top - 1)
    for f in (beatty_sums, main_terms):
        assert f(p, r, grid, mode, exact) == f(p, r, grid, mode, larger)
        with pytest.raises(TableTooSmall):
            f(p, r, grid, mode, short)


def test_density_prediction(sqrt2):
    p = BeattyParams(sqrt2)
    assert density_prediction(p, ResidueClass(1, 2), 1000, mode="S") == \
        pytest.approx(2 / euler_phi(2) * 1000)
    assert density_prediction(p, ResidueClass(1, 3), 900, mode="T") == \
        pytest.approx(900 / euler_phi(3))
    with pytest.raises(ValueError):
        density_prediction(p, ResidueClass(1, 2), 10, mode="N")


class TestVerifySweep:
    def test_report_shape(self, table, sqrt2):
        p = BeattyParams(sqrt2)
        r = ResidueClass(1, 2)
        rep = verify_sweep(p, r, (100, 1000, 10_000), "S", table)
        assert [row.N for row in rep.rows] == [100, 1000, 10_000]
        assert rep.fitted_exponent is not None
        assert "kappa_hat" in rep.observed
        assert rep.summary().startswith(("PASS", "FAIL"))
        for row in rep.rows:
            assert row.rel_err == row.abs_err / row.N

    def test_density_normalization(self, table, sqrt2):
        p = BeattyParams(sqrt2)
        r = ResidueClass(1, 2)
        rep = verify_sweep(p, r, (1000, 10_000), "S", table, target="density")
        for row in rep.rows:
            assert row.rel_err == pytest.approx(row.abs_err / abs(row.main))

    def test_tight_tolerance_fails_honestly(self, table, sqrt2):
        p = BeattyParams(sqrt2)
        rep = verify_sweep(p, ResidueClass(1, 2), (100, 1000), "S", table,
                           tol=1e-9)
        assert not rep.passed
        assert rep.summary().startswith("FAIL")

    def test_grid_must_ascend(self, table, sqrt2):
        p = BeattyParams(sqrt2)
        with pytest.raises(ValueError):
            verify_sweep(p, ResidueClass(1, 2), (1000, 100), "S", table)
