"""Quantitative acceptance runs for the whole package.

Each test prints a single verdict line of the form

    [criterion-NN] PASS <detail>

before asserting, so `pytest tests/test_acceptance.py -v -s` doubles as a
human-readable acceptance report.  Criteria 2 and 3 are exact finite
identities checked at 1e-9; the rest are desk-scale runs of asymptotic
statements, with tolerances wide enough to be stable but tight enough to
catch a wrong main term or a broken kernel.
"""

import cmath
import math
import time
from fractions import Fraction

import numpy as np
import pytest

from beattykit.beatty import BeattyParams, bulk_membership, generate
from beattykit.cli import main as cli_main
from beattykit.counting import beatty_sums, density_prediction, verify_sweep
from beattykit.expsum import (progression_sum_bound, bound_ratio_sweep,
                              build_psi_delta, decay_exponent, discrepancy,
                              discrepancy_beatty, exp_sum_shifted,
                              substitution_identity_check)
from beattykit.irrational import as_exact_ratio, parse_irrational
from beattykit.sieve import (ResidueClass, chebyshev_psi_ap, euler_phi,
                             prime_pi_ap)
from oracles import discrepancy_brute, psi_indicator

LIMIT = 10 ** 6


def _verdict(num: int, ok: bool, detail: str) -> bool:
    print(f"[criterion-{num:02d}] {'PASS' if ok else 'FAIL'} {detail}",
          flush=True)
    return ok


def _coprime_classes(q_max: int):
    for q in range(1, q_max + 1):
        for a in range(q):
            if math.gcd(a, q) == 1:
                yield ResidueClass(a, q)


def test_criterion_01_membership_matches_generation():
    alphas = ("sqrt:2", "quad:1/2+sqrt:5", "sqrt:3")
    betas = (Fraction(0), Fraction(3, 10), Fraction(-17, 10))
    t0 = time.monotonic()
    members_total = 0
    for text in alphas:
        for beta in betas:
            p = BeattyParams(parse_irrational(text), beta)
            N = int((LIMIT + 3) / float(p.alpha)) + 3
            terms = generate(p, N)
            assert int(terms[-1]) >= LIMIT
            # ground truth: n is stored at slot floor(alpha*n + beta)
            truth = np.zeros(LIMIT + 1, np.int64)
            sel = (terms >= 1) & (terms <= LIMIT)
            truth[terms[sel]] = np.flatnonzero(sel) + 1
            ms = np.arange(1, LIMIT + 1, dtype=np.int64)
            member, ns = bulk_membership(p, ms)
            assert np.array_equal(member, truth[1:] > 0), (text, beta)
            assert np.array_equal(ns[member], truth[1:][member]), (text, beta)
            assert np.array_equal(p.terms(ns[member]), ms[member])
            members_total += int(np.count_nonzero(member))
    ok = True
    assert _verdict(1, ok,
                    f"9 parameter pairs, every m <= 1e6, witnesses exact "
                    f"({members_total} members, {time.monotonic()-t0:.1f}s)")


def test_criterion_02_substitution_identity(big_table):
    import random
    rng = random.Random(20260823)
    names = ("sqrt:2", "sqrt:3", "quad:1/2+sqrt:5", "dec:0.3", "sqrt:7",
             "dec:2.718281828")
    worst = 0.0
    t0 = time.monotonic()
    for _ in range(100):
        q = rng.randint(1, 12)
        while True:
            a = rng.randint(0, q - 1)
            if math.gcd(a, q) == 1:
                break
        M = rng.randint(1, (LIMIT - a) // q)
        k = rng.choice([1, 1, 2, 3, 5, -1, -2, 7])
        gam = parse_irrational(rng.choice(names))
        chk = substitution_identity_check(big_table, M, ResidueClass(a, q),
                                          gam, k)
        worst = max(worst, chk.relative)
    ok = worst <= 1e-9
    assert _verdict(2, ok,
                    f"100 random (q,a,gamma,k,M), worst relative residual "
                    f"{worst:.3e} <= 1e-9 ({time.monotonic()-t0:.1f}s)")


def test_criterion_03_truncated_decomposition(big_table):
    def residual(q, a, gname, beta, M, K, Delta=0.01):
        gam = parse_irrational(gname).inverse()
        dl = gam * (1 - as_exact_ratio(beta))
        pd = build_psi_delta(float(gam), Delta, K)
        r = ResidueClass(a, q)
        ns = np.arange(1, M + 1, dtype=np.int64)
        lam = big_table.mangoldt_values(q * ns + a)
        _, fr, _ = gam.affine_floor_frac_many(ns, dl)
        lhs = math.fsum((lam * pd.evaluate(fr)).tolist())
        rhs = float(gam) * math.fsum(lam.tolist())
        dph = dl.phases_many(np.arange(1, K + 1, dtype=np.int64))
        acc = 0.0
        for i in range(K):
            sp = exp_sum_shifted(big_table, M, r, gam, i + 1)
            sm = exp_sum_shifted(big_table, M, r, gam, -(i + 1))
            ep = cmath.exp(2j * math.pi * dph[i])
            acc += (pd.g[i] * ep * sp
                    + pd.g[i].conjugate() * ep.conjugate() * sm).real
        return abs(lhs - (rhs + acc)) / (1.0 + abs(lhs))

    cases = [(2, 1, "sqrt:2", 0, 1000, 1000),
             (3, 1, "sqrt:3", 0.3, 800, 500),
             (5, 2, "quad:1/2+sqrt:5", -1.7, 1000, 300),
             (1, 0, "dec:1.7390851332151607", 0.25, 500, 1000)]
    t0 = time.monotonic()
    worst = max(residual(*c) for c in cases)
    ok = worst <= 1e-9
    assert _verdict(3, ok,
                    f"4 instances (M<=1e3, K<=1e3), worst relative "
                    f"deviation {worst:.3e} <= 1e-9 "
                    f"({time.monotonic()-t0:.1f}s)")


def test_criterion_04_smoothed_indicator_certified():
    K = 100_000
    worst_ratio = 0.0
    for delta in (0.01, 0.05):
        for gam in (0.5, 1.0 / math.sqrt(2.0)):
            pd = build_psi_delta(gam, delta, K)
            worst_ratio = max(worst_ratio, pd.max_bound_ratio())
    coef_ok = worst_ratio <= 1.0 + 1e-12

    gam, delta = 1.0 / math.sqrt(2.0), 0.01
    pd = build_psi_delta(gam, delta, K)
    xs = (np.arange(160) + 0.5) / 160
    far = np.ones(xs.size, bool)
    for jump in (0.0, gam):
        far &= np.abs(((xs - jump + 0.5) % 1.0) - 0.5) >= delta
    xs = xs[far]
    ind = np.array([psi_indicator(x, gam) for x in xs])
    dev = float(np.max(np.abs(pd.evaluate(xs) - ind)))
    point_ok = dev <= pd.tail_bound()
    ok = coef_ok and point_ok
    assert _verdict(4, ok,
                    f"coef bound ratio {worst_ratio:.12f} <= 1 for k <= 1e5; "
                    f"pointwise dev {dev:.3e} <= tail {pd.tail_bound():.3e}")


def test_criterion_05_weighted_count_converges(big_table):
    p = BeattyParams(parse_irrational("sqrt:2"), 0)
    grid = (10 ** 4, 10 ** 5, 10 ** 6)
    finals = []
    t0 = time.monotonic()
    for (q, a) in ((2, 1), (3, 1), (5, 2)):
        rep = verify_sweep(p, ResidueClass(a, q), grid, "S", big_table,
                           target="main", tol=0.03)
        rels = [row.rel_err for row in rep.rows]
        assert all(y < x for x, y in zip(rels, rels[1:])), (q, a, rels)
        assert rep.passed, rep.summary()
        finals.append(rels[-1])
    elapsed = time.monotonic() - t0
    ok = max(finals) <= 0.03 and elapsed < 60.0
    assert _verdict(5, ok,
                    f"3 classes, |S-main|/N decreasing over 1e4..1e6, final "
                    f"errs {['%.2e' % e for e in finals]} <= 0.03 "
                    f"({elapsed:.1f}s)")


def test_criterion_06_density_predictions(big_table):
    p = BeattyParams(parse_irrational("sqrt:2"), 0)
    worst_s = worst_t = 0.0
    for r in _coprime_classes(10):
        pred_s = density_prediction(p, r, LIMIT, "S")
        lhs = beatty_sums(p, r, [LIMIT], "S", big_table)[0]
        dev = abs(lhs - pred_s) / pred_s
        worst_s = max(worst_s, dev)
        pred_t = density_prediction(p, r, LIMIT, "T")
        lhs = beatty_sums(p, r, [LIMIT], "T", big_table)[0]
        dev = abs(lhs - pred_t) / pred_t
        worst_t = max(worst_t, dev)
    ok = worst_s <= 0.03 and worst_t <= 0.03
    assert _verdict(6, ok,
                    f"32 classes q <= 10 at N=1e6: S/N off by <= "
                    f"{worst_s:.4f}, T/N off by <= {worst_t:.4f} (tol 0.03)")


def test_criterion_07_prime_density_in_progression(big_table):
    # largest n with 2*floor(sqrt2*n)+1 <= 1e6
    p = BeattyParams(parse_irrational("sqrt:2"), 0)
    N = 353553
    assert 2 * int(p.terms(np.array([N]))[0]) + 1 <= LIMIT
    assert 2 * int(p.terms(np.array([N + 1]))[0]) + 1 > LIMIT
    count = int(beatty_sums(p, ResidueClass(1, 2), [N], "N", big_table)[0])
    pi_x = prime_pi_ap(big_table, LIMIT, (0, 1))
    ratio = count / pi_x
    inv = 1.0 / math.sqrt(2.0)
    ok = 0.95 * inv <= ratio <= 1.05 * inv
    assert _verdict(7, ok,
                    f"{count} primes 2*floor(sqrt2*n)+1 <= 1e6 vs pi(1e6)="
                    f"{pi_x}; ratio*sqrt2 = {ratio / inv:.4f} in [0.95,1.05]")


def test_criterion_08_equidistribution_discrepancy():
    exps = {}
    for name in ("sqrt:2", "quad:1/2+sqrt:5"):
        gam = parse_irrational(name)
        D = discrepancy_beatty(gam, 0, 10 ** 4)
        exps[name] = decay_exponent(D, 10 ** 4)
    decay_ok = all(e <= -0.8 for e in exps.values())

    rng = np.random.default_rng(1234)
    agree = 0
    for t in range(100):
        M = int(rng.integers(1, 201))
        xs = rng.random(M)
        if t % 3 == 0:
            xs = np.round(xs, 1)
            xs[xs >= 1.0] = 0.9
        if t % 5 == 0:
            xs[: max(1, M // 10)] = 0.0
        if discrepancy(xs) == discrepancy_brute(xs):
            agree += 1
    ok = decay_ok and agree == 100
    assert _verdict(8, ok,
                    f"exponents {['%.3f' % e for e in exps.values()]} <= "
                    f"-0.8 at M=1e4; fast == quadratic oracle on "
                    f"{agree}/100 random sets")


def test_criterion_09_progression_psi_accuracy(big_table):
    worst = 0.0
    for r in _coprime_classes(10):
        main = LIMIT / euler_phi(r.q)
        dev = abs(chebyshev_psi_ap(big_table, LIMIT, r) - main) / LIMIT
        worst = max(worst, dev)
    ok = worst <= 0.02
    assert _verdict(9, ok,
                    f"32 classes q <= 10: |psi(1e6;q,a) - 1e6/phi(q)|/1e6 "
                    f"<= {worst:.2e} (tol 0.02)")


def test_criterion_10_exponential_sum_cancellation(big_table, tmp_path):
    g2 = parse_irrational("sqrt:2")
    M = 10 ** 5
    ratios = []
    for q in (2, 3):
        r = ResidueClass(1, q)
        s = exp_sum_shifted(big_table, M, r, g2, 1)
        ns = np.arange(1, M + 1, dtype=np.int64)
        lam_sum = math.fsum(big_table.mangoldt_values(q * ns + 1).tolist())
        ratios.append(abs(s) / lam_sum)
    cancel_ok = max(ratios) <= 0.1

    theta = g2 / 2
    rows = bound_ratio_sweep(big_table, LIMIT, ResidueClass(1, 2), theta)
    sweep_ok = (len(rows) >= 5
                and all(x.den < y.den for x, y in zip(rows, rows[1:]))
                and all(row.bound == progression_sum_bound(LIMIT, row.den)
                        for row in rows))

    out = tmp_path / "bound_ratio.csv"
    code = cli_main(["expsum", "bound-ratio", "--alpha", "sqrt:2",
                     "--q", "2", "--a", "1", "--M", "100000", "--k", "1",
                     "--out", str(out)])
    body = [ln for ln in out.read_text().splitlines()
            if ln and not ln.startswith("#")]
    cli_ok = code == 0 and len(body) >= 6  # header row + several sweep rows
    ok = cancel_ok and sweep_ok and cli_ok
    assert _verdict(10, ok,
                    f"|sum|/sum(Lambda) = {['%.4f' % r for r in ratios]} "
                    f"<= 0.1 at M=1e5; bound sweep {len(rows)} rows, "
                    f"report emitted rc={code}")


def test_criterion_11_sieve_partition_identities(big_table):
    # Mangoldt values of divisors add up to the log
    n_max = 10 ** 4
    lam = big_table.mangoldt_values(np.arange(1, n_max + 1, dtype=np.int64))
    acc = np.zeros(n_max + 1)
    for d in range(2, n_max + 1):
        acc[d::d] += lam[d - 1]
    logs = np.log(np.arange(2, n_max + 1, dtype=np.float64))
    div_dev = float(np.max(np.abs(acc[2:] - logs) / logs))
    div_ok = div_dev <= 1e-12

    pi_ok = True
    psi_dev = 0.0
    for q in (4, 6, 9, 10):
        parts = [prime_pi_ap(big_table, LIMIT, (a, q)) for a in range(q)]
        pi_ok &= sum(parts) == prime_pi_ap(big_table, LIMIT, (0, 1))
        total = math.fsum(chebyshev_psi_ap(big_table, LIMIT, (a, q))
                          for a in range(q))
        whole = chebyshev_psi_ap(big_table, LIMIT, (0, 1))
        psi_dev = max(psi_dev, abs(total - whole) / whole)
    psi_ok = psi_dev <= 1e-12
    ok = div_ok and pi_ok and psi_ok
    assert _verdict(11, ok,
                    f"divisor identity dev {div_dev:.2e} (n <= 1e4); "
                    f"pi partition exact for q in (4,6,9,10); psi partition "
                    f"dev {psi_dev:.2e}")
