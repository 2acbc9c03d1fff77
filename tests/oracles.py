"""Reference implementations the tests compare the package against.

They are slow and simple on purpose, and the package does not use them.
"""

import decimal
import json
import math
from fractions import Fraction

import numpy as np

from beattykit.beatty import BeattyParams
from beattykit.cli import _fmt, _json_value
from beattykit.errors import AmbiguousFloor, PointOutOfRange
from beattykit.irrational import floor_affine
from beattykit.surd import (exact_floor_frac, fixed_point_floor_frac,
                            to_fixed_point)


def _validated(points) -> np.ndarray:
    """The points as float64, each checked (expsum checks the sorted ends)."""
    xs = np.asarray(points, np.float64)
    if xs.size == 0:
        raise ValueError("need at least one sample point")
    if np.any(~np.isfinite(xs)) or np.any(xs < 0.0) or np.any(xs >= 1.0):
        raise PointOutOfRange("sample points must lie in [0, 1)")
    return xs


def _scaled_values(vals: np.ndarray):
    """Distinct values as exact integers on a common dyadic grid.

    Doubles are dyadic rationals, so scaling by 2^kmax (kmax the largest
    denominator exponent present) loses nothing; all interval quantities
    then live in Z and the supremum is computed without a single rounding.
    """
    ratios = [v.as_integer_ratio() for v in vals.tolist()]
    kmax = max(q.bit_length() - 1 for _, q in ratios)
    scale = 1 << kmax
    return [p * (scale // q) for p, q in ratios], scale


def discrepancy_brute(points) -> float:
    """All-pairs evaluation of the same supremum; O(R^2) in the number of
    distinct values.  Kept as an independent oracle for the scan version;
    both work on the identical exact grid, so agreement is bit-for-bit."""
    xs = _validated(points)
    M = int(xs.size)
    vals, cnts = np.unique(xs, return_counts=True)
    leq = np.cumsum(cnts).tolist()
    less = [a - b for a, b in zip(leq, cnts.tolist())]
    iv, scale = _scaled_values(vals)
    R = len(iv)
    cnt0 = leq[0] - less[0] if iv[0] == 0 else 0
    best = 0
    for s in range(R):
        t = (leq[s] - cnt0) * scale - M * iv[s]
        if t > best:
            best = t
        for r_i in range(s + 1):
            if iv[r_i] > 0:
                t = (leq[s] - less[r_i]) * scale - M * (iv[s] - iv[r_i])
                if t > best:
                    best = t
    c_list = [(0, cnt0)] + [(iv[i], leq[i]) for i in range(R)]
    d_list = [(iv[i], less[i]) for i in range(R)] + [(scale, M)]
    for ic, gc in c_list:
        for idd, hd in d_list:
            if idd > ic:
                t = M * (idd - ic) - (hd - gc) * scale
                if t > best:
                    best = t
    return float(Fraction(best, M * scale)) if best > 0 else 0.0


def discrepancy_linear(points) -> float:
    """M*D = max a + max b over the distinct values, with a = leq - M*v and
    b = M*v - less (expsum.discrepancy says why), in exact integers on the
    grid of _scaled_values: no float filter and no blocks, O(R) after the
    sort.  Checked against discrepancy_brute, it stands in for it on inputs
    too long for all pairs."""
    xs = _validated(points)
    M = int(xs.size)
    vals, cnts = np.unique(xs, return_counts=True)
    leq = np.cumsum(cnts).tolist()
    iv, scale = _scaled_values(vals)
    A = max(h * scale - M * v for h, v in zip(leq, iv))
    B = max(M * v - (h - c) * scale for h, c, v in zip(leq, cnts.tolist(), iv))
    return float(Fraction(A + B, M * scale))


def exact_maximisers(points):
    """(vals, less, leq, top_a, top_b) over the distinct values, dense and
    exact: top_a and top_b mark the indices whose a = leq - M*v, or
    b = M*v - less, is the maximum, compared in integers on the grid of
    _scaled_values.  A float filter must keep every marked index."""
    xs = _validated(points)
    M = int(xs.size)
    vals, cnts = np.unique(xs, return_counts=True)
    leq = np.cumsum(cnts)
    less = leq - cnts
    iv, scale = _scaled_values(vals)
    a = [h * scale - M * v for h, v in zip(leq.tolist(), iv)]
    b = [M * v - h * scale for h, v in zip(less.tolist(), iv)]
    return (vals, less, leq, np.array(a) == max(a), np.array(b) == max(b))


def psi_indicator(x, gamma) -> float:
    """Period-1 indicator of (0, gamma]: 1 when 0 < {x} <= gamma, else 0."""
    r = x - math.floor(x)
    return 1.0 if 0 < r <= gamma else 0.0


def smoothed_indicator(x, gamma, delta):
    """Exact box-smoothed indicator of (0, gamma] mod 1 at x in [0, 1)."""
    lo, hi = x - delta, x + delta
    cover = 0.0
    for shift in (-1.0, 0.0, 1.0):
        cover = cover + np.clip(np.minimum(hi, shift + gamma)
                                - np.maximum(lo, shift), 0.0, None)
    return cover / (2.0 * delta)


# -- floors: the fixed-point kernel on raw surd coefficients -----------------

def bulk_floor_frac(A: int, B: int, C: int, E: int, W: int, d: int, ns):
    """Vectorised floor/frac of ((A*n + B) + (C*n + E)*sqrt(d)) / W: fracs are
    within (max|n| + 1)*2**-128 plus rounding, and points that close to an
    integer go through exact_floor_frac, so floors are exact."""
    parts = (*to_fixed_point(A, C, W, d), *to_fixed_point(B, E, W, d), 1, 1)
    return fixed_point_floor_frac(
        parts, ns, lambda n: exact_floor_frac(A * n + B, C * n + E, W, d))


# -- steps: the indices at each value, from two exact scalar floors ----------

def ceiling_steps_brute(params, ms) -> list:
    """(c(m), c(m + 1) - c(m)) at each m, c(k) = ceil(gamma*(k - beta)) taken
    as -floor of -gamma*k + gamma*beta by the exact scalar affine_floor_frac,
    one point at a time; None where a dec: alpha cannot decide a floor."""
    neg, eta = -params.gamma, params.gamma * params.beta
    out = []
    for m in ms:
        try:
            c, c1 = (-neg.affine_floor_frac(k, eta)[0] for k in (m, m + 1))
        except AmbiguousFloor:
            out.append(None)
            continue
        out.append((c, c1 - c))
    return out


# -- sequences: the alpha < 1 split into t sequences of modulus alpha*t > 1 --

def small_alpha_terms(params, N: int) -> np.ndarray:
    """floor(alpha*n + beta) for n = 1..N, sorted, with 0 < alpha < 1.

    With t = ceil(1/alpha), the index n = t*k + j (0 <= j < t) turns the
    term into floor((alpha*t)*k + (alpha*j + beta)) with alpha*t > 1, and
    the t index classes cover 1..N exactly once, so the multisets agree.
    """
    alpha, beta = params.alpha, params.beta
    t = params.gamma.floor() + 1        # 1/alpha is irrational
    chunks = []
    for j in range(t):
        part = BeattyParams(alpha * t, alpha * j + beta if j else beta)
        ks = np.arange(0 if j else 1, (N - j) // t + 1, dtype=np.int64)
        chunks.append(part.terms(ks))
    return np.sort(np.concatenate(chunks))


# -- the sieve's record stream: one mask over the whole table ---------------

def class_mask(table, L: int, r, min_n: int = 2, primes: bool = False):
    """bool over the table's records: those n == a mod q with min_n <= n
    <= L, and with primes those with power == base.  One mask over the
    whole of table.power and table.base, each n tested as a Python int (q
    may pass int64); no blocks and no search, so it shares no code with
    sieve.class_blocks."""
    a, q = (r.a, r.q) if hasattr(r, "q") else r
    ns = table.power
    mask = (ns >= min_n) & (ns <= L)
    mask &= np.array([n % q == a for n in ns.tolist()], bool).reshape(ns.shape)
    if primes:
        mask &= ns == table.base
    return mask


# -- prime counts in progressions, without the sieve -------------------------

def lucy_pi_ap(x: int, q: int) -> dict:
    """{a: pi(x; q, a)} over the primitive classes a mod q, for x >= 1.

    Lucy's form of the Legendre-Meissel recursion (Lagarias, Miller and
    Odlyzko, Math. Comp. 44, 1985) over the values v = x // k, one column
    per primitive class b: S(v, b) starts as the count of 2 <= n <= v with
    n == b, and each prime p <= sqrt(x) not dividing q removes the n whose
    least prime factor is p, S(v, b) -= S(v // p, b/p) - S(p - 1, b/p) for
    v >= p*p.  A member of a primitive class has no prime factor dividing
    q, so the columns form a closed system.  Counts only: a Lambda-weighted
    total is not completely multiplicative, so modes S and T get no check
    here.  It shares no code with beattykit.sieve.
    """
    r = math.isqrt(x)
    V = np.array(sorted({x // k for k in range(1, r + 1)} | set(range(1, r + 1)),
                        reverse=True), np.int64)
    B = [b for b in range(q) if math.gcd(b, q) == 1]
    col = {b: i for i, b in enumerate(B)}
    rep = np.array([b or q for b in B], np.int64)     # b as a number in [1, q]
    S = (V[:, None] - rep) // q + 1 - (rep == 1)
    at = lambda v: np.where(v <= r, V.size - v, x // v - 1)   # the row of v
    for p in range(2, r + 1):
        c = col.get(p % q)      # None where p shares a factor with q
        if c is None or S[V.size - p, c] == S[V.size - p + 1, c]:
            continue            # no prime of a primitive class
        t = int(np.searchsorted(-V, -p * p, "right"))    # the rows v >= p*p
        perm = [col[b * pow(p, -1, q) % q] for b in B]  # the column of b/p
        S[:t] -= S[at(V[:t] // p)][:, perm] - S[V.size - p + 1, perm]
    return {b: int(S[0, i]) for i, b in enumerate(B)}


# -- counting: direct per-index loops through the exact scalar floor --------

def oracle_S(p, r, N, table):
    vals = []
    for n in range(1, N + 1):
        m = p.term(n)
        arg = r.q * m + r.a
        if 2 <= arg <= table.limit:
            v = table.mangoldt_values(np.array([arg], dtype=np.int64))[0]
            if v:
                vals.append(float(v))
    return math.fsum(vals)


def oracle_T(p, r, N, table):
    vals = []
    for n in range(1, N + 1):
        m = p.term(n)
        if m >= 2 and m % r.q == r.a:
            v = table.mangoldt_values(np.array([m], dtype=np.int64))[0]
            if v:
                vals.append(float(v))
    return math.fsum(vals)


def _is_prime(n: int) -> bool:
    return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))


def _mangoldt(n: int, table) -> float:
    if n < 2:
        return 0.0
    return float(table.mangoldt_values(np.array([n], dtype=np.int64))[0])


def oracle_weight(m: int, r, mode: str, table) -> float:
    """The weight of one sequence value m in mode S, T, N or M."""
    if mode == "S":
        return _mangoldt(r.q * m + r.a, table)
    if mode == "T":
        return _mangoldt(m, table) if m % r.q == r.a else 0.0
    if mode == "N":
        return float(_is_prime(r.q * m + r.a))
    return float(_is_prime(m) and m % r.q == r.a)


def oracle_N(p, r, N, table):
    """Count of n <= N with q*floor(alpha*n + beta) + a prime."""
    return math.fsum(oracle_weight(p.term(n), r, "N", table)
                     for n in range(1, N + 1))


def oracle_M(p, r, N, table):
    """Count of n <= N with floor(alpha*n + beta) prime and == a mod q."""
    return math.fsum(oracle_weight(p.term(n), r, "M", table)
                     for n in range(1, N + 1))


def oracle_main(p, r, N, mode, table):
    """gamma times the mode's weights over m = 1..floor(alpha*N + beta)."""
    M = floor_affine(p.alpha, N, p.beta)[0]
    return float(p.gamma) * math.fsum(oracle_weight(m, r, mode, table)
                                      for m in range(1, M + 1))


# -- Lambda values: the correctly rounded natural log ------------------------

def log_correctly_rounded(n: int) -> float:
    """The double nearest ln n for 2 <= n < 2**29, from decimal's 50-digit
    ln (within 10**-48 of ln n < 21); asserts that this decides it."""
    ln = decimal.Context(prec=50).ln(decimal.Decimal(n))
    y = float(ln)
    lo, hi = ((Fraction(y) + Fraction(math.nextafter(y, to))) / 2
              for to in (0.0, math.inf))
    rad = Fraction(1, 10 ** 48)
    assert lo < Fraction(ln) - rad and Fraction(ln) + rad < hi, n
    return y


# -- reports: the per-cell CSV rendering -------------------------------------

def csv_rows_per_cell(report) -> list:
    """The CSV data lines of a report, one _fmt call per cell."""
    return [",".join(_fmt(v) for v in row) for row in report.rows]


def render_whole(report, fmt: str) -> str:
    """A report's text from one document: json.dumps of the whole report,
    or every CSV line joined at once."""
    if fmt == "json":
        doc = {"name": report.name,
               "params": {k: _json_value(v) for k, v in report.params},
               "columns": list(report.columns),
               "rows": [[_json_value(v) for v in row] for row in report.rows]}
        if report.verdict is not None:
            doc["verdict"] = "PASS" if report.verdict else "FAIL"
        return json.dumps(doc, indent=2) + "\n"
    lines = [f"# beattykit {report.name}"]
    lines += [f"# {k}={_fmt(v)}" for k, v in report.params]
    if report.verdict is not None:
        lines.append(f"# verdict={'PASS' if report.verdict else 'FAIL'}")
    lines.append(",".join(report.columns))
    return "\n".join(lines + csv_rows_per_cell(report)) + "\n"
