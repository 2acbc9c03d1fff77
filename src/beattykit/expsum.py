"""Fourier-side tools: smoothed indicators, exponential sums over primes,
the generic-modulus progression bound, and extreme discrepancy.

The smoothing is the classical construction: convolve the periodic
indicator of (0, gamma] with a box kernel of half-width Delta.  The
resulting function agrees with the indicator outside Delta-neighbourhoods
of the jumps, interpolates linearly across them, and has Fourier
coefficients bounded by min(1/(pi k), 1/(2 pi^2 k^2 Delta)), which is what
makes truncated expansions quantitative: the tail beyond K contributes at
most 1/(pi^2 K Delta) pointwise.

Exponential sums use exact phase reduction (the integer part of theta*n is
removed in integer arithmetic before any trigonometry), so cancellation
down at the 1e-12 level is measured, not drowned in rounding noise.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from .errors import DeltaOutOfRange, PointOutOfRange
from .irrational import Irrational, cf_reaching
from .sieve import MangoldtTable, ResidueClass, class_records

__all__ = ["PsiDelta", "psi_indicator", "build_psi_delta", "exp_sum_shifted",
           "exp_sum_ap", "substitution_identity_check", "SubstitutionCheck",
           "bound_ratio_sweep", "progression_sum_bound", "BoundRatioRow",
           "discrepancy", "discrepancy_beatty", "decay_exponent"]

_TWO_PI = 2.0 * math.pi


def psi_indicator(x, gamma) -> float:
    """Period-1 indicator of (0, gamma]: 1 when 0 < {x} <= gamma, else 0."""
    r = x - math.floor(x)
    return 1.0 if 0 < r <= gamma else 0.0


@dataclass
class PsiDelta:
    """Truncated Fourier data of the smoothed indicator.

    g[k-1] multiplies e(k x) and conj(g[k-1]) multiplies e(-k x); the mean
    value (the k = 0 coefficient) is gamma.
    """
    gamma: float
    delta: float
    K: int
    g: np.ndarray

    @property
    def mean(self) -> float:
        return self.gamma

    def coefficient_bounds(self) -> np.ndarray:
        k = np.arange(1, self.K + 1, dtype=np.float64)
        return np.minimum(1.0 / (math.pi * k),
                          1.0 / (2.0 * math.pi ** 2 * k * k * self.delta))

    def max_bound_ratio(self) -> float:
        """max_k |g_k| / bound_k; should not exceed 1 beyond roundoff."""
        return float(np.max(np.abs(self.g) / self.coefficient_bounds()))

    def tail_bound(self, K: Optional[int] = None) -> float:
        """Pointwise bound for the discarded tail beyond K."""
        K = self.K if K is None else K
        return 1.0 / (math.pi ** 2 * K * self.delta)

    def evaluate(self, x, K: Optional[int] = None):
        """Truncated series at x (scalar or array), using frequencies <= K.

        gamma + 2 Re sum_{k<=K} g_k z^k with z = e(x): the recurrence
        e(kx) = e(x)^k, evaluated by Horner's rule in z from k = K down, so
        the work is O(points * K) and the memory one O(points) accumulator.
        K is clamped to [0, self.K]; K = 0 gives the mean.  A scalar x
        gives a float.
        """
        KK = self.K if K is None else max(0, min(K, self.K))
        xs = np.asarray(x, np.float64)
        z = np.exp((2j * math.pi) * xs)
        acc = np.zeros(xs.shape, np.complex128)
        for gk in self.g[:KK][::-1]:
            acc += gk
            acc *= z
        vals = self.gamma + 2.0 * acc.real
        return vals if np.ndim(x) else float(vals)


def build_psi_delta(gamma: float, delta: float, K: int) -> PsiDelta:
    """Box-kernel smoothing of the (0, gamma] indicator, truncated at K."""
    gamma = float(gamma)
    if not 0.0 < gamma < 1.0:
        raise ValueError("gamma must lie strictly between 0 and 1")
    if not (0.0 < delta < 0.125 and delta <= min(gamma, 1.0 - gamma) / 2.0):
        raise DeltaOutOfRange(
            f"delta={delta} violates 0 < delta < 1/8 and delta <= min(gamma, 1-gamma)/2")
    if K < 1:
        raise ValueError("K must be >= 1")
    k = np.arange(1, K + 1, dtype=np.float64)
    # indicator coefficients (1 - e(-k gamma)) / (2 pi i k), box kernel sinc
    ind = (1.0 - np.exp(-2j * math.pi * k * gamma)) / (2j * math.pi * k)
    y = _TWO_PI * k * delta
    box = np.sin(y) / y
    g = ind * box
    return PsiDelta(gamma, float(delta), K, g)


# -- exponential sums over primes ------------------------------------------

def _phase_sum(table: MangoldtTable, L: int, r: ResidueClass, min_n: int,
               theta: Irrational, shifted: bool = False) -> complex:
    """Sum of Lambda(n) e(theta*x) over the records n == a mod q with
    min_n <= n <= L, where x = n, or x = (n - a)/q when shifted."""
    at = class_records(table, L, r, min_n)
    ns, lam = table.power[at], table.log_base[at]
    ang = _TWO_PI * theta.phases_many((ns - r.a) // r.q if shifted else ns)
    re = lam * np.cos(ang)
    im = lam * np.sin(ang)
    return complex(math.fsum(re.tolist()), math.fsum(im.tolist()))


def exp_sum_shifted(table: MangoldtTable, M: int, r: ResidueClass,
                    gamma: Irrational, k: int) -> complex:
    """Sum of Lambda(q*m + a) e(gamma*k*m) over 1 <= m <= M."""
    if k == 0:
        raise ValueError("frequency k must be nonzero")
    if M < 1:
        return 0j
    return _phase_sum(table, r.q * M + r.a, r, r.q + r.a, gamma * k, shifted=True)


def exp_sum_ap(table: MangoldtTable, M: int, r: ResidueClass,
               gamma: Irrational, k: int) -> complex:
    """Sum of Lambda(m) e(gamma*k*m) over m <= M with m congruent to a mod q."""
    if k == 0:
        raise ValueError("frequency k must be nonzero")
    if M < 2:
        table.require(max(M, 0))
        return 0j
    return _phase_sum(table, M, r, 2, gamma * k)


@dataclass
class SubstitutionCheck:
    """Both sides of the reindexing identity linking the shifted sum to a
    progression sum at frequency theta = gamma*k/q over n <= q*M + a."""
    lhs: complex
    rhs: complex
    residual: float
    relative: float


def substitution_identity_check(table: MangoldtTable, M: int, r: ResidueClass,
                                gamma: Irrational, k: int) -> SubstitutionCheck:
    """Check sum Lambda(qm+a) e(gamma k m) == e(-theta a) * sum Lambda(n) e(theta n).

    theta = gamma*k/q; the right side runs over n == a mod q with
    a < n <= q*M + a, which is the exact image of m = 1..M under n = qm + a.
    """
    if k == 0:
        raise ValueError("frequency k must be nonzero")
    lhs = exp_sum_shifted(table, M, r, gamma, k)
    theta = (gamma * k) / r.q
    L = r.q * M + r.a
    tail = _phase_sum(table, L, r, r.a + 1, theta) if M >= 1 else 0j
    phase_a = theta.phases_many(np.array([r.a]))[0] if r.a else 0.0
    rhs = cmath.exp(-2j * math.pi * phase_a) * tail
    residual = abs(lhs - rhs)
    return SubstitutionCheck(lhs, rhs, residual, residual / (1.0 + abs(lhs)))


def progression_sum_bound(L: int, d: int) -> float:
    """(L/sqrt(d) + sqrt(d*L) + L^(4/5)) * (log L)^3, natural logarithm."""
    if L < 3:
        raise ValueError("L must be >= 3")
    if d < 1:
        raise ValueError("denominator d must be >= 1")
    return (L / math.sqrt(d) + math.sqrt(d * L) + L ** 0.8) * math.log(L) ** 3


@dataclass
class BoundRatioRow:
    den: int
    num: int
    abs_sum: float
    bound: float
    ratio: float
    hypothesis_ok: bool   # |theta - num/den| <= 1/L, the regime the bound targets


def bound_ratio_sweep(table: MangoldtTable, L: int, r: ResidueClass,
                      theta: Irrational, max_den: Optional[int] = None) -> list:
    """|progression exponential sum| against the generic bound, swept over
    convergent denominators of theta.

    The bound is smallest near d = sqrt(L); rows outside the rational
    approximation hypothesis are flagged rather than dropped.
    """
    if L < 3:
        raise ValueError("L must be >= 3")
    cap = max_den if max_den is not None else L
    abs_sum = abs(_phase_sum(table, L, r, 2, theta))
    cf = cf_reaching(theta, cap + 1)
    rows = []
    seen = set()
    for num, den in cf.convergents:
        if den > cap:
            break
        if den in seen:
            continue
        seen.add(den)
        bound = progression_sum_bound(L, den)
        # |theta - num/den| <= 1/L  <=>  |theta*den*L - num*L| <= den
        diff = (theta * (den * L)) - num * L
        ok = not (_abs_gt(diff, den))
        rows.append(BoundRatioRow(den, num, abs_sum, bound, abs_sum / bound, ok))
    return rows


def _abs_gt(value, bound: int) -> bool:
    """|value| > bound for a surd/PrecisionReal difference."""
    return (value - bound).is_positive() or (-bound - value).is_positive()


# -- extreme discrepancy ---------------------------------------------------

def _validated(points) -> np.ndarray:
    xs = np.asarray(points, np.float64)
    if xs.size == 0:
        raise ValueError("need at least one sample point")
    if np.any(~np.isfinite(xs)) or np.any(xs < 0.0) or np.any(xs >= 1.0):
        raise PointOutOfRange("sample points must lie in [0, 1)")
    return xs


def _candidates(a, b, z, buf):
    """The four families of pair sums, in turn in buf (see discrepancy):
    float64 arrays for the filter, object arrays of ints for the rescan."""
    # excess, s ending a run: a_s + max(b_r for r <= s, -z)
    np.maximum.accumulate(b, out=buf)
    yield np.add(np.maximum(buf, -z, out=buf), a, out=buf)
    # excess, r starting a run: b_r + max(a_s for s >= r)
    np.maximum.accumulate(a[::-1], out=buf[::-1])
    yield np.add(buf, b, out=buf)
    # deficiency, d closing a gap: b_d + max(a_c for c < d, z)
    buf[0] = -np.inf
    np.maximum.accumulate(a[:-1], out=buf[1:])
    yield np.add(np.maximum(buf, z, out=buf), b, out=buf)
    # deficiency, c opening a gap: a_c + max(b_d for d > c, 0)
    buf[-1] = -np.inf
    np.maximum.accumulate(b[:0:-1], out=buf[-2::-1])
    yield np.add(np.maximum(buf, 0, out=buf), a, out=buf)


def _kept(xs: np.ndarray):
    """Sorted points -> (vals, less, leq, cnt0, keep); see discrepancy."""
    M = int(xs.size)
    bounds = np.flatnonzero(np.concatenate(([True], xs[1:] != xs[:-1], [True])))
    less, leq = bounds[:-1], bounds[1:]
    vals = xs if less.size == M else xs[less]
    cnt0 = int(leq[0]) if vals[0] == 0 else 0
    a, b, buf = leq - M * vals, M * vals - less, np.empty(vals.size)
    b[0] = -np.inf if cnt0 else b[0]   # no interval opens just left of 0
    cut = max(float(c.max()) for c in _candidates(a, b, cnt0, buf))
    cut -= 16.0 * M * 2.0 ** -53
    hit = np.zeros(vals.size, bool)
    for c in _candidates(a, b, cnt0, buf):
        hit |= c >= cut
    return vals, less, leq, cnt0, np.flatnonzero(hit)


def discrepancy(points) -> float:
    """Extreme discrepancy over open subintervals (c, d) of [0, 1), exactly.

    With M points, distinct values v_i, leq_i points <= v_i and less_i
    points < v_i, each candidate is a sum of two endpoint terms: excess
    pairs a_s = leq_s - M*v_s with b_r = M*v_r - less_r (r <= s, v_r > 0),
    and deficiency pairs b_d with -c_c, c_c = M*v_c - leq_c (c < d); the
    virtual ends 0 and 1 add the terms -cnt0 (cnt0 zeros) and 0.

    One scan: one sort (discrepancy_beatty sorts the kernel's array in
    place); less and leq are views of the positions where the value
    changes, vals is the sorted array when the values are distinct, and
    the four candidate arrays take turns in one buffer: 42 bytes a point
    (tracemalloc, M = 2^18); discrepancy_beatty peaks at 54, in its kernel.

    Float filter: with u = 2^-53 and M < 2^53, fl(M*v) is within u*M, each
    term (at most M in size) within 2u*M and each pair sum (at most 2M)
    within 6u*M of its exact value, so within e = 8*M*2^-53.  If T is the
    largest float candidate, the optimum is >= T - e and its float value
    >= T - 2e (the slack absorbs the rounding of T - 2e), so only indices
    that end a pair whose float value is >= T - 2e are kept.  The pair of
    both virtual ends (cnt0) ties the pair from the value 0 to the end 1.
    The candidates equal the dense form's (tests/oracles.py) bit for bit:
    c_c = -a_c exactly (rounding is symmetric), so b_d - min(c) = b_d +
    max(a) and x - c_c = x + a_c; only index 0 can hold the value 0, and
    b_0 = -inf there bars it as r and d; r-indexed excess candidates never
    top the s-indexed ones (the same pairs, rounded monotonically).

    Exact rescan: _candidates runs again over the kept indices in Python
    ints, on a common dyadic grid that doubles lie on exactly, with the
    original counts, z = cnt0 whether or not the value 0 is kept, and
    b = -inf at the first kept index only if its value is 0.  The kept set
    holds both ends of an optimal pair (families 1 and 2 keep its s* and
    r*, 3 and 4 its d* and c*), so the maximum is the true supremum, rounded
    once to a double.  Near-ties keep more indices, at worst all of them,
    at O(M) integer cost; the sort makes it O(M log M) overall.
    """
    return _scan(np.sort(_validated(points)))


def _scan(xs: np.ndarray) -> float:   # discrepancy of sorted, valid points
    M = int(xs.size)
    vals, less, leq, cnt0, keep = _kept(xs)
    # a common dyadic grid: the denominators are powers of two
    kv = vals[keep].tolist()
    scale = max(v.as_integer_ratio()[1] for v in kv)
    iv = np.array([p * (scale // q) for p, q in map(float.as_integer_ratio, kv)],
                  object)
    a = leq[keep].astype(object) * scale - M * iv
    b = M * iv - less[keep].astype(object) * scale
    b[0] = -np.inf if iv[0] == 0 else b[0]
    best = max(c.max() for c in _candidates(a, b, cnt0 * scale,
                                            np.empty(iv.size, object)))
    return float(Fraction(best, M * scale)) if best > 0 else 0.0


def discrepancy_beatty(gamma: Irrational, delta, M: int) -> float:
    """Discrepancy of the fractional parts {gamma*m + delta}, m = 1..M."""
    if M < 1:
        raise ValueError("M must be >= 1")
    _, fr, _ = gamma.affine_floor_frac_many(np.arange(1, M + 1, dtype=np.int64),
                                            delta)
    fr.sort()   # the kernel's own array, sorted in place
    return _scan(_validated(fr))


def decay_exponent(D: float, M: int) -> float:
    """log D / log M, the empirical decay rate; 0 at the trivial depth M = 1."""
    if M < 1:
        raise ValueError("M must be >= 1")
    if M == 1:
        return 0.0
    return math.log(D) / math.log(M)
