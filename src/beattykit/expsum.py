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
from .irrational import Irrational, cf_walk
from .sieve import MangoldtTable, ResidueClass, class_records
from .surd import _BLOCK

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
    rows = []
    seen = set()
    for _, num, den, _ in cf_walk(theta):
        if den > cap:
            break
        if den in seen:
            continue
        seen.add(den)
        bound = progression_sum_bound(L, den)
        # |theta - num/den| <= 1/L  <=>  |theta*den*L - num*L| <= den
        diff = (theta * (den * L)) - num * L
        ok = -den <= diff <= den
        rows.append(BoundRatioRow(den, num, abs_sum, bound, abs_sum / bound, ok))
    return rows


# -- extreme discrepancy ---------------------------------------------------

def _checked(xs: np.ndarray) -> np.ndarray:
    """Sorted points, checked by their two ends (NaN sorts last)."""
    if xs.size == 0:
        raise ValueError("need at least one sample point")
    if not (xs[0] >= 0.0 and xs[-1] < 1.0):
        raise PointOutOfRange("sample points must lie in [0, 1)")
    return xs


def _candidates(a, b, floors, buf):
    """The four families of pair sums, in turn in buf (see discrepancy); each
    running maximum is floored by its entry of floors, which holds the
    virtual ends and, in the filter, the other blocks' maxima.  float64
    arrays for the filter, object arrays of ints for the rescan."""
    f1, f2, f3, f4 = floors
    # excess, s ending a run: a_s + max(b_r for r <= s, -z)
    np.maximum.accumulate(b, out=buf)
    yield np.add(np.maximum(buf, f1, out=buf), a, out=buf)
    # excess, r starting a run: b_r + max(a_s for s >= r)
    np.maximum.accumulate(a[::-1], out=buf[::-1])
    yield np.add(np.maximum(buf, f2, out=buf), b, out=buf)
    # deficiency, d closing a gap: b_d + max(a_c for c < d, z)
    buf[0] = -np.inf
    np.maximum.accumulate(a[:-1], out=buf[1:])
    yield np.add(np.maximum(buf, f3, out=buf), b, out=buf)
    # deficiency, c opening a gap: a_c + max(b_d for d > c, 0)
    buf[-1] = -np.inf
    np.maximum.accumulate(b[:0:-1], out=buf[-2::-1])
    yield np.add(np.maximum(buf, f4, out=buf), a, out=buf)


def _blocks(xs: np.ndarray):
    """(vals, less, leq, a, b) of the sorted points' distinct values, _BLOCK
    points at a time: a value belongs to the block of its first point, and
    a block that only continues a run yields nothing."""
    M = int(xs.size)
    for p0 in range(0, M, _BLOCK):
        p1 = min(p0 + _BLOCK, M)
        x = xs[p0:p1]
        head = p0 == 0 or x[0] != xs[p0 - 1]
        step = x[1:] != x[:-1]
        if head and step.all():     # no ties: less = i, leq = i + 1
            less, vals = np.arange(p0, p1), x
        else:
            less = np.flatnonzero(np.concatenate(([head], step)))
            if not less.size:
                continue
            less += p0
            vals = xs[less]
        leq = np.empty_like(less)
        leq[:-1] = less[1:]
        # a run that crosses the block's last edge ends further on
        leq[-1] = (p1 if p1 == M or xs[p1] != x[-1]
                   else np.searchsorted(xs, x[-1], "right"))
        mx = M * vals
        a = leq - mx
        b = np.subtract(mx, less, out=mx)
        if p0 == 0 and vals[0] == 0:
            b[0] = -np.inf          # no interval opens just left of 0
        yield vals, less, leq, a, b


def _kept(xs: np.ndarray):
    """Sorted points -> (vals, less, leq, cnt0, keep): the distinct values
    that the float filter keeps, their counts, and their indices among all
    distinct values; see discrepancy."""
    M = int(xs.size)
    cnt0 = int(np.searchsorted(xs, 0.0, "right"))
    # each block's floors: the maxima of a and b over the blocks before it
    # (families 1 and 3) and after it (2 and 4), with the virtual ends
    tops = np.array([(a.max(), b.max()) for *_, a, b in _blocks(xs)])
    low = np.full((1, 2), -np.inf)
    before = np.concatenate((low, np.maximum.accumulate(tops)[:-1]))
    after = np.concatenate((np.maximum.accumulate(tops[::-1])[-2::-1], low))
    floors = np.column_stack((np.maximum(before[:, 1], -cnt0), after[:, 0],
                              np.maximum(before[:, 0], cnt0),
                              np.maximum(after[:, 1], 0.0)))
    buf = np.empty(_BLOCK)
    cut = max(float(c.max()) for (*_, a, b), f in zip(_blocks(xs), floors)
              for c in _candidates(a, b, f, buf[:a.size]))
    cut -= 16.0 * M * 2.0 ** -53
    kept, base = [], 0
    for (vals, less, leq, a, b), f in zip(_blocks(xs), floors):
        hit = np.zeros(a.size, bool)
        for c in _candidates(a, b, f, buf[:a.size]):
            hit |= c >= cut
        at = np.flatnonzero(hit)
        kept.append((vals[at], less[at], leq[at], at + base))
        base += a.size
    vals, less, leq, keep = map(np.concatenate, zip(*kept))
    return vals, less, leq, cnt0, keep


def discrepancy(points) -> float:
    """Extreme discrepancy over open subintervals (c, d) of [0, 1), exactly.

    With M points, distinct values v_i, leq_i points <= v_i and less_i
    points < v_i, each candidate is a sum of two endpoint terms: excess
    pairs a_s = leq_s - M*v_s with b_r = M*v_r - less_r (r <= s, v_r > 0),
    and deficiency pairs b_d with -c_c, c_c = M*v_c - leq_c (c < d); the
    virtual ends 0 and 1 add the terms -cnt0 (cnt0 zeros) and 0.

    One sort (discrepancy_beatty sorts the kernel's array in place), checked
    by its two ends, then three sweeps over _BLOCK points at a time.  Each
    forms its block's distinct values, less, leq, a and b afresh (less = i
    and leq = i + 1 when the block has no ties).  The first takes each
    block's maxima of a and b; their prefix and suffix maxima floor the
    four running maxima of the other blocks, exactly, since max is exact.
    The second finds the cut and the third the kept indices.  So the scan
    holds one block's arrays beyond the sorted points, plus O(M/_BLOCK)
    maxima and the kept values: at M = 2^19 (tracemalloc) discrepancy holds
    10.5 bytes a point, 8 of them its sorted copy, and discrepancy_beatty
    11.5, where the kernel's block of limbs sets the peak.

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
    original counts, floors (-z, -inf, z, 0) for z = cnt0 whether or not
    the value 0 is kept, and b = -inf at the first kept index only if its
    value is 0.  The kept set holds both ends of an optimal pair (families
    1 and 2 keep its s* and r*, 3 and 4 its d* and c*), so the maximum is
    the true supremum, rounded once to a double.  Near-ties keep more
    indices, at worst all of them, at O(M) integer cost; the sort makes it
    O(M log M) overall.
    """
    return _scan(_checked(np.sort(np.asarray(points, np.float64))))


def _scan(xs: np.ndarray) -> float:   # discrepancy of sorted, valid points
    M = int(xs.size)
    vals, less, leq, cnt0, _ = _kept(xs)
    # a common dyadic grid: the denominators are powers of two
    kv = vals.tolist()
    scale = max(v.as_integer_ratio()[1] for v in kv)
    iv = np.array([p * (scale // q) for p, q in map(float.as_integer_ratio, kv)],
                  object)
    a = leq.astype(object) * scale - M * iv
    b = M * iv - less.astype(object) * scale
    b[0] = -np.inf if iv[0] == 0 else b[0]
    z = cnt0 * scale
    best = max(c.max() for c in _candidates(a, b, (-z, -np.inf, z, 0),
                                            np.empty(iv.size, object)))
    return float(Fraction(best, M * scale)) if best > 0 else 0.0


def discrepancy_beatty(gamma: Irrational, delta, M: int) -> float:
    """Discrepancy of the fractional parts {gamma*m + delta}, m = 1..M.

    The fractions fill one length-M array, _BLOCK values of m at a time in
    ascending order, so the kernel holds one block's indices, floors and
    limbs beside it; each block is certified against its own largest m.
    """
    if M < 1:
        raise ValueError("M must be >= 1")
    fr = np.empty(M)
    for s in range(0, M, _BLOCK):
        e = min(s + _BLOCK, M)
        # not phases_many: on dec: alphas it takes the center's fractions, a
        # silent guess here, where a straddled floor must refuse
        fr[s:e] = gamma.affine_floor_frac_many(
            np.arange(s + 1, e + 1, dtype=np.int64), delta)[1]
    fr.sort()   # in place
    return _scan(_checked(fr))


def decay_exponent(D: float, M: int) -> float:
    """log D / log M, the empirical decay rate; 0 at the trivial depth M = 1."""
    if M < 1:
        raise ValueError("M must be >= 1")
    if M == 1:
        return 0.0
    return math.log(D) / math.log(M)
