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
down at the 1e-12 level is measured, not drowned in rounding noise.  All
the sums one call asks for (every k of expsum eval, both sides of
substitution_identity_check) come from one pass over the class's records
as the sieve streams them, a block at a time, and each is summed exactly
in integers and rounded once, as math.fsum would: beyond the table, one
block's temporaries are held.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from typing import TYPE_CHECKING, NamedTuple, Optional

import numpy as np

from .errors import DeltaOutOfRange, PointOutOfRange
from .irrational import Irrational, cf_walk
from .surd import _BLOCK

if TYPE_CHECKING:   # the sieve loads where a table is read, in _phase_sums
    from .sieve import MangoldtTable, ResidueClass

__all__ = ["PsiDelta", "build_psi_delta", "exp_sum_shifted", "exp_sum_ap",
           "substitution_identity_check", "SubstitutionCheck",
           "bound_ratio_sweep", "progression_sum_bound", "BoundRatioRow",
           "discrepancy", "discrepancy_beatty", "decay_exponent"]

_TWO_PI = 2.0 * math.pi


class PsiDelta(NamedTuple):
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

    def tail_bound(self) -> float:
        """Pointwise bound for the discarded tail beyond K."""
        return 1.0 / (math.pi ** 2 * self.K * self.delta)

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


def _head(x) -> str:
    """str(x) of an exact x, cut past 61 digits: str() of an integer refuses
    past 4300 digits, and a k-bit integer has over 0.3*k of them."""
    n, d = (v // 10 ** max(v.bit_length() * 3 // 10 - 61, 0)
            for v in (abs(x.numerator), x.denominator))
    return "-" * (x < 0) + str(n) + f"/{d}" * (x.denominator != 1)


def build_psi_delta(gamma: float, delta, K: int) -> PsiDelta:
    """Box-kernel smoothing of the (0, gamma] indicator, truncated at K;
    delta, a float or a Fraction, is held to (0, 1) before float() is taken."""
    gamma = float(gamma)
    if not 0.0 < gamma < 1.0:
        raise ValueError("gamma must lie strictly between 0 and 1")
    d = float(delta) if 0 < delta < 1 else math.nan
    if not (0.0 < d < 0.125 and d <= min(gamma, 1.0 - gamma) / 2.0):
        shown = str(delta) if isinstance(delta, float) else _head(delta)
        raise DeltaOutOfRange(f"delta={shown[:60]}{'...' * (len(shown) > 60)} violates"
                              " 0 < delta < 1/8 and delta <= min(gamma, 1-gamma)/2")
    if K < 1:
        raise ValueError("K must be >= 1")
    k = np.arange(1, K + 1, dtype=np.float64)
    # indicator coefficients (1 - e(-k gamma)) / (2 pi i k), box kernel sinc
    ind = (1.0 - np.exp(-2j * math.pi * k * gamma)) / (2j * math.pi * k)
    y = _TWO_PI * k * d
    box = np.sin(y) / y
    g = ind * box
    return PsiDelta(gamma, d, K, g)


# -- exponential sums over primes ------------------------------------------

_PIECE = 1 << 14


def _exact_units(x: np.ndarray) -> int:
    """The exact sum of the float64 terms x, each below 2**5 in size, as a
    whole number of 2**-1074 (the spacing of the subnormals, so every
    double is a whole number of them).

    A term of size >= 2**-35 is a multiple of 2**-87 (53 bits down from its
    leading one), so x*2**44 splits exactly (np.modf) into a whole part h,
    |h| < 2**49, and a fraction f with f*2**44 whole and below 2**44: two
    int64 limbs on the grid 2**-88.  They are summed _PIECE = 2**14 terms
    at a time, where the sums stay below 2**63 and 2**58, so neither wraps
    (its own constant: retuning the kernel's _BLOCK leaves it).  A smaller
    term (a cosine within 2**-35 of zero, rare) is added on its own, from
    its exact ratio n/d with d a power of two no larger than 2**1074.
    """
    tiny = np.abs(x) < 2.0 ** -35
    units = 0
    if tiny.any():
        units = sum((n << 1074) // d
                    for n, d in map(float.as_integer_ratio, x[tiny]))
        x = np.where(tiny, 0.0, x)
    f, h = np.modf(np.ldexp(x, 44))
    h, f = h.astype(np.int64), np.ldexp(f, 44).astype(np.int64)
    for s in range(0, x.size, _PIECE):
        units += ((int(h[s:s + _PIECE].sum()) << 1074 - 44)
                  + (int(f[s:s + _PIECE].sum()) << 1074 - 88))
    return units


def _phase_sums(table: MangoldtTable, L: int, r: ResidueClass, min_n: int,
                jobs) -> tuple:
    """For each job (theta, shifted), the sum of Lambda(n) e(theta*x) over
    the records n == a mod q with min_n <= n <= L, where x = n, or
    x = (n - a)/q when shifted; and their exact Lambda total (lambda_units).

    One pass over the sieve's blocks of records (sieve.class_blocks, at
    most 2**14 a block), ascending: a block's n, Lambda and m are read
    once for every job, and each job's phases come from one phases_many
    call per block, whose guard band is sized by that block's largest |x|
    (as in discrepancy_beatty).  A dec: theta whose phases cannot be
    certified refuses at the first block that fails, before any sum is
    returned, and names that block's largest |x|; as the band grows with
    |x|, the inputs refused are those the top block alone would refuse.
    Each real and imaginary part is an exact integer (_exact_units) until
    one correctly rounded int/int division, which gives math.fsum's result
    bit for bit.  Beyond the table, one block's temporaries are held.
    """
    from .sieve import class_blocks, lambda_units
    sums, units = [[0, 0] for _ in jobs], 0
    shifted = any(sh for _, sh in jobs)
    for ns, lam in class_blocks(table, L, r, min_n):
        ms = (ns - r.a) // r.q if shifted else None
        units += lambda_units(lam)
        for (theta, sh), acc in zip(jobs, sums):
            ang = _TWO_PI * theta.phases_many(ms if sh else ns)
            acc[0] += _exact_units(lam * np.cos(ang))
            acc[1] += _exact_units(lam * np.sin(ang))
    return [complex(re / (1 << 1074), im / (1 << 1074)) for re, im in sums], units


def exp_sum_shifted(table: MangoldtTable, M: int, r: ResidueClass,
                    gamma: Irrational, k: int) -> complex:
    """Sum of Lambda(q*m + a) e(gamma*k*m) over 1 <= m <= M."""
    if k == 0:
        raise ValueError("frequency k must be nonzero")
    return _phase_sums(table, r.q * M + r.a, r, r.q + r.a, [(gamma * k, True)])[0][0]


def exp_sum_ap(table: MangoldtTable, M: int, r: ResidueClass,
               gamma: Irrational, k: int) -> complex:
    """Sum of Lambda(m) e(gamma*k*m) over m <= M with m congruent to a mod q."""
    if k == 0:
        raise ValueError("frequency k must be nonzero")
    return _phase_sums(table, M, r, 2, [(gamma * k, False)])[0][0]


class SubstitutionCheck(NamedTuple):
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
    theta = (gamma * k) / r.q
    # n == a mod q with n > a is n >= q + a: both sides read the same records
    lhs, tail = _phase_sums(table, r.q * M + r.a, r, r.q + r.a,
                            [(gamma * k, True), (theta, False)])[0]
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


class BoundRatioRow(NamedTuple):
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
    abs_sum = abs(_phase_sums(table, L, r, 2, [(theta, False)])[0][0])
    rows = []
    # q_k = a_k*q_(k-1) + q_(k-2) rises from q_1 on: only q_1 = q_0 = 1 repeats
    for _, num, den, _ in cf_walk(theta):
        if den > cap:
            break
        if rows and den == rows[-1].den:
            continue
        bound = progression_sum_bound(L, den)
        # |theta - num/den| <= 1/L  <=>  |theta*den*L - num*L| <= den
        diff = (theta * (den * L)) - num * L
        ok = -den <= diff <= den
        rows.append(BoundRatioRow(den, num, abs_sum, bound, abs_sum / bound, ok))
    return rows


# -- extreme discrepancy ---------------------------------------------------

def _exact_top(vals: np.ndarray, cnt: np.ndarray, M: int, sign: int) -> Fraction:
    """max of sign*(cnt - M*v) over the points v, exactly: with m the 53-bit
    mantissa and e the exponent of each v (np.frexp), v*2^k = m*2^(e - e_min)
    for k = 53 - e_min, so every term is a Python int over 2^k."""
    f, e = np.frexp(vals)
    e_min = int(e.min())
    k = 53 - e_min
    terms = zip(cnt.tolist(), np.ldexp(f, 53).astype(np.int64).tolist(),
                (e - e_min).tolist())
    return Fraction(max(sign * ((c << k) - M * (m << s)) for c, m, s in terms),
                    1 << k)


def discrepancy(points) -> float:
    """Extreme discrepancy over open subintervals (c, d) of [0, 1), exactly.

    With M points sorted as x_0 <= ... <= x_(M-1), put a_i = (i + 1) - M*x_i
    and b_i = M*x_i - i; then M*D = max a + max b, which is D = 1/M +
    max(j/M - x) - min(j/M - x) over the points x of rank j = 1..M (Kuipers
    and Niederreiter, Uniform Distribution of Sequences, 1974, ch. 2,
    sec. 1).  In a run of points equal to v, a peaks at its last point, at
    a(v) = leq(v) - M*v with leq(v) the points <= v, b at its first, at
    b(v) = M*v - less(v) with less(v) the points < v, and every other term
    of the run is smaller by a whole number: ties need no case of their
    own.  Every pair of values is an interval: for 0 < w <= v, (c, d)
    closing in on w..v has excess tending to a(v) + b(w); for w > v, (v, w)
    has deficiency a(v) + b(w); for w = 0, b(w) = 0 and a(v) is the
    deficiency of (v, 1).  No interval does better: an end at 0 adds the
    number of points at 0, which is a(0) if 0 occurs and 0 < max a
    otherwise (the last a is M - M*x > 0); an end at 1 adds the term
    0 <= M*x_0 = b_0.  The points are read flat, whatever their shape.

    One sort (discrepancy_beatty sorts the kernel's array in place), checked
    by its two ends, then one sweep of _BLOCK points at a time.  It forms a
    block's indices i, a and b afresh in float64 and keeps the points whose
    a, or b, lies within the slack of the running maximum of a, or of b.

    Float filter: with u = 2^-53 and M < 2^53, fl(M*x) is within u*M of
    M*x and the subtraction from a count (|term| <= M) adds at most u*M,
    so each float term is within e = 2u*M of its exact value.  The exact
    maximiser's float term is then >= T - 2e, for T the float maximum at
    any point of the sweep; the slack 8u*M covers 2e and the rounding of
    T - 8u*M, so both maximisers are kept.  A point kept against a running
    maximum that later rises only costs its share of the rescan.

    Exact rescan: _exact_top takes each side's maximum over its kept
    points in Python ints, on a dyadic grid that doubles lie on exactly,
    and D is (A + B)/M rounded once to a double.  Near-ties keep more
    points, at worst all of them (on the grid k/2^18 every a is 1 and
    every b 0: 0.14-0.16 s and 136 bytes a point), at O(M) integer cost;
    the sort makes it O(M log M) overall.

    Memory: one block's arrays beyond the sorted points, plus the kept
    points.  At M = 2^19 (tracemalloc) discrepancy holds 9.9 bytes a
    point, 8 of them its sorted copy, and discrepancy_beatty 11.5, where
    the kernel's block of limbs sets the peak.
    """
    return _scan(np.sort(np.asarray(points, np.float64), axis=None))


def _kept(xs: np.ndarray):
    """The float filter over sorted, valid points: for a (with the count
    i + 1) and then for b (with i), the points and counts whose float term
    lies within the slack of the running maximum."""
    M = int(xs.size)
    slack = M * 2.0 ** -50
    top = [-np.inf, -np.inf]
    kept = ([], [])
    for p0 in range(0, M, _BLOCK):
        x = xs[p0:p0 + _BLOCK]
        i = np.arange(p0, p0 + x.size)
        j, mx = i + 1, M * x
        a = j - mx
        b = np.subtract(mx, i, out=mx)
        for side, t, cnt in ((0, a, j), (1, b, i)):
            top[side] = max(top[side], t.max())
            at = t >= top[side] - slack
            kept[side].append((x[at], cnt[at]))
    return [tuple(map(np.concatenate, zip(*parts))) for parts in kept]


def _scan(xs: np.ndarray) -> float:
    """Discrepancy of sorted points, checked by their two ends (NaN sorts
    last)."""
    if xs.size == 0:
        raise ValueError("need at least one sample point")
    if not (xs[0] >= 0.0 and xs[-1] < 1.0):
        raise PointOutOfRange("sample points must lie in [0, 1)")
    M = int(xs.size)
    A, B = (_exact_top(vals, cnt, M, sign)
            for (vals, cnt), sign in zip(_kept(xs), (1, -1)))
    return float((A + B) / M)


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
    return _scan(fr)


def decay_exponent(D: float, M: int) -> float:
    """log D / log M, the empirical decay rate; 0 at the trivial depth M = 1."""
    if M < 1:
        raise ValueError("M must be >= 1")
    if M == 1:
        return 0.0
    return math.log(D) / math.log(M)
