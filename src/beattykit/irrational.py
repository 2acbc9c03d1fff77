"""Number types and continued-fraction operations for Beatty parameters.

Two interchangeable backends represent every real parameter:

* QuadraticSurd, exact elements (p + sqrt(d))/q of a real quadratic field,
  where floors, comparisons and membership tests are certified by integer
  arithmetic alone;
* PrecisionReal, a decimal literal carried as an exact rational center with
  an error radius 2**-bits.  A decision is made only when the whole interval
  agrees on it; otherwise AmbiguousFloor or PrecisionExhausted is raised
  instead of silently guessing.

On top sit the shared operations: affine floors, continued-fraction
expansion with convergents (and period detection for surds), the best
convergent below a denominator bound, and an empirical estimate of the
irrationality type from how well convergents approximate.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Union

import numpy as np

from .errors import (AmbiguousFloor, IrrationalParseError, NotPositive,
                     PrecisionExhausted)
from .surd import (QuadraticSurd, exact_floor, fixed_point_floor_frac,
                   to_fixed_point)

__all__ = ["PrecisionReal", "Irrational", "ContinuedFraction", "TypeEstimate",
           "parse_irrational", "as_exact_ratio", "floor_affine", "cf_expand",
           "cf_reaching", "best_convergent_below", "estimate_type"]

_ONE_BELOW = math.nextafter(1.0, 0.0)


def as_exact_ratio(x) -> Fraction:
    """Exact rational from int, Fraction, or decimal string.

    Floats are read through their shortest decimal representation, so 0.3
    means 3/10 here, not the nearest binary double.  Pass a Fraction when
    that convention is not what you want.
    """
    if isinstance(x, float):
        return Fraction(repr(x))
    return Fraction(x)


class PrecisionReal:
    """A real number known to lie within +-radius of an exact rational center.

    The constructor takes a decimal literal and a bit count; the radius
    starts at 2**-bits and every arithmetic operation propagates it
    outward exactly (rational interval arithmetic, no hidden rounding).
    """

    __slots__ = ("center", "radius")

    def __init__(self, text, bits: int = 160):
        if bits < 1:
            raise ValueError("precision must be at least 1 bit")
        self.center = as_exact_ratio(text)
        self.radius = Fraction(1, 1 << bits)

    @classmethod
    def _from_interval(cls, center: Fraction, radius: Fraction) -> "PrecisionReal":
        out = object.__new__(cls)
        out.center, out.radius = center, radius
        return out

    def interval(self):
        return self.center - self.radius, self.center + self.radius

    # -- arithmetic (rational operands and intervals only) ----------------

    def __add__(self, other):
        if isinstance(other, PrecisionReal):
            return self._from_interval(self.center + other.center,
                                       self.radius + other.radius)
        return self._from_interval(self.center + as_exact_ratio(other), self.radius)

    __radd__ = __add__

    def __neg__(self):
        return self._from_interval(-self.center, self.radius)

    def __sub__(self, other):
        return self + (-other if isinstance(other, PrecisionReal) else -as_exact_ratio(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, PrecisionReal):
            lo1, hi1 = self.interval()
            lo2, hi2 = other.interval()
            corners = [lo1 * lo2, lo1 * hi2, hi1 * lo2, hi1 * hi2]
            lo, hi = min(corners), max(corners)
            return self._from_interval((lo + hi) / 2, (hi - lo) / 2)
        f = as_exact_ratio(other)
        return self._from_interval(self.center * f, self.radius * abs(f))

    __rmul__ = __mul__

    def inverse(self) -> "PrecisionReal":
        lo, hi = self.interval()
        if lo <= 0 <= hi:
            raise PrecisionExhausted(
                f"cannot invert a value whose interval [{float(lo)}, {float(hi)}] straddles zero")
        lo2, hi2 = 1 / hi, 1 / lo
        return self._from_interval((lo2 + hi2) / 2, (hi2 - lo2) / 2)

    def __truediv__(self, other):
        if isinstance(other, PrecisionReal):
            return self * other.inverse()
        return self * (1 / as_exact_ratio(other))

    # -- certified decisions ----------------------------------------------

    def sign(self) -> int:
        lo, hi = self.interval()
        if lo > 0:
            return 1
        if hi < 0:
            return -1
        raise PrecisionExhausted(
            f"sign of value near {float(self.center)} not certified at radius {float(self.radius)}")

    def is_positive(self) -> bool:
        return self.sign() > 0

    def _cmp(self, other) -> int:
        return (self - other).sign()

    def __lt__(self, other):
        return self._cmp(other) < 0

    def __le__(self, other):
        return self._cmp(other) <= 0

    def __gt__(self, other):
        return self._cmp(other) > 0

    def __ge__(self, other):
        return self._cmp(other) >= 0

    def floor(self) -> int:
        lo, hi = self.interval()
        flo, fhi = lo.__floor__(), hi.__floor__()
        if flo != fhi:
            raise AmbiguousFloor(
                f"floor of value near {float(self.center)} undecidable at radius {float(self.radius)}")
        return flo

    __floor__ = floor

    def floor_frac(self):
        t = self.floor()
        r = float(self.center - t)
        return t, min(max(r, 0.0), _ONE_BELOW)

    # -- affine evaluation -------------------------------------------------

    def affine_floor_frac(self, n: int, eta=0):
        x = self * n + eta
        return x.floor_frac()

    def fixed_point(self, eta=0):
        """(I, F, J, G, e_theta, e_eta): the centers to 128 bits by exact
        division, each off by one unit of 2**-128 plus its radius rounded up."""
        if not isinstance(eta, PrecisionReal):
            eta = self._from_interval(as_exact_ratio(eta), 0)
        c, e = self.center, eta.center
        return (*to_fixed_point(c.numerator, 0, c.denominator),
                *to_fixed_point(e.numerator, 0, e.denominator),
                *(2 + (r.numerator << 128) // r.denominator for r in (self.radius, eta.radius)))

    def affine_floor_frac_many(self, ns, eta=0):
        """(floors, fracs, frac error bound) of self*n + eta over integer ns.

        The fixed-point kernel certifies floors against max|n|*(radius +
        2**-128) + eta's radius; other points (and n < 0) go through
        affine_floor_frac, which raises AmbiguousFloor on a straddle.
        """
        return fixed_point_floor_frac(self.fixed_point(eta), ns,
                                      lambda n: self.affine_floor_frac(n, eta))

    def phases_many(self, ns, eta=0):
        """Fractional parts of center*n + eta's center over integer ns.

        They are within |n|*(radius + 2**-128) + eta's radius of the true
        phases, plus rounding; PrecisionExhausted when that exceeds 1e-12
        of a turn at the largest |n|.
        """
        ns, parts = np.asarray(ns, dtype=np.int64), self.fixed_point(eta)
        nmax = max(-int(ns.min()), int(ns.max())) if ns.size else 0
        if nmax * parts[4] + parts[5] > (1 << 128) // 10 ** 12:    # 1e-12 turn
            raise PrecisionExhausted(f"phases to |n| = {nmax} uncertain beyond 1e-12"
                                     f" of a turn at radius {float(self.radius)}")
        center = self._from_interval(self.center, 0)
        eta = eta.center if isinstance(eta, PrecisionReal) else eta
        return fixed_point_floor_frac(parts, ns, lambda n: center.affine_floor_frac(n, eta),
                                      floors=False)[1]

    # -- conversions -------------------------------------------------------

    def __float__(self):
        return float(self.center)

    def __repr__(self):
        return f"PrecisionReal({float(self.center)} +- {float(self.radius):.3g})"


Irrational = Union[QuadraticSurd, PrecisionReal]

_SQRT_RE = re.compile(r"sqrt:(\d+)\Z")
_QUAD_RE = re.compile(r"quad:(-?\d+)/(-?\d+)\+sqrt:(\d+)\Z")
_DEC_RE = re.compile(r"dec:([+-]?\d+(?:\.\d+)?)(?:@(\d+))?\Z")


def parse_irrational(text: str, default_bits: int = 160) -> Irrational:
    """Parse sqrt:<d>, quad:<p>/<q>+sqrt:<d>, or dec:<digits>[@<bits>].

    Total on strings: anything malformed (including square radicands, which
    would be rational) raises IrrationalParseError with a reason.
    """
    text = text.strip()
    m = _SQRT_RE.match(text)
    if m:
        return _build_surd(0, 1, int(m.group(1)), text)
    m = _QUAD_RE.match(text)
    if m:
        return _build_surd(int(m.group(1)), int(m.group(2)), int(m.group(3)), text)
    m = _DEC_RE.match(text)
    if m:
        bits = int(m.group(2)) if m.group(2) else default_bits
        if bits < 1:
            raise IrrationalParseError(f"{text!r}: precision must be >= 1 bit")
        return PrecisionReal(m.group(1), bits)
    raise IrrationalParseError(
        f"{text!r} is not sqrt:<d>, quad:<p>/<q>+sqrt:<d>, or dec:<digits>@<bits>")


def _build_surd(p, q, d, text):
    if q == 0:
        raise IrrationalParseError(f"{text!r}: zero denominator")
    if d <= 0:
        raise IrrationalParseError(f"{text!r}: radicand must be positive")
    try:
        return QuadraticSurd(p, q, d)
    except ValueError as exc:
        raise IrrationalParseError(f"{text!r}: {exc}") from None


def floor_affine(alpha: Irrational, n: int, beta=0):
    """floor(alpha*n + beta) with an accurate fractional part, for n >= 0."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if not alpha.is_positive():
        raise NotPositive("alpha must be positive")
    return alpha.affine_floor_frac(n, _as_offset(beta, alpha))


def _as_offset(beta, alpha):
    if isinstance(beta, (QuadraticSurd, PrecisionReal)):
        return beta
    return as_exact_ratio(beta)


# -- continued fractions ---------------------------------------------------

@dataclass
class ContinuedFraction:
    """Partial quotients a_0..a_K with convergents p_i/q_i in lowest terms.

    For quadratic surds, period = (start, length) marks the detected cycle
    of the expansion; it is None for decimal-backed values.
    """
    quotients: list
    convergents: list
    period: Optional[tuple] = None

    @property
    def depth(self) -> int:
        return len(self.quotients) - 1


def cf_expand(gamma: Irrational, K: int) -> ContinuedFraction:
    """K+1 partial quotients of gamma, with convergents.

    Surds use the exact periodic algorithm on (P + sqrt(D))/Q states; decimal
    values walk the interval version and raise PrecisionExhausted at the
    depth where the carried radius no longer determines a quotient.
    """
    if K < 0:
        raise ValueError("K must be >= 0")
    if isinstance(gamma, QuadraticSurd):
        quotients, period = _cf_surd(gamma, K)
    else:
        quotients, period = _cf_interval(gamma, K), None
    convergents = []
    p1, p2 = 1, 0
    q1, q2 = 0, 1
    for a in quotients:
        p1, p2 = a * p1 + p2, p1
        q1, q2 = a * q1 + q2, q1
        convergents.append((p1, q1))
    return ContinuedFraction(quotients, convergents, period)


def _cf_surd(gamma: QuadraticSurd, K: int):
    # state x_i = (P + sqrt(D)) / Q with Q | D - P*P
    if gamma.v > 0:
        P, D, Q = gamma.u, gamma.v * gamma.v * gamma.d, gamma.w
    else:
        P, D, Q = -gamma.u, gamma.v * gamma.v * gamma.d, -gamma.w
    if (D - P * P) % Q:
        P, D, Q = P * abs(Q), D * Q * Q, Q * abs(Q)
    quotients = []
    seen = {}
    period = None
    for i in range(K + 1):
        if period is None:
            key = (P, Q)
            if key in seen:
                period = (seen[key], i - seen[key])
            else:
                seen[key] = i
        a = exact_floor(P, 1, Q, D)
        quotients.append(a)
        P = a * Q - P
        Q = (D - P * P) // Q
    return quotients, period


def _cf_interval(gamma: PrecisionReal, K: int):
    lo, hi = gamma.interval()
    quotients = []
    for i in range(K + 1):
        a_lo, a_hi = lo.__floor__(), hi.__floor__()
        if a_lo != a_hi:
            raise PrecisionExhausted(
                f"continued fraction undetermined at depth {i}: interval spans a quotient boundary")
        quotients.append(a_lo)
        lo, hi = lo - a_lo, hi - a_lo
        if i == K:
            break
        if lo <= 0:
            raise PrecisionExhausted(
                f"continued fraction undetermined at depth {i}: fractional part may vanish")
        lo, hi = 1 / hi, 1 / lo
    return quotients


def cf_reaching(gamma: Irrational, q: int) -> ContinuedFraction:
    """The expansion of gamma at the first depth K = 8, 16, ..., 8192 whose
    last convergent denominator is >= q; depth 8192 if none is."""
    K = 8
    while True:
        cf = cf_expand(gamma, K)
        if cf.convergents[-1][1] >= q or K > 4096:
            return cf
        K *= 2


def best_convergent_below(theta: Irrational, max_den: int):
    """The convergent p/q of theta with the largest q <= max_den.

    Classical best-approximation property then gives
    |theta - p/q| < 1 / (q * q_next) <= 1 / (q * max_den).
    """
    if max_den < 1:
        raise ValueError("denominator bound must be >= 1")
    cf = cf_reaching(theta, max_den + 1)
    if cf.convergents[-1][1] <= max_den:
        raise PrecisionExhausted(
            f"convergent denominators plateau below {max_den}")
    best = cf.convergents[0]
    for p, q in cf.convergents:
        if q > max_den:
            break
        best = (p, q)
    return best


# -- irrationality type ----------------------------------------------------

@dataclass
class TypeEstimate:
    """Finite-depth evidence about the irrationality type of a number.

    samples holds (q_k, e_k) with e_k = -log ||gamma*q_k|| / log q_k over
    convergent denominators; tau_hat extrapolates the trend of e_k against
    1/log q_k to depth infinity and is clamped at 1, the floor forced by
    Dirichlet's theorem.  This is an estimate built from finitely many
    denominators, not a certificate of the true type.
    """
    samples: list
    tau_hat: float
    depth: int


def estimate_type(gamma: Irrational, K: Optional[int] = None) -> TypeEstimate:
    """Estimate the irrationality type from convergent denominators.

    With K omitted, the expansion is deepened until q_K >= 10**6.
    """
    if K is None:
        cf = cf_reaching(gamma, 10 ** 6)
        # trim to the first depth that reaches the target
        depth = next(i for i, (_, q) in enumerate(cf.convergents)
                     if q >= 10 ** 6 or i == len(cf.convergents) - 1)
        cf = ContinuedFraction(cf.quotients[:depth + 1],
                               cf.convergents[:depth + 1], cf.period)
    else:
        cf = cf_expand(gamma, K)
    samples = []
    for _, q in cf.convergents:
        if q < 2:
            continue
        fr = gamma.phases_many([q])[0]
        dist = min(fr, 1.0 - fr)
        if dist <= 0.0:
            raise PrecisionExhausted(
                f"gamma*{q} lands on an integer at working precision; type undefined")
        samples.append((q, -math.log(dist) / math.log(q)))
    eligible = [(q, e) for q, e in samples if q >= 10]
    if len(eligible) >= 3:
        xs = np.array([1.0 / math.log(q) for q, _ in eligible])
        ys = np.array([e for _, e in eligible])
        slope, intercept = np.polyfit(xs, ys, 1)
        tau_hat = max(1.0, float(intercept))
    elif eligible:
        tau_hat = max(1.0, max(e for _, e in eligible))
    else:
        tau_hat = 1.0
    return TypeEstimate(samples, tau_hat, cf.depth)
