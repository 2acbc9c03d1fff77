"""Number types and continued-fraction operations for Beatty parameters.

Two interchangeable backends represent every real parameter:

* QuadraticSurd, exact elements (p + sqrt(d))/q of a real quadratic field,
  where floors, comparisons and membership tests are certified by integer
  arithmetic alone;
* PrecisionReal, a decimal literal carried as an exact rational center with
  an error radius 2**-bits.  A decision is made only when the whole interval
  agrees on it; otherwise AmbiguousFloor or PrecisionExhausted is raised
  instead of silently guessing.

Both derive from Irrational (in surd.py, re-exported here).  On top sit the
shared operations: affine floors, and one lazy continued-fraction walk,
cf_walk (exact and endless for a surd; a decimal's stops at the first
quotient its radius leaves undetermined), from which cf_expand, the best
convergent below a denominator bound and the type estimate each take as
many steps as they need.
"""

from __future__ import annotations

import itertools
import math
import re
from fractions import Fraction
from typing import NamedTuple, Optional

import numpy as np

from .errors import (AmbiguousFloor, IrrationalParseError, NotPositive,
                     PrecisionExhausted)
from .surd import (_ONE_BELOW, Irrational, QuadraticSurd, _conj_bits,
                   exact_floor, fixed_point_floor_frac, to_fixed_point)

__all__ = ["PrecisionReal", "Irrational", "ContinuedFraction", "TypeEstimate",
           "parse_irrational", "as_exact_ratio", "floor_affine", "cf_walk",
           "cf_expand", "best_convergent_below", "estimate_type", "DEFAULT_BITS"]

DEFAULT_BITS = 160  # a dec: literal's precision when it carries no @bits
# a dec: literal's largest @bits: 2^16 bits cost a count sweep no more than
# 200 do, and 1 << bits past it can exhaust memory
_MAX_BITS = 1 << 16


def as_exact_ratio(x) -> Fraction:
    """Exact rational from int, Fraction, or decimal string.

    Floats are read through their shortest decimal representation, so 0.3
    means 3/10 here, not the nearest binary double.  Pass a Fraction when
    that convention is not what you want.
    """
    if isinstance(x, float):
        return Fraction(repr(x))
    return Fraction(x)


class PrecisionReal(Irrational):
    """A real number known to lie within +-radius of an exact rational center.

    The constructor takes a decimal literal and a bit count, 1 to _MAX_BITS;
    the radius starts at 2**-bits and every arithmetic operation propagates
    it outward exactly (rational interval arithmetic, no hidden rounding).
    """

    __slots__ = ("center", "radius")

    def __init__(self, text, bits: int = DEFAULT_BITS):
        if not 1 <= bits <= _MAX_BITS:
            raise ValueError(f"precision must be 1 to {_MAX_BITS} bits")
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
        return (self * n + eta).floor_frac()

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
        2**-128) + eta's radius; other points go through affine_floor_frac,
        which raises AmbiguousFloor on a straddle.
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


_SQRT_RE = re.compile(r"sqrt:(\d+)\Z")
_QUAD_RE = re.compile(r"quad:(-?\d+)/(-?\d+)\+sqrt:(\d+)\Z")
_DEC_RE = re.compile(r"dec:([+-]?\d+(?:\.\d+)?)(?:@(\d+))?\Z")


def parse_irrational(text: str) -> Irrational:
    """Parse sqrt:<d>, quad:<p>/<q>+sqrt:<d>, or dec:<digits>[@<bits>], a
    decimal carried at DEFAULT_BITS bits when it names none.

    Total on strings: anything malformed (including square radicands, which
    would be rational) raises IrrationalParseError with a reason.
    """
    text = text.strip()
    shown = repr(text[:60]) + ("..." if len(text) > 60 else "")  # literals run long
    try:    # ValueError: a square radicand, bad @bits, a literal past int()'s limit
        m = _SQRT_RE.match(text)
        if m:
            return QuadraticSurd(0, 1, int(m.group(1)))
        m = _QUAD_RE.match(text)
        if m:
            return QuadraticSurd(*map(int, m.groups()))
        m = _DEC_RE.match(text)
        if m:
            return PrecisionReal(m.group(1), int(m.group(2) or DEFAULT_BITS))
    except (ValueError, ZeroDivisionError) as exc:
        raise IrrationalParseError(f"{shown}: {exc}") from None
    raise IrrationalParseError(
        f"{shown} is not sqrt:<d>, quad:<p>/<q>+sqrt:<d>, or dec:<digits>@<bits>")


def floor_affine(alpha: Irrational, n: int, beta=0):
    """floor(alpha*n + beta) with an accurate fractional part, for n >= 0."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if not alpha.is_positive():
        raise NotPositive("alpha must be positive")
    return alpha.affine_floor_frac(n, _as_offset(beta))


def _as_offset(beta):
    return beta if isinstance(beta, Irrational) else as_exact_ratio(beta)


# -- continued fractions ---------------------------------------------------

class ContinuedFraction(NamedTuple):
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


def cf_walk(gamma: Irrational):
    """(a_i, p_i, q_i, state) for i = 0, 1, 2, ...: the partial quotients of
    gamma with its convergents p_i/q_i in lowest terms, one step at a time.

    Surds step exactly through states (P + sqrt(D))/Q, state = (P, Q), and
    walk forever.  Decimals step through the interval (state None) and
    raise PrecisionExhausted when asked for the first quotient the carried
    radius leaves undetermined, never earlier.
    """
    steps = _cf_surd(gamma) if isinstance(gamma, QuadraticSurd) else _cf_interval(gamma)
    p1, p2, q1, q2 = 1, 0, 0, 1
    for a, state in steps:
        p1, p2 = a * p1 + p2, p1
        q1, q2 = a * q1 + q2, q1
        yield a, p1, q1, state


def _cf_surd(gamma: QuadraticSurd):
    # state x_i = (P + sqrt(D)) / Q with Q | D - P*P
    if gamma.v > 0:
        P, D, Q = gamma.u, gamma.v * gamma.v * gamma.d, gamma.w
    else:
        P, D, Q = -gamma.u, gamma.v * gamma.v * gamma.d, -gamma.w
    if (D - P * P) % Q:
        P, D, Q = P * abs(Q), D * Q * Q, Q * abs(Q)
    while True:
        a = exact_floor(P, 1, Q, D)
        yield a, (P, Q)
        P = a * Q - P
        Q = (D - P * P) // Q


def _cf_interval(gamma: PrecisionReal):
    lo, hi = gamma.interval()
    for i in itertools.count():
        a = lo.__floor__()
        if a != hi.__floor__():
            raise PrecisionExhausted(
                f"continued fraction undetermined at depth {i}: interval spans a quotient boundary")
        yield a, None
        lo, hi = lo - a, hi - a
        if lo <= 0:
            raise PrecisionExhausted(f"continued fraction undetermined at depth {i + 1}:"
                                     f" the remainder after depth {i} may vanish")
        lo, hi = 1 / hi, 1 / lo


def cf_expand(gamma: Irrational, K: int) -> ContinuedFraction:
    """K+1 steps of cf_walk, with the period of a surd's expansion read off
    the first repeated state."""
    if K < 0:
        raise ValueError("K must be >= 0")
    quotients, convergents, period, seen = [], [], None, {}
    for i, (a, p, q, state) in enumerate(itertools.islice(cf_walk(gamma), K + 1)):
        quotients.append(a)
        convergents.append((p, q))
        if period is None and state is not None:
            first = seen.setdefault(state, i)
            if first < i:
                period = (first, i - first)
    return ContinuedFraction(quotients, convergents, period)


def best_convergent_below(theta: Irrational, max_den: int):
    """The convergent p/q of theta with the largest q <= max_den.

    Classical best-approximation property then gives
    |theta - p/q| < 1 / (q * q_next) <= 1 / (q * max_den).
    """
    if max_den < 1:
        raise ValueError("denominator bound must be >= 1")
    for _, p, q, _ in cf_walk(theta):    # q_0 = 1, so best is set first
        if q > max_den:
            return best
        best = p, q


# -- irrationality type ----------------------------------------------------

class TypeEstimate(NamedTuple):
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


def _rational_near(x: Irrational) -> Fraction:
    """A rational within 2**-48 of x > 0, relatively: a surd rounded once, as
    x > 2**-b for b = surd._conj_bits; a decimal's center, or
    PrecisionExhausted if its radius is wider."""
    if isinstance(x, QuadraticSurd):
        return x.approx_fraction(_conj_bits(x.u, x.v, x.w, x.d) + 48)
    if x.radius * (1 << 48) > x.center:
        raise PrecisionExhausted(f"{float(x.center):.3g} is not certified to 2**-48"
                                 f" of itself at radius {float(x.radius):.3g}")
    return x.center


def estimate_type(gamma: Irrational, K: Optional[int] = None) -> TypeEstimate:
    """Estimate the irrationality type from convergent denominators.

    The walk stops at depth K, or with K omitted at the first q_K >= 10**6.
    """
    if K is not None and K < 0:
        raise ValueError("K must be >= 0")
    samples, steps = [], None if K is None else K + 1
    for depth, (_, p, q, _) in enumerate(itertools.islice(cf_walk(gamma), steps)):
        if q >= 2:    # ||gamma*q|| = |gamma*q - p|, which has the sign (-1)**depth
            dist = _rational_near(gamma * q - p if depth % 2 == 0 else p - gamma * q)
            samples.append((q, (math.log(dist.denominator)
                                - math.log(dist.numerator)) / math.log(q)))
        if K is None and q >= 10 ** 6:
            break
    eligible = [(q, e) for q, e in samples if q >= 10]
    if len(eligible) >= 3:
        xs = np.array([1.0 / math.log(q) for q, _ in eligible])
        ys = np.array([e for _, e in eligible])
        slope, intercept = np.polyfit(xs, ys, 1)
        tau_hat = max(1.0, float(intercept))
    else:
        tau_hat = max([1.0] + [e for _, e in eligible])
    return TypeEstimate(samples, tau_hat, depth)
