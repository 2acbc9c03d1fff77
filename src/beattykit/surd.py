"""Exact arithmetic in real quadratic fields.

A value is stored as (u + v*sqrt(d)) / w with integers u, v, w and a
squarefree radicand d > 1.  Canonical form has w > 0, gcd(u, v, w) = 1 and
v != 0, so equality is structural and every sign, comparison and floor
decision reduces to integer arithmetic.  Nothing is rounded until a float
is explicitly requested, and the floats we do hand out (fractional parts,
phases) are accurate to a few ulp because the integer part is removed
exactly first.

The module also hosts the bulk kernel of both backends: theta and the offset
as 128-bit fixed-point values, F*n formed exactly, and an error bound of
n*2**-128 (isqrt truncation), plus n*radius for decimals.  Points within the
bound of an integer go to the exact scalar kernel, so floors are exact.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .errors import FloorOutOfRange

__all__ = ["QuadraticSurd", "make_real", "squarefree_split", "exact_floor",
           "exact_floor_frac", "to_fixed_point",
           "fixed_point_floor_frac"]

_ONE_BELOW = math.nextafter(1.0, 0.0)
_ONE, _M64, _BLOCK = 1 << 128, (1 << 64) - 1, 1 << 16
_LO32, _S32 = np.uint64(0xFFFFFFFF), np.uint64(32)


def squarefree_split(d: int):
    """Write d = f*f*d0 with d0 squarefree; returns (f, d0).

    Trial division stops at p = 2^20 (0.3 s on a 2-vCPU VM); a d0 with
    p*p <= d0 still is refused with ValueError, not factored for days.
    """
    if d <= 0:
        raise ValueError("radicand must be positive")
    f, d0, p = 1, d, 2
    while p * p <= d0:
        if p > 1 << 20:
            raise ValueError("squarefree part of the radicand undecided "
                             "by trial division to 2^20")
        q, r = divmod(d0, p * p)
        if r == 0:
            d0, f = q, f * p
            continue
        p += 1 if p == 2 else 2
    return f, d0


def _cmp_c_vsqrt(c: int, v: int, d: int) -> int:
    """Sign of c - v*sqrt(d); nonzero whenever v != 0 since d is not a square."""
    if v == 0:
        return (c > 0) - (c < 0)
    if v > 0:
        if c <= 0:
            return -1
        a, b = c * c, v * v * d
        return (a > b) - (a < b)
    if c >= 0:
        return 1
    a, b = c * c, v * v * d
    return (b > a) - (b < a)


def exact_floor(U: int, V: int, W: int, d: int) -> int:
    """floor((U + V*sqrt(d)) / W) by pure integer arithmetic."""
    if W < 0:
        U, V, W = -U, -V, -W
    if V == 0:
        return U // W
    s = math.isqrt(V * V * d)
    # bracket the numerator in a unit interval, then fix up exactly
    lo = U + s if V > 0 else U - s - 1
    t = lo // W
    while _cmp_c_vsqrt((t + 1) * W - U, V, d) < 0:
        t += 1
    while _cmp_c_vsqrt(t * W - U, V, d) > 0:
        t -= 1
    return t


def _frac_from_parts(Ur: int, V: int, W: int, d: int) -> float:
    # value (Ur + V*sqrt(d)) / W already known to lie in [0, 1)
    if V == 0:
        return Ur / W
    vvd = V * V * d
    s = math.isqrt(vvd)
    num = vvd - s * s
    # sqrt(vvd) = s + rho with rho = num / (s + sqrt(vvd)); the ratio num/s**2
    # is small enough to evaluate in floats at every scale
    rho = num / (s + s * math.sqrt(1.0 + num / s / s))
    if V > 0:
        r = (Ur + s + rho) / W
    else:
        r = (Ur - s - 1 + (1.0 - rho)) / W
    if r >= 1.0:
        return _ONE_BELOW
    return 0.0 if r < 0.0 else r


def exact_floor_frac(U: int, V: int, W: int, d: int):
    """(floor, frac) of (U + V*sqrt(d)) / W; the frac is a float in [0, 1)."""
    if W < 0:
        U, V, W = -U, -V, -W
    t = exact_floor(U, V, W, d)
    return t, _frac_from_parts(U - t * W, V, W, d)


def to_fixed_point(U: int, V: int, W: int, d: int = 0, bits: int = 128):
    """(I, F) with I + F/2**bits within 2**-bits of (U + V*sqrt(d))/W, W != 0,
    taking V*sqrt(d) as the isqrt of V*V*d*4**bits, signed like V."""
    s = math.isqrt(V * V * d << 2 * bits)
    return divmod(((U << bits) + (s if V > 0 else -s)) // W, 1 << bits)


def _mul_wide(a, b):
    """(high, low) limbs of the 128-bit products a*b, b a uint64 scalar; the
    high limb is built from 32-bit halves (Granlund & Montgomery, PLDI 1994)."""
    a0, a1 = a & _LO32, a >> _S32
    b0, b1 = b & _LO32, b >> _S32
    p00, p01, p10 = a0 * b0, a0 * b1, a1 * b0
    mid = (p00 >> _S32) + (p01 & _LO32) + (p10 & _LO32)
    return a1 * b1 + (p01 >> _S32) + (p10 >> _S32) + (mid >> _S32), a * b


def fixed_point_floor_frac(parts, ns, exact, floors: bool = True):
    """(floors, fracs, err) of theta*n + eta over an int64 array.

    parts = (I, F, J, G, e_theta, e_eta) from a backend's fixed_point:
    theta = I + F/2**128 and eta = J + G/2**128 within e units of 2**-128.
    F*n + G is formed exactly in uint64 limbs, 2**16 points at a time; a
    point whose fraction lies within the bound max|n|*e_theta + e_eta units
    of an integer, or with n < 0, takes (floor, frac) from exact(n).  Floors
    are exact (FloorOutOfRange outside int64; None with floors=False); err is the
    bound plus float rounding.
    """
    I, F, J, G, e_theta, e_eta = parts
    ns = np.asarray(ns, dtype=np.int64)
    if ns.size == 0:
        return np.empty(0, np.int64) if floors else None, np.empty(0), 0.0
    lo_i, hi_i = int(ns.argmin()), int(ns.argmax())
    bound = max(-int(ns[lo_i]), int(ns[hi_i])) * e_theta + e_eta
    # certified fractions lie in [b, 2**128 - b), empty once b >= 2**127
    F1, F0, G1, G0, B1, B0 = (np.uint64(x >> k & _M64) for x in
                              (F, G, min(bound, _ONE >> 1)) for k in (64, 0))
    carry, fracs = np.empty(ns.size, np.int64), np.empty(ns.size)
    for s in range(0, ns.size, _BLOCK):
        nb = ns[s:s + _BLOCK]
        m = nb.view(np.uint64)
        # F*m + G = c*2**128 + hi*2**64 + lo, exactly
        h0, lo = _mul_wide(m, F0)
        h1, l1 = _mul_wide(m, F1)
        hi = l1 + h0
        c = h1 + (hi < l1)
        lo, hi_g = lo + G0, hi + G1
        c += hi_g < hi
        hi = hi_g + (lo < G0)
        c += hi < hi_g
        ok = (hi > B1) | ((hi == B1) & (lo >= B0))
        ok &= (hi < ~B1) | ((hi == ~B1) & (lo <= ~B0))
        carry[s:s + nb.size] = c.view(np.int64)
        fracs[s:s + nb.size] = np.minimum(hi * 2.0 ** -64, _ONE_BELOW)
        for i in np.flatnonzero(~(ok & (nb >= 0))).tolist():
            n = int(nb[i])
            fl, fracs[s + i] = exact(n)
            carry[s + i] = fl - I * n - J
    # 5e-16 covers float rounding here (2**-53) and in the exact kernels
    err = bound / _ONE + 5e-16
    if not floors:
        return None, fracs, err
    # floors are monotone in n, so the extreme indices bound them all
    if not all(-(1 << 63) <= I * int(ns[i]) + J + int(carry[i]) < 1 << 63
               for i in (lo_i, hi_i)):
        raise FloorOutOfRange("floor exceeds the int64 result contract")
    I64, J64 = (np.uint64(x & _M64).view(np.int64) for x in (I, J))
    return ns * I64 + J64 + carry, fracs, err


def _reduce(u: int, v: int, w: int):
    if w < 0:
        u, v, w = -u, -v, -w
    g = math.gcd(math.gcd(abs(u), abs(v)), w)
    if g > 1:
        u, v, w = u // g, v // g, w // g
    return u, v, w


def make_real(u: int, v: int, w: int, d: int):
    """Canonical (u + v*sqrt(d)) / w; a QuadraticSurd, or a Fraction when rational."""
    if w == 0:
        raise ZeroDivisionError("zero denominator in quadratic surd")
    if v == 0:
        return Fraction(u, w)
    f, d0 = squarefree_split(d)
    v = v * f
    if d0 == 1:
        return Fraction(u + v, w)
    u, v, w = _reduce(u, v, w)
    out = object.__new__(QuadraticSurd)
    out.u, out.v, out.w, out.d = u, v, w, d0
    return out


class QuadraticSurd:
    """Exact element (u + v*sqrt(d)) / w of the real quadratic field Q(sqrt(d)).

    The public constructor follows the (p + sqrt(d)) / q presentation; the
    general form arises through arithmetic.  Values that canonicalise to a
    rational (square radicand, or v = 0) are rejected here, while arithmetic
    results are allowed to collapse to Fraction.
    """

    __slots__ = ("u", "v", "w", "d")

    def __init__(self, p: int, q: int, d: int, v: int = 1):
        val = make_real(p, v, q, d)
        if isinstance(val, Fraction):
            raise ValueError(
                f"(p + {v}*sqrt({d}))/{q} is rational; use Fraction for rational values")
        self.u, self.v, self.w, self.d = val.u, val.v, val.w, val.d

    @classmethod
    def sqrt(cls, d: int) -> "QuadraticSurd":
        return cls(0, 1, d)

    # -- basic queries ----------------------------------------------------

    def sign(self) -> int:
        # u + v*sqrt(d) > 0  iff  v*sqrt(d) > -u
        return -_cmp_c_vsqrt(-self.u, self.v, self.d)

    def is_positive(self) -> bool:
        return self.sign() > 0

    def conjugate(self):
        return make_real(self.u, -self.v, self.w, self.d)

    def floor(self) -> int:
        return exact_floor(self.u, self.v, self.w, self.d)

    __floor__ = floor

    def floor_frac(self):
        return exact_floor_frac(self.u, self.v, self.w, self.d)

    # -- arithmetic -------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, QuadraticSurd):
            return other
        if isinstance(other, (int, Fraction)):
            return Fraction(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if isinstance(o, Fraction):
            a, b = o.numerator, o.denominator
            return make_real(self.u * b + a * self.w, self.v * b, self.w * b, self.d)
        if o.d != self.d:
            raise ValueError("cannot add surds with different radicands")
        return make_real(self.u * o.w + o.u * self.w,
                         self.v * o.w + o.v * self.w,
                         self.w * o.w, self.d)

    __radd__ = __add__

    def __neg__(self):
        return make_real(-self.u, -self.v, self.w, self.d)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if isinstance(o, Fraction):
            a, b = o.numerator, o.denominator
            if a == 0:
                return Fraction(0)
            return make_real(self.u * a, self.v * a, self.w * b, self.d)
        if o.d != self.d:
            raise ValueError("cannot multiply surds with different radicands")
        return make_real(self.u * o.u + self.v * o.v * self.d,
                         self.u * o.v + self.v * o.u,
                         self.w * o.w, self.d)

    __rmul__ = __mul__

    def inverse(self):
        den = self.u * self.u - self.v * self.v * self.d  # nonzero: d not a square
        return make_real(self.u * self.w, -self.v * self.w, den, self.d)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if isinstance(o, Fraction):
            return self * (1 / o)
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None or isinstance(o, QuadraticSurd):
            return NotImplemented
        return self.inverse() * o

    # -- comparisons ------------------------------------------------------

    def _cmp(self, other) -> int:
        diff = self - other
        if isinstance(diff, Fraction):
            return (diff > 0) - (diff < 0)
        return diff.sign()

    def __lt__(self, other):
        return self._cmp(other) < 0

    def __le__(self, other):
        return self._cmp(other) <= 0

    def __gt__(self, other):
        return self._cmp(other) > 0

    def __ge__(self, other):
        return self._cmp(other) >= 0

    def __eq__(self, other):
        if isinstance(other, QuadraticSurd):
            return (self.u, self.v, self.w, self.d) == (other.u, other.v, other.w, other.d)
        if isinstance(other, (int, Fraction)):
            return False  # canonical surds are irrational
        return NotImplemented

    def __hash__(self):
        return hash((self.u, self.v, self.w, self.d))

    # -- affine evaluation at integer arguments ---------------------------

    def affine_coeffs(self, eta=0):
        """Integer data (A, B, C, E, W): self*n + eta = ((A*n+B) + (C*n+E)*sqrt(d)) / W."""
        if isinstance(eta, QuadraticSurd):
            if eta.d != self.d:
                raise ValueError("offset lives in a different quadratic field")
            W = math.lcm(self.w, eta.w)
            return (self.u * (W // self.w), eta.u * (W // eta.w),
                    self.v * (W // self.w), eta.v * (W // eta.w), W)
        eta = Fraction(eta)
        W = math.lcm(self.w, eta.denominator)
        return (self.u * (W // self.w), eta.numerator * (W // eta.denominator),
                self.v * (W // self.w), 0, W)

    def affine_floor_frac(self, n: int, eta=0):
        """Exact (floor, frac) of self*n + eta for one integer n."""
        A, B, C, E, W = self.affine_coeffs(eta)
        return exact_floor_frac(A * n + B, C * n + E, W, self.d)

    def fixed_point(self, eta=0):
        """(I, F, J, G, 1, 1): self and eta to 128 bits by isqrt, one unit off."""
        A, B, C, E, W = self.affine_coeffs(eta)
        return (*to_fixed_point(A, C, W, self.d),
                *to_fixed_point(B, E, W, self.d), 1, 1)

    def affine_floor_frac_many(self, ns, eta=0):
        """(floors, fracs, frac error bound) of self*n + eta over an integer
        array, by the fixed-point kernel; see fixed_point_floor_frac."""
        return fixed_point_floor_frac(self.fixed_point(eta), ns,
                                      lambda n: self.affine_floor_frac(n, eta))

    def phases_many(self, ns, eta=0):
        """Fractional parts of self*n + eta, each within (|n| + 1)*2**-128
        plus rounding; points that close to an integer (or n < 0) are exact.
        No floors are formed, so the integer part may exceed int64."""
        return fixed_point_floor_frac(self.fixed_point(eta), ns,
                                      lambda n: self.affine_floor_frac(n, eta),
                                      floors=False)[1]

    # -- conversions ------------------------------------------------------

    def approx_fraction(self, bits: int = 128) -> Fraction:
        """A rational within 2**-bits of the exact value."""
        I, F = to_fixed_point(self.u, self.v, self.w, self.d, bits + 4)
        return I + Fraction(F, 1 << (bits + 4))

    def __float__(self):
        return float(self.approx_fraction(96))

    def __repr__(self):
        return f"QuadraticSurd(({self.u}{self.v:+d}*sqrt({self.d}))/{self.w})"
