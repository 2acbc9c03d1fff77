"""Exact arithmetic in real quadratic fields, and the base of both backends.

A value is stored as (u + v*sqrt(d)) / w with integers u, v, w and a
squarefree radicand d > 1.  Canonical form has w > 0, gcd(u, v, w) = 1 and
v != 0, so equality is structural and every sign, comparison and floor
decision reduces to integer arithmetic.  One primitive, to_fixed_point,
truncates a value exactly to a multiple of 2**-bits; floors, signs and
fractional parts all come from it.  Nothing is rounded until a float is
explicitly requested, and a fractional part handed out as a float is within
half an ulp plus 2**-64 relative of the exact one.  A radicand is split
into f*f*d, d squarefree, once, when a surd is built (make_real): field
arithmetic keeps d and never factors again.  It reads an int or Fraction
operand as the element with v = 0, so each operation is one formula.

Irrational, the base class of QuadraticSurd and irrational.PrecisionReal,
states the orderings once from each backend's certified sign().  The module
also hosts the bulk kernel of both backends: theta and the offset as
128-bit fixed-point values, F*n formed exactly from 32-bit digits, and an
error bound of n*2**-128 (exact truncation), plus n*radius for decimals.
Points within the bound go to the exact scalar kernel: floors are exact.
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
_ONE, _M64, _BLOCK = 1 << 128, (1 << 64) - 1, 1 << 14
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


def to_fixed_point(U: int, V: int, W: int, d: int = 0, bits: int = 128):
    """(I, F) with I*2**bits + F = floor(x*2**bits) exactly, where
    x = (U + V*sqrt(d))/W: x truncated, less than one unit of 2**-bits below.

    Precondition: W != 0, d >= 0, and V*V*d is 0 or not a perfect square; d
    need not be squarefree (irrational._cf_surd passes v*v*d*Q*Q).  Proof:
    take W > 0 and y = V*sqrt(d)*2**bits.  When V != 0, y is irrational, so
    it lies strictly between s = isqrt(V*V*d*4**bits) and the next integer
    toward it: floor(y) is s for V > 0 and -s - 1 for V < 0.  No multiple of
    W lies strictly between two consecutive integers, so floor((U*2**bits
    + y)/W) = floor((U*2**bits + floor(y))/W).  When V*V*d = 0, y = s = 0.
    """
    if W < 0:
        U, V, W = -U, -V, -W
    s = math.isqrt(V * V * d << 2 * bits)
    return divmod(((U << bits) + (-s - 1 if V < 0 < s else s)) // W, 1 << bits)


def exact_floor(U: int, V: int, W: int, d: int) -> int:
    """floor((U + V*sqrt(d)) / W) by pure integer arithmetic."""
    return to_fixed_point(U, V, W, d, 0)[0]


def _conj_bits(u: int, v: int, w: int, d: int) -> int:
    """b with |x| > 2**-b for x = (u + v*sqrt(d))/w != 0, v = 0 or d not a
    square: x times its conjugate is a nonzero integer over w*w, and the
    conjugate is below (|u| + |v|*(isqrt(d) + 1))/|w| in size."""
    return (abs(w) * (abs(u) + abs(v) * (math.isqrt(d) + 1))).bit_length()


def exact_floor_frac(U: int, V: int, W: int, d: int):
    """(floor, frac) of (U + V*sqrt(d)) / W; the frac is a float in [0, 1),
    within half an ulp plus 2**-64 relative of the exact one (or
    nextafter(1, 0) where that rounds to 1): it is the truncation to 64 bits
    beyond _conj_bits, correctly rounded by int/int division."""
    # the frac is (U - t*W + V*sqrt(d))/W with |U - t*W| < |W| + |V|*sqrt(d),
    # so the bound taken at u = W, v = 2*V holds for it without knowing t
    bits = 64 + _conj_bits(W, 2 * V, W, d)
    t, F = to_fixed_point(U, V, W, d, bits)
    F /= 1 << bits
    return t, F if F < 1.0 else _ONE_BELOW


def fixed_point_floor_frac(parts, ns, exact, floors: bool = True):
    """(floors, fracs, err) of theta*n + eta over an int64 array.

    parts = (I, F, J, G, e_theta, e_eta) from a backend's fixed_point:
    theta = I + F/2**128 and eta = J + G/2**128 within e units of 2**-128.
    F*m + G, m = n mod 2**64, is formed exactly from 32-bit digits: a step
    f*m + a + carry of digits is at most 2**64 - 1, exact in uint64 (Granlund
    & Montgomery, PLDI 1994), and m's high half adds a second row of steps
    once some n lies outside [0, 2**32).  Blocks of 2**14 points (as sieve's
    log blocks) share one scratch set per call, written through out=: six
    uint64 rows (eight with the high half) and a bool row, at most 1.1 MB.  A
    point whose fraction lies within the bound max|n|*e_theta + e_eta units
    of an integer takes (floor, frac) from exact(n).  Floors are exact and
    formed in place (FloorOutOfRange unless both ends' exact floors lie in
    (-2**63, 2**63); None with floors=False); err is the bound plus float
    rounding.  Beyond ns, the outputs hold 16 bytes a point, 8 without floors.
    """
    I, F, J, G, e_theta, e_eta = parts
    ns = np.asarray(ns, dtype=np.int64)
    fracs = np.empty(ns.size)
    if ns.size == 0:
        return np.empty(0, np.int64) if floors else None, fracs, 0.0
    ends = (int(ns.min()), int(ns.max()))
    bound = max(-ends[0], ends[1]) * e_theta + e_eta
    # certified fractions lie in [b, 2**128 - b), empty once b >= 2**127
    b = min(bound, _ONE >> 1)
    fl = None
    if floors:
        # floors are monotone in n, so the ends bound them all, before any
        # is written; the range is symmetric, so -floor is an int64 too
        if not all(-(1 << 63) < exact(n)[0] < 1 << 63 for n in ends):
            raise FloorOutOfRange("floor exceeds the int64 result contract")
        fl = np.empty(ns.size, np.int64)
        I64, J64 = (np.uint64(x & _M64).view(np.int64) for x in (I, J))
    fd, gd = ([np.uint64(x >> k & 0xFFFFFFFF) for k in range(0, 128, 32)]
              for x in (F, G))
    F0, F1, B1 = np.uint64(F & _M64), np.uint64(F >> 64), b >> 64
    # a high limb in (B1, ~B1) is certified whatever the low one; the rest
    # are checked in full as Python ints, and band points go to exact(n)
    cut, span = np.uint64(B1 + 1), np.uint64(max(_M64 - 2 * B1 - 1, 0))
    wide = ends[0] < 0 or ends[1] >> 32 > 0
    scratch = np.empty((6 + 2 * wide, min(ns.size, _BLOCK)), np.uint64)
    flags = np.empty(scratch.shape[1], bool)
    for s in range(0, ns.size, _BLOCK):
        nb = ns[s:s + _BLOCK]
        m, k = nb.view(np.uint64), nb.size
        t, *d = (row[:k] for row in scratch)
        # a row puts the digits of F*x + A in d; the wide row adds F*m1 to
        # F*m0 + G >> 32, the first row's digits shifted down one
        xs = [np.bitwise_and(m, _LO32, out=d.pop()),
              np.right_shift(m, _S32, out=d.pop())] if wide else [m]
        for x, add in zip(xs, (gd, d[1:])):
            for j in range(4):
                np.multiply(x, fd[j], out=d[j])
                d[j] += add[j]
                if j:
                    d[j] += t
                np.right_shift(d[j], _S32, out=d[4] if j == 3 else t)
                if j:
                    d[j] &= _LO32
        D = [None] * wide + d   # the 32-bit digits of F*m + G, low first
        for lo, top in zip(D[2::2], D[3::2]):   # hi = D[2] | D[3] << 32, c likewise
            top <<= _S32
            top |= lo
        hi, c = D[3], D[-1]
        if ends[0] < 0:     # m = n + 2**64 at n < 0: F*2**64 off, and hi's borrow
            neg = np.right_shift(nb, 63, out=t.view(np.int64)).view(np.uint64)
            c -= np.less(hi, np.bitwise_and(neg, F0, out=d[0]), out=flags[:k])
            c -= np.bitwise_and(neg, F1, out=d[1])
            hi -= d[0]
        np.greater_equal(np.subtract(hi, cut, out=t), span, out=flags[:k])
        fr = np.multiply(hi, 2.0 ** -64, out=fracs[s:s + k])
        np.minimum(fr, _ONE_BELOW, out=fr)
        if floors:
            # I*n + J + c, wrapping in int64 to the floor the check bounds
            fb = np.multiply(nb, I64, out=fl[s:s + k])
            fb += J64
            fb += c.view(np.int64)
        for i in np.flatnonzero(flags[:k]).tolist():
            if not b <= (F * int(nb[i]) + G) % _ONE < _ONE - b:
                fl_i, fr[i] = exact(int(nb[i]))
                if floors:
                    fb[i] = fl_i
    # 5e-16 covers float rounding here (2**-53); a fraction from exact(n) is
    # within half an ulp plus 2**-64 relative (surd) or its center's (decimal)
    return fl, fracs, bound / _ONE + 5e-16


def make_real(u: int, v: int, w: int, d: int):
    """Canonical (u + v*sqrt(d)) / w; a QuadraticSurd, or a Fraction when
    rational.  d is any positive radicand: it is split here."""
    if v == 0 or w == 0:
        return _make(u, v, w, d)
    f, d0 = squarefree_split(d)
    if d0 == 1:
        return Fraction(u + v * f, w)
    return _make(u, v * f, w, d0)


def _make(u: int, v: int, w: int, d: int):
    """make_real for a squarefree d > 1, as every surd's own d is."""
    if w == 0:
        raise ZeroDivisionError("zero denominator in quadratic surd")
    if v == 0:
        return Fraction(u, w)
    g = math.gcd(u, v, w) if w > 0 else -math.gcd(u, v, w)
    out = object.__new__(QuadraticSurd)
    out.u, out.v, out.w, out.d = u // g, v // g, w // g, d
    return out


class Irrational:
    """Base of both backends: from their arithmetic with ints and Fractions
    and their certified sign() follow the orderings and reflected subtraction."""

    __slots__ = ()

    def is_positive(self) -> bool:
        return self.sign() > 0

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

    def __rsub__(self, other):
        return (-self) + other


class QuadraticSurd(Irrational):
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
            # no digits of p, q or d: they can run to thousands
            raise ValueError("(p + v*sqrt(d))/q is rational; use Fraction"
                             " for rational values")
        self.u, self.v, self.w, self.d = val.u, val.v, val.w, val.d

    @classmethod
    def sqrt(cls, d: int) -> "QuadraticSurd":
        return cls(0, 1, d)

    # -- basic queries ----------------------------------------------------

    def sign(self) -> int:
        # the value is irrational, so never 0
        return -1 if self.floor() < 0 else 1

    def conjugate(self):
        return _make(self.u, -self.v, self.w, self.d)

    def floor(self) -> int:
        return exact_floor(self.u, self.v, self.w, self.d)

    __floor__ = floor

    def floor_frac(self):
        return exact_floor_frac(self.u, self.v, self.w, self.d)

    # -- arithmetic -------------------------------------------------------

    def _parts(self, other):
        """other as (u, v, w) over this field's sqrt(d): v = 0 for an int or
        Fraction; None for any other type, so the operator defers."""
        if isinstance(other, (int, Fraction)):
            return other.numerator, 0, other.denominator
        if not isinstance(other, QuadraticSurd):
            return None
        if other.d != self.d:
            raise ValueError("surds with different radicands lie in different fields")
        return other.u, other.v, other.w

    def __add__(self, other):
        o = self._parts(other)
        if o is None:
            return NotImplemented
        u, v, w = o
        return _make(self.u * w + u * self.w, self.v * w + v * self.w,
                     self.w * w, self.d)

    __radd__ = __add__

    def __neg__(self):
        return _make(-self.u, -self.v, self.w, self.d)

    def __sub__(self, other):
        return NotImplemented if self._parts(other) is None else self + -other

    def __mul__(self, other):
        o = self._parts(other)
        if o is None:
            return NotImplemented
        u, v, w = o
        return _make(self.u * u + self.v * v * self.d, self.u * v + self.v * u,
                     self.w * w, self.d)

    __rmul__ = __mul__

    def _reciprocal(self, u, v, w):
        """1/x for x = (u + v*sqrt(d))/w: w*(u - v*sqrt(d))/(u*u - v*v*d), whose
        denominator is 0 only at x = 0 (d is not a square): ZeroDivisionError."""
        return _make(w * u, -w * v, u * u - v * v * self.d, self.d)

    def inverse(self):
        return self._reciprocal(self.u, self.v, self.w)

    def __truediv__(self, other):
        o = self._parts(other)
        return NotImplemented if o is None else self * self._reciprocal(*o)

    def __rtruediv__(self, other):
        return NotImplemented if self._parts(other) is None else self.inverse() * other

    # -- comparisons ------------------------------------------------------

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
        u, v, w = self._parts(eta) or self._parts(Fraction(eta))
        W = math.lcm(self.w, w)
        return (self.u * (W // self.w), u * (W // w),
                self.v * (W // self.w), v * (W // w), W)

    def affine_floor_frac(self, n: int, eta=0):
        """Exact (floor, frac) of self*n + eta for one integer n."""
        A, B, C, E, W = self.affine_coeffs(eta)
        return exact_floor_frac(A * n + B, C * n + E, W, self.d)

    def fixed_point(self, eta=0):
        """(I, F, J, G, 1, 1): self and eta to 128 bits, each truncated, less
        than one unit below."""
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
        plus rounding; points that close to an integer are exact.  No floors
        are formed, so the integer part may exceed int64."""
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
