"""Generalized Beatty sequences floor(alpha*n + beta).

For alpha > 0 and gamma = 1/alpha, the indices n with floor(alpha*n + beta)
= m are c(m) <= n < c(m + 1), c(k) = ceil(gamma*(k - beta)), and their
number is the step floor(gamma) + [{gamma*(beta - m)} < {gamma}]: one rule,
_ceiling_steps, decides it for many m at once.  For alpha > 1 the step is 0
or 1, and m is a term exactly when it is 1 and its witness c(m) is >= 1.

For 0 < alpha < 1 the sequence repeats values, so membership is not
defined there; generation works for every alpha > 0.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from .errors import AlphaNotGreaterThanOne, NotPositive
from .irrational import Irrational, _as_offset
from .surd import _BLOCK

__all__ = ["BeattyParams", "generate", "is_member", "bulk_membership"]


class BeattyParams:
    """Parameters (alpha, beta) with gamma = 1/alpha, computed once: m is the
    term at n = ceil(gamma*(m - beta)) >= 1 when n < ceil(gamma*(m + 1 - beta)).

    beta is normally an exact rational (ints, Fractions and decimal strings
    are accepted; floats are read as decimals).  An irrational beta from the
    same backend as alpha, such as alpha*j + beta, is kept exact as well.
    """

    __slots__ = ("alpha", "beta", "gamma")

    def __init__(self, alpha: Irrational, beta=0):
        if not alpha.is_positive():
            raise NotPositive("alpha must be positive")
        self.alpha, self.beta = alpha, _as_offset(beta)
        self.gamma = alpha.inverse()

    def term(self, n: int) -> int:
        return self.alpha.affine_floor_frac(n, self.beta)[0]

    def terms(self, ns) -> np.ndarray:
        return self.alpha.affine_floor_frac_many(ns, self.beta)[0]

    def __repr__(self):
        return f"BeattyParams(alpha={self.alpha!r}, beta={self.beta!r})"


def generate(params: BeattyParams, N: int) -> np.ndarray:
    """Terms floor(alpha*n + beta) for n = 1..N as an int64 array."""
    if N < 0:
        raise ValueError("N must be >= 0")
    if N == 0:
        return np.empty(0, np.int64)
    return params.terms(np.arange(1, N + 1, dtype=np.int64))


def is_member(params: BeattyParams, m: int) -> Optional[int]:
    """The index n >= 1 with floor(alpha*n + beta) == m, or None.

    Only defined for alpha > 1, where indices and values correspond one to
    one.  Values the sequence skips, and values only a nonpositive index
    would produce, give None.
    """
    _require_alpha_gt_one(params)
    if m > math.floor(params.beta):  # else the witness would be <= 0
        # ceil(gamma*(k - beta)) as -floor of one exact or interval product
        n, n1 = (-math.floor(params.gamma * (params.beta - k)) for k in (m, m + 1))
        if n1 > n:
            assert params.term(n) == m
            return n
    return None


def _require_alpha_gt_one(params):
    if not params.alpha > 1:
        raise AlphaNotGreaterThanOne("membership is only defined for alpha > 1")


def _ceiling_steps(params: BeattyParams):
    """The rule ms -> (c, step) on int64 arrays of m: c(m) = ceil(gamma*(m -
    beta)) and the step c(m + 1) - c(m), how many n have floor(alpha*n + beta) = m.

    With w = gamma*(beta - m) and f = {w}, c(m) = -floor(w) and c(m + 1) =
    -floor(w - gamma) = c(m) + floor(gamma) - floor(f - {gamma}): the step
    is floor(gamma) + [f < {gamma}].  The kernel gives floor(w) exactly, fr
    within err of f and gf within g_err of {gamma}, float rounding included;
    outside the band |fr - gf| <= err + g_err the sign of fr - gf decides,
    and inside it the exact floor at m + 1 (a dec: straddle refuses).  The
    step is bool where floor(gamma) = 0, else int64: 9 or 16 bytes a point.
    """
    g, b = params.gamma, params.beta
    neg, eta, eta1, ((gi,), (gf,), g_err) = -g, g * b, g * (b - 1), g.affine_floor_frac_many([1])

    def steps(ms) -> tuple:
        fl, fr, err = neg.affine_floor_frac_many(ms, eta)
        fr -= gf
        step = fr < 0 if gi == 0 else np.where(fr < 0, gi + 1, gi)
        near = np.flatnonzero(np.abs(fr, out=fr) <= err + g_err)
        step[near] = fl[near] - neg.affine_floor_frac_many(ms[near], eta1)[0]
        return np.negative(fl, out=fl), step
    return steps


def bulk_membership(params: BeattyParams, ms) -> tuple:
    """Vectorised membership over an integer array of candidate values.

    Returns (member mask, witness indices) with 0 in the index slot of
    non-members, matching is_member pointwise: m is hit, with witness c(m),
    when its step (_ceiling_steps) is 1.  Each _BLOCK of values has a band
    sized by its own largest |m|, so a dec: straddle refuses at the first
    block that meets it; the outputs hold 9 bytes a point beyond ms.
    """
    _require_alpha_gt_one(params)
    ms = np.asarray(ms, dtype=np.int64)
    # m <= floor(beta) has a witness n <= 0: not a member.  The kernel
    # sees a live stand-in instead, since its floors could leave int64
    dead = math.floor(params.beta)
    hit, witness = np.zeros(ms.size, bool), np.zeros(ms.size, np.int64)
    if not ms.size or ms.max() <= dead:
        return hit, witness
    steps = _ceiling_steps(params)
    for s in range(0, ms.size, _BLOCK):
        mb = ms[s:s + _BLOCK]
        live = mb > dead
        if not live.any():
            continue
        if not live.all():
            mb = np.where(live, mb, mb.max())
        c, step = steps(mb)
        h = np.logical_and(step, live, out=hit[s:s + _BLOCK])
        np.multiply(c, h, out=witness[s:s + _BLOCK])
    return hit, witness
