"""Generalized Beatty sequences floor(alpha*n + beta).

For alpha > 1 and gamma = 1/alpha, floor(alpha*n + beta) = m exactly when
gamma*(m - beta) <= n < gamma*(m + 1 - beta).  So m is a term exactly when

    n = ceil(gamma*(m - beta)) < ceil(gamma*(m + 1 - beta))   and   n >= 1,

and n is its witness index; both ceilings are exact floors of one product
(or certified within the carried precision).

For 0 < alpha < 1 the sequence repeats values, so membership is not
defined there; generation works for every alpha > 0.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from .errors import AlphaNotGreaterThanOne, FloorOutOfRange, NotPositive
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


def bulk_membership(params: BeattyParams, ms) -> tuple:
    """Vectorised membership over an integer array of candidate values.

    Returns (member mask, witness indices) with 0 in the index slot of
    non-members, matching is_member pointwise.  With w = gamma*(beta - m),
    the witness is -floor(w) and m is hit exactly when {w} < gamma; points
    whose {w} the error bounds cannot place take the exact floor at m + 1.

    The kernel runs _BLOCK values of m at a time, and each block's band is
    sized by its own largest |m|: a point near the band's edge may take
    the exact floor in one block and the fixed-point one in another, and
    on dec: alphas a straddle refuses at the first block that meets it.
    The decisions are exact either way.  Beyond ms, the outputs hold 9
    bytes a point.
    """
    _require_alpha_gt_one(params)
    ms = np.asarray(ms, dtype=np.int64)
    gamma, beta = params.gamma, params.beta
    # m <= floor(beta) has a witness n <= 0: not a member.  The kernel
    # sees a live stand-in instead, since its floors could leave int64
    dead = math.floor(beta)
    hit, witness = np.zeros(ms.size, bool), np.zeros(ms.size, np.int64)
    if not ms.size or ms.max() <= dead:
        return hit, witness
    neg, eta, eta1 = -gamma, gamma * beta, gamma * (beta - 1)
    _, (gf,), g_err = gamma.affine_floor_frac_many([1])
    for s in range(0, ms.size, _BLOCK):
        mb, h = ms[s:s + _BLOCK], hit[s:s + _BLOCK]
        live = mb > dead
        if not live.any():
            continue
        if not live.all():
            mb = np.where(live, mb, mb.max())
        fl, fr, err = neg.affine_floor_frac_many(mb, eta)
        if fl.min() == np.iinfo(np.int64).min:
            raise FloorOutOfRange("witness 2**63 exceeds the int64 result contract")
        # fr is within err of {w} and gf within g_err of gamma, float
        # rounding included, so outside this band fr - gf decides {w} < gamma
        fr -= gf
        np.less(fr, 0, out=h)
        near = np.flatnonzero(np.abs(fr, out=fr) <= err + g_err)
        h[near] = neg.affine_floor_frac_many(mb[near], eta1)[0] < fl[near]
        h &= live
        np.negative(fl, out=fl)
        np.multiply(fl, h, out=witness[s:s + _BLOCK])
    return hit, witness
