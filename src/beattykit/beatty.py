"""Generalized Beatty sequences floor(alpha*n + beta).

The membership test works through the fractional-part criterion: for
alpha > 1, an integer m is hit by the sequence exactly when

    0 < {gamma*(m - beta + 1)} <= gamma,      gamma = 1/alpha,

and the witness index is then the unique integer in
[(m - beta)/alpha, (m - beta + 1)/alpha).  Both the criterion and the
witness are decided exactly (or certified within the carried precision).

For 0 < alpha < 1 the sequence repeats values, so membership is not
defined there; generation works for every alpha > 0.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional

import numpy as np

from .errors import AlphaNotGreaterThanOne, NotPositive
from .irrational import Irrational, PrecisionReal, as_exact_ratio
from .surd import QuadraticSurd

__all__ = ["BeattyParams", "generate", "is_member", "bulk_membership"]


class BeattyParams:
    """Parameters (alpha, beta) with the derived quantities the theory runs on.

    gamma = 1/alpha and delta = gamma*(1 - beta) are computed once: the
    membership criterion, the equidistribution samples and the exponential
    sums all live on the fractional parts {gamma*m + delta}.

    beta is normally an exact rational (ints, Fractions and decimal strings
    are accepted; floats are read as decimals).  An irrational beta from the
    same backend as alpha, such as alpha*j + beta, is kept exact as well.
    """

    __slots__ = ("alpha", "beta", "gamma", "delta")

    def __init__(self, alpha: Irrational, beta=0):
        if not alpha.is_positive():
            raise NotPositive("alpha must be positive")
        if isinstance(beta, (QuadraticSurd, PrecisionReal)):
            self.beta = beta
        else:
            self.beta = as_exact_ratio(beta)
        self.alpha = alpha
        self.gamma = alpha.inverse()
        self.delta = self.gamma * (1 - self.beta)

    def term(self, n: int) -> int:
        return self.alpha.affine_floor_frac(n, self.beta)[0]

    def terms(self, ns) -> np.ndarray:
        return self.alpha.affine_floor_frac_many(ns, self.beta)[0]

    def alpha_gt_one(self) -> bool:
        return (self.alpha - 1).is_positive()

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
    gamma, beta = params.gamma, params.beta
    # criterion on x = gamma*(m - beta + 1) = gamma*m + delta; x = 0 is exact
    if isinstance(beta, Fraction) and m - beta + 1 == 0:
        return None
    x = gamma * m + params.delta
    if isinstance(x, Fraction):  # a rational product of two surds
        fr = x - x.__floor__()
    elif isinstance(x, PrecisionReal):
        fr = x - x.floor()
    else:
        fr = x.frac_exact()
    if not _accepts(fr, gamma):
        return None
    n = _witness(params, m)
    if n < 1:
        return None
    assert params.term(n) == m
    return n


def _is_positive(v) -> bool:
    if isinstance(v, Fraction):
        return v > 0
    return v.is_positive()


def _accepts(fr, gamma) -> bool:
    # 0 < fr <= gamma, decided exactly / certified
    if isinstance(fr, Fraction):
        if fr == 0:
            return False
        return bool(gamma >= fr)
    return fr.is_positive() and not _is_positive(fr - gamma)


def _witness(params: BeattyParams, m: int) -> int:
    # ceil((m - beta)/alpha); the argument is irrational unless m == beta
    y = params.gamma * (m - params.beta)
    if isinstance(y, Fraction):
        return -((-y).__floor__())  # exact ceil of a rational
    return y.floor() + 1


def _require_alpha_gt_one(params):
    if not params.alpha_gt_one():
        raise AlphaNotGreaterThanOne(
            "membership is only defined for alpha > 1")


def bulk_membership(params: BeattyParams, ms) -> tuple:
    """Vectorised membership over an integer array of candidate values.

    Returns (member mask, witness indices) with 0 in the index slot of
    non-members.  The fast path classifies by floating fractional parts and
    re-checks every point near a decision boundary with the exact kernel, so
    the output matches is_member pointwise.
    """
    _require_alpha_gt_one(params)
    ms = np.asarray(ms, dtype=np.int64)
    gamma = params.gamma
    fl, fr, err = gamma.affine_floor_frac_many(ms, params.delta)
    gf = float(gamma)
    band = err + 1e-12
    # a member's witness ceil(gamma*(m - beta)) is floor(gamma*m + delta);
    # points whose witness would be < 1 are not real members
    member = (fr > band) & (fr < gf - band) & (fl >= 1)
    unsure = np.flatnonzero(((fr <= band) | ((fr >= gf - band) & (fr <= gf + band))))
    ns = np.where(member, fl, 0)
    for i in unsure.tolist():
        n = is_member(params, int(ms[i]))
        member[i] = n is not None
        ns[i] = n or 0
    return member, ns

