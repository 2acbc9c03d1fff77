"""Prime counting along Beatty sequences, main terms, and sweep reports.

Four quantities are tracked for parameters (alpha, beta) and a primitive
class a mod q, all over indices n <= N and with m(n) = floor(alpha*n + beta):

  S   sum of Lambda(q*m(n) + a)                  (weighted, shifted)
  T   sum of Lambda(m(n)) over m(n) == a mod q   (weighted, congruence)
  N   count of n with q*m(n) + a prime
  M   count of n with m(n) prime and m(n) == a mod q

The predicted main term compares each against 1/alpha times the same
quantity summed over all integers m <= M = floor(alpha*N + beta), the
heuristic being that a fraction 1/alpha of all m survive the Beatty
membership sieve.  Both sides are read from the class's records, q*m + a
(S, N) or m (T, M), in one pass over the sieve's blocks for the whole grid,
with one kernel call a record: the lhs weighs a record m by its step, the
number of n with m(n) = m (beatty._ceiling_steps), the main term by 1, and
both are cut at the record M(N) = m(N).  Densities q/phi(q) (for S) and
1/phi(q) (for T) give the cruder closed-form predictions.

Every sum is exact until one final rounding: Lambda values are summed as
integer counts of 2**-53 (sieve.lambda_units), so equal multisets of terms
give bit-identical totals however the index set is ordered or cut.
"""

from __future__ import annotations

import functools
import math
from typing import NamedTuple, Optional

import numpy as np

from .beatty import BeattyParams, _ceiling_steps
from .sieve import (MAX_LIMIT, MangoldtTable, ResidueClass, class_blocks,
                    euler_phi, lambda_units)

__all__ = ["SweepRow", "VerificationReport", "beatty_sums", "main_terms",
           "density_prediction", "verify_sweep", "MODES"]

MODES = ("S", "T", "N", "M")


def _checked_grid(grid, mode: str) -> list:
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    given = list(grid)
    grid = [int(x) for x in given]
    # the lhs weights add up to the last N, which lambda_units bounds
    if grid != given or not grid or grid[0] < 1 or grid[-1] > MAX_LIMIT:
        raise ValueError(f"N grid must be nonempty with every N an integer"
                         f" in [1, {MAX_LIMIT}]")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValueError("N grid must be strictly ascending")
    return grid


def _units(lam, at: slice, weights) -> int:
    """The exact weighted total of the records at: in 2**-53 of Lambda (S, T), or a count (N, M)."""
    return int(weights.sum()) if lam is None else lambda_units(lam[at], weights)


def _totals(params: BeattyParams, r: ResidueClass, grid: list, mode: str,
            table: MangoldtTable, lhs: bool = True, main: bool = True) -> list:
    """The lhs and the main term at each N of a checked grid, each if asked
    for, as an exact total (in units of 2**-53 for S, T) rounded once.

    Both total the records m <= M(N) = m(N).  The lhs weighs m by the n <= N
    with m(n) = m: the step of beatty._ceiling_steps for m(1) < m < M(N),
    c(m(1) + 1) - 1 at m(1), N + 1 - max(c(M(N)), 1) at M(N) and 0 below
    m(1); the main term weighs m >= 1 by 1 and floors only the tops.  One
    read of the records up to M(L), L the last N, serves both; the lhs
    floors at m(1) < k <= M(L) only, where c(k) is in [2, L]: in int64, and
    off k = beta, where a dec: alpha cannot floor 0.  Totals are carried
    from cut to cut and block to block; beyond the table one block is held.
    """
    first, tops = params.term(1), [params.term(N) for N in grid]
    if lhs:     # c at m(1) + 1 and at the tops, from one floors-only call
        ks = sorted({k for k in (first + 1, *tops) if first < k <= tops[-1]})
        fl = (-params.gamma).affine_floor_frac_many(ks, params.gamma * params.beta)[0]
        c = dict(zip([first, *ks], [1, *(-fl).tolist()]))   # max(c(m(1)), 1) = 1
    rule = functools.cache(lambda: _ceiling_steps(params))   # built at its first record

    def weigh(m):   # the lhs weights of a block's records
        w = np.zeros(m.size, np.int64)
        a, b = int(np.searchsorted(m, first, "right")), int(np.searchsorted(m, tops[-1]))
        if a and m[a - 1] == first:
            w[a - 1] = c.get(first + 1, 1) - 1
        if b > a:       # the records m(1) < m < M(L)
            w[a:b] = rule()(m[a:b])[1]
        return w
    sides = [(weigh, lambda i: grid[i] + 1 - c[tops[i]])] * lhs + \
        [(lambda m: m >= 1, lambda i: int(tops[i] >= 1))] * main
    scale, shift = (r.q, r.a) if mode in ("S", "N") else (1, 0)
    out, held, i = [], [0] * len(sides), 0
    for n, lam in class_blocks(table, scale * tops[-1] + shift, r,
                               max(scale * min([first] * lhs + [1] * main) + shift, 2),
                               primes=mode in ("N", "M")):
        m, lo = (n - shift) // scale, 0
        ws = [weigh(m) for weigh, _ in sides]
        while i < len(grid) and tops[i] <= m[-1]:
            k = int(np.searchsorted(m, tops[i]))
            held = [h + _units(lam, slice(lo, k), w[lo:k]) for h, w in zip(held, ws)]
            lo, at = k, slice(k, k + int(m[k] == tops[i]))
            out.append([h + _units(lam, at, np.full(at.stop - k, cut(i)))
                        for h, (_, cut) in zip(held, sides)])
            i += 1
        held = [h + _units(lam, slice(lo, None), w[lo:]) for h, w in zip(held, ws)]
        del ws      # else the next block's step call runs beside these weights
    out += [held] * (len(grid) - i)
    unit = 1.0 if mode in ("N", "M") else 2.0 ** -53
    scales = [1.0] * lhs + [float(params.gamma)] * main
    return [[g * (float(t) * unit) for t in side] for g, side in zip(scales, zip(*out))]


def beatty_sums(params: BeattyParams, r: ResidueClass, grid, mode: str,
                table: MangoldtTable) -> list:
    """The mode's sum over n <= N of its weight at m(n), for each N of a
    strictly ascending grid, read from the class's records (see _totals)."""
    return _totals(params, r, _checked_grid(grid, mode), mode, table, main=False)[0]


def main_terms(params: BeattyParams, r: ResidueClass, grid, mode: str,
               table: MangoldtTable) -> list:
    """gamma times the same sum over the integers m = 1..M(N), with
    M(N) = floor(alpha*N + beta) (no m when M(N) <= 0):

    S: gamma * sum_{m <= M} Lambda(q m + a)
    T: gamma * sum_{m <= M, m == a (q)} Lambda(m)
    N: gamma * #{m <= M : q m + a prime}
    M: gamma * pi(M; q, a)
    """
    return _totals(params, r, _checked_grid(grid, mode), mode, table, lhs=False)[0]


def density_prediction(params: BeattyParams, r: ResidueClass, N: int,
                         mode: str = "S") -> float:
    """Closed-form density prediction: (q/phi(q))*N for S, N/phi(q) for T."""
    if mode == "S":
        return r.q / euler_phi(r.q) * N
    if mode == "T":
        return N / euler_phi(r.q)
    raise ValueError("closed-form predictions exist for modes 'S' and 'T' only")


class SweepRow(NamedTuple):
    N: int
    lhs: float
    main: float
    abs_err: float
    rel_err: float


class VerificationReport(NamedTuple):
    """Sweep of lhs against main term over an N-grid, with an error-exponent fit.

    rel_err is abs_err/N when graded against the asymptotic main term (N is
    the natural error scale) and abs_err/|main| for closed-form density
    targets.  The fitted exponent is the least-squares slope of log
    |abs_err| against log N; PASS requires the last rel_err under tolerance
    and, when at least three nonzero errors allow a fit, an exponent below 1.
    """
    mode: str
    target: str
    tolerance: float
    rows: list
    fitted_exponent: Optional[float]
    observed: dict
    passed: bool

    def summary(self) -> str:
        verdict = "PASS" if self.passed else "FAIL"
        tail = self.rows[-1].rel_err if self.rows else float("nan")
        exp = "n/a" if self.fitted_exponent is None else f"{self.fitted_exponent:.3f}"
        return (f"{verdict} mode={self.mode} target={self.target} "
                f"final_rel_err={tail:.3e} tol={self.tolerance:.3g} exponent={exp}")


def verify_sweep(params: BeattyParams, r: ResidueClass, grid, mode: str,
                 table: MangoldtTable, target: str = "main",
                 tol: float = 0.03) -> VerificationReport:
    """Evaluate lhs and main term over an N-grid and grade the error decay."""
    if target not in ("main", "density"):
        raise ValueError("target is 'main' or 'density'")
    grid = _checked_grid(grid, mode)
    lhs, *main = _totals(params, r, grid, mode, table, main=target == "main")
    main = main[0] if main else [density_prediction(params, r, N, mode) for N in grid]
    rows = []
    for N, s, m in zip(grid, lhs, main):
        err = abs(s - m)
        scale = N if target == "main" else abs(m)
        rows.append(SweepRow(N, s, m, err, err / scale if scale else math.inf))
    fit_pts = [(math.log(row.N), math.log(row.abs_err))
               for row in rows if row.abs_err > 0 and row.N > 1]
    slope, observed = None, {}
    if len(fit_pts) >= 3:
        xs, ys = np.array(fit_pts).T
        slope, intercept = map(float, np.polyfit(xs, ys, 1))
        observed = {"kappa_hat": 1.0 - slope, "C_hat": math.exp(intercept)}
    passed = rows[-1].rel_err <= tol and (slope or 0) < 1
    return VerificationReport(mode, target, tol, rows, slope, observed, passed)
