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
membership sieve.  Both sides read the class's records, q*m + a (S, N) or
m (T, M), once a sweep: each weight times the part of [c(m), c(m + 1)),
the n with m(n) = m (lhs), or of [m, m + 1) (main term) below N + 1 or
M(N) + 1.  Densities q/phi(q) (for S) and 1/phi(q) (for T) give the
cruder closed-form predictions.

Every sum is exact until one final rounding: Lambda values are summed as
integer counts of 2**-53 (sieve.lambda_units), so equal multisets of terms
give bit-identical totals however the index set is ordered or cut.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Optional

import numpy as np

from .beatty import BeattyParams
from .sieve import (MAX_LIMIT, MangoldtTable, ResidueClass, class_records,
                    euler_phi, lambda_units)
from .surd import _BLOCK

__all__ = ["SweepRow", "VerificationReport", "beatty_sums", "main_terms",
           "density_prediction", "verify_sweep", "MODES"]

MODES = ("S", "T", "N", "M")


def _checked_grid(grid, mode: str) -> list:
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    given = list(grid)
    grid = [int(x) for x in given]
    # the lhs lengths add up to the last N, which lambda_units bounds
    if grid != given or not grid or grid[0] < 1 or grid[-1] > MAX_LIMIT:
        raise ValueError(f"N grid must be nonempty with every N an integer"
                         f" in [1, {MAX_LIMIT}]")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValueError("N grid must be strictly ascending")
    return grid


def _records(r: ResidueClass, mode: str, table: MangoldtTable, lo: int,
             hi: int) -> tuple:
    """(values m, Lambda values or None) of the class's records with lo <=
    m <= hi, ascending; only primes for N and M, which weigh no Lambda."""
    scale, shift = (r.q, r.a) if mode in ("S", "N") else (1, 0)
    at = class_records(table, scale * hi + shift, r, max(scale * lo + shift, 2),
                       primes=mode in ("N", "M"))
    m = table.power[at]
    m -= shift
    m //= scale
    return m, table.log_base[at] if mode in ("S", "T") else None


def _units(lam, at: slice, lengths) -> int:
    """The exact total of the records at, each weighted by its length: in
    units of 2**-53 times its Lambda value (S, T), or one per n (N, M)."""
    return int(lengths.sum()) if lam is None else lambda_units(lam[at], lengths)


def _carried_totals(lam, start, stop, cuts) -> list:
    """For each ascending cut x, the sum of the records' weights times the
    length of [start, stop) below x + 1, exact and rounded once.  Those
    ending by x + 1 form a prefix whose total is carried from cut to cut,
    and as no two overlap, at most the next record crosses x."""
    ends = np.searchsorted(stop, np.add(cuts, 1), "right").tolist()
    totals, carried = [], 0
    for x, lo, k in zip(cuts, [0] + ends, ends):
        carried += _units(lam, slice(lo, k), stop[lo:k] - start[lo:k])
        total = carried + _units(lam, slice(k, k + 1),
                                 np.maximum(x + 1 - start[k:k + 1], 0))
        totals.append(float(total) if lam is None else float(total) * 2.0 ** -53)
    return totals


def _lhs(params: BeattyParams, grid: list, m, lam) -> list:
    """beatty_sums over the records m (ascending, none above m(L)) with
    their Lambda values lam; those below m(1) are skipped."""
    L, gamma = grid[-1], params.gamma
    lo, hi = params.term(1), params.term(L)
    i = int(np.searchsorted(m, lo))
    m, lam = m[i:], None if lam is None else lam[i:]
    neg, eta = -gamma, gamma * params.beta
    start, stop = np.empty_like(m), np.empty_like(m)
    for s in range(0, m.size, _BLOCK):
        for ks, c in ((m[s:s + _BLOCK], start[s:s + _BLOCK]),
                      (m[s:s + _BLOCK] + 1, stop[s:s + _BLOCK])):
            # ks ascend, so lo < k <= hi is one run of the block
            a, b = np.searchsorted(ks, (lo, hi), "right").tolist()
            c[:a], c[b:] = 1, L + 1
            np.negative(neg.affine_floor_frac_many(ks[a:b], eta)[0], out=c[a:b])
    return _carried_totals(lam, start, stop, grid)


def _main(params: BeattyParams, grid: list, m, lam) -> list:
    """main_terms over the records m (ascending, none above M(L)) with
    their Lambda values lam; those below 1 are skipped."""
    tops = [params.term(N) for N in grid]
    i = int(np.searchsorted(m, 1))
    m, lam = m[i:], None if lam is None else lam[i:]
    gf = float(params.gamma)
    return [gf * t for t in _carried_totals(lam, m, m + 1, tops)]


def beatty_sums(params: BeattyParams, r: ResidueClass, grid, mode: str,
                table: MangoldtTable) -> list:
    """The mode's sum over n <= N of its weight at m(n), for each N of a
    strictly ascending grid, read from the class's records.

    m(n) = m for c(m) <= n < c(m + 1), where c(k) = ceil(gamma*(k - beta))
    = -floor(-gamma*k + gamma*beta).  Only m(1) <= m <= m(L) occur, L the
    last N, and c(m(1)) <= 1 and c(m(L) + 1) > L are taken as 1 and L + 1
    unfloored.  So every floor taken, at m(1) < k <= m(L), has c(k) in
    [2, L]: inside int64, and off k = beta, where a dec: alpha cannot
    floor gamma*(k - beta) = 0.

    The ceilings are written straight into the records' start and stop
    arrays, _BLOCK records at a time, and each block's band is sized by
    its own largest k: on dec: alphas a straddle refuses at the first
    block that meets it, and every ceiling taken is exact.
    """
    grid = _checked_grid(grid, mode)
    lo, hi = params.term(1), params.term(grid[-1])
    return _lhs(params, grid, *_records(r, mode, table, lo, hi))


def main_terms(params: BeattyParams, r: ResidueClass, grid, mode: str,
               table: MangoldtTable) -> list:
    """gamma times the same sum over the integers m = 1..M(N), with
    M(N) = floor(alpha*N + beta) (no m when M(N) <= 0):

    S: gamma * sum_{m <= M} Lambda(q m + a)
    T: gamma * sum_{m <= M, m == a (q)} Lambda(m)
    N: gamma * #{m <= M : q m + a prime}
    M: gamma * pi(M; q, a)
    """
    grid = _checked_grid(grid, mode)
    return _main(params, grid, *_records(r, mode, table, 1, params.term(grid[-1])))


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
    # [min(m(1), 1), M(L)] holds the records of both sides: select it once
    records = _records(r, mode, table, min(params.term(1), 1),
                       params.term(grid[-1]))
    lhs = _lhs(params, grid, *records)
    if target == "main":
        main = _main(params, grid, *records)
    else:
        main = [density_prediction(params, r, N, mode) for N in grid]
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
