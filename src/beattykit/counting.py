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
membership sieve.  Each side streams the class's records, q*m + a (S, N)
or m (T, M), from the sieve a block at a time, in one pass for the whole
grid: the lhs reads m(1) <= m <= m(L) and weighs each record by the part
of [c(m), c(m + 1)), the n with m(n) = m, below N + 1; the main term reads
1 <= m <= M(L) and weighs it by the part of [m, m + 1) below M(N) + 1.
Beyond the table, a sweep holds one block's arrays.  Densities q/phi(q)
(for S) and 1/phi(q) (for T) give the cruder closed-form predictions.

Every sum is exact until one final rounding: Lambda values are summed as
integer counts of 2**-53 (sieve.lambda_units), so equal multisets of terms
give bit-identical totals however the index set is ordered or cut.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Optional

import numpy as np

from .beatty import BeattyParams
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
    # the lhs lengths add up to the last N, which lambda_units bounds
    if grid != given or not grid or grid[0] < 1 or grid[-1] > MAX_LIMIT:
        raise ValueError(f"N grid must be nonempty with every N an integer"
                         f" in [1, {MAX_LIMIT}]")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValueError("N grid must be strictly ascending")
    return grid


def _records(r: ResidueClass, mode: str, table: MangoldtTable, lo: int,
             hi: int):
    """The class's records with lo <= m <= hi, as ascending blocks (m,
    Lambda values or None); only primes for N and M, which weigh no
    Lambda.  The Lambda values may be a view of the table."""
    scale, shift = (r.q, r.a) if mode in ("S", "N") else (1, 0)
    for n, lam in class_blocks(table, scale * hi + shift, r,
                               max(scale * lo + shift, 2),
                               primes=mode in ("N", "M")):
        yield (n - shift) // scale, lam


def _units(lam, at: slice, lengths) -> int:
    """The exact total of the records at, each weighted by its length: in
    units of 2**-53 times its Lambda value (S, T), or one per n (N, M)."""
    return int(lengths.sum()) if lam is None else lambda_units(lam[at], lengths)


def _carried_totals(blocks, cuts) -> list:
    """For each ascending cut x, the sum of the records' weights times the
    length of [start, stop) below x + 1, exact and rounded once, over
    ascending blocks (lam, start, stop) of records whose spans do not
    overlap.  Those ending by x + 1 form a prefix whose total is carried
    from cut to cut and from block to block, and at most the next record
    crosses x: a cut whose crossing record lies in a later block waits for
    it.  So the work is O(blocks + cuts)."""
    totals, carried, unit = [], 0, 1.0
    for lam, start, stop in blocks:
        unit, lo = 1.0 if lam is None else 2.0 ** -53, 0
        while len(totals) < len(cuts) and stop[-1] > cuts[len(totals)] + 1:
            x = cuts[len(totals)]
            k = int(np.searchsorted(stop, x + 1, "right"))
            carried += _units(lam, slice(lo, k), stop[lo:k] - start[lo:k])
            lo = k
            total = carried + _units(lam, slice(k, k + 1),
                                     np.maximum(x + 1 - start[k:k + 1], 0))
            totals.append(float(total) * unit)
        carried += _units(lam, slice(lo, None), stop[lo:] - start[lo:])
    return totals + [float(carried) * unit] * (len(cuts) - len(totals))


def beatty_sums(params: BeattyParams, r: ResidueClass, grid, mode: str,
                table: MangoldtTable) -> list:
    """The mode's sum over n <= N of its weight at m(n), for each N of a
    strictly ascending grid, read from the class's records.

    m(n) = m for c(m) <= n < c(m + 1), where c(k) = ceil(gamma*(k - beta))
    = -floor(-gamma*k + gamma*beta).  Only m(1) <= m <= m(L) occur, L the
    last N, and only those records are read; c(m(1)) <= 1 and c(m(L) + 1)
    > L are taken as 1 and L + 1 unfloored.  So every floor taken, at m(1)
    < k <= m(L), has c(k) in [2, L]: inside int64, and off k = beta, where
    a dec: alpha cannot floor gamma*(k - beta) = 0.

    The records come from the sieve a block at a time, ascending, and each
    block's ceilings, its starts and stops, are formed by one kernel call
    each, whose band is sized by the block's own largest k: on dec: alphas
    a straddle refuses at the first block that meets it, and every ceiling
    taken is exact.  Beyond the table, one block's arrays are held.
    """
    grid = _checked_grid(grid, mode)
    L, gamma = grid[-1], params.gamma
    lo, hi = params.term(1), params.term(L)
    neg, eta = -gamma, gamma * params.beta

    def ceilings(ks):
        # ks ascend, so lo < k <= hi is one run of the block
        a, b = np.searchsorted(ks, (lo, hi), "right").tolist()
        c = np.empty_like(ks)
        c[:a], c[b:] = 1, L + 1
        np.negative(neg.affine_floor_frac_many(ks[a:b], eta)[0], out=c[a:b])
        return c

    blocks = _records(r, mode, table, lo, hi)
    return _carried_totals(((lam, ceilings(m), ceilings(m + 1))
                            for m, lam in blocks), grid)


def main_terms(params: BeattyParams, r: ResidueClass, grid, mode: str,
               table: MangoldtTable) -> list:
    """gamma times the same sum over the integers m = 1..M(N), with
    M(N) = floor(alpha*N + beta) (no m when M(N) <= 0):

    S: gamma * sum_{m <= M} Lambda(q m + a)
    T: gamma * sum_{m <= M, m == a (q)} Lambda(m)
    N: gamma * #{m <= M : q m + a prime}
    M: gamma * pi(M; q, a)

    It reads the records with 1 <= m <= M(L), L the last N.
    """
    grid = _checked_grid(grid, mode)
    tops = [params.term(N) for N in grid]
    blocks = _records(r, mode, table, 1, tops[-1])
    gf = float(params.gamma)
    return [gf * t for t in _carried_totals(((lam, m, m + 1) for m, lam in blocks),
                                            tops)]


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
    lhs = beatty_sums(params, r, grid, mode, table)
    if target == "main":
        main = main_terms(params, r, grid, mode, table)
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
