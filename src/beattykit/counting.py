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
membership sieve.  That sum is psi or pi of the class a mod q, over
a < n <= q*M + a (S, N) or n <= M (T, M), read from the table's records of
the class.  Densities q/phi(q) (for S) and 1/phi(q) (for T) give the
cruder closed-form predictions.

Every sum is exact until one final rounding: Lambda values are summed as
integer counts of 2**-53 (sieve.lambda_units), so equal multisets of terms
give bit-identical totals however the index set is ordered or cut.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .beatty import BeattyParams, generate
from .sieve import (MangoldtTable, ResidueClass, class_records, euler_phi,
                    lambda_units)

__all__ = ["SweepRow", "VerificationReport", "beatty_sums", "main_terms",
           "density_prediction", "verify_sweep", "MODES"]

MODES = ("S", "T", "N", "M")


def _checked_grid(grid, mode: str) -> list:
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    grid = [int(x) for x in grid]
    if not grid or grid[0] < 1:
        raise ValueError("N grid must be nonempty with every N >= 1")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValueError("N grid must be strictly ascending")
    return grid


def _prefix_sums(values: np.ndarray, r: ResidueClass, mode: str,
                 table: MangoldtTable, cuts) -> list:
    """The mode's sum over values[:c] for each nondecreasing cut c, a value
    m weighing what a term m(n) weighs in the module docstring.  Segments
    between cuts are summed exactly, so no prefix array is formed."""
    shifted = mode in ("S", "N")
    if values.size:
        top = int(values.max())
        table.require(r.q * top + r.a if shifted else top)
    out, total, lo = [], 0, 0
    for hi in cuts:
        seg = values[lo:hi]
        lo = hi
        seg = r.q * seg + r.a if shifted else seg[seg % r.q == r.a]
        seg = seg[seg >= 2]
        if mode in ("N", "M"):
            total += int(np.count_nonzero(table.is_prime[seg]))
            out.append(float(total))
            continue
        total += lambda_units(table.mangoldt_values(seg))
        out.append(float(total) * 2.0 ** -53)
    return out


def beatty_sums(params: BeattyParams, r: ResidueClass, grid, mode: str,
                table: MangoldtTable) -> list:
    """The mode's sum over n <= N of its weight at m(n), for each N of a
    strictly ascending grid, from one term array up to the last N."""
    grid = _checked_grid(grid, mode)
    return _prefix_sums(generate(params, grid[-1]), r, mode, table, grid)


def main_terms(params: BeattyParams, r: ResidueClass, grid, mode: str,
               table: MangoldtTable) -> list:
    """gamma times the same sum over the integers m = 1..M(N), with
    M(N) = max(floor(alpha*N + beta), 0):

    S: gamma * sum_{m <= M} Lambda(q m + a)
    T: gamma * sum_{m <= M, m == a (q)} Lambda(m)
    N: gamma * #{m <= M : q m + a prime}
    M: gamma * pi(M; q, a)

    Each is a sum over the class's records (its primes for N and M) up to
    q*M + a or M, so each N of the grid is one cut into them.
    """
    grid = _checked_grid(grid, mode)
    scale, shift = (r.q, r.a) if mode in ("S", "N") else (1, 0)
    tops = [scale * max(params.term(N), 0) + shift for N in grid]
    at = class_records(table, tops[-1], r, shift + 1)
    ns, gf = table.power[at], float(params.gamma)
    if mode in ("N", "M"):
        ends = np.searchsorted(ns[table.is_prime[ns]], tops, side="right")
        return [gf * float(e) for e in ends.tolist()]
    lam, out, total, lo = table.log_base[at], [], 0, 0
    for hi in np.searchsorted(ns, tops, side="right").tolist():
        total += lambda_units(lam[lo:hi])
        lo = hi
        out.append(gf * (float(total) * 2.0 ** -53))
    return out


def density_prediction(params: BeattyParams, r: ResidueClass, N: int,
                         mode: str = "S") -> float:
    """Closed-form density prediction: (q/phi(q))*N for S, N/phi(q) for T."""
    if mode == "S":
        return r.q / euler_phi(r.q) * N
    if mode == "T":
        return N / euler_phi(r.q)
    raise ValueError("closed-form predictions exist for modes 'S' and 'T' only")


@dataclass
class SweepRow:
    N: int
    lhs: float
    main: float
    abs_err: float
    rel_err: float


@dataclass
class VerificationReport:
    """Sweep of lhs against main term over an N-grid, with an error-exponent fit.

    rel_err is abs_err/N when graded against the asymptotic main term (N is
    the natural error scale) and abs_err/|main| for closed-form density
    targets.
    The fitted exponent is the least-squares slope of log |abs_err| against
    log N; PASS requires the last rel_err under tolerance and, when at least
    three nonzero errors allow a fit, an exponent below 1.
    """
    mode: str
    target: str
    normalize: str
    tolerance: float
    rows: list
    fitted_exponent: Optional[float] = None
    fit_residual: Optional[float] = None
    observed: dict = field(default_factory=dict)
    passed: bool = False

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
    normalize = "N" if target == "main" else "prediction"
    rows = []
    for N, s, m in zip(grid, lhs, main):
        err = abs(s - m)
        scale = N if normalize == "N" else abs(m)
        rows.append(SweepRow(N, s, m, err, err / scale if scale else math.inf))
    report = VerificationReport(mode, target, normalize, tol, rows)
    fit_pts = [(math.log(row.N), math.log(row.abs_err))
               for row in rows if row.abs_err > 0 and row.N > 1]
    if len(fit_pts) >= 3:
        xs = np.array([p[0] for p in fit_pts])
        ys = np.array([p[1] for p in fit_pts])
        slope, intercept = np.polyfit(xs, ys, 1)
        resid = float(np.sqrt(np.mean((ys - (slope * xs + intercept)) ** 2)))
        report.fitted_exponent = float(slope)
        report.fit_residual = resid
        report.observed = {"kappa_hat": 1.0 - float(slope),
                           "C_hat": float(math.exp(intercept))}
    ok_tol = bool(rows and rows[-1].rel_err <= tol)
    ok_exp = report.fitted_exponent is None or report.fitted_exponent < 1.0
    report.passed = ok_tol and ok_exp
    return report
