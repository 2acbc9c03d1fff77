"""
The smoothed indicator and exponential sums over primes
=======================================================

Membership in a Beatty sequence is an indicator of {gamma m + delta}
falling in (0, gamma].  That indicator has jumps, so sums over primes are
handled through a trigonometric-polynomial sandwich psi_Delta whose
Fourier coefficients decay fast, leaving exponential sums
sum Lambda(qm+a) e(gamma k m) to estimate.  This demo shows both halves:
the sandwich is certifiably tight, and the sums really do cancel.
"""

import math

import numpy as np

from beattykit import (build_psi_delta, build_table, chebyshev_psi_ap,
                       exp_sum_shifted, parse_irrational, ResidueClass,
                       substitution_identity_check)


def psi_indicator(x, gamma):
    """Period-1 indicator of (0, gamma]: 1 when 0 < {x} <= gamma, else 0."""
    r = x - math.floor(x)
    return 1.0 if 0 < r <= gamma else 0.0


gamma = 1 / math.sqrt(2)
pd = build_psi_delta(gamma, 0.02, 400)
print(f"psi_Delta: gamma = {gamma:.6f}, Delta = {pd.delta}, K = {pd.K}")
print(f"  mean coefficient = {pd.mean:.6f} (= gamma)")
print(f"  worst |g_k| / bound over all k: {pd.max_bound_ratio():.6f}")
print(f"  tail bound 1/(pi^2 K Delta) = {pd.tail_bound():.3e}")

# away from the jumps at 0 and gamma the truncated series matches the
# sharp indicator to within the tail bound
for x in (0.10, 0.35, 0.71, 0.95):
    v = pd.evaluate(x)
    print(f"  x = {x:.2f}: psi_Delta = {v:+.6f},  psi = "
          f"{psi_indicator(x, gamma):.0f}")

# cancellation: for irrational gamma the phased Lambda sum is tiny next
# to the trivial bound sum Lambda
table = build_table(300_001)
M = 10 ** 5
for q, a in ((2, 1), (3, 1)):
    r = ResidueClass(a, q)
    s = exp_sum_shifted(table, M, r, parse_irrational("sqrt:2"), 1)
    ns = np.arange(1, M + 1, dtype=np.int64)
    triv = math.fsum(table.mangoldt_values(q * ns + a).tolist())
    print(f"\n(q,a) = ({q},{a}): |sum Lambda(qm+a) e(sqrt2 m)| = {abs(s):10.2f}")
    print(f"            trivial bound sum Lambda      = {triv:10.2f}"
          f"   ratio {abs(s)/triv:.4f}")

# a rational phase makes the cancellation vanish: with gamma = 1/2 the
# phases e(m/2) are just alternating signs
s = exp_sum_shifted(table, M, ResidueClass(0, 1), parse_irrational("dec:0.5"), 1)
psi_M = chebyshev_psi_ap(table, M, ResidueClass(0, 1))
print(f"\ncontrol gamma = 1/2, q = 1: ratio = {abs(s) / psi_M:.4f}"
      " (no cancellation)")

# the reindexing identity behind the whole reduction, checked exactly
chk = substitution_identity_check(table, 4000, ResidueClass(2, 5),
                                  parse_irrational("sqrt:3"), 2)
print(f"\nsubstitution identity at (q,a,M,k) = (5,2,4000,2):")
print(f"  lhs = {chk.lhs:.10f}")
print(f"  rhs = {chk.rhs:.10f}")
print(f"  relative residual = {chk.relative:.3e}")
