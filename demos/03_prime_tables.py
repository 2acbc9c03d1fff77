"""
Segmented sieve, Mangoldt weights, progression counts
=====================================================

Build one table and read everything off it: primality, Lambda values,
Chebyshev sums in progressions, prime-power records.
"""

import math

import numpy as np

from beattykit import (build_table, chebyshev_psi_ap, euler_phi,
                       prime_pi_ap, ResidueClass)

L = 2 * 10 ** 6
table = build_table(L)
powers, logs = table.records_upto(L)
print(f"table of range {L}: {powers.size} prime powers")

# pi(x) and pi(x; q, a); the progression counts split pi(x) evenly
# across the phi(q) coprime classes, per the prime number theorem
x = 10 ** 6
print(f"\npi({x}) = {prime_pi_ap(table, x, (0, 1))}")
for q in (3, 4):
    for a in range(1, q):
        if math.gcd(a, q) == 1:
            c = prime_pi_ap(table, x, ResidueClass(a, q))
            print(f"  pi(x; {q}, {a}) = {c}  (even share would be "
                  f"{78498 / euler_phi(q):.0f})")

# psi(L; q, a) tracks L/phi(q); the relative deviation decays slowly
print("\npsi(L; q, a) vs L/phi(q):")
for La in (10 ** 4, 10 ** 5, 10 ** 6):
    v = chebyshev_psi_ap(table, La, ResidueClass(1, 4))
    main = La / euler_phi(4)
    print(f"  L = {La:>8}: psi = {v:14.3f}  dev = {abs(v-main)/La:.2e}")

# proper prime powers are rare; show the ones near the top of a decade
sel = (powers > 9000) & (powers <= 10 ** 4) & (powers != table.base)
proper = [(int(n), round(math.exp(lg)))
          for n, lg in zip(powers[sel], logs[sel])]
print("\nproper prime powers (n, p) in (9000, 10000]:", proper)

# Lambda recovers log via its divisor sums: sum_{d | n} Lambda(d) = log n
n = 360
ds = [d for d in range(1, n + 1) if n % d == 0]
lhs = math.fsum(table.mangoldt_values(np.array(ds)).tolist())
print(f"\nsum of Lambda over divisors of {n} = {lhs:.12f}")
print(f"log {n}                           = {math.log(n):.12f}")
