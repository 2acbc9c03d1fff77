"""
Beatty sequences: generation, membership, inversion
===================================================
"""

from collections import Counter
from fractions import Fraction

import numpy as np

from beattykit import BeattyParams, generate, is_member, parse_irrational

# floor(sqrt2 * n), the classic
p = BeattyParams(parse_irrational("sqrt:2"), 0)
print("floor(sqrt2 n):", generate(p, 16).tolist())

# gaps only ever take two values, floor(alpha) and floor(alpha)+1
terms = generate(p, 10 ** 5)
gaps = Counter(np.diff(terms).tolist())
print("gap histogram over 1e5 terms:", dict(gaps))

# membership without scanning: is m = floor(sqrt2 n) for some n?
for m in (24, 25, 26, 10 ** 12 + 7):
    n = is_member(p, m)
    if n is None:
        print(f"{m}: not in the sequence")
    else:
        print(f"{m}: yes, n = {n} (check: floor = {p.term(n)})")

# a shifted sequence with negative offset; first terms may be <= 0 and
# membership still answers exactly
shifted = BeattyParams(parse_irrational("quad:1/2+sqrt:5"), Fraction(-17, 10))
print("\nfloor(phi n - 1.7):", generate(shifted, 12).tolist())
print("witness for m = 14:", is_member(shifted, 14))

# alpha < 1 sequences hit every integer, some more than once; they split
# into t = ceil(1/alpha) interleaved alpha*t sequences
small = BeattyParams(parse_irrational("quad:0/2+sqrt:2"), 0)  # sqrt2/2
t = small.gamma.floor() + 1     # ceil(1/alpha), as 1/alpha is irrational
print(f"\nalpha = {float(small.alpha):.4f} splits into t = {t} parts")
merged = []
for j in range(t):
    # n = t*k + j gives floor((alpha*t)*k + (alpha*j + beta)), alpha*t > 1
    part = BeattyParams(small.alpha * t,
                        small.alpha * j + small.beta if j else small.beta)
    print(f"  n = {t}k+{j} -> "
          f"floor({float(part.alpha):.4f} k + {float(part.beta):+.4f})")
    merged += part.terms(np.arange(0 if j else 1, (30 - j) // t + 1)).tolist()
merged.sort()
whole = sorted(generate(small, 30).tolist())
print("direct:", whole)
print("merged:", merged)
assert whole == merged
