"""
Primes in progressions along a Beatty sequence
==============================================

The headline computation: among the values q*floor(alpha n + beta) + a,
the Lambda-weighted count S(N) grows like (q/phi(q)) * N, exactly as if
the Beatty values were plain integers thinned by 1/alpha.  verify_sweep
runs the comparison over an N-grid and grades the error decay.
"""

from beattykit import (BeattyParams, beatty_sums, build_table, main_terms,
                       parse_irrational, ResidueClass, verify_sweep)

p = BeattyParams(parse_irrational("sqrt:2"), 0)
r = ResidueClass(1, 2)
grid = (10 ** 3, 10 ** 4, 10 ** 5)
table = build_table(2 * int(p.term(grid[-1])) + 2)

rep = verify_sweep(p, r, grid, "S", table, target="main", tol=0.05)
print("S(N) against the Lambda main term, (q,a) = (2,1):")
for row in rep.rows:
    print(f"  N = {row.N:>7}  S = {row.lhs:12.2f}  main = {row.main:12.2f}"
          f"  rel err = {row.rel_err:.3e}")
print(" ", rep.summary())

# the same sweep graded against the closed-form density q/phi(q)
rep2 = verify_sweep(p, r, grid, "S", table, target="density", tol=0.05)
print("\nagainst the closed form (q/phi(q)) * N:")
for row in rep2.rows:
    print(f"  N = {row.N:>7}  rel err = {row.rel_err:.3e}")
print(" ", rep2.summary())

# T-mode conditions on the Beatty value itself lying in the class a mod q
rep3 = verify_sweep(p, ResidueClass(1, 3), grid, "T", table,
                    target="density", tol=0.05)
print("\nT-mode, terms in class 1 mod 3, prediction N/phi(3):")
for row in rep3.rows:
    print(f"  N = {row.N:>7}  T = {row.lhs:12.2f}  rel err = {row.rel_err:.3e}")

# raw prime counts, no weights: primes of the form 2*floor(sqrt2 n) + 1,
# against (1/alpha) * pi(2 floor(sqrt2 N) + 1; 2, 1)
N = 10 ** 5
c = int(beatty_sums(p, r, [N], "N", table)[0])
m = main_terms(p, r, [N], "N", table)[0]
print(f"\nprimes 2*floor(sqrt2 n)+1 over n <= {N}: {c}")
print(f"main term: {m:.1f}  (ratio {c / m:.4f})")
