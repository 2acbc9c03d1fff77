"""Reference program: a fixed mix of the work beattykit commands do.

    python bench/calibrate.py

run.py runs this program in a fresh interpreter between the commands of a
run and divides each command's time by how much slower than usual the
runs of it on either side were (see README.md, "Machine speed").  It
starts an interpreter and imports what the CLI imports, runs a pure-Python
loop of integer and Fraction arithmetic (as the exact kernels do), then
sieves with numpy (as the prime tables do).  It imports nothing from
beattykit, so no change to the program can move it.  On a 2-vCPU Xeon VM
it takes 0.26-0.42 s: interpreter start and imports 0.18-0.25 s (a command
pays the same), the Python loop 0.10-0.15 s and the sieve about 0.05 s.
The Python loop has the largest share because the machine's slow spells
slow pure-Python code most, and most of the commands' time is spent there.
"""

import argparse  # noqa: F401  (imported as the CLI does)
import json      # noqa: F401
import math
from fractions import Fraction

import numpy as np


def python_part(n=15000):
    total, x = 0, Fraction(0)
    step = Fraction(1414213562, 1000000000)
    for k in range(1, n):
        x += step
        if x >= 1:
            x -= math.floor(x)
        total += (k * k) % 7 + (x > Fraction(1, 2))
    return total


def numpy_part(limit=6 * 10 ** 6):
    is_prime = np.ones(limit + 1, dtype=bool)
    is_prime[:2] = False
    for p in range(2, math.isqrt(limit) + 1):
        if is_prime[p]:
            is_prime[p * p::p] = False
    primes = np.flatnonzero(is_prime)
    return int(np.log(primes.astype(np.float64)).sum())


if __name__ == "__main__":
    print(python_part(), numpy_part())
