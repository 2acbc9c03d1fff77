"""Segmented sieve for the von Mangoldt function and progression counts.

build_table walks [2, limit] in fixed-size segments, so the working set
during construction is O(sqrt(limit) + segment); the outputs (a primality
bitmap and the sorted list of prime-power records) are what they are.  All
log values are taken once per record with math.log; rebuilding a table
with a different segment gives bit-identical records.

Sums of Lambda values are exact until one final rounding (lambda_units).
Each value is a double log p with log 2 <= log p < 2**6: log p >= log 2 >
1/2 makes it a multiple of 2**-53, so Lambda * 2**53 is an integer below
2**59 and fits an int64.  Such integers are summed in two limbs below 2**30
each, so the int64 limb sums could overflow only past 2**33 values, and
float(units) * 2**-53 is the correctly rounded sum of the exact values.
Equal multisets of values thus give bit-identical totals however they are
ordered or cut (Demmel and Nguyen, ARITH 2013).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import LimitTooLarge, TableTooSmall

__all__ = ["MangoldtTable", "ResidueClass", "build_table", "chebyshev_psi_ap",
           "prime_pi_ap", "euler_phi", "lambda_units", "DEFAULT_SEGMENT",
           "MAX_LIMIT"]

DEFAULT_SEGMENT = 1 << 20
MAX_LIMIT = 300_000_000  # keeps the bitmap plus records well under a GB
_LIMB = 30


@dataclass(frozen=True)
class ResidueClass:
    """A primitive residue class a mod q."""
    a: int
    q: int

    def __post_init__(self):
        if self.q < 1:
            raise ValueError(f"modulus must be >= 1, got {self.q}")
        if not 0 <= self.a < self.q:
            raise ValueError(f"residue {self.a} outside [0, {self.q})")
        if math.gcd(self.a, self.q) != 1:
            raise ValueError(f"residue class {self.a} mod {self.q} is not primitive")


def _split_class(r) -> tuple:
    """Accept a ResidueClass or a plain (a, q) pair.

    The pair form skips the coprimality requirement: psi(x; q, a) makes
    sense for any class, and the partition over all classes needs the
    imprimitive ones too.
    """
    if isinstance(r, ResidueClass):
        return r.a, r.q
    a, q = r
    if q < 1 or not 0 <= a < q:
        raise ValueError(f"bad residue pair ({a}, {q})")
    return a, q


@dataclass
class MangoldtTable:
    """Primality bitmap plus sorted prime-power records for [1, limit].

    Lambda(n) = log(base[i]) where power[i] == n, and 0 off the records.
    """
    limit: int
    segment_size: int
    is_prime: np.ndarray   # bool, indexed 0..limit
    power: np.ndarray      # int64, sorted prime powers p**k <= limit
    base: np.ndarray       # int64, the p for each record
    log_base: np.ndarray   # float64, log p per record

    @cached_property
    def primes(self) -> np.ndarray:
        return np.flatnonzero(self.is_prime).astype(np.int64)

    def require(self, n: int):
        if n > self.limit:
            raise TableTooSmall(
                f"need values up to {n}, but the table stops at {self.limit}")

    def mangoldt_values(self, ns) -> np.ndarray:
        """Lambda over an int64 array; entries must already be <= limit."""
        ns = np.asarray(ns, dtype=np.int64)
        out = np.zeros(ns.shape, np.float64)
        if self.power.size == 0:
            return out
        idx = np.minimum(np.searchsorted(self.power, ns), self.power.size - 1)
        hit = self.power[idx] == ns
        out[hit] = self.log_base[idx[hit]]
        return out

    def records_upto(self, L: int):
        """View of (power, log_base) restricted to power <= L."""
        self.require(L)
        cut = np.searchsorted(self.power, L, side="right")
        return self.power[:cut], self.log_base[:cut]


def _simple_sieve(limit: int) -> np.ndarray:
    flags = np.ones(limit + 1, bool)
    flags[:2] = False
    for p in range(2, math.isqrt(limit) + 1):
        if flags[p]:
            flags[p * p:: p] = False
    return np.flatnonzero(flags).astype(np.int64)


def build_table(limit: int, segment_size: int = DEFAULT_SEGMENT,
                max_limit: int = MAX_LIMIT) -> MangoldtTable:
    """Sieve [1, limit] into a MangoldtTable."""
    if limit < 1:
        raise ValueError("limit must be >= 1")
    if limit > max_limit:
        raise LimitTooLarge(f"limit {limit} exceeds the budget {max_limit}")
    if segment_size < 64:
        raise ValueError("segment size must be at least 64")
    root = math.isqrt(limit)
    base_primes = _simple_sieve(root) if root >= 2 else np.empty(0, np.int64)
    is_prime = np.zeros(limit + 1, bool)
    for seg_lo in range(2, limit + 1, segment_size):
        seg_hi = min(seg_lo + segment_size, limit + 1)
        mask = np.ones(seg_hi - seg_lo, bool)
        for p in base_primes.tolist():
            if p * p >= seg_hi:
                break
            start = max(p * p, ((seg_lo + p - 1) // p) * p)
            mask[start - seg_lo:: p] = False
        is_prime[seg_lo: seg_hi] = mask
    primes = np.flatnonzero(is_prime).astype(np.int64)
    extra_n, extra_p = [], []
    for p in primes[primes <= root].tolist():
        pk = p * p
        while pk <= limit:
            extra_n.append(pk)
            extra_p.append(p)
            pk *= p
    power = np.concatenate([primes, np.array(extra_n, np.int64)])
    base = np.concatenate([primes, np.array(extra_p, np.int64)])
    order = np.argsort(power, kind="stable")
    power, base = power[order], base[order]
    log_base = np.array([math.log(p) for p in base.tolist()], np.float64)
    return MangoldtTable(limit, segment_size, is_prime, power, base, log_base)


def lambda_units(values: np.ndarray) -> int:
    """The exact sum of an array of Lambda values (each 0 or a table's
    log p), as an integer count of 2**-53; see the module docstring."""
    fixed = (values * 2.0 ** 53).astype(np.int64)
    return (int((fixed >> _LIMB).sum()) << _LIMB) + \
        int((fixed & ((1 << _LIMB) - 1)).sum())


def chebyshev_psi_ap(table: MangoldtTable, L: int, r) -> float:
    """psi(L; q, a): sum of Lambda(n) over n <= L with n congruent to a mod q."""
    a, q = _split_class(r)
    table.require(L)
    if L < 2:
        return 0.0
    power, log_base = table.records_upto(L)
    return float(lambda_units(log_base[power % q == a])) * 2.0 ** -53


def prime_pi_ap(table: MangoldtTable, x: int, r) -> int:
    """pi(x; q, a): primes p <= x with p congruent to a mod q."""
    a, q = _split_class(r)
    table.require(max(x, 0))
    primes = table.primes
    cut = np.searchsorted(primes, x, side="right")
    if q == 1:
        return int(cut)
    return int(np.count_nonzero(primes[:cut] % q == a))


def euler_phi(q: int) -> int:
    """Euler's totient by trial-division factoring."""
    if q < 1:
        raise ValueError("totient argument must be >= 1")
    out, n, p = q, q, 2
    while p * p <= n:
        if n % p == 0:
            out -= out // p
            while n % p == 0:
                n //= p
        p += 1 if p == 2 else 2
    if n > 1:
        out -= out // n
    return out
