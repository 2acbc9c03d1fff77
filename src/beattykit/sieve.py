"""Segmented sieve for the von Mangoldt function and progression counts.

build_table sieves the members n = q*m + a <= limit of one primitive class
a mod q; the class 0 mod 1 is all of [1, limit].  Its segments walk the
index m (Bays and Hudson, BIT 17, 1977): a base prime p <= sqrt(limit)
that does not divide q crosses off every p-th member, from the first one
at or past p*p, and each segment hands on only the primes it holds.  So
the work is about 1/phi(q) of the range, no array of limit + 1 entries is
ever allocated, and a base prime that lies in the class survives.  The
table is its sorted prime-power records, power and base; a record is a
prime exactly when power == base.  The few powers p**k == a (mod q),
k >= 2 (427 of all classes up to 5e6), are merged into the primes by
position.  A class table's records are exactly the full table's records
of that class, and rebuilding a table with a different SEGMENT gives
bit-identical records.  Readers take a class's records from class_blocks,
a block at a time: no other module of the package reads the arrays.

Each Lambda value is log p correctly rounded to a double, the same on every
platform: no libm log is called.  The logs are taken when a table's
log_base is first read, not at build, so a report that reads only the
records never pays for them, and a class table takes the logs of its own
records only.  _log_primes evaluates log p once per record
with a table-driven double-double kernel (Tang, ACM TOMS 16(4), 1990) of
IEEE + - * / only, whose proven error is below 2**-73 (_log_block).  A
value within the guard band _LOG_GUARD = 2**-70 of a rounding midpoint is
decided by decimal's correctly rounded ln at growing precision, compared
with the midpoints exactly (Ziv, ACM TOMS 17(3), 1991); PrecisionExhausted
is raised, at that first read of log_base, if even that cannot decide.  Up
to MAX_LIMIT, 5 of the 16.3 million primes fall in the band.

Sums of Lambda values are exact until one final rounding (lambda_units).
Each value is a double log p with log 2 <= log p < 2**6: log p >= log 2 >
1/2 makes it a multiple of 2**-53, so Lambda * 2**53 is an integer below
2**59 and fits an int64.  Such integers are summed in two limbs, below
2**29 and 2**30, each times a multiplicity: while those add to less than
2**33 the limb sums stay in int64, and float(units) * 2**-53 is the
correctly rounded sum of the exact values.  Equal multisets of values thus
give bit-identical totals however they are ordered or cut (Demmel and
Nguyen, ARITH 2013).
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property

import numpy as np

from .errors import LimitTooLarge, PrecisionExhausted, TableTooSmall

__all__ = ["MangoldtTable", "ResidueClass", "build_table", "chebyshev_psi_ap",
           "class_blocks", "prime_pi_ap", "euler_phi", "lambda_units",
           "SEGMENT", "MAX_LIMIT"]

SEGMENT = 1 << 20   # members of the class sieved at a time; no record depends on it
# the class 0 mod 1 up to MAX_LIMIT: 260 MB of records, built at 303 MB RSS,
# 405-427 MB with logs (heap layout moves it); a class a mod q about 1/phi(q) of it
MAX_LIMIT = 300_000_000
_LIMB = 30


class ResidueClass:
    """A primitive residue class a mod q."""
    __slots__ = ("a", "q")

    def __init__(self, a: int, q: int):
        if q < 1:
            raise ValueError(f"modulus must be >= 1, got {q}")
        if not 0 <= a < q:
            raise ValueError(f"residue {a} outside [0, {q})")
        if math.gcd(a, q) != 1:
            raise ValueError(f"residue class {a} mod {q} is not primitive")
        self.a, self.q = a, q

    def __eq__(self, other):
        return type(other) is ResidueClass and (self.a, self.q) == (other.a, other.q)

    def __hash__(self):
        return hash((self.a, self.q))

    def __repr__(self):
        return f"ResidueClass(a={self.a}, q={self.q})"


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


class MangoldtTable:
    """The sorted prime-power records n <= limit of the class residue,
    a mod q, as int64 arrays power (each p**k) and base (its p); the class
    0 mod 1 holds every record of [1, limit].  build_table's segments walk
    m in n = q*m + a, so a class costs about 1/phi(q) of the full table's
    work and memory.

    Lambda(n) = log_base[i] = log(base[i]) where power[i] == n, and 0 at
    the class's other members; the primes are the records with power ==
    base.  log_base is computed when first read (the kernel works element
    by element, so a power p**k gets exactly log p), for the class's
    records only; that read is where PrecisionExhausted surfaces.
    """

    def __init__(self, limit: int, power: np.ndarray, base: np.ndarray,
                 residue: ResidueClass = ResidueClass(0, 1)):
        self.limit, self.power, self.base, self.residue = limit, power, base, residue

    @cached_property
    def is_prime(self) -> np.ndarray:
        """bool, indexed 0..limit: a bitmap of the table's primes, derived
        from its records when first read.  It costs limit + 1 bytes, and no
        command reads it."""
        flags = np.zeros(self.limit + 1, bool)
        flags[self.power[self.power == self.base]] = True
        return flags

    @cached_property
    def log_base(self) -> np.ndarray:
        """float64, log p per record, correctly rounded."""
        return _log_primes(self.base)

    def require(self, n: int):
        if n > self.limit:
            raise TableTooSmall(
                f"need values up to {n}, but the table stops at {self.limit}")

    def mangoldt_values(self, ns) -> np.ndarray:
        """Lambda over an int64 array; entries must already be <= limit.
        Only a table of every integer (0 mod 1) knows Lambda everywhere."""
        if self.residue.q != 1:
            raise ValueError(
                f"a table of the class {self.residue.a} mod {self.residue.q}"
                " does not know Lambda off its class")
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


_LOG_BLOCK = 1 << 14
_LOG_GUARD = 2.0 ** -70
_LN_DIGITS = (30, 60, 120, 240, 480, 960)
# ln 2 = _LN2_HI + _LN2_LO + O(2**-82); _LN2_HI has 21 significant bits
_LN2_HI = float.fromhex("0x1.62e43p-1")
_LN2_LO = float.fromhex("-0x1.05c610ca86c39p-29")
# c_j = round(2**29 / (257 + 2j)) / 2**21 ~ 1/(1 + (j + 1/2)/128), 21 bits
_RECIP = (((1 << 30) // (257 + 2 * np.arange(128)) + 1) >> 1) * 2.0 ** -21
# -ln c_j = hi + lo to 2**-107, four numbers (hi_j lo_j hi_j+1 lo_j+1) a line
_NEG_LN_RECIP = [float.fromhex(s) for s in """
1.fefeaa2b11bc0p-9 1.27f702afe28a8p-63 1.7dc319f812808p-7 -1.18841ef9d3c5fp-62
1.3ce99a346b391p-6 1.bc6ea1356f8e1p-60 1.b9fc8e7af9b2ap-6 -1.0769577978678p-64
1.1b0d90923d990p-5 -1.e9ae9df101997p-60 1.58a63afc8f4d5p-5 -1.cdab1808380c7p-59
1.95c7d1ec8ecbcp-5 -1.0aa4ddf4ee90cp-59 1.d27739adb1b92p-5 1.483dc77b70256p-59
1.075993598e4f1p-4 1.80dcfdde71063p-59 1.253f4ff0a14cbp-4 1.e3eb6b06b05acp-58
1.42eddeea647a5p-4 -1.111347cfdbf75p-58 1.6065451375a33p-4 -1.71e3403ad0bebp-59
1.7da73457b17c8p-4 -1.6f17e92a862b0p-58 1.9ab45762038c1p-4 1.6fde3d5fa4c62p-58
1.b78c47bb0f46ep-4 -1.df33c1098cc90p-58 1.d4317066cb872p-4 -1.0d8df0db7f6b9p-59
1.f0a2f18116406p-4 -1.fa12e90792222p-58 1.0671616ca5a76p-3 1.d0d17498eca4fp-58
1.14785346742c5p-3 1.a287ea38fd595p-57 1.22670ed0a5e23p-3 1.ab42a6a31a191p-60
1.303d7e0e4806fp-3 1.f4a83228ab024p-58 1.3dfc22cecc66ep-3 -1.2b3c04d57fdffp-58
1.4ba38539a57c9p-3 1.68a5f921a8633p-57 1.59339c598215fp-3 1.8d1b185a59b36p-57
1.66acfa272b2f5p-3 -1.0871ff8a9824dp-58 1.740f9d9403870p-3 -1.325c7d127abc9p-58
1.815c229435a43p-3 1.6883974419ebcp-59 1.8e92902886d46p-3 -1.169d814e56763p-57
1.9bb33e27e00cap-3 -1.a389b9cc75daap-59 1.a8bed7c882f59p-3 -1.e8c223c36d496p-58
1.b5b52128fb5d9p-3 -1.75e0cdedb93e7p-63 1.c2967e98c18eep-3 1.98416be381146p-58
1.cf6359209c5eep-3 1.639a216c061e3p-57 1.dc1bcdcabec8bp-3 1.c34c632d8b75fp-57
1.e8c04daaa60c8p-3 1.49ab2cf492927p-58 1.f550ab24b7b58p-3 1.717eb56eb1643p-59
1.00e6d81ad5329p-2 -1.968a5367382b8p-58 1.071b715cd5c60p-2 -1.af46495d7f3aep-58
1.0d46b3d9ab750p-2 1.a1f63b293b43ap-56 1.136865293a9a2p-2 1.7b5f3ae440c63p-56
1.1980c8bd4243cp-2 1.bd37b3185757cp-56 1.1f8ffa248a2f3p-2 -1.49fdf99b6f5b1p-56
1.2595ebcdf79c1p-2 1.df82a2faa28aep-59 1.2b93114b89e98p-2 -1.a578cd7e196bfp-58
1.31870a1544431p-2 1.eac43989be05ap-56 1.3772786bfdaf5p-2 1.25cd53567ab8cp-58
1.3d54fd5c1f722p-2 -1.e326386a1c849p-56 1.432ee8004e8f5p-2 1.f666a9a1b5373p-56
1.49005de400a9ep-2 -1.6007040b02f70p-57 1.4ec986260053cp-2 -1.4284c441a92c5p-56
1.548a303add283p-2 -1.819c4d385db31p-57 1.5a42b1cf4d03dp-2 -1.0ebb1dcee79cdp-56
1.5ff308ea793dbp-2 -1.7c60de1bc6f0bp-57 1.659b61903e2cap-2 -1.b11c0629c0f23p-57
1.6b3bbbc3594f7p-2 -1.75018fd475889p-57 1.70d41827895fep-2 -1.533b6bc659f84p-57
1.7664d4439dd1ap-2 1.2489f733c1533p-56 1.7bedf3837b288p-2 1.313e74da49f07p-57
1.816f4b5a0d54ap-2 1.adc15a4bf73a6p-57 1.86e90ea330c92p-2 1.3f63a1a9d4ea2p-59
1.8c5b71e58b56cp-2 1.3f4e70d7c16e2p-56 1.91c67bf45a84dp-2 -1.60e0c9ddf57d7p-56
1.972a345135159p-2 -1.da3f62d5f39d1p-56 1.9c86a32dc09b5p-2 -1.918a5cbf16b32p-56
1.a1dc018d5b9c3p-2 -1.efee084c9aca9p-56 1.a72a59c6bdc02p-2 1.7ab48ad191ab4p-56
1.ac7186458b129p-2 1.40adb1fce70aap-58 1.b1b1f3cbdff24p-2 -1.dcab1f91b4e58p-59
1.b6eb4d53cf496p-2 1.d4681c091a244p-58 1.bc1e0210dad62p-2 1.4f3765e8112d1p-59
1.c149ef115f227p-2 -1.4cd20e611b85ap-56 1.c66f54dff7050p-2 -1.40a398e2d66b4p-56
1.cb8e1184d7b9cp-2 1.d7057c26ac837p-58 1.d0a6352721ea6p-2 1.1565730eb86e3p-56
1.d5b8034e2c73dp-2 1.309594841ece6p-58 1.dac35b82c59c8p-2 1.ac3bf4d97ed78p-56
1.dfc850306d665p-2 1.0ee777ecee256p-59 1.e4c727e68786ap-2 -1.65b7bebc84ae3p-59
1.e9bf9019865d4p-2 -1.ee7e625bfd3ffp-56 1.eeb204840de70p-2 1.ec32072897024p-57
1.f39e674811f64p-2 1.3409b0178d9abp-56 1.f8849a4fe9f69p-2 -1.2e7910209ba56p-56
1.fd64e88f61626p-2 1.292332bee7e0cp-56 1.011fb4f260110p-1 1.40af09aa0cd98p-56
1.0389e65ce6465p-1 -1.9ec4f6bb2613ap-56 1.05f149e2645abp-1 1.d35a58925026bp-58
1.0855d1d4b4669p-1 1.0068fa1e849ddp-55 1.0ab7706ce1523p-1 -1.fd68c7544d8e2p-56
1.0d1632db9d843p-1 -1.b80b717b8b6e5p-57 1.0f7241e9b497dp-1 1.7a8443bc85c47p-55
1.11cb75587cf44p-1 1.421357affaf98p-55 1.1421f6a243f67p-1 1.5a3cf8d485df4p-55
1.1675d49aba794p-1 1.3a1cbca2e4434p-57 1.18c6e71f5cf9cp-1 1.bb3bc76c39df0p-57
1.1b1558e7da57fp-1 -1.3013b40610002p-55 1.1d611db6772fep-1 1.62e3306a07751p-56
1.1faa293870b5dp-1 1.807e14d3b3b14p-58 1.21f0c3965bf26p-1 1.76d6467f50999p-59
1.2434a8d483c52p-1 -1.bf4ccb42e0653p-58 1.26762213430f0p-1 -1.96a9022c70dd2p-56
1.28b5079f60839p-1 -1.0fbe771669cd4p-57 1.2af16a92642c4p-1 -1.f478e9a279df3p-57
1.2d2b3fa2edc9ep-1 1.bee9d2f3f8e00p-55 1.2f62b5550976ep-1 1.b655ff883f81fp-55
1.3197a3ea7fe8dp-1 -1.7a7254e1f8763p-55 1.33ca1d7328cbap-1 -1.3f3f608a76493p-57
1.35fa51bd36ec1p-1 1.24fc87f683febp-57 1.3828193587adap-1 -1.714b0028c1798p-55
1.3a536947ebfbdp-1 1.c95e2e08a5bc2p-57 1.3c7c72af734cbp-1 -1.4f7194861d7fbp-55
1.3ea32b76b3250p-1 -1.e19e7e3ca2e99p-56 1.40c7a7880dd0dp-1 1.14f34de7fde21p-56
1.42e9bf1df81afp-1 1.b2b5313def0a9p-55 1.4509a4733bb0cp-1 -1.fc0763e9f67d9p-57
1.47274e133ac47p-1 1.06cc17e1a3653p-55 1.4942b27a2fdacp-1 -1.12dd3c4eac637p-55
1.4b5bc8156e5bdp-1 -1.c8b98a12e6726p-55 1.4d72e1539ffeep-1 -1.52f5bf890dc0ep-55
1.4f879935028b7p-1 -1.d1c8d96177538p-56 1.519a42cba359dp-1 -1.64de6a86d1ab8p-55
1.53aad56b99be3p-1 1.74740750459c3p-56 1.55b9292b40e19p-1 1.31e79a18bc8a4p-55
1.57c573836f3b3p-1 -1.65d399492ea29p-57 1.59cfabffae921p-1 -1.e2ea8652a6a62p-55
1.5bd7ca1e71db3p-1 -1.802b75d8adfffp-55 1.5ddde50149924p-1 1.d9f46eca133a8p-56
1.5fe1f46d189cfp-1 -1.9509f19c11482p-56 1.61e3f01a46467p-1 -1.436e4fb134b1cp-56
""".split()]
_T_HI = np.array(_NEG_LN_RECIP[0::2])
_T_LO = np.array(_NEG_LN_RECIP[1::2])
# log1p(r) - r + r**2/2 = r**3 * (1/3 - r/4 + ... + r**6/9) + O(r**10)
_LOG1P_TAIL = [(-1) ** (i + 1) / i for i in range(9, 2, -1)]
_SPLIT = 2.0 ** 27 + 1


def _two_sum(a, b):
    """s + t == a + b exactly, s = fl(a + b) (Knuth)."""
    s = a + b
    bb = s - a
    return s, (a - (s - bb)) + (b - bb)


def _log_block(x: np.ndarray):
    """(y, undecided): y = fl(log x) wherever undecided is False.

    x holds integers 2 <= x < 2**29 as float64; u = 2**-53.

    Reduction.  frexp gives x = f * 2**k with f in [1, 2) of at most 29
    significant bits and 1 <= k <= 28.  Let j = floor(128(f - 1)), the top
    7 bits of f - 1, z = 1 + (j + 1/2)/128 and c = _RECIP[j], 21 bits within
    2**-22 of 1/z.  Then f*c is exact (50 bits), |f/z - 1| <= 1/257 and so
    |r| < 2**-8 for r = f*c - 1, which Sterbenz makes exact, and
        log x = k ln 2 + T_j + log1p(r),    T_j = -ln c.

    Evaluation.  k*_LN2_HI is exact (5 + 21 bits).  TwoSum gives s + t =
    k*_LN2_HI + hi_j exactly, s < 20.2, |t| <= 2**-49; Dekker's TwoProduct
    gives h + hl = r**2 exactly, h < 2**-16, |hl| <= 2**-70; TwoSum gives
    v + vl = r - h/2 and w + wl = s + v exactly, |vl| <= 2**-61, |wl| <=
    2**-49.  q = h*r*P(r) is the series from r**3 by Horner in double, and
    tail = (k*_LN2_LO + q) + ((t + wl) + (lo_j + (vl - hl/2))); a last
    TwoSum gives y + rem = w + tail exactly.

    Bound.  |log x - y - rem| is at most the sum of
      k |ln 2 - _LN2_HI - _LN2_LO|      <= 28 * 1.7e-25     < 2**-77.4
      |T_j - hi_j - lo_j|               <= u * 2**-54       = 2**-107
      the series past r**9              <= 2**-80/10 * 1.01 < 2**-83
      q against r**3 P(r): |r|**3 < 2**-24 and |P| < 0.336; Horner with
        rounded coefficients is within 13u * 0.336 < 4.4u of P, and the
        three products add 3.01u * 0.336, so 2**-24 * 5.5u  < 2**-74.5
      rounding in tail: k*_LN2_LO < 2**-24 and the sum with q < 2**-23.4,
        each within half an ulp (2**-78, 2**-77), the last add 2**-77,
        the small terms below 2**-99 together             < 2**-75.6
    which totals under 2**-73.8.  No y is a power of two: e, e**2, e**4,
    e**8 and e**16 < 2**24 are each more than 0.04 from an integer, so
    |log x - 2**n| > 0.04/2**24 > 2**-29 for each n, while |y - log x| <
    |rem| + 2**-73.8 < 2**-48.
    So the rounding gaps of y are ulp(y) on both sides, TwoSum leaves |rem|
    <= ulp(y)/2, and y = fl(log x) whenever ulp(y)/2 - |rem| > 2**-73.8.  A
    value is undecided unless ulp(y)/2 - |rem| exceeds _LOG_GUARD = 2**-70,
    eight times the bound; that difference is exact when |rem| >= ulp(y)/4
    (Sterbenz) and far above the guard otherwise.
    """
    m, e = np.frexp(x)
    f = m + m
    k = e - 1.0
    j = (f.view(np.int64) >> 45) - (1023 << 7)  # the top 7 bits of f - 1
    r = f * _RECIP[j] - 1.0
    s, t = _two_sum(k * _LN2_HI, _T_HI[j])
    h = r * r
    rs = r * _SPLIT
    rh = rs - (rs - r)
    rl = r - rh
    hl = ((rh * rh - h) + 2.0 * rh * rl) + rl * rl
    v, vl = _two_sum(r, -0.5 * h)
    w, wl = _two_sum(s, v)
    p = _LOG1P_TAIL[0]
    for coef in _LOG1P_TAIL[1:]:
        p = p * r + coef
    tail = (k * _LN2_LO + h * r * p) + ((t + wl) + (_T_LO[j] + (vl - 0.5 * hl)))
    y, rem = _two_sum(w, tail)
    half = np.ldexp(1.0, np.frexp(y)[1] - 54)
    return y, half - np.abs(rem) <= _LOG_GUARD


def _log_exact(n: int) -> float:
    """fl(ln n) from decimal's correctly rounded ln, certified against the
    exact rounding midpoints; ln n is irrational, so some precision decides
    it, and PrecisionExhausted is raised past the last of _LN_DIGITS."""
    import decimal
    for digits in _LN_DIGITS:
        d = decimal.Context(prec=digits).ln(decimal.Decimal(n))
        y = float(d)
        rad = Fraction(10) ** (d.adjusted() - digits + 1) / 2
        lo = (Fraction(y) + Fraction(math.nextafter(y, 0.0))) / 2
        hi = (Fraction(y) + Fraction(math.nextafter(y, math.inf))) / 2
        if lo < Fraction(d) - rad and Fraction(d) + rad < hi:
            return y
    raise PrecisionExhausted(
        f"ln {n} not decided to {_LN_DIGITS[-1]} digits")


def _log_primes(ns: np.ndarray) -> np.ndarray:
    """log n correctly rounded to float64, for int64 2 <= n < 2**29."""
    if ns.size and not (2 <= ns.min() and ns.max() < 1 << 29):
        raise ValueError("log kernel needs 2 <= n < 2**29")
    out = np.empty(ns.size)
    for lo in range(0, ns.size, _LOG_BLOCK):
        y, undecided = _log_block(ns[lo:lo + _LOG_BLOCK].astype(np.float64))
        out[lo:lo + y.size] = y
        for i in np.flatnonzero(undecided).tolist():
            out[lo + i] = _log_exact(int(ns[lo + i]))
    return out


def _simple_sieve(limit: int) -> np.ndarray:
    flags = np.ones(limit + 1, bool)
    flags[:2] = False
    for p in range(2, math.isqrt(limit) + 1):
        if flags[p]:
            flags[p * p:: p] = False
    return np.flatnonzero(flags).astype(np.int64)


def build_table(limit: int, residue=ResidueClass(0, 1)) -> MangoldtTable:
    """Sieve the members n = q*m + a <= limit of a primitive class a mod q
    (by default 0 mod 1, all of [1, limit]) into a MangoldtTable, SEGMENT
    members at a time."""
    if limit < 1:
        raise ValueError("limit must be >= 1")
    if limit > MAX_LIMIT:
        raise LimitTooLarge(f"limit {limit} exceeds the budget {MAX_LIMIT}")
    residue = ResidueClass(*_split_class(residue))  # refuses an imprimitive pair
    a, q = residue.a, residue.q
    base_primes = _simple_sieve(math.isqrt(limit)).tolist()
    # p crosses off m == -a/q (mod p) from its first m with q*m + a >= p*p;
    # a p dividing q divides no member
    crossing = [(-((a - p * p) // q), -a * pow(q, -1, p) % p, p)
                for p in base_primes if q % p]
    m_lo, m_hi = max(-((a - 2) // q), 0), (limit - a) // q
    step = min(q, limit)  # q > limit leaves only m = 0: n stays in int64
    chunks = [np.empty(0, np.int64)]  # each segment's primes
    for seg_lo in range(m_lo, m_hi + 1, SEGMENT):
        seg_hi = min(seg_lo + SEGMENT, m_hi + 1)
        mask = np.ones(seg_hi - seg_lo, bool)
        for first, root, p in crossing:
            if first >= seg_hi:
                break
            lo = max(first, seg_lo)
            mask[lo - seg_lo + (root - lo) % p:: p] = False
        ns = np.flatnonzero(mask)
        ns *= step
        ns += step * seg_lo + a
        chunks.append(ns)
    power = np.concatenate(chunks)  # the primes, until the merge below
    del chunks
    # the powers p**k == a (mod q), k >= 2, as (p**k, p), merged in by position
    extra = []
    for p in base_primes:
        pk = p * p
        while pk <= limit:
            if pk % q == a:
                extra.append((pk, p))
            pk *= p
    extra = np.array(sorted(extra), np.int64).reshape(-1, 2)
    at = np.searchsorted(power, extra[:, 0])
    power = np.insert(power, at, extra[:, 0])  # frees the prime-only array
    base = power.copy()  # p at a prime; the j-th p**k lands at at[j] + j
    base[at + np.arange(at.size)] = extra[:, 1]
    return MangoldtTable(limit, power, base, residue)


def lambda_units(values: np.ndarray, times=1) -> int:
    """The exact sum of values[i] * times[i], over Lambda values (each a
    multiple of 2**-53 below 2**6, such as 0 or a table's log p) and
    integer multiplicities >= 0, as an integer count of 2**-53."""
    fixed = (values * 2.0 ** 53).astype(np.int64)
    return (int(((fixed >> _LIMB) * times).sum()) << _LIMB) + \
        int(((fixed & ((1 << _LIMB) - 1)) * times).sum())


def class_blocks(table: MangoldtTable, L: int, r, min_n: int = 2,
                 primes: bool = False):
    """The records n congruent to a mod q with min_n <= n <= L, as pairs
    (n, Lambda(n)) in ascending blocks of _LOG_BLOCK table positions; a
    block that holds none of them is skipped.  With primes, only the
    records that are primes (power == base), as (n, None): log_base is not
    read.  For the table's own class the arrays are slices of the table,
    so a reader must not change them in place.  The class must lie inside
    the table's, a mod q with q a multiple of the table's modulus, and L
    inside the table; both are checked when the first block is asked for."""
    a, q = _split_class(r)
    held = table.residue
    if q % held.q or a % held.q != held.a:
        raise ValueError(f"a table of the class {held.a} mod {held.q} does not"
                         f" hold the class {a} mod {q}")
    table.require(L)
    hi = int(np.searchsorted(table.power, L, side="right"))
    for lo in range(int(np.searchsorted(table.power, min_n)), hi, _LOG_BLOCK):
        at = slice(lo, min(lo + _LOG_BLOCK, hi))
        ns, keep = table.power[at], None
        if q != held.q:
            # up to L < q the class holds only n = a, and q need not fit an int64
            keep = ns == a if q > L else ns % q == a
        if primes:
            prime = ns == table.base[at]
            keep = prime if keep is None else keep & prime
        if keep is None:
            yield ns, table.log_base[at]
        elif keep.any():
            yield ns[keep], None if primes else table.log_base[at][keep]


def chebyshev_psi_ap(table: MangoldtTable, L: int, r) -> float:
    """psi(L; q, a): sum of Lambda(n) over n <= L with n congruent to a mod q."""
    return float(sum(lambda_units(lam) for _, lam in class_blocks(table, L, r))) \
        * 2.0 ** -53


def prime_pi_ap(table: MangoldtTable, x: int, r) -> int:
    """pi(x; q, a): primes p <= x with p congruent to a mod q."""
    return sum(ns.size for ns, _ in class_blocks(table, x, r, primes=True))


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
