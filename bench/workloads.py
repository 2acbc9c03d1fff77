"""The benchmark's workloads: which commands one pass runs, from a seed.

A seed picks the residue classes, the shift beta and the `dec:` digits
from small pools whose members cost the same (same modulus, same sieve
limit, same number of digits); it never changes a size.  Because the
pools are small, `refs.json` can hold the reference report of every
command any seed can produce.

Sizes come in two sets: FULL, which the timed runs use, and SMOKE, tiny
sizes that the benchmark's own test runs in a few seconds.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

WORKLOADS = ("sweep", "phase", "decimal")

# classes a mod 7 and a mod 3: one modulus each, so every choice sieves
# to the same limit.  Each count sweep grades its error decay with a
# three-point fit that fails (exit 2) for some classes at these grids;
# the pools keep only members on which every command passes.
CLASSES_7 = (1, 3)
CLASSES_3 = (1, 2)
BETAS = ("0", "1/3", "1/2")
SHIFTS = ("0", "1/3", "2/7")
# sqrt(d)/10 for d = 199, 201, 202, 206 to 40 decimals: irrational-looking
# reals in [1.41, 1.44], so the count-sweep sieve limit moves by 2%.
# (d = 203 and 205 peak 7% higher in RSS, an allocator threshold rather
# than more work, and d = 197 fails a count-sweep verdict.)
DIGITS = ("1.4106735979665884425232163690877326477938",
          "1.4177446878757825202955618542708577926112",
          "1.4212670403551895496970929487628082680189",
          "1.4352700094407323747004299641472268099453")

FULL = {
    "grid": "1e4,1e5,5e5", "sieve_grid": "1e5,1e6,5e6", "m_max": 5 * 10 ** 5,
    "M": 5 * 10 ** 5, "K": 8, "sandwich_K": 4096, "sandwich_points": 5000,
    "N": 10 ** 5, "dec_M": 15 * 10 ** 4, "dec_K": 4,
}
SMOKE = {
    "grid": "1e2,1e3,1e4", "sieve_grid": "1e3,1e4,1e5", "m_max": 10 ** 4,
    "M": 10 ** 4, "K": 2, "sandwich_K": 64, "sandwich_points": 200,
    "N": 2000, "dec_M": 3000, "dec_K": 2,
}


@dataclass(frozen=True)
class Command:
    """One closed-loop request: a CLI call or a library step.

    family groups commands into the end-to-end time they count toward;
    kind is "cli" (python -m beattykit.cli ARGS) or "lib" (a library
    step run by child.py).
    """
    family: str
    kind: str
    args: tuple

    @property
    def key(self) -> str:
        return " ".join((self.kind,) + self.args)


def _cli(family, *args):
    return Command(family, "cli", tuple(str(a) for a in args))


def _lib(family, *args):
    return Command(family, "lib", tuple(str(a) for a in args))


def _sweep(c, s):
    a7, beta = c["a7"], c["beta"]
    cmds = [_cli("count_sweep", "count", "sweep", "--alpha", "sqrt:2",
                 "--beta", beta, "--q", 7, "--a", a7, "--grid", s["grid"],
                 "--mode", mode) for mode in "STNM"]
    cmds += [
        # alpha = sqrt(2)/2 < 1 goes through the small-alpha decomposition
        _cli("count_sweep", "count", "sweep", "--alpha", "quad:0/2+sqrt:2",
             "--beta", beta, "--q", 7, "--a", a7, "--grid", s["grid"],
             "--mode", "S"),
        _cli("count_sweep", "count", "sweep", "--alpha", "sqrt:2",
             "--beta", beta, "--q", 2, "--a", 1, "--grid", s["grid"],
             "--mode", "T", "--target", "density"),
        _cli("sieve", "sieve", "psi", "--q", 7, "--a", a7,
             "--grid", s["sieve_grid"]),
        _cli("sieve", "sieve", "pi", "--q", 7, "--a", a7,
             "--grid", s["sieve_grid"]),
        _lib("membership", "membership", "--m-max", s["m_max"],
             "--beta", beta),
    ]
    return cmds


def _phase(c, s):
    a3, shift = c["a3"], c["shift"]
    return [
        _cli("expsum", "expsum", "eval", "--alpha", "sqrt:2", "--q", 3,
             "--a", a3, "--M", s["M"], "--K", s["K"]),
        _cli("expsum", "expsum", "identity-check", "--alpha",
             "quad:1/2+sqrt:5", "--q", 3, "--a", a3, "--M", s["M"]),
        _cli("discrepancy", "discrepancy", "--alpha", "quad:1/2+sqrt:5",
             "--delta", shift, "--M", s["M"]),
        _lib("sandwich", "sandwich", "--K", s["sandwich_K"],
             "--points", s["sandwich_points"], "--shift", shift),
    ]


def _decimal(c, s):
    alpha = f"dec:{c['digits']}@200"
    a7, a3, beta = c["a7"], c["a3"], c["beta"]
    return [
        _cli("generate", "beatty", "generate", "--alpha", alpha,
             "--beta", beta, "--N", s["N"]),
        _cli("count_sweep", "count", "sweep", "--alpha", alpha,
             "--beta", beta, "--q", 7, "--a", a7, "--grid", s["grid"],
             "--mode", "S"),
        _cli("discrepancy", "discrepancy", "--alpha", alpha,
             "--delta", beta, "--M", s["dec_M"]),
        _cli("expsum", "expsum", "eval", "--alpha", alpha, "--q", 3,
             "--a", a3, "--M", s["M"], "--K", s["dec_K"]),
    ]


_BUILDERS = {"sweep": _sweep, "phase": _phase, "decimal": _decimal}
_POOLS = {"a7": CLASSES_7, "a3": CLASSES_3, "beta": BETAS,
          "shift": SHIFTS, "digits": DIGITS}


def choices(seed: int) -> dict:
    """The pool members a seed picks; the same seed gives the same inputs."""
    rng = random.Random(seed)
    return {name: rng.choice(pool) for name, pool in _POOLS.items()}


def commands(workload: str, seed: int, smoke: bool = False) -> list:
    """The commands of one pass of a workload, in the order they run."""
    return _BUILDERS[workload](choices(seed), SMOKE if smoke else FULL)


def every_command(smoke: bool = False) -> list:
    """Each distinct command that some seed can produce, for any workload."""
    seen = {}
    names = list(_POOLS)
    for combo in itertools.product(*(_POOLS[n] for n in names)):
        c = dict(zip(names, combo))
        for build in _BUILDERS.values():
            for cmd in build(c, SMOKE if smoke else FULL):
                seen.setdefault(cmd.key, cmd)
    return list(seen.values())
