"""Child-process side of the benchmark: library steps and traced runs.

    python bench/child.py [--trace SPANS.json] cli ARGS...
    python bench/child.py [--trace SPANS.json] lib membership|sandwich ARGS...

`cli` runs beattykit.cli.main(ARGS) in this process; untimed runs call
`python -m beattykit.cli` directly instead, so only traced runs go through
here.  `lib` runs one of the two library workflows and writes a report in
the CLI's format to stdout.

With --trace, the public functions of every layer are wrapped before the
command runs.  Each call records a span (name, start, end, parent, command
id, and exact counts taken from the arguments and result); spans stay in
memory and are written as JSON when the command ends.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
import time
from fractions import Fraction

import numpy as np

import beattykit
import beattykit.cli
from beattykit import beatty, counting, expsum, irrational, sieve, surd


# -- library steps -----------------------------------------------------------

MEMBERSHIP_ALPHAS = ("sqrt:3", "quad:1/2+sqrt:5")
SANDWICH_ALPHA = "quad:-1/2+sqrt:5"   # gamma = 1/golden ratio
SANDWICH_DELTA = 0.01
SANDWICH_BLOCKS = 10


def _report(name, params, columns, rows, verdict) -> int:
    out = beattykit.cli.Report(name, params, columns, rows, verdict)
    sys.stdout.write(beattykit.cli.render(out, "csv"))
    return 0 if verdict else 2


def lib_membership(m_max: int, beta: str) -> int:
    """bulk_membership over m = 1..m_max for two surd pairs.

    Exact check without a second bulk pass: the members must be the terms
    with index n <= k, where k = #{n >= 1 : floor(alpha n + beta) <= m_max}
    comes from the scalar exact kernel, so there are k of them and their
    witnesses sum to k(k+1)/2.
    """
    rows, ok = [], True
    ms = np.arange(1, m_max + 1, dtype=np.int64)
    for text in MEMBERSHIP_ALPHAS:
        bp = beatty.BeattyParams(irrational.parse_irrational(text),
                                 Fraction(beta))
        member, ns = beatty.bulk_membership(bp, ms)
        count, wsum = int(member.sum()), int(ns.sum())
        # alpha*n + beta < m_max + 1  <=>  n < gamma*(m_max + 1 - beta)
        k = irrational.floor_affine(bp.gamma, m_max + 1,
                                    bp.gamma * (-bp.beta))[0]
        ok &= count == k and wsum == k * (k + 1) // 2
        rows.append((text, m_max, count, wsum, k))
    return _report("bench-membership", [("beta", beta)],
                   ("alpha", "m_max", "members", "witness_sum", "expected"),
                   rows, ok)


def _smoothed_indicator(x, gamma, delta):
    """Exact box-smoothed indicator of (0, gamma] mod 1 at x in [0, 1)."""
    lo, hi = x - delta, x + delta
    cover = 0.0
    for shift in (-1.0, 0.0, 1.0):
        cover = cover + np.clip(np.minimum(hi, shift + gamma)
                                - np.maximum(lo, shift), 0.0, None)
    return cover / (2.0 * delta)


def lib_sandwich(K: int, points: int, shift: str) -> int:
    """build_psi_delta then PsiDelta.evaluate at the phases {gamma m + shift}.

    Every value must lie within the certified tail bound of the exact
    smoothed indicator.
    """
    theta = irrational.parse_irrational(SANDWICH_ALPHA)
    gamma = float(theta)
    pd = expsum.build_psi_delta(gamma, SANDWICH_DELTA, K)
    xs = theta.phases_many(np.arange(1, points + 1, dtype=np.int64),
                           Fraction(shift))
    vals = pd.evaluate(xs)
    dev = np.abs(vals - _smoothed_indicator(xs, gamma, SANDWICH_DELTA))
    rows = []
    for b, idx in enumerate(np.array_split(np.arange(points), SANDWICH_BLOCKS)):
        v = vals[idx]
        rows.append((b, idx.size, math.fsum(v.tolist()), float(v.min()),
                     float(v.max()), float(dev[idx].max())))
    tail = pd.tail_bound()
    params = [("alpha", SANDWICH_ALPHA), ("shift", shift), ("K", K),
              ("delta", SANDWICH_DELTA), ("tail_bound", tail)]
    return _report("bench-sandwich", params,
                   ("block", "points", "sum", "min", "max", "max_dev"),
                   rows, bool(dev.max() <= tail))


def run_lib(args) -> int:
    p = argparse.ArgumentParser(prog="child.py lib")
    p.add_argument("step", choices=("membership", "sandwich"))
    p.add_argument("--m-max", type=int)
    p.add_argument("--beta")
    p.add_argument("--K", type=int)
    p.add_argument("--points", type=int)
    p.add_argument("--shift")
    ns = p.parse_args(args)
    if ns.step == "membership":
        return lib_membership(ns.m_max, ns.beta)
    return lib_sandwich(ns.K, ns.points, ns.shift)


# -- tracing -----------------------------------------------------------------

def _size(x) -> int:
    return int(np.size(x))


def _table_counts(args, kwargs, out):
    return {"limit_sum": int(args[0]), "records": int(out.power.size),
            "table_bytes": int(out.is_prime.nbytes + out.power.nbytes
                               + out.base.nbytes + out.log_base.nbytes)}


def _points_of(pos):
    # ns is args[pos] of a method (self counts as args[0])
    return lambda args, kwargs, out: {"points": _size(args[pos])}


def _lookup_counts(args, kwargs, out):
    if isinstance(out, tuple):          # records_upto: records handed back
        return {"values": int(out[0].size)}
    return {"values": _size(args[1])}   # mangoldt_values: values looked up


def _evaluate_counts(args, kwargs, out):
    pd = args[0]
    K = kwargs.get("K", args[2] if len(args) > 2 else None)
    used = pd.K if K is None else min(K, pd.K)
    return {"point_freqs": _size(args[1]) * used}


# (owner, attribute, span name, counter); owner is a module for functions
# and a class for methods
LAYERS = (
    (sieve, "build_table", "sieve.build_table", _table_counts),
    (sieve.MangoldtTable, "mangoldt_values", "sieve.lookup", _lookup_counts),
    (sieve.MangoldtTable, "records_upto", "sieve.lookup", _lookup_counts),
    (surd.QuadraticSurd, "affine_floor_frac_many", "surd.floor_frac_many",
     _points_of(1)),
    (surd.QuadraticSurd, "phases_many", "surd.phases_many", _points_of(1)),
    (irrational.PrecisionReal, "affine_floor_frac_many",
     "irrational.floor_frac_many", _points_of(1)),
    (irrational.PrecisionReal, "phases_many", "irrational.phases_many",
     _points_of(1)),
    (beatty, "generate", "beatty.generate", None),
    (beatty, "bulk_membership", "beatty.bulk_membership", _points_of(1)),
    (counting, "verify_sweep", "counting.verify_sweep",
     lambda args, kwargs, out: {"grid_max": max(int(n) for n in args[2])}),
    (expsum, "exp_sum_shifted", "expsum.exp_sum", None),
    (expsum, "exp_sum_ap", "expsum.exp_sum", None),
    (expsum, "substitution_identity_check", "expsum.exp_sum", None),
    (expsum, "discrepancy_beatty", "expsum.discrepancy",
     lambda args, kwargs, out: {"points": int(args[2])}),
    (expsum.PsiDelta, "evaluate", "expsum.psi_delta.evaluate",
     _evaluate_counts),
    (beattykit.cli, "emit_report", "cli.emit",
     lambda args, kwargs, out: {"rows": len(args[0].rows)}),
)


class Tracer:
    """In-memory span recorder for one command."""

    def __init__(self, cmd_id: str):
        self.cmd_id = cmd_id
        self.spans = []    # [name, start, end, parent index, counts]
        self._stack = []

    def wrap(self, name, fn, counter):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.spans)
            rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, {}]
            self.spans.append(rec)
            self._stack.append(idx)
            rec[1] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                self._stack.pop()
            if counter is not None:
                rec[4] = counter(args, kwargs, out)
            return out
        return traced

    def install(self):
        """Wrap every layer function where it is defined and everywhere it
        was imported by name (e.g. beattykit.cli.build_table)."""
        modules = [m for n, m in sys.modules.items()
                   if n == "beattykit" or n.startswith("beattykit.")]
        for owner, attr, name, counter in LAYERS:
            fn = owner.__dict__[attr]
            wrapped = self.wrap(name, fn, counter)
            setattr(owner, attr, wrapped)
            if isinstance(owner, type):
                continue
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is fn:
                        setattr(mod, key, wrapped)

    def dump(self, path: str):
        with open(path, "w") as fh:
            json.dump({"cmd_id": self.cmd_id,
                       "spans": [[self.cmd_id] + s for s in self.spans]}, fh)


def main(argv) -> int:
    trace_path, cmd_id = None, ""
    if argv[:1] == ["--trace"]:
        trace_path, cmd_id, argv = argv[1], argv[2], argv[3:]
    kind, args = argv[0], argv[1:]
    run = (lambda: beattykit.cli.main(args)) if kind == "cli" else \
        (lambda: run_lib(args))
    if trace_path is None:
        return run()
    tracer = Tracer(cmd_id)
    tracer.install()
    run = tracer.wrap("cmd", run, None)
    try:
        return run()
    finally:
        sys.stdout.flush()
        tracer.dump(trace_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
