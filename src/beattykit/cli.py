"""Command-line front end.

Grammar: `beattykit COMMAND [ACTION] FLAGS`.  Every command is its own
argparse subparser (`beattykit COMMAND -h` lists its flags); beatty, sieve,
count, expsum and psi-delta take a required action word.  A command declares
only the flags it reads: a flag it cannot run without is required, its
defaults are its own, and any other flag is a usage error.

Every subcommand emits a self-describing report: a comment header holding
the fully resolved configuration (defaults included), one fixed column
line, then data rows at 12 significant digits with LF endings.  Identical
invocations produce byte-identical files; there are no timestamps.

Exit codes: 0 for a pass (or a purely informational report), 2 when a
verification verdict fails, 1 for usage or runtime errors.

Start-up: a call builds only the invoked command's grammar (and the list of
commands), and only the commands that read a table load the sieve.
"""

from __future__ import annotations

import argparse
import math
import re
import sys
from collections.abc import Sequence
from fractions import Fraction
from typing import NamedTuple, Optional

import numpy as np

# runners import the other modules, so a command loads only what it runs
from .errors import BeattyKitError, DeltaOutOfRange, UsageError


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would sys.exit(2); we map to 1
        raise UsageError(message)


# -- flag types: argparse names the flag in the message they raise ----------

def _where(kind, ok, rule: str):
    def parse(text):
        value = kind(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {rule}, got {value}")
        return value
    parse.__name__ = kind.__name__  # argparse: "invalid float value: 'x'"
    return parse


def _at_least(lo: int, hi: float = math.inf, budget: str = ""):
    rule = f">= {lo}" if hi == math.inf else f"in [{lo}, {hi}] (the {budget} budget)"
    return _where(int, lambda value: lo <= value <= hi, rule)


_EXPONENT = re.compile(r"e([-+]?\d+(?:_\d+)*)\s*\Z", re.I)   # as Fraction reads it


def _digit_limit() -> int:
    """The int-to-str digit limit, or its default 4300 where it is off."""
    return getattr(sys, "get_int_max_str_digits", int)() or 4300


def _fraction(text):
    """A decimal or p/q, exactly, with at most _digit_limit() digits in its
    numerator and denominator, as a report header prints it; an exponent is
    checked first, as Fraction takes minutes to build 10**999999999."""
    limit = _digit_limit()
    exp = _EXPONENT.search(text)
    try:
        value = None if exp and abs(int(exp[1])) > limit else Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(str(exc))
    if value is None or max(abs(value.numerator), value.denominator) >= 10 ** limit:
        raise argparse.ArgumentTypeError(f"passes the {limit}-digit limit of int-to-str")
    return value


def _modulus(text):
    from .sieve import MAX_LIMIT
    return _at_least(1, MAX_LIMIT, "sieve")(text)


_modulus.__name__ = "int"   # argparse: "invalid int value: 'x'"


def _grid(text):
    from .sieve import MAX_LIMIT
    toks = text.split(",")
    try:
        values = [float(tok) for tok in toks]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))
    # exact: Fraction is only asked within the budget, where the power of
    # ten it forms has at most nine digits more than the token
    if not all(1 <= v <= MAX_LIMIT and Fraction(tok) == int(v)
               for tok, v in zip(toks, values)):
        raise argparse.ArgumentTypeError(
            f"values must be integers in [1, {MAX_LIMIT}], the sieve budget")
    grid = tuple(map(int, values))
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise argparse.ArgumentTypeError("values must be strictly ascending")
    return grid


_DEFAULT = " (default: %(default)s)"  # argparse fills in each command's own
# a memory budget: discrepancy holds its sorted fractions, 8 B a point, and one
# block (11.5 B a point at M = 2^19, tracemalloc): 40 MB RSS at M = 1e6, 47 MB
# at 2e6, 108 MB (1.2-1.5 s, the scan one sweep) at the cap; a mode S sweep at
# q = 7 to N = 3e7, near MAX_LIMIT, takes 97 MB (0.74 s): 24 B a record for its
# class's table of 2.7e6 records, read one block at a time, beside numpy's 27 MB;
# a time and output budget: generate writes rows in chunks at 66 MB RSS for any
# N up to the cap, where it takes 1.8 s for 22 MB of CSV, 1.9 s for 61 MB of JSON;
# a depth budget: the golden ratio, whose convergents stay printable longest,
# peaks at 395 MB RSS in cfrac and 215 MB (19 s) in type-estimate at K = 2e4;
# a sieve budget bounds --q, read when the flag is parsed, so the grammar loads
# no sieve: no table passes MAX_LIMIT, so a larger modulus leaves at most one
# member, n = a, in any table, and euler_phi factors q by trial division
MAX_DISCREPANCY_M, MAX_GENERATE_N, MAX_CF_K = 10_000_000, 1_500_000, 20_000
_FLAGS = {
    "alpha": dict(required=True, help="irrational: sqrt:d, quad:p/q+sqrt:d, or"
                  " dec:digits[@bits] (@bits default: 160)"),
    "beta": dict(type=_fraction, default=Fraction(0),
                 help="shift, as a decimal or p/q" + _DEFAULT),
    "q": dict(type=_modulus, required=True, help="modulus"),
    "a": dict(type=int, required=True, help="residue, 0 <= a < q, coprime to q"),
    "grid": dict(type=_grid, help="comma-separated N values, strictly ascending"
                 + _DEFAULT),
    "mode": dict(choices=("S", "T", "N", "M"), default="S", help="counting sum" + _DEFAULT),
    "target": dict(choices=("main", "density"), default="main", help=_DEFAULT),
    "delta": dict(type=_fraction, required=True, help="smoothing half-width"),
    "K": dict(type=_at_least(1), help="number of terms or frequencies" + _DEFAULT),
    "tol": dict(type=_where(float, lambda v: 0 <= v < math.inf, "finite, >= 0"),
                help="verdict tolerance" + _DEFAULT),
    "N": dict(type=_at_least(0), required=True, help="number of terms"),
    "M": dict(type=_at_least(1), required=True, help="summation length"),
    "m": dict(type=int, required=True, help="integer to test"),
    "k": dict(type=_where(int, bool, "nonzero"), default=1,
              help="frequency multiplier" + _DEFAULT),
    "den-max": dict(type=_at_least(1), help="largest denominator (default: M)"),
    "out": dict(help="report path (default: stdout)"),
    "format": dict(choices=("csv", "json"), default="csv", help=_DEFAULT),
}


# -- report emission -------------------------------------------------------

class Report(NamedTuple):
    name: str
    params: list            # (key, value) pairs, insertion order
    columns: tuple
    rows: Sequence          # row tuples: a list, or _Terms for generate
    verdict: Optional[bool] = None


class _Terms(Sequence):
    """The rows (n, term), n = 1..N, of a term array, formed when indexed,
    so that a report holds them one chunk at a time."""

    def __init__(self, terms: np.ndarray):
        self.terms = terms

    def __len__(self):
        return self.terms.size

    def __getitem__(self, i):
        ns = range(1, self.terms.size + 1)[i]
        if isinstance(ns, int):
            return ns, int(self.terms[ns - 1])
        return list(zip(ns, self.terms[i].tolist()))


def _fmt(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return f"{float(v):.12g}"
    return str(v)


def _json_value(v):
    if isinstance(v, bool):
        return v
    if isinstance(v, (int, np.integer)):
        return int(v)
    if isinstance(v, (float, np.floating)):
        return float(f"{float(v):.12g}")
    return str(v)


_CHUNK = 1 << 16    # rows formatted at a time


def _columns(rows, start: int, stop: int):
    """The columns of rows[start:stop]; a term array's without forming rows."""
    if isinstance(rows, _Terms):
        terms = rows.terms[start:stop]
        return range(start + 1, start + terms.size + 1), terms.tolist()
    return zip(*rows[start:stop])


def _pieces(report: Report, fmt: str):
    """The report's text: its header, one piece per chunk of rows, its end."""
    rows = report.rows
    if fmt == "json":
        import json
        doc = {
            "name": report.name,
            "params": {k: _json_value(v) for k, v in report.params},
            "columns": list(report.columns),
            "rows": [],
        }
        if report.verdict is not None:
            doc["verdict"] = "PASS" if report.verdict else "FAIL"
        # json strings hold no raw newline, so this key is found only once
        head, mark, tail = json.dumps(doc, indent=2).partition('\n  "rows": []')
        yield head + mark[:-1]
        # each row laid out as json.dumps(indent=2) lays out the whole array
        cell, cell_sep, row_sep = (lambda v: json.dumps(_json_value(v)),
                                   ",\n      ", ",")
        line = "\n    [\n      {}\n    ]".format
        last = ("\n  ]" if rows else "]") + tail + "\n"
    else:
        lines = [f"# beattykit {report.name}"]
        for k, v in report.params:
            lines.append(f"# {k}={_fmt(v)}")
        if report.verdict is not None:
            lines.append(f"# verdict={'PASS' if report.verdict else 'FAIL'}")
        lines.append(",".join(report.columns))
        yield "\n".join(lines) + "\n"
        cell, cell_sep, row_sep, line, last = _fmt, ",", "", "{}\n".format, ""
    for start in range(0, len(rows), _CHUNK):
        # column by column, lazily; plain ints (most cells of large
        # reports) skip the formatter
        cols = ((str(v) if type(v) is int else cell(v) for v in col)
                for col in _columns(rows, start, start + _CHUNK))
        rows_text = row_sep.join(map(line, map(cell_sep.join, zip(*cols))))
        yield (row_sep if start else "") + rows_text
    yield last


def render(report: Report, fmt: str) -> str:
    return "".join(_pieces(report, fmt))


def emit_report(report: Report, path: Optional[str], fmt: str = "csv"):
    """Write the report to path (or stdout) a chunk of rows at a time;
    identical inputs give byte-identical bytes, so artifacts can be diffed
    across runs."""
    if path is None:
        sys.stdout.writelines(_pieces(report, fmt))
    else:
        with open(path, "w", newline="") as fh:
            fh.writelines(_pieces(report, fmt))


# -- subcommand bodies -----------------------------------------------------

def _base_params(ns) -> list:
    from .irrational import DEFAULT_BITS
    return [("alpha", ns.alpha_text), ("precision", DEFAULT_BITS)]


def _refuse_unprintable(ns):
    """Refuse --K at the first depth whose convergent has more digits than
    _digit_limit(); the walk stops there, so a refusal holds few digits."""
    from .irrational import cf_walk
    limit = _digit_limit()
    cap = 10 ** limit
    for i, (_, p, q, _) in zip(range(ns.K + 1), cf_walk(ns.alpha)):
        if max(p, -p, q) >= cap:
            raise BeattyKitError(f"--K {ns.K}: convergents pass the {limit}-digit"
                                 f" limit of int-to-str at depth {i}")


def _run_cfrac(ns) -> Report:
    from .irrational import cf_expand
    _refuse_unprintable(ns)
    cf = cf_expand(ns.alpha, ns.K)
    params = _base_params(ns) + [("K", ns.K)]
    if cf.period is not None:
        params += [("period_start", cf.period[0]),
                   ("period_length", cf.period[1])]
    rows = [(i, q, cf.convergents[i][0], cf.convergents[i][1])
            for i, q in enumerate(cf.quotients)]
    return Report("cfrac", params, ("i", "quotient", "num", "den"), rows)


def _run_type_estimate(ns) -> Report:
    from .irrational import estimate_type
    if ns.K is not None:    # refuse unprintable denominators before the samples
        _refuse_unprintable(ns)
    est = estimate_type(ns.alpha, K=ns.K)
    params = _base_params(ns) + [("depth", est.depth),
                                 ("tau_hat", est.tau_hat)]
    return Report("type-estimate", params, ("den", "exponent"), est.samples)


def _beatty_params(ns) -> list:
    return _base_params(ns) + [("beta", str(ns.beta))]


def _run_generate(ns) -> Report:
    from .beatty import BeattyParams, generate
    terms = generate(BeattyParams(ns.alpha, ns.beta), ns.N)
    return Report("beatty-generate", _beatty_params(ns) + [("N", ns.N)],
                  ("n", "term"), _Terms(terms))


def _run_member(ns) -> Report:
    from .beatty import BeattyParams, is_member
    n = is_member(BeattyParams(ns.alpha, ns.beta), ns.m)
    rows = [(ns.m, n is not None, 0 if n is None else n)]
    return Report("beatty-member", _beatty_params(ns) + [("m", ns.m)],
                  ("m", "member", "witness"), rows)


def _run_sieve(ns) -> Report:
    from .sieve import SEGMENT, chebyshev_psi_ap, euler_phi, prime_pi_ap
    table = _table(ns, ns.grid[-1])
    params = [("q", ns.q), ("a", ns.a), ("segment", SEGMENT)]
    if ns.action == "pi":
        rows = [(x, prime_pi_ap(table, x, ns.residue)) for x in ns.grid]
        return Report("sieve-pi", params, ("x", "count"), rows)
    rows = []
    for L in ns.grid:
        val = chebyshev_psi_ap(table, L, ns.residue)
        mainv = L / euler_phi(ns.q)
        rows.append((L, val, mainv, abs(val - mainv) / L))
    return Report("sieve-psi", params, ("L", "psi", "main", "rel_dev"), rows)


def _run_count(ns) -> Report:
    from .beatty import BeattyParams
    from .counting import verify_sweep
    from .sieve import SEGMENT
    if ns.target == "density" and ns.mode not in ("S", "T"):
        raise UsageError("--target density: closed-form predictions exist for"
                         f" modes S and T only, not {ns.mode}")
    r, bp = ns.residue, BeattyParams(ns.alpha, ns.beta)
    cap = bp.term(ns.grid[-1])
    top = r.q * cap + r.a if ns.mode in ("S", "N") else cap
    table = _table(ns, top)
    rep = verify_sweep(bp, r, ns.grid, ns.mode, table, target=ns.target, tol=ns.tol)
    params = _beatty_params(ns) + [
        ("q", r.q), ("a", r.a), ("mode", ns.mode), ("target", ns.target),
        ("tol", ns.tol), ("segment", SEGMENT)]
    params.extend(rep.observed.items())
    return Report("count-sweep", params,
                  ("N", "lhs", "main", "abs_err", "rel_err"),
                  rep.rows, verdict=rep.passed)


def _table(ns, limit: int):
    """The table of the class --q/--a up to limit, at least 100."""
    from .sieve import build_table
    return build_table(max(limit, 100), residue=ns.residue)


def _expsum_params(ns) -> list:
    return _base_params(ns) + [("q", ns.q), ("a", ns.a), ("M", ns.M)]


def _run_eval(ns) -> Report:
    from .expsum import _phase_sums
    r, L, ks = ns.residue, ns.residue.q * ns.M + ns.residue.a, range(1, ns.K + 1)
    # exp_sum_shifted for k = 1..K in one pass, which also sums Lambda
    sums, units = _phase_sums(_table(ns, L), L, r, r.q + r.a,
                              [(ns.alpha * k, True) for k in ks])
    lam_sum = float(units) * 2.0 ** -53
    rows = []
    for k, s in zip(ks, sums):
        ratio = abs(s) / lam_sum if lam_sum else 0.0
        rows.append((k, s.real, s.imag, abs(s), lam_sum, ratio))
    return Report("expsum-eval", _expsum_params(ns) + [("K", ns.K)],
                  ("k", "re", "im", "abs", "bound", "ratio"), rows)


def _run_identity_check(ns) -> Report:
    from .expsum import substitution_identity_check
    r, k = ns.residue, ns.k
    chk = substitution_identity_check(_table(ns, r.q * ns.M + r.a), ns.M, r,
                                      ns.alpha, k)
    rows = [(k, chk.lhs.real, chk.lhs.imag, chk.rhs.real, chk.rhs.imag,
             chk.residual, chk.relative)]
    return Report("expsum-identity-check", _expsum_params(ns) + [("tol", ns.tol)],
                  ("k", "lhs_re", "lhs_im", "rhs_re", "rhs_im",
                   "residual", "relative"),
                  rows, verdict=chk.relative <= ns.tol)


def _run_bound_ratio(ns) -> Report:
    from .expsum import bound_ratio_sweep
    # progression sum over n <= M against the generic bound
    theta = (ns.alpha * ns.k) / ns.q
    rows = bound_ratio_sweep(_table(ns, ns.M), ns.M, ns.residue, theta,
                             max_den=ns.den_max)
    best = min(rows, key=lambda row: row.bound)
    return Report("expsum-bound-ratio",
                  _expsum_params(ns) + [("k", ns.k), ("min_bound_den", best.den)],
                  ("den", "num", "abs", "bound", "ratio", "hyp_ok"), rows)


def _run_psi_delta(ns) -> Report:
    from .expsum import build_psi_delta
    gamma = float(ns.alpha)
    if not 0.0 < gamma < 1.0:
        raise UsageError("--alpha: psi-delta needs 0 < alpha < 1")
    try:    # the exact --delta: float() overflows past 2^1024
        pd = build_psi_delta(gamma, ns.delta, ns.K)
    except DeltaOutOfRange as exc:
        raise UsageError(f"--delta: {exc}")
    g, bounds = pd.g, pd.coefficient_bounds()
    rows = [(i + 1, g[i].real, g[i].imag, abs(g[i]), bounds[i],
             abs(g[i]) / bounds[i]) for i in range(ns.K)]
    params = _base_params(ns) + [
        ("delta", pd.delta), ("K", ns.K), ("mean", pd.mean),
        ("tail_bound", pd.tail_bound())]
    return Report("psi-delta", params,
                  ("k", "g_re", "g_im", "abs", "bound", "ratio"),
                  rows, verdict=max(row[-1] for row in rows) <= 1.0 + 1e-12)


def _run_discrepancy(ns) -> Report:
    from .expsum import decay_exponent, discrepancy_beatty
    D = discrepancy_beatty(ns.alpha, ns.delta, ns.M)
    params = _base_params(ns) + [("delta", str(ns.delta)), ("M", ns.M)]
    return Report("discrepancy", params, ("M", "D", "exponent"),
                  [(ns.M, D, decay_exponent(D, ns.M))])


# -- grammar ---------------------------------------------------------------

def _word(group, word, name, text, run=None, flags="", **override):
    """Add the word name to group, a subparsers action (None: a group argv
    does not invoke); argv invokes it if argv's word at this level is name.
    An invoked command reads exactly the space-separated flags plus --out
    and --format, override mapping a flag to changes of its _FLAGS entry,
    and an invoked group (run None) returns the action of its words."""
    if group is None:
        return None
    invoked = word == name      # a word not invoked never parses
    sub = group.add_parser(name, help=text, description=text, add_help=invoked)
    if not invoked:
        return None
    if run is None:
        return sub.add_subparsers(dest="action", required=True, metavar="ACTION")
    sub.set_defaults(run=run)
    for flag in flags.split() + ["out", "format"]:
        sub.add_argument("--" + flag, **{**_FLAGS[flag], **override.get(flag, {})})


def build_parser(argv: Sequence[str]) -> _Parser:
    """The grammar argv needs: every command word, and under them only the
    words argv invokes, found as argparse finds them: the first two tokens
    that are not options."""
    p = _Parser(prog="beattykit",
                description=__doc__ and __doc__.partition("\n\nStart-up:")[0])
    cmd = p.add_subparsers(dest="command", required=True, metavar="COMMAND")
    command, action = ([t for t in argv if not t.startswith("-")] + [None] * 2)[:2]
    _word(cmd, command, "cfrac", "continued fraction of --alpha", _run_cfrac,
          "alpha K",
          K={"default": 8, "type": _at_least(1, MAX_CF_K, "depth")})
    _word(cmd, command, "type-estimate", "finite-depth irrationality-type estimate",
          _run_type_estimate, "alpha K",
          K={"help": "expansion depth (default: until q_K >= 1e6)",
             "type": _at_least(1, MAX_CF_K, "depth")})
    beatty = _word(cmd, command, "beatty", "the Beatty sequence floor(alpha*n + beta)")
    _word(beatty, action, "generate", "terms floor(alpha*n + beta) for n <= --N",
          _run_generate, "alpha beta N",
          N={"type": _at_least(0, MAX_GENERATE_N, "time and output")})
    _word(beatty, action, "member", "membership + witness for a single --m",
          _run_member, "alpha beta m")
    sieve = _word(cmd, command, "sieve",
                  "Chebyshev psi / prime counts in a progression")
    for name in ("psi", "pi"):
        _word(sieve, action, name, f"{name}(L; q, a) at each --grid value",
              _run_sieve, "q a grid", grid={"default": (10 ** 6,)})
    count = _word(cmd, command, "count", "counting sums along a Beatty sequence")
    _word(count, action, "sweep", "S/T/N/M counting sums vs main term over an --grid",
          _run_count, "alpha beta q a grid mode target tol",
          grid={"default": (10 ** 4, 10 ** 5, 10 ** 6)}, tol={"default": 0.03})
    expsum = _word(cmd, command, "expsum", "exponential sums over primes")
    _word(expsum, action, "eval", "shifted exponential sums for k = 1..K", _run_eval,
          "alpha q a M K", K={"default": 8})
    _word(expsum, action, "identity-check", "reindexing identity residual (PASS/FAIL)",
          _run_identity_check, "alpha q a M k tol",
          tol={"default": 1e-9})
    _word(expsum, action, "bound-ratio",
          "progression-sum bound sweep over denominators", _run_bound_ratio,
          "alpha q a M k den-max", M={"type": _at_least(3)})
    psi_delta = _word(cmd, command, "psi-delta",
                      "the smoothed indicator of [0, alpha)")
    _word(psi_delta, action, "inspect",
          "smoothed-indicator coefficients vs their bound", _run_psi_delta,
          "alpha delta K", K={"default": 64})
    _word(cmd, command, "discrepancy", "extreme discrepancy of {gamma*m + delta}",
          _run_discrepancy, "alpha delta M",
          M={"type": _at_least(1, MAX_DISCREPANCY_M, "memory")},
          delta={"required": False, "default": Fraction(0),
                 "help": "shift in {gamma*m + delta}" + _DEFAULT})
    return p


def parse_args(argv) -> argparse.Namespace:
    """Parse a command line; the runner is ns.run.  After argparse, --alpha
    is parsed (a dec: literal at its own @bits, or DEFAULT_BITS) and --q/--a
    become ns.residue."""
    argv = list(argv)
    ns = build_parser(argv).parse_args(argv)
    if "alpha" in ns:
        from .irrational import parse_irrational
        ns.alpha_text = ns.alpha
        try:
            ns.alpha = parse_irrational(ns.alpha)
        except BeattyKitError as exc:
            raise UsageError(f"--alpha: {exc}")
    if "q" in ns:
        from .sieve import ResidueClass
        if not 0 <= ns.a < ns.q:
            raise UsageError("--a: need 0 <= a < q")
        if math.gcd(ns.a, ns.q) != 1:
            raise UsageError(f"--q/--a: gcd({ns.a}, {ns.q}) != 1")
        ns.residue = ResidueClass(ns.a, ns.q)
    return ns


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        ns = parse_args(argv)
        report = ns.run(ns)
        emit_report(report, ns.out, ns.format)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except BeattyKitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 1
    return 2 if report.verdict is False else 0


if __name__ == "__main__":
    sys.exit(main())
