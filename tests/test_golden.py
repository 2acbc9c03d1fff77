"""Golden-byte tests: CLI reports compared byte for byte with files in
tests/golden/, written by an earlier version of the program.

A change that is meant to keep results must leave these bytes alone.  The
report rounds to twelve significant digits, so the discrepancy values and
every count-sweep row's lhs and main term are also pinned in full, as float
hex strings.
"""

import json
from fractions import Fraction
from pathlib import Path

import pytest

from beattykit import cli, sieve
from beattykit.beatty import BeattyParams
from beattykit.cli import main
from beattykit.counting import verify_sweep
from beattykit.expsum import discrepancy_beatty
from beattykit.irrational import floor_affine, parse_irrational
from beattykit.sieve import ResidueClass, build_table, chebyshev_psi_ap

GOLDEN = Path(__file__).parent / "golden"
PI = "dec:3.14159265358979323846@200"
PI40 = "dec:3.141592653589793238462643383279502884197@200"

DISCREPANCY = [
    ("sqrt:2", "discrepancy_sqrt2.csv", "0x1.d9284015db3fep-13"),
    (PI, "discrepancy_pi.csv", "0x1.d92d055a2f8a5p-9"),
    (PI, "discrepancy_pi.json", "0x1.d92d055a2f8a5p-9"),
]


@pytest.mark.parametrize("alpha,name,d_hex", DISCREPANCY)
def test_discrepancy_report_bytes(tmp_path, alpha, name, d_hex):
    out = tmp_path / name
    fmt = name.rsplit(".", 1)[1]
    assert main(["discrepancy", "--alpha", alpha, "--delta", "1/3",
                 "--M", "20000", "--format", fmt, "--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / name).read_bytes()
    D = discrepancy_beatty(parse_irrational(alpha), Fraction(1, 3), 20000)
    assert D.hex() == d_hex


SWEEP = ["--beta", "1/3", "--q", "7", "--a", "1", "--grid", "1e3,1e4,5e4"]
GRID = (1000, 10_000, 50_000)
COUNT_SWEEP = [
    ("count_sweep_sqrt2_S.csv", "sqrt:2", "S", "main"),
    ("count_sweep_sqrt2_T.csv", "sqrt:2", "T", "main"),
    ("count_sweep_sqrt2_N.csv", "sqrt:2", "N", "main"),
    ("count_sweep_sqrt2_M.csv", "sqrt:2", "M", "main"),
    ("count_sweep_small_alpha_S.csv", "quad:0/2+sqrt:2", "S", "main"),
    ("count_sweep_pi40_S.csv", PI40, "S", "main"),
    ("count_sweep_sqrt2_T_density.csv", "sqrt:2", "T", "density"),
]


@pytest.fixture(scope="module")
def sweep_table():
    # covers 7*floor(pi*5e4 + 1/3) + 1, the largest value any case needs
    return build_table(1_100_000)


def _no_logs(ns):
    raise AssertionError("a report that reads no Lambda took logs")


def _no_terms(self, ns):
    raise AssertionError("a count sweep generated a term array")


def _no_lookup(self, ns):
    raise AssertionError("a count sweep looked Lambda values up")


@pytest.mark.parametrize("name,alpha,mode,target", COUNT_SWEEP)
def test_count_sweep_report_bytes(tmp_path, monkeypatch, sweep_table, name,
                                  alpha, mode, target):
    # N and M read no Lambda; T and M read m(n) itself, not q*m(n) + a.
    # Every mode reads the class's records: no term array, no lookup
    if mode in ("N", "M"):
        monkeypatch.setattr(sieve, "_log_primes", _no_logs)
    monkeypatch.setattr(BeattyParams, "terms", _no_terms)
    monkeypatch.setattr(sieve.MangoldtTable, "mangoldt_values", _no_lookup)
    limits = []
    monkeypatch.setattr(sieve, "build_table", lambda limit, **kw:
                        limits.append(limit) or build_table(limit, **kw))
    pin = json.loads((GOLDEN / "count_sweep_pins.json").read_text())[name]
    out = tmp_path / name
    assert main(["count", "sweep", "--alpha", alpha, *SWEEP, "--mode", mode,
                 "--target", target, "--out", str(out)]) == pin["exit"]
    assert out.read_bytes() == (GOLDEN / name).read_bytes()
    cap = floor_affine(parse_irrational(alpha), GRID[-1], Fraction(1, 3))[0]
    assert limits == [7 * cap + 1 if mode in ("S", "N") else cap]
    rep = verify_sweep(BeattyParams(parse_irrational(alpha), Fraction(1, 3)),
                       ResidueClass(1, 7), GRID, mode, sweep_table,
                       target=target)
    assert [row.lhs.hex() for row in rep.rows] == pin["lhs"]
    assert [row.main.hex() for row in rep.rows] == pin["main"]


# every other subcommand: (golden file, expected exit code, argv)
OTHER = [
    ("cfrac_sqrt7.csv", 0, ["cfrac", "--alpha", "sqrt:7", "--K", "12"]),
    ("cfrac_pi.csv", 0, ["cfrac", "--alpha", PI, "--K", "10"]),
    ("type_estimate_phi.csv", 0,
     ["type-estimate", "--alpha", "quad:1/2+sqrt:5"]),
    ("beatty_generate.csv", 0,
     ["beatty", "generate", "--alpha", "sqrt:2", "--beta=-17/10",
      "--N", "40"]),
    ("beatty_generate_pi.json", 0,
     ["beatty", "generate", "--alpha", PI, "--beta", "1/3", "--N", "30",
      "--format", "json"]),
    ("beatty_member_true.csv", 0,
     ["beatty", "member", "--alpha", "quad:1/2+sqrt:5", "--m", "832040"]),
    ("beatty_member_false.csv", 0,
     ["beatty", "member", "--alpha", "quad:1/2+sqrt:5", "--m", "832042"]),
    ("sieve_psi.csv", 0,
     ["sieve", "psi", "--q", "7", "--a", "3", "--grid", "1e3,1e4,1e5"]),
    ("sieve_pi.json", 0,
     ["sieve", "pi", "--q", "7", "--a", "3", "--grid", "1e3,1e4,1e5",
      "--format", "json"]),
    ("expsum_eval.csv", 0,
     ["expsum", "eval", "--alpha", "sqrt:2", "--q", "3", "--a", "1",
      "--M", "5000", "--K", "4"]),
    ("expsum_identity_check.csv", 0,
     ["expsum", "identity-check", "--alpha", "sqrt:3", "--q", "5",
      "--a", "2", "--M", "4000", "--k", "2"]),
    ("expsum_bound_ratio.csv", 0,
     ["expsum", "bound-ratio", "--alpha", "sqrt:2", "--q", "5", "--a", "2",
      "--M", "2000", "--den-max", "50"]),
    ("psi_delta_inspect.csv", 0,
     ["psi-delta", "inspect", "--alpha", "quad:0/2+sqrt:2",
      "--delta", "0.05", "--K", "12"]),
]


@pytest.mark.parametrize("name,code,argv", OTHER,
                         ids=[case[0] for case in OTHER])
def test_subcommand_report_bytes(tmp_path, name, code, argv):
    out = tmp_path / name
    assert main([*argv, "--out", str(out)]) == code
    assert out.read_bytes() == (GOLDEN / name).read_bytes()


def test_sieve_pi_takes_no_logs(tmp_path, monkeypatch):
    monkeypatch.setattr(sieve, "_log_primes", _no_logs)
    name, code, argv = next(case for case in OTHER
                            if case[0] == "sieve_pi.json")
    assert main([*argv, "--out", str(tmp_path / name)]) == code
    assert (tmp_path / name).read_bytes() == (GOLDEN / name).read_bytes()


def test_sieve_psi_totals_pinned():
    # full-precision values behind sieve_psi.csv
    table = build_table(100_000)
    assert [chebyshev_psi_ap(table, L, ResidueClass(3, 7)).hex()
            for L in (1000, 10_000, 100_000)] == [
        "0x1.50a4563bdc11ep+7", "0x1.a404df836d940p+10",
        "0x1.05e46f5ff1e95p+14"]


def _argv_without_format(argv):
    return argv[:-2] if argv[-2:] == ["--format", "json"] else argv


GOLDEN_ARGV = (
    [(name, ["discrepancy", "--alpha", alpha, "--delta", "1/3", "--M", "20000"])
     for alpha, name, _ in DISCREPANCY]
    + [(name, ["count", "sweep", "--alpha", alpha, *SWEEP, "--mode", mode,
               "--target", target]) for name, alpha, mode, target in COUNT_SWEEP]
    + [(name, _argv_without_format(argv)) for name, _, argv in OTHER])


@pytest.mark.parametrize("name,argv", GOLDEN_ARGV,
                         ids=[case[0] for case in GOLDEN_ARGV])
def test_emitted_bytes_are_the_rendered_text(tmp_path, capsys, monkeypatch,
                                             name, argv):
    # emit_report writes a chunk of rows at a time, here two, to stdout or
    # to --out; either way the bytes are render's, and the golden file's
    monkeypatch.setattr(cli, "_CHUNK", 2)
    ns = cli.parse_args(argv)
    report = ns.run(ns)
    for fmt in ("csv", "json"):
        text = cli.render(report, fmt)
        if name.endswith(fmt):
            assert text.encode() == (GOLDEN / name).read_bytes()
        cli.emit_report(report, None, fmt)
        assert capsys.readouterr().out == text
        out = tmp_path / f"report.{fmt}"
        cli.emit_report(report, str(out), fmt)
        assert out.read_bytes() == text.encode()
