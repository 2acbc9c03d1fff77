"""Front-end contract: the flag grammar, exit codes, and deterministic
report emission."""

import argparse
import json
import os
import re
import shlex
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from beattykit import cli, sieve
from beattykit.cli import (Report, build_parser, emit_report, main,
                           parse_args, render)
from beattykit.errors import UsageError
from beattykit.irrational import DEFAULT_BITS
from beattykit.sieve import ResidueClass, build_table
from oracles import csv_rows_per_cell, render_whole

README = Path(__file__).resolve().parent.parent / "README.md"
GOLDEN = Path(__file__).resolve().parent / "golden"
SRC = Path(__file__).resolve().parent.parent / "src"
GENERATE = ["beatty", "generate", "--alpha", "sqrt:2", "--N", "3"]
SWEEP_FLAGS = ["--alpha", "sqrt:2", "--beta", "0", "--q", "2", "--a", "1",
               "--grid", "1e4,1e5"]


def _words(parser) -> dict:
    return next((act.choices for act in parser._actions
                 if isinstance(act, argparse._SubParsersAction)), {})


def _commands(path=()):
    """(path, flags) of every command under path, each parser built by
    build_parser(path), which builds out only that path."""
    parser = build_parser(path)
    for word in path:
        parser = _words(parser)[word]
    if not _words(parser):
        yield path, [opt for act in parser._actions for opt in act.option_strings
                     if opt not in ("-h", "--help")]
    for name in _words(parser):
        yield from _commands(path + (name,))


class TestParseConfig:
    def test_non_coprime_class_rejected(self):
        with pytest.raises(UsageError, match="--q/--a"):
            parse_args(["sieve", "psi", "--q", "4", "--a", "2"])

    def test_square_radicand_rejected(self):
        with pytest.raises(UsageError, match="--alpha"):
            parse_args(["cfrac", "--alpha", "sqrt:4"])

    def test_partial_residue_rejected(self):
        with pytest.raises(UsageError, match="required: --a"):
            parse_args(["sieve", "psi", "--q", "3"])

    def test_grid_must_ascend(self):
        pi = ["sieve", "pi", "--q", "3", "--a", "1", "--grid"]
        with pytest.raises(UsageError, match="--grid"):
            parse_args(pi + ["100,100"])
        with pytest.raises(UsageError, match="--grid"):
            parse_args(pi + ["1000,10"])

    def test_grid_budget(self):
        with pytest.raises(UsageError, match="--grid"):
            parse_args(["sieve", "pi", "--q", "3", "--a", "1", "--grid", "1e9"])

    def test_unknown_command_and_action(self):
        # each message byte for byte: an unknown command, an unknown action,
        # a missing action, a foreign flag, a missing required flag, bad flag
        # values and misplaced words (argparse takes the first token that is
        # not an option as the command, and the next one as the action)
        cases = json.loads((GOLDEN / "usage_errors.json").read_text())
        assert ["count", "--alpha", "sqrt:2", "sweep"] in [argv for argv, _ in cases]
        for argv, message in cases:
            with pytest.raises(UsageError) as exc:
                parse_args(argv)
            assert str(exc.value) == message, argv

    def test_bad_beta_and_delta(self):
        with pytest.raises(UsageError, match="--beta"):
            parse_args(GENERATE + ["--beta", "x"])
        with pytest.raises(UsageError, match="--delta"):
            parse_args(["discrepancy", "--alpha", "sqrt:2", "--M", "10",
                        "--delta", "1/0"])

    @pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                        reason="no int-to-str digit limit before Python 3.10.7")
    def test_beta_within_the_int_to_str_limit(self):
        # a report header prints --beta with str(): at most the limit's
        # digits in its numerator and denominator; 0.1e-(limit - 1) passes
        # the exponent check and is refused once built
        limit = sys.get_int_max_str_digits()
        for text, value in ((f"3e-{limit - 1}", Fraction(3, 10 ** (limit - 1))),
                            (f"0.5e-{limit - 1}", Fraction(1, 2 * 10 ** (limit - 1)))):
            assert parse_args(GENERATE + ["--beta", text]).beta == value
        for text in (f"1e-{limit}", f"1e{limit}", f"0.1e-{limit - 1}"):
            with pytest.raises(UsageError, match="--beta: passes the"):
                parse_args(GENERATE + ["--beta", text])

    def test_fractional_beta_forms(self):
        assert parse_args(GENERATE + ["--beta", "0.3"]).beta.denominator == 10
        # negative fractions need the = form to get past argparse
        assert parse_args(GENERATE + ["--beta=-17/10"]).beta.denominator == 10

    def test_precision_flows_into_decimals(self):
        # the literal's @bits sets the precision, DEFAULT_BITS without it,
        # and the --alpha help states that default
        for alpha, bits in [("dec:0.3@64", 64), ("dec:0.3", DEFAULT_BITS)]:
            lo, hi = parse_args(["cfrac", "--alpha", alpha]).alpha.interval()
            assert hi - lo == Fraction(2, 2 ** bits)
        assert f"(@bits default: {DEFAULT_BITS})" in cli._FLAGS["alpha"]["help"]

    @pytest.mark.parametrize("argv", [
        ["cfrac", "--alpha", "sqrt:2", "--precision", "64"],
        ["sieve", "pi", "--q", "3", "--a", "1", "--segment", "4096"],
    ], ids=["precision", "segment"])
    def test_removed_options_are_usage_errors(self, capsys, argv):
        # the literal's @bits and sieve.SEGMENT set what these options did
        assert main(argv) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"usage error: unrecognized arguments: {argv[-2]}")

    def test_modulus_keeps_the_int_message(self):
        # --q is read by a wrapper, which keeps int's name in the message
        with pytest.raises(UsageError) as exc:
            parse_args(["sieve", "pi", "--q", "abc", "--a", "1"])
        assert str(exc.value) == "argument --q: invalid int value: 'abc'"

    def test_both_words_and_only_own_flags(self):
        ns = parse_args(["count", "sweep"] + SWEEP_FLAGS)
        assert ns.command == "count" and ns.action == "sweep"
        assert ns.residue.q == 2 and ns.residue.a == 1
        assert ns.grid == (10_000, 100_000)
        assert ns.beta == 0
        with pytest.raises(UsageError):     # a bare flag list
            parse_args(SWEEP_FLAGS)
        with pytest.raises(UsageError, match="ACTION"):
            parse_args(["count"] + SWEEP_FLAGS)
        with pytest.raises(UsageError, match="--mode"):
            parse_args(["cfrac", "--alpha", "sqrt:2", "--K", "4",
                        "--mode", "T"])

    def test_per_command_defaults(self):
        ns = parse_args(["count", "sweep", "--alpha", "sqrt:2",
                         "--q", "2", "--a", "1"])
        assert ns.mode == "S" and ns.target == "main" and ns.tol == 0.03
        assert ns.grid == (10 ** 4, 10 ** 5, 10 ** 6)
        assert ns.format == "csv" and ns.out is None
        ns = parse_args(["expsum", "identity-check", "--alpha", "sqrt:2",
                         "--q", "3", "--a", "1", "--M", "10"])
        assert ns.tol == 1e-9 and ns.k == 1
        ns = parse_args(["psi-delta", "inspect", "--alpha", "dec:0.5",
                         "--delta", "0.05"])
        assert ns.K == 64
        assert parse_args(["cfrac", "--alpha", "sqrt:2"]).K == 8
        assert parse_args(["type-estimate", "--alpha", "sqrt:2"]).K is None
        assert parse_args(["sieve", "psi", "--q", "3", "--a", "1"]).grid == \
            (10 ** 6,)

    def test_each_command_declares_only_its_flags(self):
        paths = dict(_commands())
        assert len(paths) == 12
        assert sum(len(flags) for flags in paths.values()) <= 71
        assert sorted(paths[("cfrac",)]) == ["--K", "--alpha", "--format", "--out"]


class TestExitCodes:
    def test_pass_is_zero(self, capsys):
        assert main(["cfrac", "--alpha", "sqrt:2", "--K", "4"]) == 0
        assert main(["type-estimate", "--alpha", "sqrt:2", "--K", "60"]) == 0
        out = capsys.readouterr().out
        assert "period_start=1" in out

    def test_usage_error_is_one(self, capsys):
        assert main(["count", "sweep", "--q", "4", "--a", "2",
                     "--alpha", "sqrt:2"]) == 1
        assert "usage error" in capsys.readouterr().err

    def test_runtime_error_is_one(self, capsys):
        # alpha < 1 cannot answer membership queries
        code = main(["beatty", "member", "--alpha", "quad:0/2+sqrt:2",
                     "--m", "3"])
        assert code == 1
        assert "error" in capsys.readouterr().err

    # refusals: floors past int64, convergents past the int-to-str digit
    # limit, a distance the carried precision cannot give to 2**-48
    @pytest.mark.parametrize("args", [
        "beatty generate --alpha sqrt:200000000000000000000000000000000000000 --N 3",
        "discrepancy --alpha sqrt:200000000000000000000000000000000000000 --M 3",
        "beatty generate --alpha sqrt:2 --beta=-1e30 --N 3",
        "cfrac --alpha sqrt:2 --K 11500",
        "cfrac --alpha sqrt:1000001 --K 2000",
        "cfrac --alpha sqrt:1000001 --K 2000 --format json",
        "type-estimate --alpha sqrt:1000001 --K 3000",
        "type-estimate --alpha dec:1.4142135623730950488016887242096980785696718753769 --K 50",
    ])
    def test_floor_beyond_int64_is_one(self, args):
        proc = subprocess.run([sys.executable, "-B", "-W", "error", "-m", "beattykit.cli",
                               *args.split()],
                              env=dict(os.environ, PYTHONPATH=str(SRC)),
                              capture_output=True, text=True)
        assert proc.returncode == 1
        assert proc.stderr.startswith("error:")
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("alpha", [
        "sqrt:1000000000000000000000000000001",
        "quad:1/2+sqrt:1000000000000000000000000000001",
    ])
    def test_unsplit_radicand_is_refused_in_time(self, alpha):
        # trial division stops at 2^20 (about 0.3 s), where it ran for days
        proc = subprocess.run([sys.executable, "-B", "-W", "error", "-m", "beattykit.cli",
                               "cfrac", "--alpha", alpha, "--K", "3"],
                              env=dict(os.environ, PYTHONPATH=str(SRC)),
                              capture_output=True, text=True, timeout=30)
        assert proc.returncode == 1
        assert proc.stderr.startswith("usage error: --alpha:")

    @pytest.mark.parametrize("alpha", ["sqrt:" + "7" * 4400, "bogus:" + "7" * 4400,
                                       "sqrt:1" + "0" * 4000],
                             ids=["past-int-limit", "malformed", "square"])
    def test_alpha_refusal_echoes_a_short_prefix(self, capsys, alpha):
        assert main(["cfrac", "--alpha", alpha, "--K", "3"]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"usage error: --alpha: {alpha[:60]!r}...")
        assert len(err) < 300

    @pytest.mark.parametrize("mode", ["N", "M"])
    def test_density_target_needs_a_closed_form(self, capsys, monkeypatch, mode):
        def no_table(*args, **kwargs):
            raise AssertionError("a table was built")
        monkeypatch.setattr("beattykit.sieve.build_table", no_table)
        code = main(["count", "sweep", *SWEEP_FLAGS, "--target", "density",
                     "--mode", mode])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("usage error") and "Traceback" not in err

    @pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                        reason="no int-to-str digit limit before Python 3.10.7")
    @pytest.mark.parametrize("K,first", [(1301, None), (1302, 1302), (2000, 1302)])
    def test_unprintable_depth_is_named(self, tmp_path, capsys, K, first):
        # sqrt(1000001) = [1000; 2000, 2000, ...]: q_1302 is the first
        # convergent past the default 4300-digit limit of int-to-str
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4300)
        try:
            code = main(["cfrac", "--alpha", "sqrt:1000001", "--K", str(K),
                         "--out", str(tmp_path / "cf.csv")])
        finally:
            sys.set_int_max_str_digits(limit)
        err = capsys.readouterr().err
        if first is None:
            assert code == 0 and err == ""
        else:
            assert code == 1
            assert err == (f"error: --K {K}: convergents pass the 4300-digit"
                           f" limit of int-to-str at depth {first}\n")

    @pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                        reason="no int-to-str digit limit before Python 3.10.7")
    @pytest.mark.parametrize("args", [
        "beatty generate --alpha sqrt:2 --beta 1e-5000 --N 1",
        "cfrac --alpha sqrt:2 --K 12000",
    ])
    def test_digit_limit_off_reads_as_the_default(self, args):
        # PYTHONINTMAXSTRDIGITS=0 switches the limit off; both the flag
        # reader and the convergent walk then hold to the default 4300 digits
        runs = [subprocess.run([sys.executable, "-B", "-W", "error", "-m", "beattykit.cli",
                                *args.split()],
                               env=dict(os.environ, PYTHONPATH=str(SRC),
                                        PYTHONINTMAXSTRDIGITS=limit),
                               capture_output=True, text=True, timeout=60)
                for limit in ("0", "4300")]
        off, default = ((p.returncode, p.stdout, p.stderr) for p in runs)
        assert off == default
        assert off[0] == 1 and "the 4300-digit limit of int-to-str" in off[2]

    @pytest.mark.parametrize("bits,M,code", [(48, 2_000_000, 1),
                                             (60, 100_000, 0),
                                             (64, 2_000_000, 0)])
    def test_coarse_dec_phases_are_refused(self, capsys, bits, M, code):
        # each block's phases must be certain to 1e-12 of a turn, a band
        # that grows with |n|: 48 bits cannot reach M = 2e6, 60 bits reach
        # M = 1e5 (not 2e5) and 64 bits reach 2e6
        argv = ["expsum", "eval", "--alpha", f"dec:1.4142135623730950488@{bits}",
                "--q", "3", "--a", "1", "--M", str(M), "--K", "8"]
        assert main(argv) == code
        out, err = capsys.readouterr()
        if code:
            assert out == "" and err.startswith("error: phases to |n| =")
        else:
            assert err == "" and out.count("\n") > 8

    def test_verification_failure_is_two(self, capsys):
        code = main(["count", "sweep", "--alpha", "sqrt:2", "--q", "2",
                     "--a", "1", "--grid", "1000,2000", "--tol", "1e-9"])
        assert code == 2
        assert "verdict=FAIL" in capsys.readouterr().out

    @pytest.mark.parametrize("flags", [["--alpha", "dec:1.5@8"],
                                       ["--alpha", "sqrt:2", "--beta=-1e30"]],
                             ids=["ambiguous", "beyond-int64"])
    def test_refusal_writes_no_report_byte(self, tmp_path, capsys, flags):
        argv = ["beatty", "generate", *flags, "--N", "10"]
        assert main(argv) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error:")
        path = tmp_path / "report.csv"
        assert main([*argv, "--out", str(path)]) == 1
        assert not path.exists()

    def test_io_error_is_one(self, capsys):
        code = main(["cfrac", "--alpha", "sqrt:2",
                     "--out", "/nonexistent/dir/report.csv"])
        assert code == 1
        assert "io error" in capsys.readouterr().err


class TestEmission:
    def test_reruns_are_byte_identical(self, tmp_path):
        args = ["discrepancy", "--alpha", "quad:0/2+sqrt:2", "--M", "500",
                "--delta", "0.37"]
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(args + ["--out", str(p1)]) == 0
        assert main(args + ["--out", str(p2)]) == 0
        assert p1.read_bytes() == p2.read_bytes()

    def test_csv_shape(self, capsys):
        main(["beatty", "generate", "--alpha", "sqrt:2", "--N", "4"])
        out = capsys.readouterr().out
        lines = out.splitlines()
        header = [ln for ln in lines if ln.startswith("#")]
        body = [ln for ln in lines if not ln.startswith("#")]
        assert header[0] == "# beattykit beatty-generate"
        assert body[0] == "n,term"
        assert body[1:] == ["1,1", "2,2", "3,4", "4,5"]
        assert "\r" not in out

    def test_json_mirrors_csv_values(self, tmp_path):
        args = ["sieve", "psi", "--q", "3", "--a", "1", "--grid", "1e4"]
        pc, pj = tmp_path / "r.csv", tmp_path / "r.json"
        assert main(args + ["--out", str(pc)]) == 0
        assert main(args + ["--out", str(pj), "--format", "json"]) == 0
        doc = json.loads(pj.read_text())
        csv_rows = [ln for ln in pc.read_text().splitlines()
                    if not ln.startswith("#")][1:]
        assert doc["columns"] == ["L", "psi", "main", "rel_dev"]
        for row_doc, row_csv in zip(doc["rows"], csv_rows):
            cells = row_csv.split(",")
            assert row_doc[0] == int(cells[0])
            for got, cell in zip(row_doc[1:], cells[1:]):
                assert got == float(cell)

    def test_twelve_significant_digits(self):
        rep = Report("demo", [("x", 1 / 3)], ("v",), [(2 / 3,)])
        text = render(rep, "csv")
        assert "# x=0.333333333333" in text
        assert "0.666666666667" in text

    def test_columns_render_as_cells(self):
        columns = [(7, -3, 2 ** 70, 0, 1, -1),
                   (True, False, True, False, True, True),
                   (np.int64(-5), np.int32(9), np.uint8(200), np.int64(0), 4, 5),
                   (1 / 3, -0.0, 1e300, np.float64(2 / 3), np.float32(0.1), 2.5),
                   ("x", Fraction(1, 3), np.bool_(True), "", "a b", None)]
        rows = list(zip(*columns))
        rep = Report("mixed", [("k", 1)], tuple("abcde"), rows)
        lines = render(rep, "csv").splitlines()
        assert lines[3:] == csv_rows_per_cell(rep)
        assert lines[3] == "7,true,-5,0.333333333333,x"
        empty = Report("mixed", [], ("a", "b"), [])
        assert render(empty, "csv") == "# beattykit mixed\na,b\n"

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("chunk", [1, 2, 3, 1 << 16])
    def test_chunks_join_to_the_whole_document(self, monkeypatch, fmt, chunk):
        # rows are formatted a chunk at a time; the text is what one
        # rendering of the whole document gives, for every kind of cell
        columns = [(7, -3, 2 ** 70, 0, 1, -1, 5),
                   (True, False, True, False, True, True, False),
                   (np.int64(-5), np.int32(9), np.uint8(200), np.int64(0), 4, 5, 6),
                   (1 / 3, -0.0, 1e300, np.float64(2 / 3), np.float32(0.1),
                    float("nan"), -float("inf")),
                   ("x", Fraction(1, 3), np.bool_(True), "", 'a "b"\n', None, "\u00e9")]
        reports = [Report("mixed", [("k", 1), ("s", 'q"\n')], tuple("abcde"),
                          list(zip(*columns)), verdict=False),
                   Report("empty", [], ("a", "b"), []),
                   parse_args(GENERATE).run(parse_args(GENERATE))]
        monkeypatch.setattr("beattykit.cli._CHUNK", chunk)
        for rep in reports:
            assert render(rep, fmt) == render_whole(rep, fmt)

    def test_generate_rows_are_a_sequence(self):
        rep = parse_args(GENERATE).run(parse_args(GENERATE))
        assert len(rep.rows) == 3
        assert list(rep.rows) == [(1, 1), (2, 2), (3, 4)]
        assert rep.rows[1:] == [(2, 2), (3, 4)] and rep.rows[-1] == (3, 4)

    def test_emit_to_stdout(self, capsys):
        rep = Report("demo", [], ("v",), [(1,)], verdict=True)
        emit_report(rep, None)
        out = capsys.readouterr().out
        assert out == "# beattykit demo\n# verdict=PASS\nv\n1\n"


def test_member_report_witness(capsys):
    main(["beatty", "member", "--alpha", "sqrt:2", "--m", "4"])
    out = capsys.readouterr().out
    assert out.splitlines()[-1] == "4,true,3"
    main(["beatty", "member", "--alpha", "sqrt:2", "--m", "3"])
    out = capsys.readouterr().out
    assert out.splitlines()[-1] == "3,false,0"


def test_member_decimal_at_beta(capsys):
    # m = beta puts the witness at exactly ceil(0) = 0 on dec: as well
    code = main(["beatty", "member", "--alpha", "dec:1.4142135623730950488",
                 "--m", "0"])
    assert code == 0
    assert capsys.readouterr().out.splitlines()[-1] == "0,false,0"


def test_psi_delta_inspect_verdict(capsys):
    code = main(["psi-delta", "inspect", "--alpha", "dec:0.5",
                 "--delta", "0.05", "--K", "16"])
    assert code == 0
    assert "verdict=PASS" in capsys.readouterr().out


BAD_VALUES = [
    (["psi-delta", "inspect", "--alpha", "sqrt:2", "--delta", "0.01"],
     "--alpha"),
    (["beatty", "generate", "--alpha", "sqrt:2", "--N=-3"], "--N"),
    (["discrepancy", "--alpha", "sqrt:2", "--M", "0"], "--M"),
    (["expsum", "bound-ratio", "--alpha", "sqrt:2", "--q", "5", "--a", "2",
      "--M", "1"], "--M"),
    (["expsum", "bound-ratio", "--alpha", "sqrt:2", "--q", "5", "--a", "2",
      "--M", "100", "--den-max", "0"], "--den-max"),
    (["count", "sweep", "--alpha", "sqrt:2", "--q", "3", "--a", "1",
      "--grid", "inf"], "--grid"),
    (["sieve", "pi", "--q", "7", "--a", "1", "--grid", "100.9,1000.5"],
     "--grid"),
    (["expsum", "identity-check", "--alpha", "sqrt:2", "--q", "3", "--a", "1",
      "--M", "10", "--k", "0"], "--k"),
]
BAD_TOL = [pytest.param(["count", "sweep", "--alpha", "sqrt:2", "--q", "1",
                         "--a", "0", "--grid", "10,100,1000", "--tol", tol],
                        "--tol", id=f"count sweep --tol {tol}")
           for tol in ("nan", "inf", "-1")]
# past a command's budget (memory, time and output, or depth): refused at
# parse time, so nothing is allocated for the points
BAD_BUDGET = [pytest.param([*cmd, "--alpha", "sqrt:2", flag, "100000000000"], flag,
                           id=f"{' '.join(cmd)} {flag} over budget")
              for cmd, flag in ((["discrepancy"], "--M"),
                                (["beatty", "generate"], "--N"),
                                (["cfrac"], "--K"), (["type-estimate"], "--K"))]

# a modulus past the sieve budget, even past int64: no table can hold more
# than its member n = a
BAD_Q = [pytest.param(argv, "--q", id=f"{' '.join(argv[:2])} --q past int64")
         for argv in (["sieve", "pi", "--q", "9223372036854775809", "--a", "1",
                       "--grid", "1000"],
                      ["count", "sweep", "--alpha", "sqrt:2", "--mode", "T",
                       "--q", "100000000000000000000", "--a", "1",
                       "--grid", "10,100,1000"])]


# a value the report header cannot print, or psi-delta cannot turn into a
# float: refused before the number is built or rounded
BAD_BIG = [pytest.param([*argv, flag, value], flag,
                        id=f"{' '.join(argv[:2])} {flag} {value}")
           for argv, flag, value in (
               (GENERATE, "--beta", "1e-5000"),
               (["discrepancy", "--alpha", "sqrt:2", "--M", "10"], "--delta",
                "1e-5000"),
               *((["psi-delta", "inspect", "--alpha", "quad:0/2+sqrt:2", "--K", "3"],
                  "--delta", value) for value in ("1e400", "1e-400")))]
# Fraction took minutes to build 10**999999999, in C code no signal stops,
# so this case runs in a child with a time limit
SLOW = ["beatty", "member", "--alpha", "sqrt:2", "--beta", "1e999999999",
        "--m", "1"]


# None leaves each BAD_TOL, BAD_BUDGET, BAD_Q and BAD_BIG case its own id
@pytest.mark.parametrize(
    "argv,flag", BAD_VALUES + BAD_TOL + BAD_BUDGET + BAD_Q + BAD_BIG
    + [(SLOW, "--beta")],
    ids=[" ".join(argv[:2]) + " " + flag for argv, flag in BAD_VALUES]
    + [None] * (len(BAD_TOL) + len(BAD_BUDGET) + len(BAD_Q) + len(BAD_BIG))
    + ["beatty member --beta 1e999999999 in time"])
def test_bad_flag_value_is_a_usage_error(capsys, argv, flag):
    if argv is SLOW:
        proc = subprocess.run([sys.executable, "-B", "-W", "error", "-m",
                               "beattykit.cli", *argv],
                              env=dict(os.environ, PYTHONPATH=str(SRC)),
                              capture_output=True, text=True, timeout=30)
        code, err = proc.returncode, proc.stderr
    else:
        code, err = main(argv), capsys.readouterr().err
    assert code == 1
    assert err.startswith("usage error:")
    assert flag in err
    assert "Traceback" not in err
    assert len(err) < 300       # no value runs to hundreds of digits


def _readme_examples():
    text = README.read_text()
    block = text[text.index("## Command line"):]
    block = block[:block.index("\n## ", 1)]
    return re.findall(r"^beattykit (.+)$", block, flags=re.M)


@pytest.mark.parametrize("line", _readme_examples())
def test_readme_example_runs(tmp_path, monkeypatch, capsys, line):
    monkeypatch.chdir(tmp_path)
    assert main(shlex.split(line)) == 0


def test_import_loads_no_fallback_module():
    # mpmath and sympy stay unloaded; decimal is loaded by the stdlib's
    # fractions, so no beattykit module may hold it or a name from it
    code = f"""if True:
        import importlib, json, pkgutil, sys, types
        sys.path.insert(0, {str(SRC)!r})
        import beattykit
        for info in pkgutil.iter_modules(beattykit.__path__):
            importlib.import_module("beattykit." + info.name)
        def origin(v):
            if isinstance(v, types.ModuleType):
                return v.__name__
            return getattr(v, "__module__", None) or ""
        held = sorted(f"{{name}}.{{k}}" for name, mod in list(sys.modules.items())
                      if name.startswith("beattykit")
                      for k, v in vars(mod).items()
                      if origin(v).split(".")[0] in ("decimal", "mpmath", "sympy"))
        print(json.dumps([held, sorted(
            m for m in ("mpmath", "sympy") if m in sys.modules)]))
    """
    out = subprocess.run([sys.executable, "-I", "-B", "-W", "error", "-c", code],
                         check=True, capture_output=True, text=True).stdout
    assert json.loads(out) == [[], []]


# every command that reads one class sieves only that class; one that sieved
# the whole range would keep every report byte, so only this test sees it
CLASS_RUNNERS = [
    ["sieve", "psi", "--grid", "1000"],
    ["sieve", "pi", "--grid", "1000"],
    *(["count", "sweep", "--alpha", "sqrt:2", "--grid", "10,100,1000",
       "--mode", mode] for mode in "STNM"),
    ["expsum", "eval", "--alpha", "sqrt:2", "--M", "100", "--K", "2"],
    ["expsum", "identity-check", "--alpha", "sqrt:2", "--M", "100"],
    ["expsum", "bound-ratio", "--alpha", "sqrt:2", "--M", "100"],
]


@pytest.mark.parametrize("argv", CLASS_RUNNERS, ids=lambda argv: " ".join(
    argv[:2] + argv[-1:] * (argv[0] == "count")))
def test_runner_sieves_its_class(monkeypatch, capsys, argv):
    built = []

    def record(limit, residue=ResidueClass(0, 1)):
        built.append(residue)
        return build_table(limit, residue)

    monkeypatch.setattr(sieve, "build_table", record)
    assert main(argv + ["--q", "7", "--a", "3"]) in (0, 2)
    assert capsys.readouterr().err == ""
    assert built == [ResidueClass(3, 7)]


def _loaded_after(*argvs):
    """The beattykit modules (package-relative names), numpy and dataclasses
    in sys.modules after `import beattykit` and one CLI call per argv, in
    one fresh interpreter."""
    code = f"""if True:
        import contextlib, io, json, sys
        sys.path.insert(0, {str(SRC)!r})
        import beattykit
        for argv in {list(argvs)!r}:
            from beattykit.cli import main
            with contextlib.redirect_stdout(io.StringIO()):
                assert main(argv) == 0, argv
        print(json.dumps([m for m in sys.modules if m.startswith("beattykit")
                          or m in ("numpy", "dataclasses")]))
    """
    out = subprocess.run([sys.executable, "-I", "-B", "-W", "error", "-c", code],
                         check=True, capture_output=True, text=True).stdout
    return {m.removeprefix("beattykit.") for m in json.loads(out)}


# a small call of each command; those that read no table come first
TABLE_FREE = [
    ["beatty", "generate", "--alpha", "sqrt:2", "--N", "10"],
    ["beatty", "member", "--alpha", "sqrt:2", "--m", "7"],
    ["cfrac", "--alpha", "sqrt:2"],
    ["type-estimate", "--alpha", "sqrt:2", "--K", "20"],
    ["discrepancy", "--alpha", "sqrt:2", "--M", "100"],
    ["psi-delta", "inspect", "--alpha", "dec:0.3", "--delta", "0.05"],
]
EVAL = ["expsum", "eval", "--alpha", "sqrt:2", "--q", "3", "--a", "1", "--M", "100"]
CALLS = TABLE_FREE + [
    ["sieve", "psi", "--q", "3", "--a", "1", "--grid", "1000"],
    ["sieve", "pi", "--q", "3", "--a", "1", "--grid", "1000"],
    ["count", "sweep"] + SWEEP_FLAGS,
    EVAL,
    EVAL[:1] + ["identity-check"] + EVAL[2:],
    EVAL[:1] + ["bound-ratio"] + EVAL[2:],
]


def test_each_command_loads_only_its_modules(monkeypatch):
    assert _loaded_after() == {"beattykit"}
    sieve = _loaded_after(["sieve", "pi", "--q", "3", "--a", "1",
                           "--grid", "1000"])
    assert sieve - {"numpy"} == {"beattykit", "cli", "errors", "sieve"}
    sweep = _loaded_after(["count", "sweep"] + SWEEP_FLAGS)
    assert "counting" in sweep and "expsum" not in sweep
    for argv in (EVAL, ["discrepancy", "--alpha", "sqrt:2", "--M", "100"]):
        loaded = _loaded_after(argv)
        assert "expsum" in loaded and not loaded & {"counting", "beatty"}
    # no record class is generated by dataclasses, and only the commands
    # that read a table load the sieve
    paths = {path for path, _ in _commands()}
    assert {next(p for p in paths if tuple(argv[:len(p)]) == p)
            for argv in CALLS} == paths
    assert "dataclasses" not in _loaded_after(*CALLS)
    assert "sieve" not in _loaded_after(*TABLE_FREE)
    # one parse builds only its own command's flags, beside the -h of the
    # three levels it passes through
    added = []
    add_argument = argparse._ActionsContainer.add_argument

    def counted(self, *args, **kwargs):
        added.extend(args)
        return add_argument(self, *args, **kwargs)

    monkeypatch.setattr(argparse._ActionsContainer, "add_argument", counted)
    parse_args(["count", "sweep"] + SWEEP_FLAGS)
    assert added == ["-h", "--help"] * 3 + [
        "--" + flag for flag in ("alpha beta q a grid mode target tol out"
                                 " format").split()]
