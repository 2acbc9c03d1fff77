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

from beattykit.cli import (Report, build_parser, emit_report, main,
                           parse_args, render)
from beattykit.errors import UsageError
from oracles import csv_rows_per_cell

README = Path(__file__).resolve().parent.parent / "README.md"
SRC = Path(__file__).resolve().parent.parent / "src"
GENERATE = ["beatty", "generate", "--alpha", "sqrt:2", "--N", "3"]
SWEEP_FLAGS = ["--alpha", "sqrt:2", "--beta", "0", "--q", "2", "--a", "1",
               "--grid", "1e4,1e5"]


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
        with pytest.raises(UsageError):
            parse_args(["orbit"])
        with pytest.raises(UsageError):
            parse_args(["beatty", "frobnicate"])
        with pytest.raises(UsageError):
            parse_args(["cfrac", "extra", "--alpha", "sqrt:2"])

    def test_bad_beta_and_delta(self):
        with pytest.raises(UsageError, match="--beta"):
            parse_args(GENERATE + ["--beta", "x"])
        with pytest.raises(UsageError, match="--delta"):
            parse_args(["discrepancy", "--alpha", "sqrt:2", "--M", "10",
                        "--delta", "1/0"])

    def test_fractional_beta_forms(self):
        assert parse_args(GENERATE + ["--beta", "0.3"]).beta.denominator == 10
        # negative fractions need the = form to get past argparse
        assert parse_args(GENERATE + ["--beta=-17/10"]).beta.denominator == 10

    def test_precision_flows_into_decimals(self):
        ns = parse_args(["cfrac", "--alpha", "dec:0.3", "--precision", "64"])
        lo, hi = ns.alpha.interval()
        assert 0 < hi - lo <= 2.0 ** -60
        with pytest.raises(UsageError, match="--precision"):
            parse_args(["cfrac", "--alpha", "sqrt:2", "--precision", "8"])

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
        def walk(parser, path):
            subs = [act for act in parser._actions
                    if isinstance(act, argparse._SubParsersAction)]
            if not subs:
                yield path, [opt for act in parser._actions
                             for opt in act.option_strings
                             if opt not in ("-h", "--help")]
            for act in subs:
                for name, sub in act.choices.items():
                    yield from walk(sub, path + (name,))

        paths = dict(walk(build_parser(), ()))
        assert len(paths) == 12
        assert sum(len(flags) for flags in paths.values()) <= 87
        assert sorted(paths[("cfrac",)]) == [
            "--K", "--alpha", "--format", "--out", "--precision"]


class TestExitCodes:
    def test_pass_is_zero(self, capsys):
        assert main(["cfrac", "--alpha", "sqrt:2", "--K", "4"]) == 0
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

    @pytest.mark.parametrize("args", [
        "beatty generate --alpha sqrt:200000000000000000000000000000000000000 --N 3",
        "discrepancy --alpha sqrt:200000000000000000000000000000000000000 --M 3",
        "beatty generate --alpha sqrt:2 --beta=-1e30 --N 3",
    ])
    def test_floor_beyond_int64_is_one(self, args):
        proc = subprocess.run([sys.executable, "-B", "-m", "beattykit.cli",
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
        proc = subprocess.run([sys.executable, "-B", "-m", "beattykit.cli",
                               "cfrac", "--alpha", alpha, "--K", "3"],
                              env=dict(os.environ, PYTHONPATH=str(SRC)),
                              capture_output=True, text=True, timeout=30)
        assert proc.returncode == 1
        assert proc.stderr.startswith("usage error: --alpha:")

    def test_verification_failure_is_two(self, capsys):
        code = main(["count", "sweep", "--alpha", "sqrt:2", "--q", "2",
                     "--a", "1", "--grid", "1000,2000", "--tol", "1e-9"])
        assert code == 2
        assert "verdict=FAIL" in capsys.readouterr().out

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
# past a command's memory budget: refused at parse time, so nothing is
# allocated for the points
BAD_BUDGET = [pytest.param([*cmd, "--alpha", "sqrt:2", flag, "100000000000"], flag,
                           id=f"{' '.join(cmd)} {flag} over budget")
              for cmd, flag in ((["discrepancy"], "--M"),
                                (["beatty", "generate"], "--N"))]


# None leaves each BAD_TOL and BAD_BUDGET case its own id
@pytest.mark.parametrize("argv,flag", BAD_VALUES + BAD_TOL + BAD_BUDGET,
                         ids=[" ".join(argv[:2]) + " " + flag
                              for argv, flag in BAD_VALUES]
                         + [None] * (len(BAD_TOL) + len(BAD_BUDGET)))
def test_bad_flag_value_is_a_usage_error(capsys, argv, flag):
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage error:")
    assert flag in err
    assert "Traceback" not in err


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
    out = subprocess.run([sys.executable, "-I", "-B", "-c", code], check=True,
                         capture_output=True, text=True).stdout
    assert json.loads(out) == [[], []]


def _loaded_after(argv):
    """The beattykit modules (package-relative names) and numpy in
    sys.modules after `import beattykit` and, if argv is given, one CLI
    call, in a fresh interpreter."""
    code = f"""if True:
        import contextlib, io, json, sys
        sys.path.insert(0, {str(SRC)!r})
        import beattykit
        if {argv!r}:
            from beattykit.cli import main
            with contextlib.redirect_stdout(io.StringIO()):
                assert main({argv!r}) == 0
        print(json.dumps([m for m in sys.modules
                          if m.startswith("beattykit") or m == "numpy"]))
    """
    out = subprocess.run([sys.executable, "-I", "-B", "-c", code], check=True,
                         capture_output=True, text=True).stdout
    return {m.removeprefix("beattykit.") for m in json.loads(out)}


def test_each_command_loads_only_its_modules():
    assert _loaded_after([]) == {"beattykit"}
    sieve = _loaded_after(["sieve", "pi", "--q", "3", "--a", "1",
                           "--grid", "1000"])
    assert sieve - {"numpy"} == {"beattykit", "cli", "errors", "sieve"}
    sweep = _loaded_after(["count", "sweep"] + SWEEP_FLAGS)
    assert "counting" in sweep and "expsum" not in sweep
    for argv in (["expsum", "eval", "--alpha", "sqrt:2", "--q", "3", "--a", "1",
                  "--M", "100"],
                 ["discrepancy", "--alpha", "sqrt:2", "--M", "100"]):
        loaded = _loaded_after(argv)
        assert "expsum" in loaded and not loaded & {"counting", "beatty"}
