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

from beattykit.beatty import BeattyParams
from beattykit.cli import main
from beattykit.counting import verify_sweep
from beattykit.expsum import discrepancy_beatty
from beattykit.irrational import parse_irrational
from beattykit.sieve import ResidueClass, build_table

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


@pytest.mark.parametrize("name,alpha,mode,target", COUNT_SWEEP)
def test_count_sweep_report_bytes(tmp_path, sweep_table, name, alpha, mode,
                                  target):
    pin = json.loads((GOLDEN / "count_sweep_pins.json").read_text())[name]
    out = tmp_path / name
    assert main(["count", "sweep", "--alpha", alpha, *SWEEP, "--mode", mode,
                 "--target", target, "--out", str(out)]) == pin["exit"]
    assert out.read_bytes() == (GOLDEN / name).read_bytes()
    rep = verify_sweep(BeattyParams(parse_irrational(alpha), Fraction(1, 3)),
                       ResidueClass(1, 7), GRID, mode, sweep_table,
                       target=target)
    assert [row.lhs.hex() for row in rep.rows] == pin["lhs"]
    assert [row.main.hex() for row in rep.rows] == pin["main"]
