"""Golden-byte tests: CLI reports compared byte for byte with files in
tests/golden/, written by an earlier version of the program.

A change that is meant to keep results must leave these bytes alone.  The
report rounds to twelve significant digits, so the discrepancy values are
also pinned in full, as float hex strings.
"""

from fractions import Fraction
from pathlib import Path

import pytest

from beattykit.cli import main
from beattykit.expsum import discrepancy_beatty
from beattykit.irrational import parse_irrational

GOLDEN = Path(__file__).parent / "golden"
PI = "dec:3.14159265358979323846@200"

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
