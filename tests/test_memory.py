"""Memory regression: the point kernels, the discrepancy scan, `beatty
generate` writing its report in chunks, the sieve of one residue class,
a count sweep's sums over its records (one side, and both sides in
verify_sweep), the exponential sums over them and `expsum eval`'s whole
command path hold a bounded number of bytes a point.

Each test takes the tracemalloc peak of one call, less what was held
before it, per point, at M = 2^19 points (2e5 terms for generate, the
58088 records of 3 mod 7 up to 5e6 for the sieve, the 109784 records of
3 mod 7 up to 7*floor(sqrt(2)*1e6 + 1/3) + 3 for the sums, the 206759
records of 1 mod 3 up to 6e6 + 1 for the exponential sums).  The sums
read the records a block at a time, so their figure is one block's
arrays over the table's records: 18.0 and 8.9 bytes a record here.  Every
bound sits a little above the value measured when it was set, given beside
it, and less than 8 bytes above it: one more full-length int64 or float64
temporary fails the test.
"""

import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from beattykit.beatty import BeattyParams, bulk_membership
from beattykit.cli import main
from beattykit.counting import beatty_sums, verify_sweep
from beattykit.expsum import _phase_sums, discrepancy, discrepancy_beatty
from beattykit.irrational import parse_irrational
from beattykit.sieve import ResidueClass, build_table

M = 1 << 19
ALPHAS = ["sqrt:2", "dec:1.4142135623730950488016887242096980785697@200"]


def bytes_per_point(call, points: int) -> float:
    call()      # imports, caches and first-call costs are not per point
    tracemalloc.start()
    try:
        held = tracemalloc.get_traced_memory()[0]
        call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return (peak - held) / points


@pytest.fixture(scope="module")
def ns():
    return np.arange(1, M + 1, dtype=np.int64)


@pytest.mark.parametrize("alpha", ALPHAS)
def test_bulk_membership(ns, alpha):
    # the hit mask and the witnesses, then one block's floors, fractions
    # and kernel scratch: 11.5 on both backends (12.8 with per-block limb
    # temporaries, 21.0 with whole-length floors)
    params = BeattyParams(parse_irrational(alpha), Fraction(1, 3))
    assert bytes_per_point(lambda: bulk_membership(params, ns), M) <= 13


@pytest.mark.parametrize("alpha", ALPHAS)
def test_floor_kernel(ns, alpha):
    # 16 for floors and fractions, the rest for the kernel's scratch set:
    # 17.7 (20.0 with per-block limb temporaries)
    x = parse_irrational(alpha)
    assert bytes_per_point(lambda: x.affine_floor_frac_many(ns, Fraction(1, 3)),
                           M) <= 19


@pytest.mark.parametrize("alpha", ALPHAS)
def test_phase_kernel(ns, alpha):
    # no floor array: 9.7 (12.0 with per-block limb temporaries)
    x = parse_irrational(alpha)
    assert bytes_per_point(lambda: x.phases_many(ns, Fraction(1, 3)), M) <= 11


@pytest.mark.parametrize("floors", [True, False])
def test_kernel_scratch_is_one_block(floors):
    # beyond its outputs (16 or 8 bytes a point) the kernel holds one
    # scratch set of a block's rows whatever the length: 0.87 MB at 2^17 and
    # at 2^20 points, within a few bytes of each other
    x, eta = parse_irrational("sqrt:2"), Fraction(1, 3)
    call = x.affine_floor_frac_many if floors else x.phases_many
    beyond = []
    for k in (17, 20):
        ks = np.arange(1, (1 << k) + 1, dtype=np.int64)
        beyond.append(bytes_per_point(lambda: call(ks, eta), 1)
                      - ks.size * (16 if floors else 8))
    assert abs(beyond[1] - beyond[0]) < 4096, beyond


@pytest.mark.parametrize("alpha", ALPHAS)
def test_discrepancy_beatty(alpha):
    # the sorted fractions, then one block's kernel scratch or scan
    # temporaries: 10.4 (11.5 with per-block limb temporaries, 42.0 when
    # the scan held whole-length arrays)
    x = parse_irrational(alpha)
    assert bytes_per_point(lambda: discrepancy_beatty(x, Fraction(1, 3), M),
                           M) <= 12


def test_discrepancy_of_points():
    # the sorted copy and one block of the scan: 9.9 (10.2 with the
    # distinct-value tie path, 10.5 with the four-family scan)
    xs = np.random.default_rng(3).random(M)
    assert bytes_per_point(lambda: discrepancy(xs), M) <= 12


def test_streamed_generate(tmp_path):
    # the term array and one chunk of 2^15 rows, which dominates at this
    # size: 35.8 (50.7 with chunks of 2^16 rows formatted cell by cell, 323
    # when the whole report was formed at once)
    N, out = 200_000, str(tmp_path / "terms.csv")
    argv = ["beatty", "generate", "--alpha", "sqrt:2", "--N", str(N), "--out", out]
    assert bytes_per_point(lambda: main(argv), N) <= 80


def sweep_bytes(sweep, alpha) -> float:
    p, r = BeattyParams(parse_irrational(alpha), Fraction(1, 3)), ResidueClass(3, 7)
    grid = [10 ** 4, 10 ** 5, 10 ** 6]
    table = build_table(7 * p.term(grid[-1]) + 3, r)
    return bytes_per_point(lambda: sweep(p, r, grid, "S", table), table.power.size)


@pytest.mark.parametrize("alpha", ALPHAS)
def test_count_sweep_sums(alpha):
    # one block of the stream's records, their weights and steps, one
    # kernel call's and the carried totals' temporaries, whatever the range:
    # 18.0 a record of 3 mod 7 (22.8 with two ceilings a record; 54.0 with
    # whole-length values, Lambda values, starts and stops; 117.3 when the
    # ceilings were one kernel call)
    assert sweep_bytes(beatty_sums, alpha) <= 21


@pytest.mark.parametrize("alpha", ALPHAS)
def test_verify_sweep(alpha):
    # both sides from one read of the records: 18.0, as for the left side
    # alone (22.8 when each side read them in turn)
    assert sweep_bytes(verify_sweep, alpha) <= 21


@pytest.mark.parametrize("alpha", ALPHAS)
def test_exp_sums(alpha):
    # one block's temporaries for k = 1..8: 8.9 a record (18.2 with the
    # records' positions, 80.0 with a pass and whole-length arrays per k)
    r, x = ResidueClass(1, 3), parse_irrational(alpha)
    table = build_table(6_000_001, r)
    records = table.power.size
    assert bytes_per_point(
        lambda: _phase_sums(table, 6_000_001, r, 4,
                            [(x * k, True) for k in range(1, 9)]),
        records) <= 10


@pytest.mark.parametrize("alpha", ALPHAS)
def test_expsum_eval_command(tmp_path, alpha):
    # the class's table and the taking of its logs set the peak (40.3 a
    # record of 1 mod 3 for build_table and log_base alone), not the sums: 40.5
    argv = ["expsum", "eval", "--alpha", alpha, "--q", "3", "--a", "1",
            "--M", "2000000", "--K", "8", "--out", str(tmp_path / "eval.csv")]

    def run():
        assert main(argv) == 0

    assert bytes_per_point(run, 206759) <= 42


def test_class_table_build():
    # one segment's mask over the 714286 members (12.3 a record), its
    # survivors, then power and base: 37.9 (116 for the full table to 5e6)
    r = ResidueClass(3, 7)
    records = build_table(5_000_000, r).power.size
    assert bytes_per_point(lambda: build_table(5_000_000, r), records) <= 40
