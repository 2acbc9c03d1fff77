"""The public names: every __all__ entry resolves, and the package's list is
pinned, so a change to the public API shows up as a diff here."""

import argparse
import importlib
import importlib.util
import json
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import beattykit
from beattykit import cli, counting, sieve

SRC = Path(__file__).resolve().parent.parent / "src"
HELP = Path(__file__).resolve().parent / "golden" / "help"

MODULES = sorted(m.name for m in pkgutil.iter_modules(beattykit.__path__))

PACKAGE_ALL = [
    "AlphaNotGreaterThanOne", "AmbiguousFloor", "BeattyKitError",
    "BeattyParams", "ContinuedFraction", "DeltaOutOfRange", "FloorOutOfRange",
    "Irrational", "IrrationalParseError", "LimitTooLarge", "MangoldtTable",
    "NotPositive", "PointOutOfRange", "PrecisionExhausted", "PrecisionReal",
    "PsiDelta", "QuadraticSurd", "ResidueClass", "SubstitutionCheck",
    "TableTooSmall", "TypeEstimate", "UsageError", "VerificationReport",
    "as_exact_ratio", "beatty_sums", "best_convergent_below",
    "bound_ratio_sweep", "build_psi_delta", "build_table", "bulk_membership",
    "cf_expand", "chebyshev_psi_ap", "decay_exponent", "density_prediction",
    "discrepancy", "discrepancy_beatty", "estimate_type", "euler_phi",
    "exp_sum_ap", "exp_sum_shifted", "floor_affine", "generate", "is_member",
    "main_terms", "make_real", "parse_irrational", "prime_pi_ap",
    "progression_sum_bound", "squarefree_split",
    "substitution_identity_check", "verify_sweep",
]


def test_package_all_is_pinned():
    assert PACKAGE_ALL == sorted(PACKAGE_ALL)
    assert sorted(beattykit.__all__) == PACKAGE_ALL
    for name in PACKAGE_ALL:
        assert hasattr(beattykit, name), name


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    module = importlib.import_module(f"beattykit.{name}")
    names = getattr(module, "__all__", [])
    assert len(names) == len(set(names))
    missing = [n for n in names if not hasattr(module, n)]
    assert missing == []


def _bench_child():
    path = SRC.parent / "bench" / "child.py"
    spec = importlib.util.spec_from_file_location("bench_child", path)
    child = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(child)
    return child


def test_benchmark_tracer_hooks_are_in_place():
    # bench/child.py wraps owner.__dict__[attr], so a hooked method moved to
    # a base class would break the benchmark's own suite and nothing here
    child = _bench_child()
    for owner, attr, *_ in child.LAYERS:
        assert attr in vars(owner), (owner.__name__, attr)
    # child._table_counts reads these from every traced table
    assert {"is_prime", "log_base"} <= set(vars(sieve.MangoldtTable))
    # lib_membership and lib_sandwich call these by name
    surd = child.irrational.parse_irrational(child.SANDWICH_ALPHA)
    for owner, attr in [(child.irrational, "parse_irrational"),
                        (child.irrational, "floor_affine"),
                        (child.beatty, "BeattyParams"),
                        (child.beatty, "bulk_membership"),
                        (child.expsum, "build_psi_delta"),
                        (child.expsum.PsiDelta, "evaluate"),
                        (surd, "phases_many"),
                        (child.beattykit.cli, "Report"),
                        (child.beattykit.cli, "render")]:
        assert callable(getattr(owner, attr, None)), attr


def test_benchmark_library_steps_pass(capsys):
    # the sweep and phase workloads run these steps; they lean on
    # floor_affine, bulk_membership, cli.render and build_psi_delta
    child = _bench_child()
    assert child.lib_membership(10000, "1/3") == 0
    assert child.lib_sandwich(64, 200, "2/7") == 0
    assert capsys.readouterr().out.count("# verdict=PASS") == 2


def _fresh(code: str):
    """What code prints as JSON, run after a bare `import beattykit` in a
    fresh interpreter, so no earlier import has filled the package in."""
    code = f"import json, sys\nsys.path.insert(0, {str(SRC)!r})\n" \
        f"import beattykit\n{code}"
    out = subprocess.run([sys.executable, "-I", "-B", "-W", "error", "-c", code],
                         check=True, capture_output=True, text=True).stdout
    return json.loads(out)


def test_star_import_binds_every_name():
    names = _fresh("ns = {}\nexec('from beattykit import *', ns)\n"
                   "print(json.dumps(sorted(set(ns) - {'__builtins__'})))")
    assert names == PACKAGE_ALL


def test_submodule_resolves_after_bare_import():
    assert _fresh("print(json.dumps(beattykit.sieve.__name__))") == \
        "beattykit.sieve"


def test_dir_lists_every_public_name():
    names = dir(beattykit)
    assert set(PACKAGE_ALL) <= set(names)
    assert {"__all__", "__version__", "sieve", "cli"} <= set(names)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="module 'beattykit' has no attribute 'nope'"):
        beattykit.nope
    assert not hasattr(beattykit, "nope")


def _words(parser) -> dict:
    return next((act.choices for act in parser._actions
                 if isinstance(act, argparse._SubParsersAction)), {})


def _subparsers(path=()):
    """(path, parser) for every command path, the top level first; each
    parser comes from build_parser(path), which builds out only that path."""
    parser = cli.build_parser(path)
    for word in path:
        parser = _words(parser)[word]
    yield path, parser
    for name in _words(parser):
        yield from _subparsers(path + (name,))


def test_mode_choices_are_counting_modes():
    # cli spells the choices out, so the parser does not import counting
    sweep = dict(_subparsers())[("count", "sweep")]
    mode, = [act for act in sweep._actions if act.dest == "mode"]
    assert tuple(mode.choices) == counting.MODES


HELP_PATHS = [path for path, _ in _subparsers()]


@pytest.mark.parametrize("path", HELP_PATHS,
                         ids=[" ".join(("beattykit",) + p) for p in HELP_PATHS])
def test_help_exits_zero(capsys, monkeypatch, path):
    # every help text byte for byte; argparse wraps help to the terminal's
    # width, so the width is fixed
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        cli.main([*path, "-h"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert out.startswith("usage: beattykit")
    assert out == (HELP / ("_".join(("beattykit",) + path) + ".txt")).read_text()
