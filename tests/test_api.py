"""The public names: every __all__ entry resolves, and the package's list is
pinned, so a change to the public API shows up as a diff here."""

import importlib
import pkgutil

import pytest

import beattykit

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
    "progression_sum_bound", "psi_indicator", "squarefree_split",
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
