"""Exact Beatty-sequence arithmetic and prime-distribution experiments.

The package keeps two layers deliberately separate: an exact layer
(quadratic surds, certified high-precision reals, integer floor/frac
kernels) that never silently rounds, and a bulk layer (numpy sieves and
vectorized evaluation) whose results are either certified against error
bounds or re-derived through the exact layer when a decision is too close
to call.
"""

import importlib

__version__ = "0.1.0"

_PUBLIC = {  # submodule: the public names it defines
    "beatty": "BeattyParams bulk_membership generate is_member",
    "counting": "VerificationReport beatty_sums density_prediction main_terms "
                "verify_sweep",
    "errors": "AlphaNotGreaterThanOne AmbiguousFloor BeattyKitError DeltaOutOfRange "
              "FloorOutOfRange IrrationalParseError LimitTooLarge NotPositive "
              "PointOutOfRange PrecisionExhausted TableTooSmall UsageError",
    "expsum": "PsiDelta SubstitutionCheck bound_ratio_sweep build_psi_delta "
              "decay_exponent discrepancy discrepancy_beatty exp_sum_ap "
              "exp_sum_shifted progression_sum_bound substitution_identity_check",
    "irrational": "ContinuedFraction Irrational PrecisionReal TypeEstimate "
                  "as_exact_ratio best_convergent_below cf_expand estimate_type "
                  "floor_affine parse_irrational",
    "sieve": "MangoldtTable ResidueClass build_table chebyshev_psi_ap euler_phi "
             "prime_pi_ap",
    "surd": "QuadraticSurd make_real squarefree_split",
}
_HOME = {name: module for module, names in _PUBLIC.items() for name in names.split()}
_SUBMODULES = {*_PUBLIC, "cli"}
__all__ = sorted(_HOME)


def __getattr__(name):
    """`import beattykit` loads no submodule: each loads on first access."""
    module = _HOME.get(name, name)
    if module not in _SUBMODULES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = importlib.import_module(f"{__name__}.{module}")
    if name in _HOME:
        globals()[name] = value = getattr(value, name)
    return value


def __dir__():
    return sorted({*globals(), *__all__, *_SUBMODULES})
