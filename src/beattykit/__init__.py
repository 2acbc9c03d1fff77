"""Exact Beatty-sequence arithmetic and prime-distribution experiments.

The package keeps two layers deliberately separate: an exact layer
(quadratic surds, certified high-precision reals, integer floor/frac
kernels) that never silently rounds, and a bulk layer (numpy sieves and
vectorized evaluation) whose results are either certified against error
bounds or re-derived through the exact layer when a decision is too close
to call.
"""

from .beatty import BeattyParams, bulk_membership, generate, is_member
from .counting import (VerificationReport, beatty_sums, density_prediction,
                       main_terms, verify_sweep)
from .errors import (AlphaNotGreaterThanOne, AmbiguousFloor, BeattyKitError,
                     DeltaOutOfRange, FloorOutOfRange, IrrationalParseError,
                     LimitTooLarge, NotPositive, PointOutOfRange,
                     PrecisionExhausted, TableTooSmall, UsageError)
from .expsum import (PsiDelta, SubstitutionCheck, bound_ratio_sweep,
                     build_psi_delta, decay_exponent, discrepancy,
                     discrepancy_beatty, exp_sum_ap, exp_sum_shifted,
                     progression_sum_bound, psi_indicator,
                     substitution_identity_check)
from .irrational import (ContinuedFraction, Irrational, PrecisionReal,
                         TypeEstimate, as_exact_ratio, best_convergent_below,
                         cf_expand, estimate_type, floor_affine,
                         parse_irrational)
from .sieve import (MangoldtTable, ResidueClass, build_table,
                    chebyshev_psi_ap, euler_phi, prime_pi_ap)
from .surd import QuadraticSurd, make_real, squarefree_split

__version__ = "0.1.0"

__all__ = [
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
