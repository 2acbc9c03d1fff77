"""Exception types shared across the package.

Every refusal is a distinct class so callers can react precisely; all of
them derive from BeattyKitError, so ``except BeattyKitError`` at a CLI
boundary catches exactly the failures this package knows how to name.
"""


class BeattyKitError(Exception):
    """Base class for all package-specific failures."""


class AmbiguousFloor(BeattyKitError):
    """A floor or membership decision cannot be certified at the carried precision."""


class PrecisionExhausted(BeattyKitError):
    """An iterative computation ran out of certified precision before finishing."""


class NotPositive(BeattyKitError):
    """An argument that must be positive is not (or cannot be certified positive)."""


class AlphaNotGreaterThanOne(BeattyKitError):
    """Operation requires a Beatty modulus alpha > 1."""


class LimitTooLarge(BeattyKitError):
    """Requested sieve limit exceeds the configured memory budget."""


class TableTooSmall(BeattyKitError):
    """A lookup needs values beyond the sieved range of the supplied table."""


class DeltaOutOfRange(BeattyKitError):
    """Smoothing width violates 0 < delta < 1/8 or delta <= min(gamma, 1 - gamma)/2."""


class PointOutOfRange(BeattyKitError):
    """A sample point lies outside the half-open unit interval [0, 1)."""


class FloorOutOfRange(BeattyKitError, ValueError):
    """A floor does not fit the int64 result contract of the bulk kernels."""


class IrrationalParseError(BeattyKitError, ValueError):
    """Malformed textual description of an irrational number."""


class UsageError(BeattyKitError):
    """Bad command-line input; the message names the offending flag."""
