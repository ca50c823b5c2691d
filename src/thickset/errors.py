"""Exception types shared across the package.

Every domain error derives from ValueError so callers that do not care
about the fine-grained class can catch the usual builtin.
"""


class ThicksetError(ValueError):
    """Base class for all errors raised by this package."""


class EmptySetError(ThicksetError):
    """An interval set (or an intersection of one) has no mass."""


class InvalidIntervalError(ThicksetError):
    """An interval endpoint pair does not satisfy lo < hi."""


class InvalidWindowError(ThicksetError):
    """A sliding-window length or domain is unusable."""


class InvalidGammaError(ThicksetError):
    """A density parameter lies outside its admissible range."""


class InvalidExponentError(ThicksetError):
    """A Lebesgue exponent p is not in [1, inf]."""


class InvalidResolutionError(ThicksetError):
    """A quadrature resolution is not a positive integer."""


class ZeroFunctionError(ThicksetError):
    """An operation needs a nonzero function but got the zero one."""


class EmptyBandError(ThicksetError):
    """A frequency band contains no lattice frequency."""


class DuplicateFrequencyError(ThicksetError):
    """A frequency list contains repeats."""


class SizeLimitError(ThicksetError):
    """A size cap (dense solve, kernel power, sup-search grid) was exceeded."""


class InvalidBandError(ThicksetError):
    """A band width is nonpositive or a spectrum escapes its band."""


class InvalidDegreeError(ThicksetError):
    """A polynomial/derivative order is out of range."""


class BandOverlapError(ThicksetError):
    """Band components overlap where disjointness is required."""


class NonIntegrableError(ThicksetError):
    """A requested integral diverges (power decay too slow)."""


class BandTooSmallError(ThicksetError):
    """A bandwidth is below the smallest admissible value."""


class InsufficientDataError(ThicksetError):
    """A regression was asked for with too few grid points."""


class InvalidMError(ThicksetError):
    """A ratio bound needs M >= 1."""


class ConfigError(ThicksetError):
    """An experiment configuration fails schema validation."""
