"""Exception and warning types shared across the package."""


class RevivalsError(Exception):
    """Base class for all package errors."""


class DomainError(RevivalsError, ValueError):
    """A parameter is outside the physically or numerically supported domain."""


class DimensionMismatch(RevivalsError, ValueError):
    """Two objects built against different Fock-space dimensions were combined."""


class TruncationError(RevivalsError):
    """Fock-space truncation corrupts the requested object beyond tolerance."""


class StabilityError(RevivalsError):
    """A time integration drifted outside its conservation tolerances."""


class SpanTooShort(RevivalsError, ValueError):
    """A trajectory or envelope does not span enough time for the requested analysis."""


class InsufficientSampling(RevivalsError, ValueError):
    """A trajectory is sampled too coarsely for the requested analysis."""


class ConfigError(RevivalsError, ValueError):
    """An experiment configuration is invalid or incomplete."""


class TruncationWarning(UserWarning):
    """Truncation quality is degraded but still within hard error limits."""
