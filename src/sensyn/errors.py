"""Exception hierarchy shared across the package."""


class SensynError(Exception):
    """Base class for all package-specific errors."""


class InputDomainError(SensynError, ValueError):
    """An argument lies outside the operation's domain."""


class ZeroVarianceError(SensynError, ArithmeticError):
    """A ratio quantity was requested for a model with zero sample variance."""


class DegenerateSpectrumError(SensynError, ArithmeticError):
    """Spectrum-derived quantity requested for an all-zero spectrum."""


class EigenNotConvergedError(SensynError, ArithmeticError):
    """An iterative eigensolver used up its sweep budget above its tolerance."""


class ModelOutputError(SensynError, ValueError):
    """A model's evaluation map returned mis-shaped or non-finite output."""
