"""Exception taxonomy shared across the package.

The CLI maps these onto exit codes, so estimation-time failures must stay
distinguishable from bad input data and bad configuration.
"""

__all__ = [
    "BdrError",
    "ConfigError",
    "DataError",
    "EstimationError",
    "InferenceError",
    "TailError",
]


class BdrError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(BdrError):
    """Invalid run configuration (unknown columns, bad flag combinations)."""


class DataError(BdrError):
    """Input data violates a contract (non-finite values, rank deficiency)."""


class EstimationError(BdrError):
    """An optimizer failed to produce a valid estimate."""

    def __init__(self, message, diagnostics=None):
        super().__init__(message)
        self.diagnostics = diagnostics or {}


class TailError(EstimationError):
    """The tail scale is non-positive at every admissible auxiliary point."""


class InferenceError(BdrError):
    """Bootstrap or interval construction failed (too few valid draws)."""
