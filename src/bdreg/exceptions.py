"""Exception taxonomy shared across the package.

The CLI maps these onto exit codes, so estimation-time failures must stay
distinguishable from bad input data and bad configuration.
"""

from contextlib import contextmanager

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


@contextmanager
def _prefixed(context, *types):
    """Prefix "context: " to the message of an error of one of types raised
    in the block, keeping its type and diagnostics (a fit names the outcome,
    grid point or group it failed at)."""
    try:
        yield
    except types as err:
        err.args = (f"{context}: {err}",)
        raise
