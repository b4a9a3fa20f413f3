"""Data model shared by the estimators: one group's sample, evaluation
grids, and the copy rule (body_lookup) by which a fit reads a threshold off
its body grid. Group membership is the key of a dict of samples, never a
column of one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import ConfigError, DataError

__all__ = [
    "GridSpec",
    "Sample",
    "body_lookup",
    "build_grid",
    "empirical_quantile",
    "grid_from_values",
    "increasing",
    "nearest_body_value",
    "validate",
]

DEFAULT_GRID_POINTS = 12
DEFAULT_TRIM = (0.02, 0.98)
DEFAULT_TAIL_MIN_OBS = 30


@dataclass(frozen=True)
class Sample:
    """One group's observed outcomes and design matrix, whose first column
    must be identically one.
    """

    y: np.ndarray
    w: np.ndarray
    x: np.ndarray

    @property
    def n(self) -> int:
        return self.y.shape[0]

    @property
    def d_x(self) -> int:
        return self.x.shape[1]


def validate(sample: Sample) -> Sample:
    """Check all Sample invariants; returns the sample unchanged.

    Raises DataError naming the first offending row/column where possible.
    """
    y = np.asarray(sample.y, dtype=float)
    w = np.asarray(sample.w, dtype=float)
    x = np.asarray(sample.x, dtype=float)
    if x.ndim != 2:
        raise DataError("design matrix must be two-dimensional")
    n, d_x = x.shape
    if y.shape != (n,) or w.shape != (n,):
        raise DataError("outcome vectors must match the design row count")
    if n < d_x + 1:
        raise DataError(f"need at least d_x + 1 = {d_x + 1} observations, got {n}")

    for name, arr in (("y", y), ("w", w)):
        bad = np.flatnonzero(~np.isfinite(arr))
        if bad.size:
            raise DataError(f"non-finite value in outcome {name} at row {bad[0]}")
    _finite_covariates(x)

    if not np.all(x[:, 0] == 1.0):
        raise DataError("first design column must be identically 1 (intercept)")
    if np.linalg.matrix_rank(x) < d_x:
        raise DataError("design matrix is rank deficient (collinear columns)")
    return sample


def _finite_covariates(x: np.ndarray) -> np.ndarray:
    """x, else a DataError naming its first non-finite covariate."""
    bad_rows, bad_cols = np.nonzero(~np.isfinite(x))
    if bad_rows.size:
        raise DataError(
            f"non-finite covariate at row {bad_rows[0]}, column {bad_cols[0]}"
        )
    return x


def increasing(values, what: str, min_size: int) -> np.ndarray:
    """values as a float array of at least min_size strictly increasing
    points (no NaN, no tie; a repeated +/-inf is a tie), else DataError.
    The one rule for a threshold axis: evaluation grids and cuts."""
    arr = np.asarray(values, dtype=float)
    if arr.size < min_size:
        raise DataError(f"{what}: need at least {min_size} distinct values")
    if np.isnan(arr).any() or not np.all(arr[1:] > arr[:-1]):
        raise DataError(f"{what} must be sorted and distinct")
    return arr


@dataclass(frozen=True)
class GridSpec:
    """Evaluation grids for both outcomes, each at least 3 increasing points.

    Each body (y_body, w_body) is derived: the grid without its two extremes,
    which the tail restrictions handle. tail_min_obs is the minimum number of
    observations required between the body endpoint and the auxiliary tail
    point, and again beyond it.
    """

    y_grid: np.ndarray
    w_grid: np.ndarray
    tail_min_obs: int = DEFAULT_TAIL_MIN_OBS

    def __post_init__(self):
        for name in ("y", "w"):
            increasing(getattr(self, f"{name}_grid"), f"{name} grid", 3)
        if self.tail_min_obs < 1:
            raise ConfigError("tail_min_obs must be positive")

    @property
    def y_body(self) -> np.ndarray:
        return self.y_grid[1:-1]

    @property
    def w_body(self) -> np.ndarray:
        return self.w_grid[1:-1]


def empirical_quantile(values: np.ndarray, levels) -> np.ndarray:
    """Empirical quantiles as observed data points (inverted-CDF convention)."""
    return np.quantile(np.asarray(values, dtype=float), levels, method="inverted_cdf")


def _outcome_grid(values: np.ndarray, n_points: int, trim, outcome: str) -> np.ndarray:
    lower, upper = trim
    levels = np.linspace(lower, upper, n_points)
    grid = np.unique(empirical_quantile(values, levels))
    if grid.size < 3:
        raise DataError(
            f"outcome {outcome} is too close to degenerate: fewer than 3 distinct grid points"
        )
    return grid


def build_grid(
    sample: Sample,
    n_points: int = DEFAULT_GRID_POINTS,
    body_trim=DEFAULT_TRIM,
    tail_min_obs: int = DEFAULT_TAIL_MIN_OBS,
) -> GridSpec:
    """Quantile grids for both outcomes at n_points equally spaced levels
    across body_trim, ties merged. Each body is the grid without its two
    extremes, which the tail extrapolation reaches instead. A bad setting
    (n_points < 3, a trim outside 0 < lower < upper < 1, tail_min_obs < 1)
    raises ConfigError.
    """
    lower, upper = body_trim
    if n_points < 3:
        raise ConfigError("grid needs n_points >= 3")
    if not (0.0 < lower < upper < 1.0):
        raise ConfigError("trim pair must satisfy 0 < lower < upper < 1")
    return GridSpec(
        y_grid=_outcome_grid(sample.y, n_points, body_trim, "y"),
        w_grid=_outcome_grid(sample.w, n_points, body_trim, "w"),
        tail_min_obs=tail_min_obs,
    )


def grid_from_values(y_values, w_values, tail_min_obs: int = DEFAULT_TAIL_MIN_OBS) -> GridSpec:
    """GridSpec from explicit threshold values, sorted with ties merged; the
    body is all but the extremes. A NaN value raises DataError."""
    return GridSpec(
        y_grid=np.unique(np.asarray(y_values, dtype=float)),
        w_grid=np.unique(np.asarray(w_values, dtype=float)),
        tail_min_obs=tail_min_obs,
    )


def body_lookup(body: np.ndarray, values) -> tuple[np.ndarray, np.ndarray]:
    """The copy rule, its one owner: for each of values (scalar or array),
    the position of the body point it reads (the nearest to the value
    clamped into the increasing body, ties to the smaller point), and how
    far it lies beyond the body (0 inside, the value minus the nearest
    endpoint outside, +/-inf at +/-inf). A NaN value raises DataError."""
    values = np.asarray(values, dtype=float)
    if np.isnan(values).any():
        raise DataError("threshold is NaN: no nearest body point")
    clamped = np.clip(values, body[0], body[-1])
    return np.argmin(np.abs(body - clamped[..., None]), axis=-1), values - clamped


def nearest_body_value(body: np.ndarray, r: float) -> float:
    """Body point that r reads by the copy rule (body_lookup)."""
    return float(body[body_lookup(body, r)[0]])
