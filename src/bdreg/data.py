"""Data model shared by the estimators: samples, evaluation grids, and the
nearest-body-point rule used to extend coefficients beyond the body grid.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import ConfigError, DataError

__all__ = [
    "GridSpec",
    "Sample",
    "build_grid",
    "empirical_quantile",
    "grid_from_values",
    "increasing",
    "nearest_body_index",
    "nearest_body_value",
    "split_groups",
    "validate",
]

DEFAULT_GRID_POINTS = 12
DEFAULT_TRIM = (0.02, 0.98)
DEFAULT_TAIL_MIN_OBS = 30


@dataclass(frozen=True)
class Sample:
    """Observed outcomes, design matrix, and optional binary group labels.

    The first design column must be identically one. Group labels, when
    present, take values in {0, 1}.
    """

    y: np.ndarray
    w: np.ndarray
    x: np.ndarray
    d: np.ndarray | None = None

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
    bad_rows, bad_cols = np.nonzero(~np.isfinite(x))
    if bad_rows.size:
        raise DataError(
            f"non-finite covariate at row {bad_rows[0]}, column {bad_cols[0]}"
        )

    if not np.all(x[:, 0] == 1.0):
        raise DataError("first design column must be identically 1 (intercept)")
    if np.linalg.matrix_rank(x) < d_x:
        raise DataError("design matrix is rank deficient (collinear columns)")

    if sample.d is not None:
        d = np.asarray(sample.d)
        if d.shape != (n,):
            raise DataError("group labels must match the design row count")
        vals = np.unique(d)
        if not np.all(np.isin(vals, (0, 1))):
            raise DataError("group labels must be 0 or 1")
        if vals.size == 2 and (np.sum(d == 0) == 0 or np.sum(d == 1) == 0):
            raise DataError("both groups must be non-empty")
    return sample


def split_groups(sample: Sample) -> dict[int, Sample]:
    """Split a labeled sample into per-group samples keyed by label."""
    if sample.d is None:
        raise DataError("sample carries no group labels")
    out = {}
    for g in (0, 1):
        mask = np.asarray(sample.d) == g
        if np.any(mask):
            out[g] = Sample(y=sample.y[mask], w=sample.w[mask], x=sample.x[mask])
    if len(out) < 2:
        raise DataError("both groups must be non-empty")
    return out


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


def _outcome_grid(values: np.ndarray, n_points: int, trim) -> np.ndarray:
    lower, upper = trim
    levels = np.linspace(lower, upper, n_points)
    grid = np.unique(empirical_quantile(values, levels))
    if grid.size < 3:
        raise DataError(
            "outcome is too close to degenerate: fewer than 3 distinct grid points"
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
        y_grid=_outcome_grid(sample.y, n_points, body_trim),
        w_grid=_outcome_grid(sample.w, n_points, body_trim),
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


def nearest_body_index(body: np.ndarray, r: float) -> int:
    """Position of the body point closest to r (the copy rule); ties break
    toward the smaller grid value.

    +/-inf clamp to the corresponding body endpoint; NaN raises DataError.
    """
    if np.isnan(r):
        raise DataError("threshold is NaN: no nearest body point")
    if np.isposinf(r):
        return body.size - 1
    if np.isneginf(r):
        return 0
    return int(np.argmin(np.abs(body - r)))


def nearest_body_value(body: np.ndarray, r: float) -> float:
    """Body point closest to r, by nearest_body_index."""
    return float(body[nearest_body_index(body, r)])
