"""Functionals of the fitted model: counterfactual joint CDF surfaces, the
composition/sorting/marginals decomposition, transition matrices and their
decomposition, and the zero-dependence counterfactual.

Counterfactual surfaces average the conditional CDF over one group's
covariate rows while borrowing coefficient paths from (possibly) other
groups; the four-slot index records who supplies what.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import special

from .data import Sample
from .dependence import BdrFit
from .exceptions import ConfigError, DataError
from .marginals import _normalize_weights
from .normal import BLOCK_ROWS, bvn_cdf

__all__ = [
    "CounterfactualIndex",
    "DecompositionReport",
    "JointCdfSurface",
    "TransitionMatrix",
    "counterfactual_joint_cdf",
    "decompose_joint",
    "decompose_transition",
    "fitted_surface",
    "independence_counterfactual",
    "transition_from_fits",
    "transition_matrix",
]

SHARE_FLOOR = 1e-3

# The decomposition path: total split into composition, sorting, and the two
# marginal effects, telescoping through these five counterfactual indices.
_PATH = ("1111", "1110", "1100", "1000", "0000")
_COMPONENTS = ("composition", "sorting", "marginal_w", "marginal_y")


@dataclass(frozen=True)
class CounterfactualIndex:
    """Which group supplies each ingredient: the Y-marginal coefficients, the
    W-marginal coefficients, the dependence coefficients, and the covariate
    distribution."""

    y_group: int
    w_group: int
    dep_group: int
    x_group: int

    @classmethod
    def parse(cls, code: str) -> "CounterfactualIndex":
        if len(code) != 4 or any(c not in "01" for c in code):
            raise ConfigError(f"counterfactual index must be 4 binary digits, got {code!r}")
        return cls(*(int(c) for c in code))

    def __str__(self) -> str:
        return f"{self.y_group}{self.w_group}{self.dep_group}{self.x_group}"


@dataclass
class JointCdfSurface:
    """Counterfactual joint CDF evaluated on a rectangular threshold grid."""

    values: np.ndarray  # (n_y, n_w)
    y_values: np.ndarray
    w_values: np.ndarray


def _x_average(x, x_weights):
    """The covariate rows and their averaging weights, which sum to one."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    return x, _normalize_weights(x_weights, x.shape[0]) / x.shape[0]


def _surface(y_fit: BdrFit, w_fit: BdrFit, dep_fit: BdrFit | None, x,
             x_weights=None, y_values=None, w_values=None) -> JointCdfSurface:
    """Average Phi2(index_y, index_w; rho) over covariate rows on a grid.

    The grid defaults to y_fit's y grid and w_fit's w grid. dep_fit None
    means the zero-dependence counterfactual, whose value is the covariate
    average of the product of the marginal CDFs.

    Thresholds with equal copy-rule keys (MarginalFit.key) have identical
    indices, and pairs in the same dependence cell (BdrFit.dep_cell) have
    identical correlations, so each distinct (y key, w key, cell) triple is
    evaluated once and scattered back to the grid. Every triple's dependence
    coefficients are looked up, in grid order, before any evaluation, so the
    first failed cell raises its EstimationError. The distinct triples go to
    bvn_cdf in blocks of about BLOCK_ROWS rows.
    """
    x, wts = _x_average(x, x_weights)
    y_values = np.asarray(y_fit.grid.y_grid if y_values is None else y_values, dtype=float)
    w_values = np.asarray(w_fit.grid.w_grid if w_values is None else w_values, dtype=float)
    if y_values.size == 0 or w_values.size == 0:
        return JointCdfSurface(np.empty((y_values.size, w_values.size)), y_values, w_values)
    y_keys, y_pos = np.unique([y_fit.y_marginal.key(v) for v in y_values], return_inverse=True)
    w_keys, w_pos = np.unique([w_fit.w_marginal.key(v) for v in w_values], return_inverse=True)
    a_rows = np.array([y_fit.y_marginal.index(k, x) for k in y_keys])
    b_rows = np.array([w_fit.w_marginal.index(k, x) for k in w_keys])

    if dep_fit is None:
        values = (special.ndtr(a_rows) * wts) @ special.ndtr(b_rows).T
        return JointCdfSurface(values[np.ix_(y_pos, w_pos)], y_values, w_values)

    cells = [(iy, iw, *dep_fit.dep_cell(y, w))
             for y, iy in zip(y_values, y_pos) for w, iw in zip(w_values, w_pos)]
    triples, first, inverse = np.unique(cells, axis=0, return_index=True, return_inverse=True)
    pairs = [(y_values[p // w_values.size], w_values[p % w_values.size]) for p in first]
    for p in np.argsort(first):
        dep_fit.dep_at(*pairs[p])
    n_rows = x.shape[0]
    step = max(1, BLOCK_ROWS // n_rows)
    values = np.empty(len(pairs))
    for lo in range(0, len(pairs), step):
        hi = min(lo + step, len(pairs))
        a = a_rows[triples[lo:hi, 0]].ravel()
        b = b_rows[triples[lo:hi, 1]].ravel()
        rho = np.concatenate([dep_fit.local_rho(y, w, x) for y, w in pairs[lo:hi]])
        values[lo:hi] = bvn_cdf(a, b, rho).reshape(hi - lo, n_rows) @ wts
    values = values[inverse.ravel()].reshape(y_values.size, w_values.size)
    return JointCdfSurface(values, y_values, w_values)


def _ingredients(fits, samples, index, x_weights):
    """The _surface arguments a four-slot index selects: the fits supplying
    each coefficient path, then the covariate group's rows and weights."""
    if isinstance(index, str):
        index = CounterfactualIndex.parse(index)
    try:
        fit_group = (fits[index.y_group], fits[index.w_group], fits[index.dep_group])
        x = samples[index.x_group].x
    except KeyError as missing:
        raise ConfigError(f"no fit/sample for group {missing}") from None
    return (*fit_group, x, None if x_weights is None else x_weights.get(index.x_group))


def counterfactual_joint_cdf(fits, samples, index: CounterfactualIndex,
                             y_values=None, w_values=None,
                             x_weights=None) -> JointCdfSurface:
    """Plug-in counterfactual surface for one four-slot index.

    fits and samples are mappings keyed by group label. Evaluation grids
    default to the estimation grids of the coefficient-supplying groups.
    x_weights, when given, is a mapping from group label to covariate-
    averaging weights (bootstrap draws weight the rows of the covariate
    group).
    """
    return _surface(*_ingredients(fits, samples, index, x_weights), y_values, w_values)


def independence_counterfactual(fit: BdrFit, sample: Sample, y_values=None,
                                w_values=None, x_weights=None) -> JointCdfSurface:
    """Surface with the local correlation forced to zero for every row and
    threshold pair: the covariate-averaged product of the marginal CDFs."""
    return _surface(fit, fit, None, sample.x, x_weights, y_values, w_values)


def fitted_surface(fit: BdrFit, sample: Sample, y_values=None, w_values=None,
                   x_weights=None) -> JointCdfSurface:
    """Covariate-averaged fitted joint CDF for a single group."""
    return _surface(fit, fit, fit, sample.x, x_weights, y_values, w_values)


@dataclass
class DecompositionReport:
    """Five-way split of a group difference; components telescope to the
    total entrywise."""

    total: np.ndarray
    composition: np.ndarray
    sorting: np.ndarray
    marginal_w: np.ndarray
    marginal_y: np.ndarray

    def components(self) -> dict[str, np.ndarray]:
        return {
            "total": self.total,
            "composition": self.composition,
            "sorting": self.sorting,
            "marginal_w": self.marginal_w,
            "marginal_y": self.marginal_y,
        }

    def shares(self) -> dict[str, np.ndarray]:
        """Components as fractions of the total, NaN where |total| <
        SHARE_FLOOR (the total can sit arbitrarily close to zero)."""
        out = {}
        guard = np.abs(self.total) >= SHARE_FLOOR
        with np.errstate(divide="ignore", invalid="ignore"):
            for name in _COMPONENTS:
                comp = getattr(self, name)
                out[name] = np.where(guard, comp / self.total, np.nan)
        return out


def _decomposition_from_values(values: dict[str, np.ndarray]) -> DecompositionReport:
    steps = [values[c] - values[n] for c, n in zip(_PATH, _PATH[1:])]
    return DecompositionReport(
        total=values["1111"] - values["0000"],
        composition=steps[0],
        sorting=steps[1],
        marginal_w=steps[2],
        marginal_y=steps[3],
    )


def decompose_joint(fits, samples, y_values=None, w_values=None,
                    x_weights=None) -> DecompositionReport:
    """Split the group difference in covariate-averaged joint CDFs, group 1
    minus group 0, into composition, sorting, and the two marginal effects.

    Surfaces for every path index are evaluated at common thresholds
    (defaulting to group 1's estimation grid).
    """
    if y_values is None:
        y_values = fits[1].grid.y_grid
    if w_values is None:
        w_values = fits[1].grid.w_grid
    values = {
        code: _surface(*_ingredients(fits, samples, code, x_weights), y_values, w_values).values
        for code in _PATH
    }
    return _decomposition_from_values(values)


@dataclass
class TransitionMatrix:
    """Bracket probabilities from four-corner differencing of a surface."""

    cells: np.ndarray  # (J, K)
    y_cuts: np.ndarray  # length J + 1
    w_cuts: np.ndarray  # length K + 1


def _validate_cuts(cuts) -> np.ndarray:
    cuts = np.asarray(cuts, dtype=float)
    if cuts.size < 2:
        raise DataError("need at least two cut values")
    if np.any(np.isnan(cuts)) or np.any(np.diff(cuts) <= 0):
        raise DataError("cuts must be sorted and distinct")
    return cuts


def _second_difference(values: np.ndarray) -> np.ndarray:
    return np.diff(np.diff(values, axis=0), axis=1)


def _locate(axis: np.ndarray, cuts: np.ndarray) -> np.ndarray:
    """Indices of the cut values on the surface axis (up to float rounding)."""
    idx = np.empty(cuts.size, dtype=int)
    for i, c in enumerate(np.asarray(cuts, dtype=float)):
        if np.isinf(c):
            hits = np.flatnonzero(axis == c)
        else:
            hits = np.flatnonzero(np.abs(axis - c) <= 1e-9 * (1.0 + abs(c)))
        if hits.size == 0:
            raise DataError(f"cut {c!r} is not an evaluation point of the surface")
        idx[i] = hits[0]
    return idx


def transition_matrix(surface: JointCdfSurface, y_cuts=None, w_cuts=None) -> TransitionMatrix:
    """Cell (j, k) = F(y_j, w_k) - F(y_{j-1}, w_k) - F(y_j, w_{k-1})
    + F(y_{j-1}, w_{k-1}), over the given cut grids.

    Cuts default to the surface axes; otherwise they must be a subset of
    them. With +/-inf outermost cuts the cells sum to one.
    """
    y_cuts = surface.y_values if y_cuts is None else _validate_cuts(y_cuts)
    w_cuts = surface.w_values if w_cuts is None else _validate_cuts(w_cuts)
    yi = _locate(surface.y_values, y_cuts)
    wi = _locate(surface.w_values, w_cuts)
    sub = surface.values[np.ix_(yi, wi)]
    return TransitionMatrix(
        cells=_second_difference(sub),
        y_cuts=np.asarray(y_cuts, dtype=float),
        w_cuts=np.asarray(w_cuts, dtype=float),
    )


def transition_from_fits(fits, samples, index, y_cuts, w_cuts,
                         x_weights=None) -> TransitionMatrix:
    """Counterfactual transition matrix, evaluating the surface at the cuts."""
    y_cuts = _validate_cuts(y_cuts)
    w_cuts = _validate_cuts(w_cuts)
    return transition_matrix(
        _surface(*_ingredients(fits, samples, index, x_weights), y_cuts, w_cuts)
    )


def decompose_transition(fits, samples, y_cuts, w_cuts,
                         x_weights=None) -> DecompositionReport:
    """Five-way decomposition of the group difference in transition matrices."""
    y_cuts = _validate_cuts(y_cuts)
    w_cuts = _validate_cuts(w_cuts)
    values = {
        code: _second_difference(
            _surface(*_ingredients(fits, samples, code, x_weights), y_cuts, w_cuts).values
        )
        for code in _PATH
    }
    return _decomposition_from_values(values)
