"""Functionals of the fitted model: counterfactual joint CDF surfaces, the
composition/sorting/marginals decomposition, transition matrices and their
decomposition, and the zero-dependence counterfactual.

Counterfactual surfaces average the conditional CDF over one group's
covariate rows, with that group's fit weights, while borrowing coefficient
paths from (possibly) other groups; the four-digit code records who supplies
what.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .data import Sample, increasing, nearest_body_index
from .dependence import BdrFit
from .exceptions import ConfigError, EstimationError
from .marginals import _normalize_weights
from .normal import BLOCK_ROWS, _CorrelationPlan, _ndtr, bvn_cdf, link_rho

__all__ = [
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


def _check_index(index: str) -> str:
    """index as given if it is four binary digits, else a ConfigError."""
    if len(index) != 4 or any(c not in "01" for c in index):
        raise ConfigError(f"counterfactual index must be 4 binary digits, got {index!r}")
    return index


@dataclass
class JointCdfSurface:
    """Counterfactual joint CDF evaluated on a rectangular threshold grid."""

    values: np.ndarray  # (n_y, n_w)
    y_values: np.ndarray
    w_values: np.ndarray


def _x_average(x, weights):
    """The covariate rows and their averaging weights, which sum to one."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    return x, _normalize_weights(weights, x.shape[0]) / x.shape[0]


def _surface(y_fit: BdrFit, w_fit: BdrFit, dep_fit: BdrFit | None, x, weights,
             y_values=None, w_values=None) -> JointCdfSurface:
    """Average Phi2(index_y, index_w; rho) over covariate rows x, weighted by
    weights (None for equal weights), on a grid.

    The grid defaults to y_fit's y grid and w_fit's w grid. dep_fit None
    means the zero-dependence counterfactual, whose value is the covariate
    average of the product of the marginal CDFs.

    Thresholds with equal copy-rule keys (MarginalFit.key) have identical
    indices, so each key's index rows and their marginal CDFs are computed
    once; pairs in the same dependence cell (nearest_body_index, per axis
    value) have identical correlations, computed once per cell. Each
    distinct (y key, w key, cell) triple is evaluated once and scattered
    back to the grid. Before any evaluation, the first grid pair whose cell
    failed raises an EstimationError naming it and the reason its fit
    recorded in dep_fit.failures, if any.

    The cells are walked one at a time, in row blocks of at most BLOCK_ROWS
    covariate rows: each block's correlations become one _CorrelationPlan,
    the only one alive, and each triple of the cell is one bvn_cdf call on
    it, with its keys' marginals, averaged by a dot product with the
    block's weights. A dot per triple, not one matrix product per cell,
    because a matrix product's rows can round differently by position, and
    equal rows (a cut at 1e200 and one at inf) must average to equal bits.
    """
    x, wts = _x_average(x, weights)
    y_values = np.asarray(y_fit.grid.y_grid if y_values is None else y_values, dtype=float)
    w_values = np.asarray(w_fit.grid.w_grid if w_values is None else w_values, dtype=float)
    if y_values.size == 0 or w_values.size == 0:
        return JointCdfSurface(np.empty((y_values.size, w_values.size)), y_values, w_values)
    y_keys, y_pos = np.unique([y_fit.y_marginal.key(v) for v in y_values], return_inverse=True)
    w_keys, w_pos = np.unique([w_fit.w_marginal.key(v) for v in w_values], return_inverse=True)
    a_rows = np.array([y_fit.y_marginal.index(k, x) for k in y_keys])
    b_rows = np.array([w_fit.w_marginal.index(k, x) for k in w_keys])
    pa_rows, pb_rows = _ndtr(a_rows), _ndtr(b_rows)

    if dep_fit is None:
        values = (pa_rows * wts) @ pb_rows.T
        return JointCdfSurface(values[np.ix_(y_pos, w_pos)], y_values, w_values)

    y_cells = [nearest_body_index(dep_fit.grid.y_body, y) for y in y_values]
    w_cells = [nearest_body_index(dep_fit.grid.w_body, w) for w in w_values]
    failed = ~np.isfinite(dep_fit.dep_coef).all(axis=-1)[np.ix_(y_cells, w_cells)]
    if failed.any():
        iy, iw = np.unravel_index(np.argmax(failed), failed.shape)
        pair = (dep_fit.grid.y_body[y_cells[iy]], dep_fit.grid.w_body[w_cells[iw]])
        why = "".join(f" ({r})" for y_at, w_at, r in dep_fit.failures if (y_at, w_at) == pair)
        raise EstimationError(
            f"no dependence estimate at grid pair ({pair[0]:.6g}, {pair[1]:.6g}): "
            f"its fit failed{why}"
        )
    pairs = [(iy, iw, jy, jw) for iy, jy in zip(y_pos, y_cells) for iw, jw in zip(w_pos, w_cells)]
    triples, inverse = np.unique(pairs, axis=0, return_inverse=True)
    cells, cell_of = np.unique(triples[:, 2:], axis=0, return_inverse=True)
    x_dep = x[:, dep_fit.dep_cols]
    values = np.zeros(len(triples))
    for c, (jy, jw) in enumerate(cells):
        group = np.flatnonzero(cell_of.ravel() == c)
        rho = link_rho(x_dep @ dep_fit.dep_coef[jy, jw])[0]
        for lo in range(0, x.shape[0], BLOCK_ROWS):
            rows = slice(lo, lo + BLOCK_ROWS)
            plan = _CorrelationPlan(rho[rows])
            for t, (ya, wb) in zip(group, triples[group, :2]):
                values[t] += bvn_cdf(a_rows[ya, rows], b_rows[wb, rows], plan,
                                     pa=pa_rows[ya, rows], pb=pb_rows[wb, rows]) @ wts[rows]
    values = values[inverse.ravel()].reshape(y_values.size, w_values.size)
    return JointCdfSurface(values, y_values, w_values)


def _ingredients(fits, samples, index):
    """The _surface arguments a four-digit code selects: the fits supplying
    each coefficient path, then the covariate group's rows and its fit's
    weights. The only reader of a code's digits and the only lookup of a
    fit or sample by group."""
    y_group, w_group, dep_group, x_group = map(int, _check_index(index))
    try:
        return (fits[y_group], fits[w_group], fits[dep_group], samples[x_group].x,
                fits[x_group].weights)
    except KeyError as missing:
        raise ConfigError(f"no fit/sample for group {missing}") from None


def counterfactual_joint_cdf(fits, samples, index: str,
                             y_values=None, w_values=None) -> JointCdfSurface:
    """Plug-in counterfactual surface for one four-digit code: the groups
    that supply the Y-marginal coefficients, the W-marginal coefficients,
    the dependence coefficients and the covariate distribution, in that
    order ("1110" takes group 0's covariates and group 1's coefficients).

    fits and samples are mappings keyed by group label. Evaluation grids
    default to the estimation grids of the coefficient-supplying groups.
    """
    return _surface(*_ingredients(fits, samples, index), y_values, w_values)


def independence_counterfactual(fit: BdrFit, sample: Sample, y_values=None,
                                w_values=None) -> JointCdfSurface:
    """Surface with the local correlation forced to zero for every row and
    threshold pair: the covariate-averaged product of the marginal CDFs."""
    return _surface(fit, fit, None, sample.x, fit.weights, y_values, w_values)


def fitted_surface(fit: BdrFit, sample: Sample, y_values=None,
                   w_values=None) -> JointCdfSurface:
    """Covariate-averaged fitted joint CDF for a single group."""
    return _surface(fit, fit, fit, sample.x, fit.weights, y_values, w_values)


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
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def shares(self) -> dict[str, np.ndarray]:
        """Components as fractions of the total, NaN where |total| <
        SHARE_FLOOR (the total can sit arbitrarily close to zero)."""
        guard = np.abs(self.total) >= SHARE_FLOOR
        with np.errstate(divide="ignore", invalid="ignore"):
            return {name: np.where(guard, comp / self.total, np.nan)
                    for name, comp in self.components().items() if name != "total"}


def _decomposition_from_values(values: dict[str, np.ndarray]) -> DecompositionReport:
    steps = [values[c] - values[n] for c, n in zip(_PATH, _PATH[1:])]
    return DecompositionReport(values["1111"] - values["0000"], *steps)


def _path_values(fits, samples, y_values, w_values) -> dict[str, np.ndarray]:
    """Values of the five _PATH surfaces at common thresholds, by index."""
    return {
        code: _surface(*_ingredients(fits, samples, code), y_values, w_values).values
        for code in _PATH
    }


def decompose_joint(fits, samples, y_values, w_values) -> DecompositionReport:
    """Split the group difference in covariate-averaged joint CDFs, group 1
    minus group 0, into composition, sorting, and the two marginal effects.

    Surfaces for every path index are evaluated at the common thresholds
    y_values x w_values.
    """
    return _decomposition_from_values(_path_values(fits, samples, y_values, w_values))


@dataclass
class TransitionMatrix:
    """Bracket probabilities from four-corner differencing of a surface."""

    cells: np.ndarray  # (J, K) for J + 1 y cuts and K + 1 w cuts


def _second_difference(values: np.ndarray) -> np.ndarray:
    return np.diff(np.diff(values, axis=0), axis=1)


def transition_matrix(surface: JointCdfSurface) -> TransitionMatrix:
    """Cell (j, k) = F(y_j, w_k) - F(y_{j-1}, w_k) - F(y_j, w_{k-1})
    + F(y_{j-1}, w_{k-1}): the second difference of the surface.

    The cuts are the surface's axes: for other cuts, evaluate the surface at
    them (transition_from_fits). With +/-inf outer cuts the cells sum to one.
    """
    return TransitionMatrix(cells=_second_difference(surface.values))


def transition_from_fits(fits, samples, index, y_cuts, w_cuts) -> TransitionMatrix:
    """Counterfactual transition matrix, evaluating the surface at the cuts."""
    y_cuts, w_cuts = increasing(y_cuts, "y cuts", 2), increasing(w_cuts, "w cuts", 2)
    return transition_matrix(_surface(*_ingredients(fits, samples, index), y_cuts, w_cuts))


def decompose_transition(fits, samples, y_cuts, w_cuts) -> DecompositionReport:
    """Five-way decomposition of the group difference in transition matrices:
    the path surfaces at the cuts, each second-differenced into its matrix."""
    y_cuts, w_cuts = increasing(y_cuts, "y cuts", 2), increasing(w_cuts, "w cuts", 2)
    values = _path_values(fits, samples, y_cuts, w_cuts)
    return _decomposition_from_values({c: _second_difference(v) for c, v in values.items()})
