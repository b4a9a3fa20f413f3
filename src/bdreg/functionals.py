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

from .data import Sample, _finite_covariates, body_lookup, increasing
from .dependence import BdrFit
from .exceptions import ConfigError, DataError, EstimationError
from .marginals import _normalize_weights
from .normal import BLOCK_ROWS, _CorrelationPlan, _Thresholds, _band_order, bvn_cdf, link_rho

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
    """The covariate rows and their averaging weights, which sum to one;
    DataError with no rows to average or a non-finite covariate."""
    x = _finite_covariates(np.atleast_2d(np.asarray(x, dtype=float)))
    if x.shape[0] == 0:
        raise DataError("no covariate rows to average over")
    return x, _normalize_weights(weights, x.shape[0]) / x.shape[0]


def _axis_values(values, name):
    """values as a 1-D float array of thresholds, else a DataError naming
    the axis."""
    values = np.asarray(values, dtype=float)
    if values.ndim != 1:
        raise DataError(f"{name} values must be a 1-D array of thresholds, "
                        f"got shape {values.shape}")
    return values


def _key_thresholds(marginal, values, x):
    """Each value's position among the keys of one marginal fit, a key
    being a (body position, distance beyond the body) pair of body_lookup,
    and the keys' index rows on the covariate rows x as one _Thresholds,
    one row per key, in key order: values with equal keys have identical
    indices, so each key is prepared once, from its first value."""
    pairs = np.column_stack(body_lookup(marginal.body, values))
    _, first, pos = np.unique(pairs, axis=0, return_index=True, return_inverse=True)
    return pos.ravel(), _Thresholds(np.array([marginal.index(values[i], x) for i in first]))


def _block_averages(triples, rho, wts, order):
    """For each (y side, y key, w side, w key) of one dependence cell, the
    average of Phi2 over the covariate rows order (one row block, sorted by
    band) at correlations rho, weighted by wts: one bvn_cdf call per
    triple on one shared _CorrelationPlan, with each key's rows gathered
    once. The plan and the gathered rows die with the call, before the next
    block builds its own."""
    plan, taken = _CorrelationPlan(rho), {}

    def gathered(side, key):
        if (id(side), key) not in taken:
            taken[id(side), key] = side.take(key, order)
        return taken[id(side), key]

    return np.array([bvn_cdf(gathered(ys, ya), gathered(ws, wb), plan) @ wts
                     for ys, ya, ws, wb in triples])


def _surfaces(margins, dep_fit: BdrFit | None, x, weights, y_values, w_values,
              sides=None) -> list[np.ndarray]:
    """The (n_y, n_w) values, on the grid y_values x w_values (1-D arrays),
    of one surface per (y_fit, w_fit) in margins: the average of
    Phi2(index_y, index_w; rho) over covariate rows x, weighted by weights
    (None for equal weights), with y_fit's y marginal, w_fit's w marginal
    and dep_fit's correlations. dep_fit None means the zero-dependence
    counterfactual, whose value is the covariate average of the product of
    the marginal CDFs.

    Each marginal's thresholds are prepared once per key (_key_thresholds)
    and kept in sides, keyed by id(marginal), for a next call on the same
    covariate rows and grid to reuse. Pairs in the same dependence cell
    (the body positions that one body_lookup per axis gives) have identical
    correlations; each distinct (surface, y key, w key, cell) triple is
    evaluated once and scattered back to its grid. Before any evaluation,
    the first grid pair whose cell failed raises an EstimationError naming
    it and the reason its fit recorded in dep_fit.failures, if any.

    The cells are walked once for all surfaces, one at a time, in row
    blocks of at most BLOCK_ROWS covariate rows: each block's correlations,
    sorted by band (_band_order), become one _CorrelationPlan, the only one
    alive, and each key's side is gathered once into that order. Each
    triple of the cell is then one bvn_cdf call on the plan and its two
    keys' sides, whose bands are contiguous slices, averaged by a dot
    product with the block's weights in the same order. A dot per triple,
    not one matrix product per cell, because a matrix product's rows can
    round differently by position, and equal rows (a cut at 1e200 and one
    at inf) must average to equal bits.
    """
    x, wts = _x_average(x, weights)
    shape = (y_values.size, w_values.size)
    if y_values.size == 0 or w_values.size == 0:
        return [np.empty(shape) for _ in margins]
    sides = {} if sides is None else sides

    def prepared(marginal, values):
        if id(marginal) not in sides:
            sides[id(marginal)] = _key_thresholds(marginal, values, x)
        return sides[id(marginal)]

    y_sides = [prepared(y_fit.y_marginal, y_values) for y_fit, _ in margins]
    w_sides = [prepared(w_fit.w_marginal, w_values) for _, w_fit in margins]
    if dep_fit is None:
        return [((ys.p * wts) @ ws.p.T)[np.ix_(y_pos, w_pos)]
                for (y_pos, ys), (w_pos, ws) in zip(y_sides, w_sides)]

    y_cells = body_lookup(dep_fit.grid.y_body, y_values)[0]
    w_cells = body_lookup(dep_fit.grid.w_body, w_values)[0]
    failed = ~np.isfinite(dep_fit.dep_coef).all(axis=-1)[np.ix_(y_cells, w_cells)]
    if failed.any():
        iy, iw = np.unravel_index(np.argmax(failed), failed.shape)
        pair = (dep_fit.grid.y_body[y_cells[iy]], dep_fit.grid.w_body[w_cells[iw]])
        why = "".join(f" ({r})" for y_at, w_at, r in dep_fit.failures if (y_at, w_at) == pair)
        raise EstimationError(
            f"no dependence estimate at grid pair ({pair[0]:.6g}, {pair[1]:.6g}): "
            f"its fit failed{why}"
        )
    pairs = [(m, ya, wb, jy, jw)
             for m, ((y_pos, _), (w_pos, _)) in enumerate(zip(y_sides, w_sides))
             for ya, jy in zip(y_pos, y_cells) for wb, jw in zip(w_pos, w_cells)]
    triples, inverse = np.unique(pairs, axis=0, return_inverse=True)
    cells, cell_of = np.unique(triples[:, 3:], axis=0, return_inverse=True)
    cell_of = cell_of.ravel()
    x_dep = x[:, dep_fit.dep_cols]
    values = np.zeros(len(triples))
    for c, (jy, jw) in enumerate(cells):
        in_cell = np.flatnonzero(cell_of == c)
        rho = link_rho(x_dep @ dep_fit.dep_coef[jy, jw])[0]
        for lo in range(0, x.shape[0], BLOCK_ROWS):
            order = lo + _band_order(rho[lo:lo + BLOCK_ROWS])
            values[in_cell] += _block_averages(
                [(y_sides[m][1], ya, w_sides[m][1], wb) for m, ya, wb in triples[in_cell, :3]],
                rho[order], wts[order], order)
    values = values[inverse.ravel()].reshape(len(margins), *shape)
    return list(values)


def _surface(y_fit: BdrFit, w_fit: BdrFit, dep_fit: BdrFit | None, x, weights,
             y_values=None, w_values=None) -> JointCdfSurface:
    """One surface of _surfaces, on a grid that defaults to y_fit's y grid
    and w_fit's w grid."""
    y_values = _axis_values(y_fit.grid.y_grid if y_values is None else y_values, "y")
    w_values = _axis_values(w_fit.grid.w_grid if w_values is None else w_values, "w")
    values, = _surfaces([(y_fit, w_fit)], dep_fit, x, weights, y_values, w_values)
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
    """Values of the five _PATH surfaces at common thresholds, by index.

    Codes that share the dependence fit and the covariate rows with their
    weights (1100, 1000 and 0000 share group 0's) are evaluated together,
    in one walk over that fit's cells, so a decomposition builds 3 sets of
    correlation plans, not 5. Each marginal's thresholds are prepared once
    per covariate group: the prepared sides are kept while consecutive
    groups share covariate rows (1110 and the last three share group 0's).
    """
    y_values, w_values = _axis_values(y_values, "y"), _axis_values(w_values, "w")
    groups = {}
    for code in _PATH:
        y_fit, w_fit, *shared = _ingredients(fits, samples, code)
        groups.setdefault(tuple(map(id, shared)), (shared, {}))[1][code] = (y_fit, w_fit)
    values, sides, rows = {}, {}, None
    for (dep_fit, x, weights), margins in groups.values():
        if x is not rows:
            sides, rows = {}, x
        values.update(zip(margins, _surfaces(list(margins.values()), dep_fit, x, weights,
                                             y_values, w_values, sides)))
    return values


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
