"""Dependence estimation: for each body grid pair, maximize the four-quadrant
bivariate probit likelihood in the dependence coefficients, holding the
marginal indices fixed (the second step of the two-step estimator). The fitted
surface is extended off the body by the copy rule (data.body_lookup). A
bootstrap replicate does not refit the cells: it takes one Newton step from
each base estimate under its weights (_ReplicateBase).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .data import GridSpec, Sample, validate
from .exceptions import ConfigError, DataError, EstimationError
from .marginals import (
    POLISH_GRAD,
    MarginalFit,
    NewtonResult,
    _damped_newton,
    _newton_step,
    _normalize_weights,
    fit_marginal,
)
from .normal import bvn_cdf  # noqa: F401  (perfbench/spans.py traces it at this name)
from .normal import EPS_RHO, FixedThresholdBvn, _CorrelationPlan, _Thresholds, link_rho

__all__ = [
    "BdrFit",
    "fit_bdr",
    "fit_dependence",
]

CELL_FLOOR = 1e-10
# Link index at which |tanh| reaches the correlation clamp; used when a
# degenerate quadrant pattern pushes the dependence to the boundary.
U_SAT = float(np.arctanh(1.0 - EPS_RHO))


class _CellKernel:
    """Precomputed state for repeated likelihood evaluations at one grid pair.

    Thresholds, indicators, weights, and the marginal CDF values are fixed
    within a dependence fit; only the correlation changes, so each iterate
    costs one quadrature pass. Each observation's own cell follows from the
    joint cell P and the marginals as offset + sign * P (the four cells sum
    to one by construction), so the indicators must be 0 or 1. The kernel owns
    weight normalisation: it takes the raw weights (None for equal weights)
    and scales them to mean one once.

    Cells are floored at CELL_FLOOR inside the log. Where an observation's
    own cell sits at the floor, its log-likelihood term is constant in the
    coefficients, so that row adds nothing to the score or to the observed
    information: evaluate returns the exact derivatives of the floored
    likelihood it reports. The Fisher fallback is the expected information,
    in which every floored cell counts at its floor value.

    The thresholds a and b are arrays (broadcast to the rows) or the
    _Thresholds that _cells prepares once per body threshold, so that Phi of
    a threshold is computed once per fit, not once per cell.
    """

    def __init__(self, x_dep, a, b, below_y, below_w, weights=None):
        self.x_dep = np.asarray(x_dep, dtype=float)
        self.n = self.x_dep.shape[0]
        self.bvn = FixedThresholdBvn(*(
            t if isinstance(t, _Thresholds) else _Thresholds(np.broadcast_to(t, (self.n,)))
            for t in (a, b)))
        self.pa = self.bvn.pa
        self.pb = self.bvn.pb
        iy = np.asarray(below_y, dtype=float)
        jw = np.asarray(below_w, dtype=float)
        if not np.all(((iy == 0.0) | (iy == 1.0)) & ((jw == 0.0) | (jw == 1.0))):
            raise DataError("dependence indicators must be 0 or 1")
        # Own cell: P (11), pa - P (10), pb - P (01) or 1 - pa - pb + P (00).
        self.sign = np.where(iy == jw, 1.0, -1.0)
        self.offset = np.where(
            iy == 1.0,
            np.where(jw == 1.0, 0.0, self.pa),
            np.where(jw == 1.0, self.pb, 1.0 - self.pa - self.pb),
        )
        self.w = _normalize_weights(weights, self.n)

    def terms(self, dep):
        """Each row's log cell, weighted score factor and observed curvature
        at dep (the row's contributions to the log-likelihood, score and
        observed information, before the design rows x and x x'), and its
        Fisher curvature, all from one quadrature pass. The score factor
        carries the kernel's weights; the curvatures do not. Phi2 and phi2
        read one plan of the correlations."""
        u = self.x_dep @ np.asarray(dep, dtype=float)
        rho, gprime = link_rho(u)
        plan = _CorrelationPlan(rho, shared=False)
        p11 = self.bvn.cdf(plan)
        cell = self.offset + self.sign * p11
        free = cell > CELL_FLOOR
        cell = np.maximum(cell, CELL_FLOOR)
        # d log(cell) / dP, zero where the cell is floored.
        inv = np.where(free, 1.0 / cell, 0.0)
        ratio = self.sign * inv
        dens, ddens = self.bvn.pdf_drho(plan)
        score = self.w * ratio * dens * gprime
        # -d2/du2 of log(cell) with dP/du = dens g' and, as g'' = -2 rho g',
        # d2P/du2 = ddens g'^2 - 2 rho g' dens.
        dp = dens * gprime
        d2p = gprime * (ddens * gprime - 2.0 * rho * dens)
        observed = inv * inv * dp * dp - ratio * d2p
        return np.log(cell), score, observed, lambda: self._fisher(p11, dp)

    def evaluate(self, dep):
        """Log-likelihood, score and observed information (the negative
        Hessian) at dep, all from one quadrature pass. Where the observed
        information is not positive definite, the expected information
        (Fisher's) stands in for it."""
        log_cell, score, observed, fisher = self.terms(dep)
        ll = float(np.mean(self.w * log_cell))
        grad = self.x_dep.T @ score / self.n
        info = self._information(observed)
        if not _positive_definite(info[None])[0]:
            info = self._information(fisher())
        return ll, grad, info

    def saturation(self) -> float:
        """+1 (-1) when every weighted row falls in a concordant (discordant)
        quadrant, the patterns with no interior maximizer; 0 otherwise."""
        observed = self.sign[self.w > 0]  # +1 in a concordant quadrant, -1 not
        if not np.any(observed < 0):
            return 1.0
        return -1.0 if not np.any(observed > 0) else 0.0

    def _information(self, curvature):
        # Weighted average of x x' times each row's curvature.
        return (self.x_dep * (self.w * curvature)[:, None]).T @ self.x_dep / self.n

    def _fisher(self, p11, dp):
        # Expected curvature: the sum of reciprocal cells times dP/du squared.
        cells = (p11, self.pa - p11, self.pb - p11, 1.0 - self.pa - self.pb + p11)
        recip = sum(1.0 / np.maximum(c, CELL_FLOOR) for c in cells)
        return recip * dp * dp


def _positive_definite(stack):
    """Whether each (d, d) matrix of a stack has a Cholesky factor."""
    try:
        np.linalg.cholesky(stack)
    except np.linalg.LinAlgError:
        if len(stack) == 1:
            return np.zeros(1, dtype=bool)
        return np.concatenate([_positive_definite(m[None]) for m in stack])
    return np.ones(len(stack), dtype=bool)


def fit_dependence(x_dep, a, b, below_y, below_w, weights=None) -> NewtonResult:
    """Maximize the quadrant likelihood in the dependence coefficients.

    Newton steps on the observed information (the exact negative Hessian; the
    expected information where that is not positive definite), with step
    halving, by the same `_damped_newton` routine as the probit fits: steps
    must raise the likelihood while its predicted rise is measurable, then
    lower the score's 2-norm until its max-norm reaches 1e-12; that routine
    judges convergence. Perfectly concordant or discordant cell patterns have
    no interior maximizer, so the fit is clamped at the link saturation bound
    with a warning.
    """
    kernel = _CellKernel(x_dep, a, b, below_y, below_w, weights)
    sign = kernel.saturation()
    if sign:
        kind = "concordant" if sign > 0 else "discordant"
        warnings.warn(
            f"perfectly {kind} indicator cells: dependence clamped at the "
            "link saturation bound",
            RuntimeWarning,
            stacklevel=2,
        )
        coef = np.zeros(kernel.x_dep.shape[1])
        coef[0] = sign * U_SAT
        return NewtonResult(coef=coef, iterations=0, grad_norm=np.nan,
                            loglik=kernel.evaluate(coef)[0], boundary=True)

    return _damped_newton(kernel.evaluate, np.zeros(kernel.x_dep.shape[1]), "dependence fit")


@dataclass
class BdrFit:
    """Fitted model: marginal coefficient paths, tail scales, the dependence
    coefficients on the body grid (NaN in a cell whose fit failed, with its
    reason in `failures`), and the observation weights it was given (None
    for equal weights), with which every functional of the fit averages its
    covariate rows. The fitted joint CDF is evaluated by the functionals
    (functionals._surface), not here."""

    grid: GridSpec
    y_marginal: MarginalFit
    w_marginal: MarginalFit
    dep_coef: np.ndarray  # (n_body_y, n_body_w, d_dep)
    dep_cols: tuple[int, ...]
    failures: list[tuple[float, float, str]] = field(default_factory=list)
    weights: np.ndarray | None = None

    @property
    def n_failed(self) -> int:
        return len(self.failures)


def _cells(sample: Sample, x, grid: GridSpec, y_marg: MarginalFit, w_marg: MarginalFit):
    """Each body grid pair (iy, iw), in grid order, with its dependence
    problem: the marginal indices at the pair, as _Thresholds (with their
    Phi), and the indicators 1(y <= y_body[iy]) and 1(w <= w_body[iw]), each
    computed once per fit."""
    w_axis = [(_Thresholds(w_marg.index(wv, x)), (sample.w <= wv).astype(float))
              for wv in grid.w_body]
    for iy, yv in enumerate(grid.y_body):
        a = _Thresholds(y_marg.index(yv, x))
        below_y = (sample.y <= yv).astype(float)
        for iw, (b, below_w) in enumerate(w_axis):
            yield (iy, iw), (a, b, below_y, below_w)


class _ReplicateBase:
    """A base fit readied for its bootstrap replicates (one-step dependence).

    A replicate holds the base marginal indices fixed in the dependence step
    and takes one full Newton step from each cell's base estimate under its
    own weights: the k-step bootstrap with k = 1 (Davidson & MacKinnon 1999;
    Andrews 2002), first-order equivalent to refitting the cell. At the base
    estimate and indices, each row's score factor, observed curvature and
    Fisher curvature are the same in every replicate; only the weights
    change. So one kernel pass per cell, made here, serves every replicate,
    and step() forms a replicate's scores and informations for all cells as
    weighted sums of these rows.

    A cell whose base fit failed (NaN) keeps NaN, and a cell clamped at the
    link saturation bound (a perfectly concordant or discordant pattern,
    which no reweighting undoes) keeps its clamped coefficients: neither has
    an interior estimate to step from.
    """

    def __init__(self, sample: Sample, fit: BdrFit):
        self.fit = fit
        x = np.asarray(sample.x, dtype=float)
        self.x_dep = x[:, fit.dep_cols]
        n, d = self.x_dep.shape
        self.xx = (self.x_dep[:, :, None] * self.x_dep[:, None, :]).reshape(n, d * d)
        # Cells that step; the rows below are theirs, in grid order.
        self.live = np.all(np.isfinite(fit.dep_coef), axis=2)
        rows = []
        for cell, args in _cells(sample, x, fit.grid, fit.y_marginal, fit.w_marginal):
            if not self.live[cell]:
                continue
            kernel = _CellKernel(self.x_dep, *args)
            if kernel.saturation():
                self.live[cell] = False
                continue
            _, score, observed, fisher = kernel.terms(fit.dep_coef[cell])
            rows.append((score, observed, fisher()))
        self.score, self.observed, self.fisher = (
            np.array([r[k] for r in rows]).reshape(-1, n) for k in range(3))

    def step(self, weights) -> np.ndarray:
        """The replicate's dependence coefficients under `weights`. In each
        live cell: the base estimate plus solve(I, g), where g and I are the
        replicate-weighted score and observed information at the base
        estimate, with Fisher's information where the observed one has no
        Cholesky factor. This is the first point `_damped_newton` tries from
        the base estimate under these weights, and like it a cell takes no
        step where the max-norm of g is already at most POLISH_GRAD."""
        n, d = self.x_dep.shape
        w = _normalize_weights(weights, n)
        grad = (self.score * w) @ self.x_dep / n
        info = (self.observed * w) @ self.xx / n
        pd = _positive_definite(info.reshape(-1, d, d))
        info[~pd] = (self.fisher[~pd] * w) @ self.xx / n
        step = _newton_step(info.reshape(-1, d, d), grad)
        step[np.max(np.abs(grad), axis=1) <= POLISH_GRAD] = 0.0
        dep = self.fit.dep_coef.copy()
        dep[self.live] += step
        return dep


def fit_bdr(sample: Sample, grid: GridSpec, dep_cols=None, weights=None,
            base: _ReplicateBase | None = None) -> BdrFit:
    """Run the full two-step estimator over the grid.

    dep_cols are the design columns that drive the dependence, at least one
    and distinct in 0..d_x - 1 (else ConfigError); None for all. Each grid
    pair is fitted alone from zero, so no cell depends on another or on loop
    order. A dependence fit that fails at a grid pair does not stop the
    others: the pair is recorded in `failures` with its reason and its cell
    carries NaN coefficients.

    With `base` (a `_ReplicateBase`, which `bootstrap_fit` builds once per
    ensemble) the fit is a bootstrap replicate of base.fit under `weights`:
    the marginals are refitted as in a base fit, and each dependence cell
    takes one Newton step from its base estimate at the base marginal
    indices (`_ReplicateBase.step`, the only replicate-specific code). A
    replicate's cells cannot fail; only its marginal fits can, by raising.
    """
    validate(sample)
    dep_cols = tuple(range(sample.d_x)) if dep_cols is None else tuple(dep_cols)
    if not 0 < len(dep_cols) == len(set(dep_cols) & set(range(sample.d_x))):
        raise ConfigError(f"dep_cols {dep_cols} must be distinct design columns in "
                          f"0..{sample.d_x - 1}")
    x = np.asarray(sample.x, dtype=float)

    y_marg = fit_marginal(sample.y, x, grid, "y", weights=weights)
    w_marg = fit_marginal(sample.w, x, grid, "w", weights=weights)
    if base is not None:
        return BdrFit(grid=grid, y_marginal=y_marg, w_marginal=w_marg,
                      dep_coef=base.step(weights), dep_cols=dep_cols, weights=weights)

    x_dep = x[:, dep_cols]
    dep = np.full((grid.y_body.size, grid.w_body.size, len(dep_cols)), np.nan)
    failures = []
    for cell, args in _cells(sample, x, grid, y_marg, w_marg):
        try:
            dep[cell] = fit_dependence(x_dep, *args, weights=weights).coef
        except EstimationError as err:
            iy, iw = cell
            failures.append((float(grid.y_body[iy]), float(grid.w_body[iw]), str(err)))

    return BdrFit(grid=grid, y_marginal=y_marg, w_marginal=w_marg, dep_coef=dep,
                  dep_cols=dep_cols, failures=failures, weights=weights)
