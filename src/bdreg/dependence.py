"""Dependence estimation: for each body grid pair, maximize the four-quadrant
bivariate probit likelihood in the dependence coefficients, holding the
marginal indices fixed (the second step of the two-step estimator). The fitted
surface is extended off the body by nearest-body-point copying.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .data import GridSpec, Sample, nearest_body_index, validate
from .exceptions import DataError, EstimationError
from .marginals import MarginalFit, NewtonResult, _damped_newton, _normalize_weights, fit_marginal
from .normal import EPS_RHO, FixedThresholdBvn, bvn_cdf, link_rho

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
    """

    def __init__(self, x_dep, a, b, below_y, below_w, weights=None):
        self.x_dep = np.asarray(x_dep, dtype=float)
        self.n = self.x_dep.shape[0]
        a = np.broadcast_to(np.asarray(a, dtype=float), (self.n,))
        b = np.broadcast_to(np.asarray(b, dtype=float), (self.n,))
        self.bvn = FixedThresholdBvn(a, b)
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

    def evaluate(self, dep):
        """Log-likelihood, score and observed information (the negative
        Hessian) at dep, all from one quadrature pass. Where the observed
        information is not positive definite, the expected information
        (Fisher's) stands in for it."""
        u = self.x_dep @ np.asarray(dep, dtype=float)
        rho, gprime = link_rho(u)
        p11 = self.bvn.cdf(rho)
        cell = self.offset + self.sign * p11
        free = cell > CELL_FLOOR
        cell = np.maximum(cell, CELL_FLOOR)
        ll = float(np.mean(self.w * np.log(cell)))
        # d log(cell) / dP, zero where the cell is floored.
        inv = np.where(free, 1.0 / cell, 0.0)
        ratio = self.sign * inv
        dens, ddens = self.bvn.pdf_drho(rho)
        grad = self.x_dep.T @ (self.w * ratio * dens * gprime) / self.n
        # -d2/du2 of log(cell) with dP/du = dens g' and, as g'' = -2 rho g',
        # d2P/du2 = ddens g'^2 - 2 rho g' dens.
        dp = dens * gprime
        d2p = gprime * (ddens * gprime - 2.0 * rho * dens)
        info = self._information(inv * inv * dp * dp - ratio * d2p)
        try:
            np.linalg.cholesky(info)
        except np.linalg.LinAlgError:
            info = self._fisher(p11, dp)
        return ll, grad, info

    def _information(self, curvature):
        # Weighted average of x x' times each row's curvature.
        return (self.x_dep * (self.w * curvature)[:, None]).T @ self.x_dep / self.n

    def _fisher(self, p11, dp):
        # Expected information: the sum of reciprocal cells times dP/du squared.
        cells = (p11, self.pa - p11, self.pb - p11, 1.0 - self.pa - self.pb + p11)
        recip = sum(1.0 / np.maximum(c, CELL_FLOOR) for c in cells)
        return self._information(recip * dp * dp)


def fit_dependence(x_dep, a, b, below_y, below_w, weights=None,
                   start=None) -> NewtonResult:
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
    below_y = np.asarray(below_y, dtype=float)
    below_w = np.asarray(below_w, dtype=float)
    w = kernel.w
    mass = np.array(
        [
            np.sum(w * below_y * below_w),
            np.sum(w * below_y * (1.0 - below_w)),
            np.sum(w * (1.0 - below_y) * below_w),
            np.sum(w * (1.0 - below_y) * (1.0 - below_w)),
        ]
    )
    concordant = mass[1] == 0 and mass[2] == 0
    discordant = mass[0] == 0 and mass[3] == 0
    if concordant or discordant:
        kind = "concordant" if concordant else "discordant"
        warnings.warn(
            f"perfectly {kind} indicator cells: dependence clamped at the "
            "link saturation bound",
            RuntimeWarning,
            stacklevel=2,
        )
        coef = np.zeros(kernel.x_dep.shape[1])
        coef[0] = U_SAT if concordant else -U_SAT
        return NewtonResult(coef=coef, iterations=0, grad_norm=np.nan,
                            loglik=kernel.evaluate(coef)[0], boundary=True)

    coef0 = np.zeros(kernel.x_dep.shape[1]) if start is None else start
    return _damped_newton(kernel.evaluate, coef0, "dependence fit")


@dataclass
class BdrFit:
    """Fitted model: marginal coefficient paths, tail scales, and the
    dependence coefficients on the body grid, with per-point diagnostics."""

    grid: GridSpec
    y_marginal: MarginalFit
    w_marginal: MarginalFit
    dep_coef: np.ndarray  # (n_body_y, n_body_w, d_dep)
    dep_cols: tuple[int, ...]
    failures: list[tuple[float, float, str]] = field(default_factory=list)

    @property
    def n_failed(self) -> int:
        return len(self.failures)

    def dep_cell(self, y: float, w: float) -> tuple[int, int]:
        """Body-grid cell whose dependence coefficients serve (y, w) (the copy
        rule): the nearest body point in each coordinate."""
        return nearest_body_index(self.grid.y_body, y), nearest_body_index(self.grid.w_body, w)

    def dep_at(self, y: float, w: float) -> np.ndarray:
        """Dependence coefficients at the nearest body pair (copy rule)."""
        iy, iw = self.dep_cell(y, w)
        coef = self.dep_coef[iy, iw]
        if not np.all(np.isfinite(coef)):
            raise EstimationError(
                "no dependence estimate at grid pair "
                f"({self.grid.y_body[iy]:.6g}, {self.grid.w_body[iw]:.6g}): "
                "its fit failed"
            )
        return coef

    def local_rho(self, y: float, w: float, x: np.ndarray) -> np.ndarray:
        x = np.atleast_2d(np.asarray(x, dtype=float))
        rho, _ = link_rho(x[:, self.dep_cols] @ self.dep_at(y, w))
        return rho

    def joint_cdf(self, y: float, w: float, x: np.ndarray,
                  zero_dependence: bool = False) -> np.ndarray:
        """Conditional joint CDF at (y, w) for each covariate row."""
        x = np.atleast_2d(np.asarray(x, dtype=float))
        a = self.y_marginal.index(y, x)
        b = self.w_marginal.index(w, x)
        if zero_dependence:
            rho = np.zeros(x.shape[0])
        else:
            rho = self.local_rho(y, w, x)
        return bvn_cdf(a, b, rho)


def fit_bdr(sample: Sample, grid: GridSpec, dep_cols=None, weights=None,
            base: "BdrFit | None" = None) -> BdrFit:
    """Run the full two-step estimator over the grid.

    dep_cols are the design columns that drive the dependence (None for all
    of them). When `base` is given (bootstrap replicates) the dependence step
    holds the base fit's marginal indices fixed and the tail fits reuse its
    auxiliary points; otherwise the replicate's own marginals are used.

    Each grid pair is fitted alone, so no cell depends on another or on loop
    order. A base fit starts every cell from zero; a replicate starts each
    from the base estimate of the same cell, or from zero if that one failed.

    A dependence fit that fails at a grid pair does not stop the others: the
    pair is recorded in `failures` with its reason and its cell carries NaN
    coefficients.
    """
    validate(sample)
    dep_cols = tuple(range(sample.d_x)) if dep_cols is None else dep_cols
    x = np.asarray(sample.x, dtype=float)
    x_dep = x[:, dep_cols]

    y_marg = fit_marginal(sample.y, x, grid, "y", weights=weights,
                          fixed_r0=None if base is None else (
                              base.y_marginal.r0_lo, base.y_marginal.r0_hi))
    w_marg = fit_marginal(sample.w, x, grid, "w", weights=weights,
                          fixed_r0=None if base is None else (
                              base.w_marginal.r0_lo, base.w_marginal.r0_hi))

    # Dependence maximization holds the marginal indices fixed; replicates use
    # the original (base) marginal estimates.
    y_idx, w_idx = (y_marg, w_marg) if base is None else (
        base.y_marginal, base.w_marginal
    )
    y_body, w_body = grid.y_body, grid.w_body
    dep = np.full((y_body.size, w_body.size, len(dep_cols)), np.nan)
    starts = np.zeros_like(dep) if base is None else np.nan_to_num(base.dep_coef, nan=0.0)
    failures = []
    for iy, yv in enumerate(y_body):
        a = y_idx.index(yv, x)
        below_y = (sample.y <= yv).astype(float)
        for iw, wv in enumerate(w_body):
            b = w_idx.index(wv, x)
            below_w = (sample.w <= wv).astype(float)
            try:
                dep[iy, iw] = fit_dependence(x_dep, a, b, below_y, below_w,
                                             weights=weights, start=starts[iy, iw]).coef
            except EstimationError as err:
                failures.append((float(yv), float(wv), str(err)))

    return BdrFit(grid=grid, y_marginal=y_marg, w_marginal=w_marg, dep_coef=dep,
                  dep_cols=tuple(dep_cols), failures=failures)
