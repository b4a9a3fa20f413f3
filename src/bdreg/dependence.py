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
from .exceptions import EstimationError
from .marginals import TOL_GRAD, MarginalFit, _damped_newton, _normalize_weights, fit_marginal
from .normal import EPS_RHO, FixedThresholdBvn, bvn_cdf, link_rho

__all__ = [
    "BdrFit",
    "DepResult",
    "FitConfig",
    "dep_fisher_info",
    "dep_score",
    "fit_bdr",
    "fit_dependence",
    "joint_loglik",
    "quadrant_probs",
]

CELL_FLOOR = 1e-10
# Link index at which |tanh| reaches the correlation clamp; used when a
# degenerate quadrant pattern pushes the dependence to the boundary.
U_SAT = float(np.arctanh(1.0 - EPS_RHO))


def quadrant_probs(a, b, rho):
    """The four joint-indicator probabilities per observation.

    p11 + p10 + p01 + p00 = 1 up to a few ulps for every row.
    """
    p11 = bvn_cdf(a, b, rho)
    p10 = bvn_cdf(a, -b, -rho)
    p01 = bvn_cdf(-a, b, -rho)
    p00 = bvn_cdf(-a, -b, rho)
    return p11, p10, p01, p00


class _CellKernel:
    """Precomputed state for repeated likelihood evaluations at one grid pair.

    Thresholds, indicator masks, weights, and the marginal CDF values are
    fixed within a dependence fit; only the correlation changes, so each
    iterate costs one quadrature pass. The lower three cells follow from the
    joint cell and the marginals (they sum to one by construction).
    """

    def __init__(self, x_dep, a, b, below_y, below_w, w):
        self.x_dep = np.asarray(x_dep, dtype=float)
        self.n = self.x_dep.shape[0]
        a = np.broadcast_to(np.asarray(a, dtype=float), (self.n,))
        b = np.broadcast_to(np.asarray(b, dtype=float), (self.n,))
        self.bvn = FixedThresholdBvn(a, b)
        self.pa = self.bvn.pa
        self.pb = self.bvn.pb
        self.iy = np.asarray(below_y, dtype=float)
        self.jw = np.asarray(below_w, dtype=float)
        self.w = w

    def evaluate(self, dep):
        """Log-likelihood, score and expected information at dep, all from
        one quadrature pass."""
        u = self.x_dep @ np.asarray(dep, dtype=float)
        rho, gprime = link_rho(u)
        p11 = self.bvn.cdf(rho)
        c11 = np.maximum(p11, CELL_FLOOR)
        c10 = np.maximum(self.pa - p11, CELL_FLOOR)
        c01 = np.maximum(self.pb - p11, CELL_FLOOR)
        c00 = np.maximum(1.0 - self.pa - self.pb + p11, CELL_FLOOR)
        iy, jw = self.iy, self.jw
        active = (
            iy * jw * np.log(c11)
            + iy * (1.0 - jw) * np.log(c10)
            + (1.0 - iy) * jw * np.log(c01)
            + (1.0 - iy) * (1.0 - jw) * np.log(c00)
        )
        ratio = (
            iy * jw / c11
            - iy * (1.0 - jw) / c10
            - (1.0 - iy) * jw / c01
            + (1.0 - iy) * (1.0 - jw) / c00
        )
        recip = 1.0 / c11 + 1.0 / c10 + 1.0 / c01 + 1.0 / c00
        dens = self.bvn.pdf(rho)
        ll = float(np.mean(self.w * active))
        grad = self.x_dep.T @ (self.w * ratio * dens * gprime) / self.n
        scale = self.w * recip * dens * dens * gprime * gprime
        info = (self.x_dep * scale[:, None]).T @ self.x_dep / self.n
        return ll, grad, info


def _kernel(x_dep, a, b, below_y, below_w, weights):
    w = _normalize_weights(weights, np.asarray(x_dep).shape[0])
    return _CellKernel(x_dep, a, b, below_y, below_w, w)


def joint_loglik(x_dep, a, b, dep, below_y, below_w, weights=None):
    """Average four-quadrant log-likelihood at fixed marginal indices."""
    return _kernel(x_dep, a, b, below_y, below_w, weights).evaluate(dep)[0]


def dep_score(x_dep, a, b, dep, below_y, below_w, weights=None):
    """Analytic gradient of joint_loglik in the dependence coefficients:
    the quadrant-signed reciprocal cells times the bivariate density and the
    link derivative."""
    return _kernel(x_dep, a, b, below_y, below_w, weights).evaluate(dep)[1]


def dep_fisher_info(x_dep, a, b, dep, weights=None):
    """Expected negative Hessian in the dependence coefficients (the sum of
    reciprocal cells times the squared density and squared link derivative)."""
    # The expected information does not depend on the indicators.
    below = np.zeros(np.asarray(x_dep).shape[0])
    return _kernel(x_dep, a, b, below, below, weights).evaluate(dep)[2]


@dataclass
class DepResult:
    coef: np.ndarray
    iterations: int
    grad_norm: float
    loglik: float
    boundary: bool = False


def fit_dependence(x_dep, a, b, below_y, below_w, weights=None,
                   start=None) -> DepResult:
    """Maximize the quadrant likelihood in the dependence coefficients.

    Fisher scoring (expected-information curvature) with step halving, by the
    same `_damped_newton` routine as the probit fits: steps must raise the
    likelihood while its predicted rise is measurable, then lower the score's
    2-norm until its max-norm reaches 1e-12. The fit converges when the final
    max-norm score is at most TOL_GRAD. Perfectly concordant or discordant
    cell patterns have no interior maximizer, so the fit is clamped at the
    link saturation bound with a warning.
    """
    x_dep = np.asarray(x_dep, dtype=float)
    below_y = np.asarray(below_y, dtype=float)
    below_w = np.asarray(below_w, dtype=float)
    n, d = x_dep.shape
    w = _normalize_weights(weights, n)

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
        coef = np.zeros(d)
        coef[0] = U_SAT if concordant else -U_SAT
        ll = joint_loglik(x_dep, a, b, coef, below_y, below_w, w)
        return DepResult(coef=coef, iterations=0, grad_norm=np.nan, loglik=ll,
                         boundary=True)

    kernel = _CellKernel(x_dep, a, b, below_y, below_w, w)
    coef0 = np.zeros(d) if start is None else start
    coef, ll, grad_norm, it = _damped_newton(kernel.evaluate, coef0)
    if not grad_norm <= TOL_GRAD:
        raise EstimationError(
            "dependence fit did not converge",
            diagnostics={
                "grad_norm": grad_norm,
                "iterations": it,
                "last_coef": coef.tolist(),
            },
        )
    return DepResult(coef=coef, iterations=it, grad_norm=grad_norm, loglik=ll)


@dataclass(frozen=True)
class FitConfig:
    """Estimation settings shared by the fit and bootstrap entry points.

    The solver's settings are constants: every probit and dependence fit runs
    the one damped-Newton solver for at most MAX_ITER steps and counts as
    converged when its final max-norm gradient is at most TOL_GRAD.
    """

    dep_cols: tuple[int, ...] | None = None  # design columns used for dependence
    strict: bool = False  # abort on any per-grid-point failure


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
    dep_iterations: int = 0

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


def fit_bdr(sample: Sample, grid: GridSpec, config: FitConfig = FitConfig(),
            weights=None, base: "BdrFit | None" = None) -> BdrFit:
    """Run the full two-step estimator over the grid.

    When `base` is given (bootstrap replicates) the dependence step holds the
    base fit's marginal indices fixed and the tail fits reuse its auxiliary
    points; otherwise the replicate's own marginals are used.

    Per-pair dependence failures are recorded on the fit and the affected
    cells carry NaN coefficients, unless config.strict is set.
    """
    validate(sample)
    dep_cols = config.dep_cols if config.dep_cols is not None else tuple(
        range(sample.d_x)
    )
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
    dep = np.empty((y_body.size, w_body.size, len(dep_cols)))
    failures = []
    total_iter = 0
    warm = None
    for iy, yv in enumerate(y_body):
        a = y_idx.index(yv, x)
        below_y = (sample.y <= yv).astype(float)
        row_start = None
        for iw, wv in enumerate(w_body):
            b = w_idx.index(wv, x)
            below_w = (sample.w <= wv).astype(float)
            try:
                res = fit_dependence(
                    x_dep, a, b, below_y, below_w, weights=weights, start=warm
                )
            except EstimationError as err:
                if config.strict:
                    raise EstimationError(
                        f"dependence fit failed at grid pair ({yv:.6g}, {wv:.6g}): {err}",
                        diagnostics=getattr(err, "diagnostics", {}),
                    ) from err
                failures.append((float(yv), float(wv), str(err)))
                dep[iy, iw] = np.nan
                warm = None
                continue
            dep[iy, iw] = res.coef
            total_iter += res.iterations
            warm = res.coef
            if iw == 0:
                row_start = res.coef
        warm = row_start  # next row warm-starts from the start of this row

    return BdrFit(
        grid=grid,
        y_marginal=y_marg,
        w_marginal=w_marg,
        dep_coef=dep,
        dep_cols=tuple(dep_cols),
        failures=failures,
        dep_iterations=total_iter,
    )
