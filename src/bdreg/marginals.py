"""Marginal distribution regression: a probit fit of 1(R <= r) on X at every
body grid point, plus the one-parameter tail-scale fits that extend the index
affinely beyond the body.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .data import GridSpec, body_lookup
from .exceptions import DataError, EstimationError, TailError
from .normal import _SQRT_2PI, _ndtr

__all__ = [
    "MarginalFit",
    "NewtonResult",
    "TailFit",
    "fit_marginal",
    "fit_probit_dr",
    "fit_tail_scale",
]

TOL_GRAD = 1e-8
MAX_ITER = 200
# Polish past the contract tolerance so refits (permuted data, warm vs cold
# starts) land on the same point to well below 1e-8.
POLISH_GRAD = 1e-12
# Below this predicted gain a change in the average log-likelihood is lost in
# its rounding, so steps are judged on the gradient instead.
GAIN_FLOOR = 1e-13
# Share of its predicted gain a step must realise (Armijo's condition). A full
# Fisher step that overshoots the maximum almost symmetrically still raises
# the objective a little; accepting it on any rise makes the fit crawl.
ARMIJO = 0.1
PROB_FLOOR = 1e-10


def _normalize_weights(weights, n):
    """Mean-one observation weights; None means equal weights. Bad weights are
    bad input, so they raise DataError."""
    if weights is None:
        return np.full(n, 1.0)
    w = np.asarray(weights, dtype=float)
    if w.shape != (n,):
        raise DataError(f"weights must have length {n}")
    if np.any(w < 0) or not np.all(np.isfinite(w)):
        raise DataError("weights must be finite and nonnegative")
    total = w.sum()
    if total <= 0:
        raise DataError("weights must have positive total mass")
    # Mean-one scaling: leaves every maximizer unchanged and keeps weighted
    # and unweighted objectives on the same scale.
    return w * (n / total)


def _clip_prob(p):
    return np.clip(p, PROB_FLOOR, 1.0 - PROB_FLOOR)


def _probit_evaluate(x, below, w, offset, coef):
    """Average probit log-likelihood, its score and the expected information
    at coef, with mean-one weights w and an optional fixed offset added to
    the index."""
    n = x.shape[0]
    idx = x @ coef
    if offset is not None:
        idx = idx + offset
    p = _clip_prob(_ndtr(idx))
    ll = float(np.mean(w * (below * np.log(p) + (1.0 - below) * np.log1p(-p))))
    phi = np.exp(-0.5 * idx * idx) / _SQRT_2PI
    denom = p * (1.0 - p)
    grad = x.T @ (w * phi / denom * (below - p)) / n
    fisher = w * phi * phi / denom
    return ll, grad, (x * fisher[:, None]).T @ x / n


@dataclass
class NewtonResult:
    """A converged fit: its coefficients, the Newton steps taken, the final
    max-norm gradient and the average log-likelihood. boundary marks a
    dependence fit clamped at the link saturation bound."""

    coef: np.ndarray
    iterations: int
    grad_norm: float
    loglik: float
    boundary: bool = False


def _newton_step(info, grad):
    """The full Newton step solve(info, grad), for one system (info (d, d),
    grad (d,)) or a stack of them (info (k, d, d), grad (k, d)). A system
    that is singular or gives a non-finite step takes the plain ascent
    direction, step = grad, instead."""
    try:
        step = np.linalg.solve(info, grad[..., None])[..., 0]
    except np.linalg.LinAlgError:
        if grad.ndim == 1:
            return grad
        step = np.stack([_newton_step(i, g) for i, g in zip(info, grad)])
    finite = np.all(np.isfinite(step), axis=-1, keepdims=True)
    return np.where(finite, step, grad)


def _damped_newton(evaluate, coef, name) -> NewtonResult:
    """Maximize a smooth objective by at most MAX_ITER damped Newton steps
    from coef.

    evaluate(coef) returns (loglik, grad, curvature), the curvature being the
    negative Hessian or a positive-definite stand-in for it: the probit fits
    use the expected information (Fisher scoring), the dependence cells the
    observed information where it is positive definite. Each step is halved
    until it is accepted.
    While the step's predicted gain grad'step (the squared Newton decrement)
    exceeds GAIN_FLOOR, a step must raise the objective by ARMIJO times its
    predicted gain; below that the objective is flat at float resolution, so
    a step is accepted when it lowers the gradient's 2-norm instead. That
    polish runs until the max-norm gradient reaches POLISH_GRAD, so refits
    (permuted rows, warm or cold starts) agree to ~1e-12.

    This is the one convergence check of every probit and dependence fit,
    and its settings are constants: a fit converges when its final max-norm
    gradient is at most TOL_GRAD. Otherwise it raises an EstimationError
    naming the fit (name), with the final grad_norm, the iterations taken and
    the last_coef reached as diagnostics.
    """
    coef = np.array(coef, dtype=float)
    ll, grad, info = evaluate(coef)
    grad_norm = float(np.max(np.abs(grad)))
    it = 0
    while grad_norm > POLISH_GRAD and it < MAX_ITER:
        it += 1
        step = _newton_step(info, grad)
        gain = float(grad @ step)
        grad_len = float(np.linalg.norm(grad))
        t = 1.0
        for _ in range(40):
            trial = coef + t * step
            ll_trial, grad_trial, info_trial = evaluate(trial)
            ok = (
                ll_trial >= ll + ARMIJO * t * gain
                if gain > GAIN_FLOOR
                else np.linalg.norm(grad_trial) < grad_len
            )
            if ok:
                coef, ll, grad, info = trial, ll_trial, grad_trial, info_trial
                grad_norm = float(np.max(np.abs(grad)))
                break
            t *= 0.5
        else:
            break  # no progress available at floating-point resolution
    if not grad_norm <= TOL_GRAD:
        raise EstimationError(
            f"{name} did not converge",
            diagnostics={
                "grad_norm": grad_norm,
                "iterations": it,
                "last_coef": coef.tolist(),
            },
        )
    return NewtonResult(coef=coef, iterations=it, grad_norm=grad_norm, loglik=ll)


def fit_probit_dr(x, below, weights=None, warm_start=None,
                  offset=None) -> NewtonResult:
    """Maximize the (weighted) probit log-likelihood with `_damped_newton`.

    The curvature is the expected Hessian (Fisher scoring). `offset` is added
    to the linear index but carries no free parameter, which is how the
    one-parameter tail fits reuse this routine.
    """
    x = np.asarray(x, dtype=float)
    below = np.asarray(below, dtype=float)
    n, d = x.shape
    w = _normalize_weights(weights, n)

    mass_below = np.sum(w * below)
    mass_above = np.sum(w * (1.0 - below))
    if mass_below <= 0 or mass_above <= 0:
        raise EstimationError(
            "indicator is one-sided at this threshold (no mass on one side)",
            diagnostics={"mass_below": mass_below, "mass_above": mass_above},
        )

    start = np.zeros(d) if warm_start is None else warm_start
    return _damped_newton(partial(_probit_evaluate, x, below, w, offset), start, "probit fit")


def _admissible_tail_points(values, anchor, direction, min_obs):
    """Auxiliary tail points, nearest first, satisfying the count condition:
    at least min_obs observations strictly between the anchor and the point,
    and at least min_obs strictly beyond the point."""
    # The lower tail is the upper tail of -values about -anchor, negated.
    sign = 1.0 if direction == "upper" else -1.0
    values = sign * np.asarray(values, dtype=float)
    beyond = np.sort(values[values > sign * anchor])
    uniq = np.unique(beyond)
    between = np.searchsorted(beyond, uniq, side="left")
    outside = beyond.size - np.searchsorted(beyond, uniq, side="right")
    return list(sign * uniq[(between >= min_obs) & (outside >= min_obs)])


@dataclass
class TailFit:
    alpha: float
    r0: float


def fit_tail_scale(values, x, coef_anchor, anchor, direction, min_obs,
                   weights=None) -> TailFit:
    """Fit the positive tail scale by profiling the likelihood at one
    auxiliary point beyond the body.

    direction is "upper" or "lower". At a point r0 the probit fits the
    intercept shift gamma = alpha * (r0 - anchor) from gamma = 0, so the fit
    does not depend on the units of the outcome, and alpha = gamma /
    (r0 - anchor). Admissible points are tried nearest-first until one
    yields alpha > 0. With none admissible, the data cannot meet min_obs: a
    DataError.
    """
    values = np.asarray(values, dtype=float)
    x = np.asarray(x, dtype=float)
    offset = x @ np.asarray(coef_anchor, dtype=float)

    candidates = _admissible_tail_points(values, anchor, direction, min_obs)
    if not candidates:
        raise DataError(
            f"no admissible {direction}-tail point beyond anchor {anchor}: "
            f"widen the body or reduce tail_min_obs={min_obs}"
        )

    last = None
    shift = np.ones((values.shape[0], 1))
    for cand in candidates:
        below = (values <= cand).astype(float)
        res = fit_probit_dr(shift, below, weights=weights, offset=offset)
        alpha = float(res.coef[0]) / (cand - anchor)
        last = (alpha, cand)
        if alpha > 0:
            return TailFit(alpha=alpha, r0=cand)
    raise TailError(
        f"tail scale non-positive at every admissible {direction}-tail point "
        f"(last alpha={last[0]:.3g} at r0={last[1]:.6g})"
    )


@dataclass
class MarginalFit:
    """Per-threshold probit coefficients on the body grid plus the two tail
    scales and the auxiliary points they were fitted at."""

    body: np.ndarray
    coef: np.ndarray  # (n_body, d_x)
    alpha_lo: float
    alpha_hi: float
    r0_lo: float
    r0_hi: float
    iterations: list[int] = field(default_factory=list)

    @property
    def anchor_lo(self) -> float:
        return float(self.body[0])

    @property
    def anchor_hi(self) -> float:
        return float(self.body[-1])

    def index(self, r: float, x: np.ndarray) -> np.ndarray:
        """Linear index x'coef at threshold r by the copy rule (body_lookup):
        the coefficients of the body point r reads plus, beyond the body, the
        distance beyond times that side's tail scale. So the index is affine
        beyond the body, continuous at the anchors and +/-inf at +/-inf (both
        tail scales are positive); thresholds with one (position, beyond)
        pair have identical indices."""
        x = np.atleast_2d(np.asarray(x, dtype=float))
        pos, beyond = body_lookup(self.body, r)
        return x @ self.coef[pos] + beyond * (self.alpha_hi if beyond > 0 else self.alpha_lo)


def fit_marginal(values, x, grid: GridSpec, outcome: str, weights=None) -> MarginalFit:
    """Run the probit fits over one outcome's body grid, then both tail fits.

    outcome selects "y" or "w" in the grid. Fits sweep the body in ascending
    order with warm starts from the previous threshold; warm starting only
    changes the iteration count, not the solution. The error of a failed
    body point or tail fit is raised with the outcome named in its message.
    """
    body = grid.y_body if outcome == "y" else grid.w_body
    values = np.asarray(values, dtype=float)
    x = np.asarray(x, dtype=float)

    coefs = np.empty((body.size, x.shape[1]))
    iters = []
    warm = None
    for i, r in enumerate(body):
        below = (values <= r).astype(float)
        try:
            res = fit_probit_dr(x, below, weights=weights, warm_start=warm)
        except EstimationError as err:
            err.args = (f"marginal {outcome} fit failed at grid point {r:.6g}: {err}",)
            raise
        coefs[i] = res.coef
        iters.append(res.iterations)
        warm = res.coef

    try:
        lo = fit_tail_scale(values, x, coefs[0], float(body[0]), "lower",
                            grid.tail_min_obs, weights=weights)
        hi = fit_tail_scale(values, x, coefs[-1], float(body[-1]), "upper",
                            grid.tail_min_obs, weights=weights)
    except (DataError, EstimationError) as err:
        err.args = (f"marginal {outcome} tail fit failed: {err}",)
        raise
    return MarginalFit(
        body=body,
        coef=coefs,
        alpha_lo=lo.alpha,
        alpha_hi=hi.alpha,
        r0_lo=lo.r0,
        r0_hi=hi.r0,
        iterations=iters,
    )
