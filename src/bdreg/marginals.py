"""Marginal distribution regression: a probit fit of 1(R <= r) on X at every
body grid point, plus the one-parameter tail-scale fits that extend the index
affinely beyond the body.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .data import GridSpec, body_lookup
from .exceptions import DataError, EstimationError, TailError, _prefixed
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


def _probit_rows(idx, below, w):
    """Each row's probability p (clipped), weighted score factor
    w phi (below - p) / (p (1 - p)) and weighted Fisher curvature
    w phi^2 / (p (1 - p)) at linear index idx: the row adds these times x to
    the score and times x x' to the expected information. Read by the fits
    (_probit_evaluate) and the one-step replicates (_MarginalRows, w = 1)."""
    p = _clip_prob(_ndtr(idx))
    phi = np.exp(-0.5 * idx * idx) / _SQRT_2PI
    denom = p * (1.0 - p)
    return p, w * phi / denom * (below - p), w * phi * phi / denom


def _probit_evaluate(x, below, w, offset, coef):
    """Average probit log-likelihood, its score and the expected information
    at coef, with mean-one weights w and an optional fixed offset added to
    the index."""
    n = x.shape[0]
    idx = x @ coef
    if offset is not None:
        idx = idx + offset
    p, score, fisher = _probit_rows(idx, below, w)
    ll = float(np.mean(w * (below * np.log(p) + (1.0 - below) * np.log1p(-p))))
    return ll, x.T @ score / n, (x * fisher[:, None]).T @ x / n


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
    direction, step = grad, instead, and one whose max-norm gradient is at
    most POLISH_GRAD, where a fit stops polishing, takes no step."""
    try:
        step = np.linalg.solve(info, grad[..., None])[..., 0]
    except np.linalg.LinAlgError:
        step = (grad if grad.ndim == 1
                else np.stack([_newton_step(i, g) for i, g in zip(info, grad)]))
    finite = np.all(np.isfinite(step), axis=-1, keepdims=True)
    polished = np.max(np.abs(grad), axis=-1, keepdims=True) <= POLISH_GRAD
    return np.where(polished, 0.0, np.where(finite, step, grad))


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


def _require_both_sides(mass_below, mass_above):
    """Raise the EstimationError of a threshold whose weights leave no mass
    below it or none above it: the probit likelihood has no maximizer."""
    if mass_below <= 0 or mass_above <= 0:
        raise EstimationError(
            "indicator is one-sided at this threshold (no mass on one side)",
            diagnostics={"mass_below": mass_below, "mass_above": mass_above},
        )


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

    _require_both_sides(np.sum(w * below), np.sum(w * (1.0 - below)))
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


def _at_body_point(outcome, r):
    return _prefixed(f"marginal {outcome} fit failed at grid point {r:.6g}", EstimationError)


def _in_tail(outcome):
    return _prefixed(f"marginal {outcome} tail fit failed", DataError, EstimationError)


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
        with _at_body_point(outcome, r):
            res = fit_probit_dr(x, below, weights=weights, warm_start=warm)
        coefs[i] = res.coef
        iters.append(res.iterations)
        warm = res.coef

    with _in_tail(outcome):
        lo = fit_tail_scale(values, x, coefs[0], float(body[0]), "lower",
                            grid.tail_min_obs, weights=weights)
        hi = fit_tail_scale(values, x, coefs[-1], float(body[-1]), "upper",
                            grid.tail_min_obs, weights=weights)
    return MarginalFit(
        body=body,
        coef=coefs,
        alpha_lo=lo.alpha,
        alpha_hi=hi.alpha,
        r0_lo=lo.r0,
        r0_hi=hi.r0,
        iterations=iters,
    )


class _MarginalRows:
    """A base marginal fit readied for its bootstrap replicates, which take
    one Fisher-scoring step from it under their weights (first-order
    equivalent to a refit; dependence._ReplicateBase). Each row's score
    factor and Fisher curvature at the base estimate (_probit_rows with unit
    weight) are the same in every replicate, so they are computed once here
    for every body threshold and both tails; xx holds the rows' flattened
    x x'.

    A tail keeps the base fit's auxiliary point r0, and its rows are taken
    at the base tail index x'beta_a + gamma, gamma = alpha * (r0 - anchor).
    Its step is joint in (beta_a, gamma): the anchor's step moves the
    offset, and so gamma. Without that term the tail SEs fall short of the
    refit's.
    """

    def __init__(self, values, x, xx, fit: MarginalFit, outcome: str, min_obs: int):
        self.values = np.asarray(values, dtype=float)
        self.x, self.xx = x, xx
        self.fit, self.outcome, self.min_obs = fit, outcome, min_obs
        # (n_body, n) rows, one threshold per row of the stack.
        self.below = (self.values <= fit.body[:, None]).astype(float)
        _, self.score, self.fisher = _probit_rows(fit.coef @ x.T, self.below, 1.0)
        self.tails = []
        for side, at, alpha, r0 in (("lower", 0, fit.alpha_lo, fit.r0_lo),
                                    ("upper", -1, fit.alpha_hi, fit.r0_hi)):
            anchor = float(fit.body[at])
            gamma = alpha * (r0 - anchor)
            _, score, fisher = _probit_rows(x @ fit.coef[at] + gamma,
                                            (self.values <= r0).astype(float), 1.0)
            self.tails.append((side, at, anchor, r0, gamma, score, fisher))

    def step(self, w) -> MarginalFit:
        """The replicate's marginal fit under mean-one weights w.

        Body threshold k: beta_k + _newton_step(I_k, g_k), g_k and I_k the
        weighted score and expected information at the base estimate. A
        threshold the weights leave one-sided raises fit_marginal's error for
        it. Tail:
        gamma* = gamma + (sum w s - (sum w c x)'(beta*_a - beta_a)) / sum w c
        and alpha* = gamma* / (r0 - anchor); where alpha* is not positive,
        fit_tail_scale refits the tail under w at the stepped anchor.
        """
        n, d = self.x.shape
        for r, mass_below, mass_above in zip(self.fit.body, self.below @ w,
                                             (1.0 - self.below) @ w):
            with _at_body_point(self.outcome, r):
                _require_both_sides(mass_below, mass_above)
        grad = (self.score * w) @ self.x / n
        info = (self.fisher * w) @ self.xx / n
        step = _newton_step(info.reshape(-1, d, d), grad)
        coef = self.fit.coef + step

        tails = []
        for side, at, anchor, r0, gamma, score, fisher in self.tails:
            wc = w * fisher
            gamma = gamma + (w @ score - (wc @ self.x) @ step[at]) / wc.sum()
            alpha = gamma / (r0 - anchor)
            if not alpha > 0:
                with _in_tail(self.outcome):
                    refit = fit_tail_scale(self.values, self.x, coef[at], anchor, side,
                                           self.min_obs, weights=w)
                alpha, r0 = refit.alpha, refit.r0
            tails.append((float(alpha), r0))
        (alpha_lo, r0_lo), (alpha_hi, r0_hi) = tails
        return MarginalFit(body=self.fit.body, coef=coef, alpha_lo=alpha_lo,
                           alpha_hi=alpha_hi, r0_lo=r0_lo, r0_hi=r0_hi)
