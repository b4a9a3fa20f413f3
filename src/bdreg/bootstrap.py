"""Weighted-bootstrap inference: exchangeable weight draws, replicate fits of
the full model, ensemble application to functionals, and the IQR-based robust
standard error, cellwise over a stack of draws.

One weight vector drives every sub-estimation of a replicate: the marginal
fits (refitted by the base fit's own code) and the dependence cells. A
dependence cell holds the base marginal indices fixed and takes one Newton
step from the base estimate of the same cell (the one-step bootstrap, first-
order equivalent to refitting it), all cells of all replicates from one
kernel pass per cell (dependence._ReplicateBase). So a replicate can fail
only in its marginal fits. The replicate fit keeps its weight vector as its
`weights`, and every functional computed from the fit averages its covariate
rows with it, so a replicate is one self-contained record.

Replicate fits and their functionals run on one pool helper, _fork_map. Its
workers are forked and get the task through the pool initializer, so only
item ids and results cross the pipe: a task is never pickled, and may be a
closure over local state (the CLI's functionals are) holding every fit.
Where the platform cannot fork (Windows), the helper runs serially.
"""

from __future__ import annotations

import multiprocessing
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from statistics import NormalDist

import numpy as np

from .data import Sample
from .dependence import BdrFit, _ReplicateBase, fit_bdr
from .exceptions import EstimationError, InferenceError

__all__ = [
    "BootstrapEnsemble",
    "WeightScheme",
    "bootstrap_fit",
    "draw_weights",
    "ensemble_apply",
    "robust_se_map",
]

DEFAULT_DRAWS = 200
MAX_FAILURE_SHARE = 0.10
MIN_DRAWS_FOR_INFERENCE = 10
# Interquartile range of the standard normal, the denominator of the robust
# standard error: twice the 0.75 quantile, from the standard library's
# NormalDist().inv_cdf (Wichura's AS241), equal to scipy's ndtri(0.75).
_NORMAL_IQR = 2.0 * NormalDist().inv_cdf(0.75)


@dataclass(frozen=True)
class WeightScheme:
    """Exchangeable bootstrap weights.

    "exponential" draws i.i.d. unit exponentials (no zero weights, so no
    quadrant can be emptied by the reweighting); "multinomial" draws classic
    resampling counts. Weights are rescaled to mean one, which keeps a
    weighted objective on the unweighted scale; every fit and functional
    renormalises its weights, so another scale would change estimates only
    by rounding.
    """

    kind: str = "exponential"
    seed: int = 0

    def __post_init__(self):
        if self.kind not in ("exponential", "multinomial"):
            raise InferenceError(f"unknown weight scheme {self.kind!r}")
        if self.seed < 0:
            raise InferenceError(f"bootstrap seed must be non-negative, got {self.seed}")


def draw_weights(n: int, scheme: WeightScheme, replicate_id: int,
                 group: int = 0) -> np.ndarray:
    """Weight vector for one replicate; deterministic in (seed, replicate_id,
    group) and independent across groups and replicates."""
    if n < 1:
        raise InferenceError("need at least one observation")
    seq = np.random.SeedSequence([int(scheme.seed), int(group), int(replicate_id)])
    rng = np.random.default_rng(seq)
    if scheme.kind == "exponential":
        w = rng.standard_exponential(n)
    else:
        w = rng.multinomial(n, np.full(n, 1.0 / n)).astype(float)
    return w * (n / w.sum())


@dataclass
class BootstrapEnsemble:
    """Replicate fits keyed by replicate id (each holds its weight vector),
    and the reason each failed replicate was dropped."""

    n_requested: int
    draws: dict[int, BdrFit] = field(default_factory=dict)
    failed: dict[int, str] = field(default_factory=dict)


_worker_task = []  # in a pool worker, the task _fork_map's initializer appended


def _call_task(item):
    return _worker_task[-1](item)


def _fork_map(task, items, workers):
    """[task(i) for i in items], on up to `workers` forked processes with one
    even share of the items each; serial for one worker or one item, or where
    the platform cannot fork."""
    if workers <= 1 or len(items) <= 1 or "fork" not in multiprocessing.get_all_start_methods():
        return [task(i) for i in items]
    workers = min(workers, len(items))
    with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"),
                             initializer=_worker_task.append, initargs=(task,)) as pool:
        return list(pool.map(_call_task, items, chunksize=-(-len(items) // workers)))


def _run_replicate(sample, scheme, base, group, rep):
    w = draw_weights(sample.n, scheme, rep, group)
    try:
        return rep, fit_bdr(sample, base.fit.grid, base.fit.dep_cols, weights=w, base=base), None
    except EstimationError as err:
        return rep, None, str(err)


def bootstrap_fit(sample: Sample, base: BdrFit, n_draws: int = DEFAULT_DRAWS,
                  scheme: WeightScheme = WeightScheme(), group: int = 0,
                  workers: int = 1) -> BootstrapEnsemble:
    """Draw n_draws weighted replicate fits of the base fit's model.

    Each replicate is fitted on base.grid with base.dep_cols: its marginals
    are refitted as the base fit's were, and each dependence cell takes one
    Newton step from the base estimate of the same cell, at the base
    marginal indices (fit_bdr with a _ReplicateBase, made once here). A cell
    whose base fit failed stays NaN in every replicate, so a functional that
    reads it raises the base fit's EstimationError. A replicate whose
    marginal fits fail is dropped, with its reason kept in `failed`. The run
    fails when more than MAX_FAILURE_SHARE of the draws fail, or when fewer
    than min(n_draws, MIN_DRAWS_FOR_INFERENCE) survive; its InferenceError
    names each failed replicate and why it failed.

    Replicates are seeded by replicate id, so results do not depend on
    workers (the number of processes _fork_map fits them on).
    """
    if n_draws < 1:
        raise InferenceError("n_draws must be at least 1")
    ens = BootstrapEnsemble(n_requested=n_draws)
    ready = _ReplicateBase(sample, base)
    results = _fork_map(lambda rep: _run_replicate(sample, scheme, ready, group, rep),
                        range(n_draws), workers)
    for rep, fit, err in results:
        if err is not None:
            ens.failed[rep] = err
        else:
            ens.draws[rep] = fit
    if (len(ens.failed) > MAX_FAILURE_SHARE * n_draws
            or len(ens.draws) < min(n_draws, MIN_DRAWS_FOR_INFERENCE)):
        reasons = "; ".join(f"replicate {rep}: {why}" for rep, why in sorted(ens.failed.items()))
        raise InferenceError(
            f"{len(ens.failed)} of {n_draws} bootstrap replicates failed, leaving "
            f"{len(ens.draws)} ({reasons})"
        )
    return ens


def ensemble_apply(ensembles: dict[int, BootstrapEnsemble], fn,
                   workers: int = 1) -> dict[int, object]:
    """Apply fn(replicate_fits_by_group) across the replicates valid in every
    group's ensemble, keyed by replicate id in increasing order. The calls
    run on up to `workers` forked processes (_fork_map): fn may be a closure
    over local state, its results must pickle, and an exception it raises
    reaches the caller as raised.

    Groups can each keep enough replicates but lose different ones: with
    fewer than MIN_DRAWS_FOR_INFERENCE valid in every group, the
    InferenceError names each group's failed replicates and their reasons.
    """
    ids = sorted(set.intersection(*(set(ens.draws) for ens in ensembles.values()))
                 if ensembles else ())
    if len(ids) < MIN_DRAWS_FOR_INFERENCE:
        lost = "; ".join(
            f"group {g}, replicate {rep}: {why}"
            for g, ens in sorted(ensembles.items())
            for rep, why in sorted(ens.failed.items())
        )
        raise InferenceError(
            f"{len(ids)} bootstrap replicates are valid in every group, need at "
            f"least {MIN_DRAWS_FOR_INFERENCE}" + (f" ({lost})" if lost else "")
        )
    values = _fork_map(lambda rep: fn({g: ens.draws[rep] for g, ens in ensembles.items()}),
                       ids, workers)
    return dict(zip(ids, values))


def robust_se_map(draws_stack: np.ndarray) -> np.ndarray:
    """The robust standard error of each cell over the leading (replicate)
    axis: the interquartile range of its draws divided by that of the
    standard normal. The draws must be finite and at least
    MIN_DRAWS_FOR_INFERENCE, else an InferenceError."""
    stack = np.asarray(draws_stack, dtype=float)
    if stack.ndim == 0 or len(stack) < MIN_DRAWS_FOR_INFERENCE:
        raise InferenceError(f"need at least {MIN_DRAWS_FOR_INFERENCE} draws per cell")
    finite = np.isfinite(stack)
    if not finite.all():
        raise InferenceError(f"non-finite draw at index {np.argwhere(~finite)[0].tolist()}")
    q25, q75 = np.quantile(stack, (0.25, 0.75), axis=0)
    return (q75 - q25) / _NORMAL_IQR
