import inspect
import multiprocessing
import os
import pickle
from statistics import NormalDist

import numpy as np
import pytest

from bdreg import bootstrap, dependence, marginals
from bdreg.bootstrap import (
    MIN_DRAWS_FOR_INFERENCE,
    BootstrapEnsemble,
    WeightScheme,
    bootstrap_fit,
    draw_weights,
    ensemble_apply,
    robust_se_map,
)
from bdreg.data import build_grid, empirical_quantile, grid_from_values
from bdreg.dependence import _CellKernel, _ReplicateBase, fit_bdr
from bdreg.dgp import DgpSpec, generate
from bdreg.exceptions import EstimationError, InferenceError, TailError
from bdreg.marginals import _probit_evaluate, fit_marginal

from conftest import bench_spec, refit_cell


def robust_se(draws) -> float:
    """The robust SE of one draw vector by np.quantile's rule: the
    interquartile range of the draws over that of the standard normal. The
    independent reference for robust_se_map's own quantiles."""
    q25, q75 = np.quantile(np.asarray(draws, dtype=float).ravel(), [0.25, 0.75])
    return float((q75 - q25) / (2.0 * NormalDist().inv_cdf(0.75)))


def test_bootstrap_fit_starts_no_process(small_sample, small_fit, monkeypatch):
    # Replicate fits are one step each from shared row terms, so they run
    # serially in the calling process; there is no worker count to set.
    assert "workers" not in inspect.signature(bootstrap_fit).parameters

    def no_process(*args, **kwargs):
        raise AssertionError("bootstrap_fit must start no process")

    monkeypatch.setattr(multiprocessing.Process, "start", no_process)
    monkeypatch.setattr(bootstrap, "_fork_map", no_process)
    ens = bootstrap_fit(small_sample, small_fit[0], n_draws=3)
    assert sorted(ens.draws) == [0, 1, 2] and ens.failed == {}


def test_bootstrap_fit_validates_and_fits_nothing(small_sample, small_fit, monkeypatch):
    # The sample is the base fit's, validated when the base was fitted, and
    # a replicate steps from the base fit: no replicate validates its sample
    # again or fits a marginal or a cell.
    calls = []

    def counted(name, real):
        def call(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)
        return call

    for module, name in ((dependence, "validate"), (dependence, "fit_marginal"),
                         (dependence, "fit_dependence"), (marginals, "fit_marginal")):
        monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
    ens = bootstrap_fit(small_sample, small_fit[0], n_draws=10)
    assert len(ens.draws) == 10 and calls == []


@pytest.mark.parametrize("weighted", [False, True])
def test_unit_draw_replicates_the_base_fit(weighted):
    # The replicate under a draw of ones is the base fit's own estimator, so
    # it reproduces the base coefficients, cells and tail scales; a weighted
    # base fit's replicates carry its weights times their draw.
    s = generate(bench_spec(2000, 3))
    sw = np.where(s.x[:, 1] > 0.5, 3.0, 1.0) if weighted else None
    base = fit_bdr(s, build_grid(s, 5), weights=sw)
    ready = _ReplicateBase(s, base)
    fit = ready.replicate(np.ones(s.n))
    for outcome in ("y", "w"):
        got, own = getattr(fit, f"{outcome}_marginal"), getattr(base, f"{outcome}_marginal")
        np.testing.assert_allclose(got.coef, own.coef, rtol=0, atol=1e-9)
        np.testing.assert_allclose([got.alpha_lo, got.alpha_hi], [own.alpha_lo, own.alpha_hi],
                                   rtol=0, atol=1e-9)
    np.testing.assert_allclose(fit.dep_coef, base.dep_coef, rtol=0, atol=1e-9)
    draw = draw_weights(s.n, WeightScheme(), 0)
    want = draw if sw is None else sw * draw
    np.testing.assert_array_equal(ready.replicate(draw).weights, want)


def repro_group_1():
    """Group 1 of `bdreg simulate --n 2000 --seed 1` with the perfbench
    decompose-boot coefficients, fitted on the grid of `decompose
    --grid-points 3 --tail-min-obs 5`. Its multinomial replicate 9 steps
    the upper w tail to a non-positive scale."""
    s = generate(DgpSpec(y_coef=np.array([0.4, 0.6, -0.2]), w_coef=np.array([0.1, 0.7, 0.3]),
                         dep_coef=np.array([0.2, 0.3, -0.1]), n=2000, seed=2))
    return s, fit_bdr(s, build_grid(s, 3, tail_min_obs=5))


def tail_refits(monkeypatch, fail_for=None, reason=""):
    """Record each tail refit made under weights (the replicates' fallback)
    as (direction, weights); raise TailError(reason) for weights fail_for."""
    calls, real = [], marginals.fit_tail_scale

    def recorded(values, x, coef_anchor, anchor, direction, min_obs, weights=None):
        if weights is not None:
            calls.append((direction, weights))
            if fail_for is not None and np.array_equal(weights, fail_for):
                raise TailError(reason)
        return real(values, x, coef_anchor, anchor, direction, min_obs, weights=weights)

    monkeypatch.setattr(marginals, "fit_tail_scale", recorded)
    return calls


def test_tail_with_a_non_positive_step_is_refitted(monkeypatch):
    # One step from the base fit leaves replicate 9's upper w tail scale at
    # or below zero; that tail alone is refitted under the replicate's
    # weights at its stepped anchor, and the replicate survives.
    s, base = repro_group_1()
    scheme = WeightScheme("multinomial")
    calls = tail_refits(monkeypatch)
    ens = bootstrap_fit(s, base, n_draws=10, scheme=scheme, group=1)
    assert sorted(ens.draws) == list(range(10)) and ens.failed == {}
    assert [d for d, _ in calls] == ["upper"]
    np.testing.assert_array_equal(calls[0][1], draw_weights(s.n, scheme, 9, 1))
    refit = marginals.fit_tail_scale(s.w, s.x, ens.draws[9].w_marginal.coef[-1],
                                     float(base.grid.w_body[-1]), "upper", 5,
                                     weights=ens.draws[9].weights)
    assert ens.draws[9].w_marginal.alpha_hi == refit.alpha > 0
    assert ens.draws[9].w_marginal.r0_hi == refit.r0


def test_multinomial_weights_are_resampling_counts():
    # Counts of n draws from n rows sum to n, so the rescaling to mean one
    # leaves them integers; rows never drawn get weight zero.
    scheme = WeightScheme("multinomial", seed=4)
    w = draw_weights(200, scheme, replicate_id=3, group=1)
    assert np.all(w == np.round(w)) and np.all(w >= 0) and np.any(w == 0)
    assert w.mean() == 1.0
    np.testing.assert_array_equal(w, draw_weights(200, scheme, 3, 1))
    assert not np.array_equal(w, draw_weights(200, scheme, 3, 0))
    assert not np.array_equal(w, draw_weights(200, scheme, 4, 1))


@pytest.mark.parametrize("kind,seed,match", [
    ("bayesian", 0, "unknown weight scheme"),
    ("exponential", -1, "non-negative"),
])
def test_weight_scheme_rejects_unknown_kind_and_negative_seed(kind, seed, match):
    # numpy's SeedSequence takes only non-negative entropy, so a negative
    # seed must fail here, not at the first replicate.
    with pytest.raises(InferenceError, match=match):
        WeightScheme(kind, seed=seed)


@pytest.mark.parametrize("n_draws", [0, -3])
def test_bootstrap_fit_rejects_fewer_than_one_draw(n_draws, small_sample, small_fit):
    with pytest.raises(InferenceError, match="n_draws must be at least 1"):
        bootstrap_fit(small_sample, small_fit[0], n_draws=n_draws)


def test_one_failed_replicate_of_ten_is_named_with_its_cause(monkeypatch):
    # A replicate fails only in its marginals, here replicate 9's upper w
    # tail: its one step leaves a non-positive scale, and its refit fails
    # too. Nine survivors are too few for robust_se_map, so the run fails
    # here, naming the replicate and why it failed.
    s, base = repro_group_1()
    scheme = WeightScheme("multinomial")
    reason = ("tail scale non-positive at every admissible upper-tail point "
              "(last alpha=-0.1 at r0=2)")
    tail_refits(monkeypatch, fail_for=draw_weights(s.n, scheme, 9, 1), reason=reason)
    why = f"marginal w tail fit failed: {reason}"
    with pytest.raises(InferenceError) as info:
        bootstrap_fit(s, base, n_draws=10, scheme=scheme, group=1)
    assert str(info.value) == f"1 of 10 bootstrap replicates failed, leaving 9 (replicate 9: {why})"
    # With twelve draws eleven survive, which is enough.
    ens = bootstrap_fit(s, base, n_draws=12, scheme=scheme, group=1)
    assert ens.failed == {9: why}
    assert sorted(ens.draws) == [r for r in range(12) if r != 9]


def test_replicate_with_a_one_sided_body_threshold_fails_as_a_refit_does(small_sample,
                                                                        small_fit):
    # Weights that leave no mass below the lowest body threshold fail the
    # replicate with fit_marginal's reason for that threshold.
    base = small_fit[0]
    weights = np.where(small_sample.y <= base.grid.y_body[0], 0.0, 1.0)
    with pytest.raises(EstimationError) as refit:
        fit_marginal(small_sample.y, small_sample.x, base.grid, "y", weights=weights)
    with pytest.raises(EstimationError) as step:
        _ReplicateBase(small_sample, base).replicate(weights)
    assert str(step.value) == str(refit.value) == (
        f"marginal y fit failed at grid point {base.grid.y_body[0]:.6g}: "
        "indicator is one-sided at this threshold (no mass on one side)")


def test_replicate_cell_steps_from_its_base_estimate():
    # The data and grid of `bdreg simulate --n 1200 --seed 7 --two-groups`,
    # then `bdreg transition --covariates x1,x2 --group-col group
    # --replicates 10 --decompose`, group 0. Refitted from the previous
    # cell's estimate, replicate 9 failed at (1.37125, 1.06914), a cell with
    # no empty quadrant. One Newton step from the base estimate of the same
    # cell lands within 1e-6 per observation of the optimum that a refit
    # from there converges to, and every other cell of the replicate is
    # finite.
    def spec(seed):  # the simulate defaults
        return DgpSpec(y_coef=np.array([0.0, 0.5, -0.3]), w_coef=np.array([0.0, 0.8, 0.2]),
                       dep_coef=np.array([0.3, 0.4, -0.2]), n=1200, seed=seed)

    s, other = generate(spec(7)), generate(spec(8))
    quintiles = [0.2, 0.4, 0.6, 0.8]
    grid = build_grid(s, 12)
    grid = grid_from_values(
        np.union1d(grid.y_grid, empirical_quantile(np.r_[s.y, other.y], quintiles)),
        np.union1d(grid.w_grid, empirical_quantile(np.r_[s.w, other.w], quintiles)),
    )
    base = fit_bdr(s, grid)
    assert base.n_failed == 0
    fit = _ReplicateBase(s, base).replicate(draw_weights(s.n, WeightScheme(), 9))
    assert np.all(np.isfinite(fit.dep_coef))

    cell = (np.flatnonzero(np.round(grid.y_body, 5) == 1.37125)[0],
            np.flatnonzero(np.round(grid.w_body, 5) == 1.06914)[0])
    a = base.y_marginal.index(grid.y_body[cell[0]], s.x)
    b = base.w_marginal.index(grid.w_body[cell[1]], s.x)
    args = (s.x, a, b, s.y <= grid.y_body[cell[0]], s.w <= grid.w_body[cell[1]], fit.weights)
    refit = refit_cell(args, base.dep_coef[cell])
    assert 0.0 <= refit.loglik - _CellKernel(*args).evaluate(fit.dep_coef[cell])[0] <= 1e-6


@pytest.mark.parametrize("kind", ["exponential", "multinomial"])
def test_replicate_marginals_agree_with_refits_under_their_weights(kind):
    # A replicate's marginals take one Fisher-scoring step from the base
    # fit, first-order equivalent to refitting them by fit_marginal under the
    # replicate's weights. Over 30 draws, the one-step and refit estimates of
    # every coefficient and tail scale differ by at most 0.15 of the refit's
    # SD over the draws (rms), and every tail keeps the base fit's auxiliary
    # point, as every refit here does.
    s = generate(bench_spec(1000, 13))
    grid = build_grid(s, n_points=8)
    base = fit_bdr(s, grid)
    ens = bootstrap_fit(s, base, n_draws=30, scheme=WeightScheme(kind))
    assert sorted(ens.draws) == list(range(30))
    one, refit = [], []
    for fit in ens.draws.values():
        for outcome, values in (("y", s.y), ("w", s.w)):
            got = getattr(fit, f"{outcome}_marginal")
            want = fit_marginal(values, s.x, grid, outcome, weights=fit.weights)
            one.append(np.r_[got.coef.ravel(), got.alpha_lo, got.alpha_hi])
            refit.append(np.r_[want.coef.ravel(), want.alpha_lo, want.alpha_hi])
            own = getattr(base, f"{outcome}_marginal")
            assert (got.r0_lo, got.r0_hi) == (want.r0_lo, want.r0_hi) == (own.r0_lo, own.r0_hi)
    one, refit = np.array(one), np.array(refit)
    rms = np.sqrt(np.mean((one - refit) ** 2, axis=0))
    assert np.all(rms <= 0.15 * refit.std(axis=0, ddof=1))


def test_replicate_body_threshold_takes_the_first_fisher_step(small_sample, small_fit):
    # At each body threshold, a replicate's coefficients are the base
    # coefficients plus one Fisher-scoring step under its weights: the point
    # fit_probit_dr's Newton loop tries first from the base estimate.
    base = small_fit[0]
    ready = _ReplicateBase(small_sample, base)
    for kind, rep in (("exponential", 0), ("multinomial", 1)):
        w = draw_weights(small_sample.n, WeightScheme(kind), rep)
        fit = ready.replicate(w)
        for outcome, values in (("y", small_sample.y), ("w", small_sample.w)):
            own = getattr(base, f"{outcome}_marginal")
            for k, r in enumerate(own.body):
                below = (values <= r).astype(float)
                _, grad, info = _probit_evaluate(small_sample.x, below, w, None, own.coef[k])
                np.testing.assert_allclose(getattr(fit, f"{outcome}_marginal").coef[k],
                                           own.coef[k] + np.linalg.solve(info, grad),
                                           rtol=0, atol=1e-12)


def test_ensemble_apply_names_replicates_lost_in_any_group():
    # Eleven draws per group, each group losing a different one: ten survive
    # in each group, but only nine are valid in both.
    def ensemble(lost):
        kept = [rep for rep in range(11) if rep != lost]
        return BootstrapEnsemble(n_requested=11, draws=dict.fromkeys(kept),
                                 failed={lost: f"cause {lost}"})

    with pytest.raises(InferenceError) as info:
        ensemble_apply({0: ensemble(2), 1: ensemble(5)}, lambda fits: 0.0)
    assert str(info.value) == (
        "9 bootstrap replicates are valid in every group, need at least 10 "
        "(group 0, replicate 2: cause 2; group 1, replicate 5: cause 5)"
    )
    assert sorted(ensemble_apply({1: ensemble(5)}, lambda fits: 0.0)) == [
        rep for rep in range(11) if rep != 5
    ]
    # No groups, or too few draws with none failed: no list of lost replicates.
    few = BootstrapEnsemble(n_requested=5, draws=dict.fromkeys(range(5)))
    for ensembles, valid in (({}, 0), ({0: few, 1: few}, 5)):
        with pytest.raises(InferenceError) as info:
            ensemble_apply(ensembles, lambda fits: 0.0)
        assert str(info.value) == (
            f"{valid} bootstrap replicates are valid in every group, need at least 10")


def test_ensemble_apply_on_workers_runs_a_closure_over_local_state():
    # A local closure does not pickle; forked workers inherit it. Results
    # must equal the serial ones, keyed in replicate-id order.
    ensembles = {g: BootstrapEnsemble(12, draws={rep: 10 * g + rep for rep in range(12)})
                 for g in (0, 1)}
    offset = np.linspace(0.0, 1.0, 3)

    def fn(fits):
        return fits[0] + fits[1] + offset, os.getpid()

    with pytest.raises((AttributeError, pickle.PicklingError)):
        pickle.dumps(fn)
    serial = ensemble_apply(ensembles, fn)
    pooled = ensemble_apply(ensembles, fn, workers=2)
    assert list(serial) == list(pooled) == list(range(12))
    for rep in serial:
        np.testing.assert_array_equal(serial[rep][0], pooled[rep][0])
    assert {pid for _, pid in serial.values()} == {os.getpid()}
    assert os.getpid() not in {pid for _, pid in pooled.values()}


def test_error_in_a_worker_reaches_the_caller():
    # Replicate 7 is in the second of the two shares of ids.
    ensemble = BootstrapEnsemble(10, draws={rep: rep for rep in range(10)})
    message = "no dependence estimate at grid pair (0.5, 0.25): its fit failed"

    def fn(fits):
        if fits[0] == 7:
            raise EstimationError(message, diagnostics={"cell": (0, 1)})

    with pytest.raises(EstimationError) as info:
        ensemble_apply({0: ensemble}, fn, workers=2)
    assert str(info.value) == message
    assert info.value.diagnostics == {"cell": (0, 1)}


def test_robust_se_map_matches_quantile_on_finite_draws():
    # 12 draws put the lower quartile 3/4 of the way between order
    # statistics, and heavy-tailed draws space those far apart, so the
    # interpolation must round as np.quantile's does to match exactly.
    stack = -np.exp(3.0 * np.random.default_rng(9).normal(size=(12, 4, 5)))
    want = [[robust_se(stack[:, i, j]) for j in range(5)] for i in range(4)]
    np.testing.assert_array_equal(robust_se_map(stack), want)


def test_robust_se_map_rejects_a_non_finite_draw():
    good = np.random.default_rng(5).normal(size=(MIN_DRAWS_FOR_INFERENCE + 3, 2, 3))
    np.testing.assert_array_equal(
        robust_se_map(good), [[robust_se(good[:, i, j]) for j in range(3)] for i in range(2)])
    for bad in (np.nan, np.inf, -np.inf):
        for where in ((0, 0, 0), (7, 1, 2), (12, 1, 0)):
            stack = good.copy()
            stack[where] = bad
            with pytest.raises(InferenceError) as info:
                robust_se_map(stack)
            assert str(info.value) == f"non-finite draw at index {list(where)}"
    for draws in (0, 1, MIN_DRAWS_FOR_INFERENCE - 1):
        with pytest.raises(InferenceError, match=f"at least {MIN_DRAWS_FOR_INFERENCE} draws"):
            robust_se_map(good[:draws])
