import os
import pickle
from statistics import NormalDist

import numpy as np
import pytest

from bdreg import dependence
from bdreg.bootstrap import (
    MIN_DRAWS_FOR_INFERENCE,
    BootstrapEnsemble,
    WeightScheme,
    _run_replicate,
    bootstrap_fit,
    draw_weights,
    ensemble_apply,
    robust_se_map,
)
from bdreg.data import build_grid, empirical_quantile, grid_from_values
from bdreg.dependence import _CellKernel, _ReplicateBase, fit_bdr
from bdreg.dgp import DgpSpec, generate
from bdreg.exceptions import EstimationError, InferenceError, TailError
from bdreg.marginals import fit_marginal

from conftest import bench_spec, refit_cell


def robust_se(draws) -> float:
    """The robust SE of one draw vector by np.quantile's rule: the
    interquartile range of the draws over that of the standard normal. The
    independent reference for robust_se_map's own quantiles."""
    q25, q75 = np.quantile(np.asarray(draws, dtype=float).ravel(), [0.25, 0.75])
    return float((q75 - q25) / (2.0 * NormalDist().inv_cdf(0.75)))


def test_results_do_not_depend_on_workers():
    s = generate(bench_spec(400, 31))
    base = fit_bdr(s, build_grid(s, n_points=4))
    serial = bootstrap_fit(s, base, n_draws=3, workers=1)
    pooled = bootstrap_fit(s, base, n_draws=3, workers=2)
    assert sorted(serial.draws) == sorted(pooled.draws) == [0, 1, 2]
    assert serial.failed == pooled.failed == {}
    for rep in serial.draws:
        np.testing.assert_array_equal(serial.draws[rep].weights, pooled.draws[rep].weights)
        np.testing.assert_array_equal(serial.draws[rep].dep_coef, pooled.draws[rep].dep_coef)


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


def test_one_failed_replicate_of_ten_is_named_with_its_cause(small_sample, small_fit,
                                                             monkeypatch):
    # A replicate fails only in its marginal refits, here replicate 9's upper
    # w tail. Nine survivors are too few for robust_se_map, so the run fails
    # here, naming the replicate and why it failed.
    base = small_fit[0]
    failing = draw_weights(small_sample.n, WeightScheme(), 9)
    reason = ("tail scale non-positive at every admissible upper-tail point "
              "(last alpha=-0.1 at r0=2)")
    real_fit_marginal = dependence.fit_marginal

    def fit_marginal_failing_replicate_9(values, x, grid, outcome, weights=None):
        if outcome == "w" and np.array_equal(weights, failing):
            raise TailError(reason)
        return real_fit_marginal(values, x, grid, outcome, weights=weights)

    monkeypatch.setattr(dependence, "fit_marginal", fit_marginal_failing_replicate_9)
    with pytest.raises(InferenceError) as info:
        bootstrap_fit(small_sample, base, n_draws=10)
    assert str(info.value) == f"1 of 10 bootstrap replicates failed, leaving 9 (replicate 9: {reason})"
    # With twelve draws eleven survive, which is enough.
    ens = bootstrap_fit(small_sample, base, n_draws=12)
    assert ens.failed == {9: reason}
    assert sorted(ens.draws) == [r for r in range(12) if r != 9]


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
    rep, fit, reason = _run_replicate(s, WeightScheme(), _ReplicateBase(s, base), 0, 9)
    assert (rep, reason) == (9, None)
    assert np.all(np.isfinite(fit.dep_coef))

    cell = (np.flatnonzero(np.round(grid.y_body, 5) == 1.37125)[0],
            np.flatnonzero(np.round(grid.w_body, 5) == 1.06914)[0])
    a = base.y_marginal.index(grid.y_body[cell[0]], s.x)
    b = base.w_marginal.index(grid.w_body[cell[1]], s.x)
    args = (s.x, a, b, s.y <= grid.y_body[cell[0]], s.w <= grid.w_body[cell[1]], fit.weights)
    refit = refit_cell(args, base.dep_coef[cell])
    assert 0.0 <= refit.loglik - _CellKernel(*args).evaluate(fit.dep_coef[cell])[0] <= 1e-6


@pytest.mark.parametrize("kind", ["exponential", "multinomial"])
def test_replicate_marginals_are_the_base_fits_code_under_its_weights(kind):
    # A replicate refits its marginals by the base fit's own call, so each
    # equals fit_marginal under the replicate's weights bit for bit. On the
    # bench design every tail keeps the base fit's auxiliary point.
    s = generate(bench_spec(1000, 13))
    grid = build_grid(s, n_points=8)
    base = fit_bdr(s, grid)
    ens = bootstrap_fit(s, base, n_draws=10, scheme=WeightScheme(kind))
    assert sorted(ens.draws) == list(range(10))
    for fit in ens.draws.values():
        for outcome, values in (("y", s.y), ("w", s.w)):
            got = getattr(fit, f"{outcome}_marginal")
            want = fit_marginal(values, s.x, grid, outcome, weights=fit.weights)
            np.testing.assert_array_equal(got.coef, want.coef)
            assert (got.alpha_lo, got.alpha_hi) == (want.alpha_lo, want.alpha_hi)
            own = getattr(base, f"{outcome}_marginal")
            assert (got.r0_lo, got.r0_hi) == (want.r0_lo, want.r0_hi) == (own.r0_lo, own.r0_hi)


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
