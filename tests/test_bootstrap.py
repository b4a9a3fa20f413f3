import dataclasses

import numpy as np
import pytest

from bdreg import bootstrap
from bdreg.bootstrap import (
    MIN_DRAWS_FOR_INFERENCE,
    BootstrapEnsemble,
    WeightScheme,
    _run_replicate,
    bootstrap_fit,
    draw_weights,
    ensemble_apply,
    robust_se,
    robust_se_map,
)
from bdreg.data import build_grid, empirical_quantile, grid_from_values
from bdreg.dependence import fit_bdr
from bdreg.dgp import DgpSpec, generate
from bdreg.exceptions import InferenceError

from conftest import bench_spec


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


@pytest.mark.parametrize("n_draws", [0, -3])
def test_bootstrap_fit_rejects_fewer_than_one_draw(n_draws, small_sample, small_fit):
    with pytest.raises(InferenceError, match="n_draws must be at least 1"):
        bootstrap_fit(small_sample, small_fit[0], n_draws=n_draws)


def test_one_failed_replicate_of_ten_is_named_with_its_cause(small_sample, small_fit,
                                                             monkeypatch):
    # Nine survivors are too few for robust_se_map, so the run fails here,
    # naming the replicate, its first failed grid pair and why it failed.
    base = small_fit[0]
    failing = draw_weights(small_sample.n, WeightScheme(), 9)

    def fit_failing_replicate_9(sample, grid, dep_cols, weights, base):
        if np.array_equal(weights, failing):
            return dataclasses.replace(base, failures=[
                (1.5, 0.25, "dependence fit did not converge"),
                (2.5, 0.25, "dependence fit did not converge"),
            ])
        return base

    monkeypatch.setattr(bootstrap, "fit_bdr", fit_failing_replicate_9)
    reason = "2 grid cell(s) failed, first at (1.5, 0.25): dependence fit did not converge"
    with pytest.raises(InferenceError) as info:
        bootstrap_fit(small_sample, base, n_draws=10)
    assert str(info.value) == f"1 of 10 bootstrap replicates failed, leaving 9 (replicate 9: {reason})"
    # With twelve draws eleven survive, which is enough.
    ens = bootstrap_fit(small_sample, base, n_draws=12)
    assert ens.failed == {9: reason}
    assert sorted(ens.draws) == [r for r in range(12) if r != 9]


def test_replicate_cell_converges_from_its_base_estimate():
    # The data and grid of `bdreg simulate --n 1200 --seed 7 --two-groups`,
    # then `bdreg transition --covariates x1,x2 --group-col group
    # --replicates 10 --decompose`, group 0. Started from the previous
    # cell's estimate, replicate 9 failed at (1.37125, 1.06914), a cell with
    # no empty quadrant; started from the base estimate of the same cell,
    # every cell converges.
    def spec(seed):  # the simulate defaults
        return DgpSpec(y_coef=np.array([0.0, 0.5, -0.3]), w_coef=np.array([0.0, 0.8, 0.2]),
                       dep_coef=np.array([0.3, 0.4, -0.2]), n=1200, seed=seed)

    s, other = generate(spec(7), group=0), generate(spec(8), group=1)
    quintiles = [0.2, 0.4, 0.6, 0.8]
    grid = build_grid(s, 12)
    grid = grid_from_values(
        np.union1d(grid.y_grid, empirical_quantile(np.r_[s.y, other.y], quintiles)),
        np.union1d(grid.w_grid, empirical_quantile(np.r_[s.w, other.w], quintiles)),
    )
    base = fit_bdr(s, grid)
    assert base.n_failed == 0
    rep, fit, reason = _run_replicate((s, WeightScheme(), base, 0, 9))
    assert (rep, reason) == (9, None)
    assert np.all(np.isfinite(fit.dep_coef))


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


def test_robust_se_map_matches_quantile_on_finite_draws():
    # 12 draws put the lower quartile 3/4 of the way between order
    # statistics, and heavy-tailed draws space those far apart, so the
    # interpolation must round as np.quantile's does to match exactly.
    stack = -np.exp(3.0 * np.random.default_rng(9).normal(size=(12, 4, 5)))
    want = [[robust_se(stack[:, i, j]) for j in range(5)] for i in range(4)]
    np.testing.assert_array_equal(robust_se_map(stack), want)


def test_robust_se_map_drops_non_finite_draws_per_cell():
    rng = np.random.default_rng(5)
    stack = rng.normal(size=(MIN_DRAWS_FOR_INFERENCE + 3, 2, 3))
    stack[[0, 4], 0, 1] = np.nan
    stack[7, 1, 2] = np.inf
    se = robust_se_map(stack)
    assert np.all(np.isfinite(se))
    for i in range(2):
        for j in range(3):
            assert se[i, j] == robust_se(stack[:, i, j])

    stack[:4, 1, 0] = np.nan  # this cell keeps fewer finite draws than needed
    with pytest.raises(InferenceError, match="valid draws"):
        robust_se_map(stack)
