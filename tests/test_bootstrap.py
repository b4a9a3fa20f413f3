import numpy as np
import pytest

from bdreg.bootstrap import MIN_DRAWS_FOR_INFERENCE, bootstrap_fit, robust_se, robust_se_map
from bdreg.data import build_grid
from bdreg.dependence import FitConfig
from bdreg.dgp import generate
from bdreg.exceptions import InferenceError

from conftest import bench_spec


def test_results_do_not_depend_on_workers():
    s = generate(bench_spec(400, 31))
    grid = build_grid(s, n_points=4)
    serial = bootstrap_fit(s, grid, FitConfig(), n_draws=3, workers=1)
    pooled = bootstrap_fit(s, grid, FitConfig(), n_draws=3, workers=2)
    assert sorted(serial.draws) == sorted(pooled.draws) == [0, 1, 2]
    assert serial.failed == pooled.failed == {}
    for rep in serial.draws:
        np.testing.assert_array_equal(serial.weights[rep], pooled.weights[rep])
        np.testing.assert_array_equal(serial.draws[rep].dep_coef, pooled.draws[rep].dep_coef)


@pytest.mark.parametrize("n_draws", [0, -3])
def test_bootstrap_fit_rejects_fewer_than_one_draw(n_draws):
    s = generate(bench_spec(400, 31))
    with pytest.raises(InferenceError, match="n_draws must be at least 1"):
        bootstrap_fit(s, build_grid(s, n_points=4), n_draws=n_draws)


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
