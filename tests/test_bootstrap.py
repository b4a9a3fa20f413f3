import numpy as np

from bdreg.bootstrap import bootstrap_fit
from bdreg.data import build_grid
from bdreg.dependence import FitConfig
from bdreg.dgp import generate

from conftest import bench_spec


def test_results_do_not_depend_on_workers():
    s = generate(bench_spec(400, 31))
    grid = build_grid(s, n_points=4)
    serial = bootstrap_fit(s, grid, FitConfig(), n_draws=3, workers=1)
    pooled = bootstrap_fit(s, grid, FitConfig(), n_draws=3, workers=2)
    assert serial.replicate_ids() == pooled.replicate_ids() == [0, 1, 2]
    assert serial.failed == pooled.failed == {}
    for rep in serial.replicate_ids():
        np.testing.assert_array_equal(serial.weights[rep], pooled.weights[rep])
        np.testing.assert_array_equal(serial.draws[rep].dep_coef, pooled.draws[rep].dep_coef)
