import numpy as np
import pytest

from bdreg.data import build_grid
from bdreg.dependence import fit_bdr
from bdreg.dgp import DgpSpec, generate

# Canonical covariate-dependent specification used across the estimator tests:
# intercept + uniform(0,1) + binary(0.5) covariates feeding both locations and
# the dependence index.
BENCH_Y = np.array([0.2, 0.5, -0.3])
BENCH_W = np.array([-0.1, 0.8, 0.2])
BENCH_DEP = np.array([0.3, 0.4, -0.2])


def bench_spec(n, seed, dep_coef=None):
    return DgpSpec(
        y_coef=BENCH_Y,
        w_coef=BENCH_W,
        dep_coef=BENCH_DEP if dep_coef is None else np.asarray(dep_coef, float),
        n=n,
        seed=seed,
    )


@pytest.fixture(scope="session")
def small_sample():
    return generate(bench_spec(n=1500, seed=101))


@pytest.fixture(scope="session")
def small_fit(small_sample):
    grid = build_grid(small_sample, n_points=6)
    return fit_bdr(small_sample, grid), grid
