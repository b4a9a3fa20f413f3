import numpy as np
import pytest

from bdreg.data import body_lookup, build_grid
from bdreg.dependence import _CellKernel, fit_bdr
from bdreg.dgp import DgpSpec, generate
from bdreg.marginals import _damped_newton
from bdreg.normal import bvn_cdf, link_rho

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


def dep_coef_at(fit, y, w):
    """The dependence coefficients that serve (y, w): those of the nearest
    body point on each axis (the copy rule)."""
    return fit.dep_coef[body_lookup(fit.grid.y_body, y)[0],
                        body_lookup(fit.grid.w_body, w)[0]]


def refit_cell(args, start):
    """The dependence fit of one cell (args are fit_dependence's positional
    arguments, weights included) by damped Newton from start instead of
    zero: the refit reference for one-step replicates."""
    return _damped_newton(_CellKernel(*args).evaluate, start, "dependence fit")


def joint_cdf_rows(y_fit, w_fit, dep_fit, y, w, x):
    """Each covariate row's conditional joint CDF at (y, w), one row at a
    time: Phi2 of y_fit's y index, w_fit's w index and dep_fit's local
    correlation at (y, w), zero with dep_fit None. The point-by-point
    reference the batched functionals are checked against."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    a = y_fit.y_marginal.index(y, x)
    b = w_fit.w_marginal.index(w, x)
    if dep_fit is None:
        rho = np.zeros(x.shape[0])
    else:
        rho = link_rho(x[:, dep_fit.dep_cols] @ dep_coef_at(dep_fit, y, w))[0]
    return bvn_cdf(a, b, rho)


def bvn_density(a, b, rho):
    """The standard bivariate normal density phi2, from its closed form."""
    a, b, rho = (np.asarray(v, dtype=float) for v in (a, b, rho))
    det = 1.0 - rho * rho
    q = (a * a - 2.0 * rho * a * b + b * b) / det
    return np.exp(-0.5 * q) / (2.0 * np.pi * np.sqrt(det))
