import re
from functools import partial

import numpy as np
import pytest
from scipy.special import ndtr, ndtri

from bdreg.data import Sample, build_grid, grid_from_values
from bdreg.dgp import DgpSpec, generate
from bdreg import marginals
from bdreg.exceptions import DataError, EstimationError, TailError
from bdreg.marginals import (
    _damped_newton,
    _newton_step,
    _probit_evaluate,
    fit_marginal,
    fit_probit_dr,
    fit_tail_scale,
)

from conftest import bench_spec


def two_covariate_probit(n, seed, coef=(0.3, -0.6, 0.9)):
    rng = np.random.default_rng(seed)
    x = np.column_stack([np.ones(n), rng.normal(size=n), rng.random(n)])
    p = ndtr(x @ np.asarray(coef))
    below = (rng.random(n) < p).astype(float)
    return x, below


class TestProbitFit:
    def test_intercept_only_half(self):
        x = np.ones((40, 1))
        below = np.r_[np.ones(20), np.zeros(20)]
        res = fit_probit_dr(x, below)
        assert abs(res.coef[0]) <= 1e-12

    def test_intercept_only_quantile(self):
        x = np.ones((400, 1))
        below = np.r_[np.ones(100), np.zeros(300)]
        res = fit_probit_dr(x, below)
        assert abs(res.coef[0] - ndtri(0.25)) <= 1e-8

    def test_two_covariate_dgp_recovery(self):
        # MC oracle: with n = 10000 the estimates sit well within 3 standard
        # errors of the truth (frozen from a 50-replication run; see
        # tests/oracles/compute_mc_oracles.py).
        coef = np.array([0.3, -0.6, 0.9])
        x, below = two_covariate_probit(10000, 42)
        res = fit_probit_dr(x, below)
        from _mc_oracles import ORACLES
        se = np.asarray(ORACLES["probit_two_covariate_se"])
        assert np.all(np.abs(res.coef - coef) <= 3.0 * se)

    def test_one_sided_threshold_errors(self):
        x = np.ones((30, 1))
        with pytest.raises(EstimationError, match="one-sided"):
            fit_probit_dr(x, np.ones(30))

    def test_weight_neutrality(self):
        x, below = two_covariate_probit(800, 3)
        base = fit_probit_dr(x, below)
        ones = fit_probit_dr(x, below, weights=np.ones(800))
        assert np.max(np.abs(base.coef - ones.coef)) <= 1e-10

    def test_weight_scale_invariance(self):
        x, below = two_covariate_probit(800, 4)
        a = fit_probit_dr(x, below, weights=np.full(800, 1.0 / 800))
        b = fit_probit_dr(x, below, weights=np.full(800, 1.0))
        assert np.max(np.abs(a.coef - b.coef)) <= 1e-10

    @pytest.mark.parametrize("bad", ["nan", "negative", "zero_total", "short"])
    def test_bad_weights_raise(self, bad):
        x, below = two_covariate_probit(200, 6)
        weights = {
            "nan": np.r_[np.nan, np.ones(199)],
            "negative": np.r_[-0.5, np.ones(199)],
            "zero_total": np.zeros(200),
            "short": np.ones(199),
        }[bad]
        with pytest.raises(DataError, match="weights"):
            fit_probit_dr(x, below, weights=weights)

    def test_score_matches_finite_differences(self):
        rng = np.random.default_rng(11)
        x, below = two_covariate_probit(500, 5)
        evaluate = partial(_probit_evaluate, x, below, np.ones(500), None)
        h = 1e-6
        for _ in range(20):
            coef = rng.normal(scale=0.7, size=3)
            g = evaluate(coef)[1]
            fd = np.array([
                (evaluate(coef + h * e)[0] - evaluate(coef - h * e)[0]) / (2 * h)
                for e in np.eye(3)
            ])
            denom = np.maximum(np.abs(fd), 1e-8)
            assert np.max(np.abs(g - fd) / denom) <= 1e-6


    def test_newton_raises_when_no_step_raises_the_objective(self):
        # The score points downhill, so every halved step lowers the
        # objective and none is accepted: the gradient stays above TOL_GRAD.
        start = np.array([0.5, -0.25])

        def evaluate(coef):
            return -float(np.sum(coef)), np.ones(2), np.eye(2)

        with pytest.raises(EstimationError, match="stub fit did not converge") as info:
            _damped_newton(evaluate, start, "stub fit")
        assert info.value.diagnostics == {
            "grad_norm": 1.0, "iterations": 1, "last_coef": [0.5, -0.25],
        }


class TestTailScale:
    def test_unit_gaussian_alpha_near_one(self):
        from _mc_oracles import ORACLES
        rng = np.random.default_rng(21)
        y = rng.standard_normal(10000)
        x = np.ones((10000, 1))
        anchor = float(np.quantile(y, 0.98, method="inverted_cdf"))
        coef = fit_probit_dr(x, (y <= anchor).astype(float)).coef
        tail = fit_tail_scale(y, x, coef, anchor, "upper", min_obs=30)
        assert abs(tail.alpha - 1.0) <= 3.0 * ORACLES["tail_alpha_unit_se"]

    def test_scale_two_gaussian_alpha_near_half(self):
        from _mc_oracles import ORACLES
        rng = np.random.default_rng(22)
        y = 2.0 * rng.standard_normal(10000)
        x = np.ones((10000, 1))
        anchor = float(np.quantile(y, 0.98, method="inverted_cdf"))
        coef = fit_probit_dr(x, (y <= anchor).astype(float)).coef
        tail = fit_tail_scale(y, x, coef, anchor, "upper", min_obs=30)
        assert abs(tail.alpha - 0.5) <= 3.0 * ORACLES["tail_alpha_scale2_se"]

    def test_too_few_tail_observations(self):
        rng = np.random.default_rng(23)
        y = rng.standard_normal(200)
        anchor = float(np.quantile(y, 0.98, method="inverted_cdf"))
        x = np.ones((200, 1))
        coef = fit_probit_dr(x, (y <= anchor).astype(float)).coef
        with pytest.raises(DataError, match="admissible"):
            fit_tail_scale(y, x, coef, anchor, "upper", min_obs=30)

    def test_lower_tail(self):
        rng = np.random.default_rng(24)
        y = rng.standard_normal(10000)
        x = np.ones((10000, 1))
        anchor = float(np.quantile(y, 0.02, method="inverted_cdf"))
        coef = fit_probit_dr(x, (y <= anchor).astype(float)).coef
        tail = fit_tail_scale(y, x, coef, anchor, "lower", min_obs=30)
        assert tail.alpha > 0 and tail.r0 < anchor

    def test_admissibility_counts(self):
        # exactly min_obs - 1 observations beyond the anchor: no candidate
        y = np.r_[np.linspace(0, 1, 100), np.linspace(2, 3, 29)]
        x = np.ones((y.size, 1))
        with pytest.raises(DataError):
            fit_tail_scale(y, x, np.array([1.0]), 1.0, "upper", min_obs=30)


class TestMarginalFit:
    def test_shape_contract(self, small_sample):
        grid = build_grid(small_sample, n_points=5)
        fit = fit_marginal(small_sample.y, small_sample.x, grid, "y")
        assert fit.coef.shape == (grid.y_body.size, small_sample.d_x)
        assert np.all(np.isfinite(fit.coef))
        assert fit.alpha_lo > 0 and fit.alpha_hi > 0

    def test_intercept_only_matches_empirical_cdf(self):
        rng = np.random.default_rng(31)
        y = rng.standard_normal(3000)
        s = Sample(y=y, w=y, x=np.ones((3000, 1)))
        grid = build_grid(s, n_points=8)
        fit = fit_marginal(s.y, s.x, grid, "y")
        for i, r in enumerate(fit.body):
            frac = np.mean(y <= r)
            assert abs(ndtr(fit.coef[i, 0]) - frac) <= 1e-10

    def test_weight_neutrality(self, small_sample):
        grid = build_grid(small_sample, n_points=5)
        a = fit_marginal(small_sample.y, small_sample.x, grid, "y")
        b = fit_marginal(
            small_sample.y, small_sample.x, grid, "y",
            weights=np.ones(small_sample.n),
        )
        assert np.max(np.abs(a.coef - b.coef)) <= 1e-10
        assert abs(a.alpha_lo - b.alpha_lo) <= 1e-10
        assert abs(a.alpha_hi - b.alpha_hi) <= 1e-10

    def test_empirical_cdf_within_sampling_error(self):
        spec = bench_spec(4000, 33)
        s = generate(spec)
        grid = build_grid(s, n_points=8)
        fit = fit_marginal(s.y, s.x, grid, "y")
        for i, r in enumerate(fit.body):
            model = float(np.mean(ndtr(s.x @ fit.coef[i])))
            emp = float(np.mean(s.y <= r))
            assert abs(model - emp) <= 3.0 * np.sqrt(emp * (1 - emp) / s.n) + 5e-3

    @pytest.mark.parametrize("scale,shift", [(1e-3, 0.0), (100.0, 5e4), (2e4, 5e4)])
    def test_fit_follows_the_units_of_the_outcome(self, scale, shift):
        # Outcomes in other units (earnings in dollars) give the same body
        # fits and tail scales in the new units. Each tail fit used to start
        # from alpha = 1, where such outcomes saturate the index: it failed
        # to converge at scale 100 and stopped at alpha = 1 at 2e4.
        s = generate(bench_spec(2000, 3))
        unit = fit_marginal(s.y, s.x, build_grid(s), "y")
        y = scale * s.y + shift
        fit = fit_marginal(y, s.x, build_grid(Sample(y=y, w=y, x=s.x)), "y")
        np.testing.assert_array_equal(fit.coef, unit.coef)
        for alpha, want in ((fit.alpha_lo, unit.alpha_lo), (fit.alpha_hi, unit.alpha_hi)):
            assert abs(alpha * scale - want) <= 1e-12 * want

    def test_failed_body_point_names_its_outcome_and_point(self):
        # The first body point lies below every observation, so its
        # indicator is one-sided; the probit's diagnostics come along.
        rng = np.random.default_rng(61)
        y = rng.standard_normal(500)
        x = np.ones((500, 1))
        low = y.min() - 1.0
        grid = grid_from_values([low - 1.0, low, 0.0, y.max()], [-1.0, 0.0, 1.0])
        with pytest.raises(EstimationError, match=re.escape(
                f"marginal y fit failed at grid point {low:.6g}: indicator is one-sided")) as info:
            fit_marginal(y, x, grid, "y")
        assert type(info.value) is EstimationError
        assert info.value.diagnostics == {"mass_below": 0.0, "mass_above": 500.0}

    def test_tail_error_keeps_its_type_and_names_its_outcome(self, monkeypatch):
        # Anchor coefficients raised by 10 put every row below the anchor at
        # zero shift, so the upper tail fits a negative scale at every
        # admissible point (the lower one still fits a positive scale).
        rng = np.random.default_rng(62)
        y = rng.standard_normal(2000)
        x = np.ones((2000, 1))
        grid = build_grid(Sample(y=y, w=y, x=x), n_points=6)

        def raised_anchor(values, x, coef_anchor, *args, **kwargs):
            return fit_tail_scale(values, x, coef_anchor + 10.0, *args, **kwargs)

        monkeypatch.setattr(marginals, "fit_tail_scale", raised_anchor)
        with pytest.raises(TailError, match="^marginal w tail fit failed: tail scale "
                                            "non-positive at every admissible upper-tail"):
            fit_marginal(y, x, grid, "w")


class TestNewtonStep:
    def test_singular_system_takes_the_gradient(self):
        grad = np.array([1.0, -2.0])
        np.testing.assert_array_equal(_newton_step(np.zeros((2, 2)), grad), grad)

    def test_singular_system_in_a_stack_takes_its_gradient(self):
        # The stack's solve fails as a whole; the other systems still solve.
        info = np.stack([2.0 * np.eye(2), np.zeros((2, 2)), np.diag([4.0, 0.5])])
        grad = np.array([[2.0, 4.0], [1.0, -1.0], [2.0, 1.0]])
        np.testing.assert_array_equal(_newton_step(info, grad),
                                      [[1.0, 2.0], [1.0, -1.0], [0.5, 2.0]])

    def test_non_finite_solution_takes_the_gradient(self):
        # A pivot of 1e-308 is not singular to the solver, but the step
        # overflows to inf.
        tiny = np.diag([1e-308, 1.0])
        grad = np.array([1e10, 3.0])
        np.testing.assert_array_equal(_newton_step(tiny, grad), grad)
        solved = _newton_step(np.stack([2.0 * np.eye(2), tiny]), np.stack([grad, grad]))
        np.testing.assert_array_equal(solved, [grad / 2.0, grad])


class TestMarginalIndex:
    @pytest.fixture(scope="class")
    def fitted(self):
        rng = np.random.default_rng(41)
        n = 4000
        x = np.column_stack([np.ones(n), rng.random(n)])
        y = x @ np.array([0.1, 0.4]) + rng.standard_normal(n)
        s = Sample(y=y, w=y, x=x)
        grid = build_grid(s, n_points=8)
        return fit_marginal(y, x, grid, "y"), x

    def test_anchor_exact(self, fitted):
        fit, x = fitted
        r = fit.anchor_hi
        np.testing.assert_allclose(
            fit.index(r, x[:5]), x[:5] @ fit.coef[-1], rtol=0, atol=0
        )

    def test_affine_extrapolation(self, fitted):
        fit, x = fitted
        h = 0.37
        got = fit.index(fit.anchor_hi + h, x[:5])
        want = x[:5] @ fit.coef[-1] + h * fit.alpha_hi
        np.testing.assert_allclose(got, want, atol=1e-14)

    def test_continuity_at_both_anchors(self, fitted):
        fit, x = fitted
        rng = np.random.default_rng(0)
        rows = x[rng.integers(0, x.shape[0], size=100)]
        for anchor in (fit.anchor_lo, fit.anchor_hi):
            at = fit.index(anchor, rows)
            above = fit.index(anchor + 1e-13, rows)
            below = fit.index(anchor - 1e-13, rows)
            assert np.max(np.abs(at - above)) <= 1e-12
            assert np.max(np.abs(at - below)) <= 1e-12

    def test_infinite_sentinels(self, fitted):
        fit, x = fitted
        assert np.all(np.isneginf(fit.index(-np.inf, x[:3])))
        assert np.all(np.isposinf(fit.index(np.inf, x[:3])))

    def test_warm_cold_equivalence(self):
        spec = bench_spec(2000, 55)
        s = generate(spec)
        grid = build_grid(s, n_points=6)
        warm = fit_marginal(s.y, s.x, grid, "y")
        cold = np.array([
            fit_probit_dr(s.x, (s.y <= r).astype(float)).coef for r in grid.y_body
        ])
        assert np.max(np.abs(warm.coef - cold)) <= 1e-8
