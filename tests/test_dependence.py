import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from bdreg import dependence, normal
from bdreg.bootstrap import WeightScheme, draw_weights
from bdreg.data import Sample, build_grid, grid_from_values
from bdreg.dependence import (
    CELL_FLOOR,
    _CellKernel,
    _positive_definite,
    _ReplicateBase,
    fit_bdr,
    fit_dependence,
)
from bdreg.dgp import DgpSpec, generate
from bdreg.exceptions import ConfigError, DataError, EstimationError
from bdreg.functionals import fitted_surface
from bdreg.marginals import _damped_newton
from bdreg.normal import bvn_cdf, link_rho

from conftest import bench_spec, bvn_density, dep_coef_at, refit_cell

ATANH_HALF = 0.5493061443340548


def balanced_quadrants(n11, n10, n01, n00):
    """Indicator pattern with the given cell counts and zero indices."""
    n = n11 + n10 + n01 + n00
    iy = np.r_[np.ones(n11 + n10), np.zeros(n01 + n00)]
    jw = np.r_[np.ones(n11), np.zeros(n10), np.ones(n01), np.zeros(n00)]
    x = np.ones((n, 1))
    zeros = np.zeros(n)
    return x, zeros, zeros, iy, jw


def naive_loglik(x_dep, a, b, dep, iy, jw):
    # direct four-call reimplementation of the quadrant likelihood
    u = x_dep @ dep
    rho = np.tanh(u)
    total = 0.0
    for i in range(x_dep.shape[0]):
        p11 = bvn_cdf(a[i], b[i], rho[i])
        p10 = bvn_cdf(a[i], -b[i], -rho[i])
        p01 = bvn_cdf(-a[i], b[i], -rho[i])
        p00 = bvn_cdf(-a[i], -b[i], rho[i])
        p = [p00, p01, p10, p11][int(2 * iy[i] + jw[i])]
        total += np.log(max(p, 1e-10))
    return total / x_dep.shape[0]


class TestQuadrantCells:
    """bvn_cdf's reflections give the four quadrant cells; the kernel's own
    cell, offset + sign * P, must match each of them."""

    @staticmethod
    def reflections(a, b, rho):
        # (11, 10, 01, 00): P(X <= a, Y <= b), P(X <= a, Y > b), ...
        return (bvn_cdf(a, b, rho), bvn_cdf(a, -b, -rho),
                bvn_cdf(-a, b, -rho), bvn_cdf(-a, -b, rho))

    def test_sum_to_one(self):
        rng = np.random.default_rng(1)
        a, b = rng.normal(size=200), rng.normal(size=200)
        rho = np.clip(rng.normal(scale=0.5, size=200), -0.99, 0.99)
        cells = self.reflections(a, b, rho)
        assert np.all(np.asarray(cells) >= 0)
        assert np.max(np.abs(sum(cells) - 1.0)) <= 1e-12
        x = np.ones((200, 1))
        for (iy, jw), cell in zip([(1, 1), (1, 0), (0, 1), (0, 0)], cells):
            kernel = _CellKernel(x, a, b, np.full(200, iy), np.full(200, jw))
            own = kernel.offset + kernel.sign * kernel.bvn.cdf(rho)
            assert np.max(np.abs(own - cell)) <= 1e-15

    def test_independence_quarters(self):
        cells = self.reflections(0.0, 0.0, 0.0)
        np.testing.assert_allclose(cells, 0.25, atol=1e-15)


class TestJointLoglik:
    def test_independence_at_zero_indices(self):
        x, a, b, iy, jw = balanced_quadrants(3, 3, 3, 3)
        ll = _CellKernel(x, a, b, iy, jw).evaluate(np.zeros(1))[0]
        assert abs(ll - np.log(0.25)) <= 1e-12

    def test_degenerate_weighting(self):
        rng = np.random.default_rng(2)
        n = 40
        x = np.ones((n, 1))
        a, b = rng.normal(size=n), rng.normal(size=n)
        iy = (rng.random(n) < 0.5).astype(float)
        jw = (rng.random(n) < 0.5).astype(float)
        w = np.zeros(n)
        w[17] = 1.0  # raw weights: the kernel scales them to mean one
        ll = _CellKernel(x, a, b, iy, jw, w).evaluate(np.array([0.2]))[0]
        single = _CellKernel(
            x[[17]], a[[17]], b[[17]], iy[[17]], jw[[17]]
        ).evaluate(np.array([0.2]))[0]
        assert abs(ll - single) <= 1e-12

    def test_matches_naive_reimplementation(self):
        rng = np.random.default_rng(3)
        n = 60
        x = np.column_stack([np.ones(n), rng.random(n)])
        a, b = rng.normal(size=n), rng.normal(size=n)
        iy = (rng.random(n) < 0.5).astype(float)
        jw = (rng.random(n) < 0.5).astype(float)
        dep = np.array([0.3, -0.4])
        got = _CellKernel(x, a, b, iy, jw).evaluate(dep)[0]
        want = naive_loglik(x, a, b, dep, iy, jw)
        assert abs(got - want) <= 1e-12


class TestDepScore:
    def test_zero_gradient_by_symmetry(self):
        x, a, b, iy, jw = balanced_quadrants(3, 3, 3, 3)
        g = _CellKernel(x, a, b, iy, jw).evaluate(np.zeros(1))[1]
        assert np.max(np.abs(g)) <= 1e-14

    def test_finite_difference_agreement(self):
        # States are data-coherent: indicators come from latent normals whose
        # correlation is the model's own value at the evaluation point, so no
        # observation sits in a floored cell and the identity is exact.
        rng = np.random.default_rng(4)
        n = 300
        x = np.column_stack([np.ones(n), rng.random(n), rng.random(n)])
        for _ in range(20):
            a, b = rng.uniform(-2.5, 2.5, size=n), rng.uniform(-2.5, 2.5, size=n)
            dep = rng.normal(scale=0.4, size=3)
            rho = np.tanh(x @ dep)
            z1 = rng.standard_normal(n)
            z2 = rho * z1 + np.sqrt(1 - rho * rho) * rng.standard_normal(n)
            iy = (z1 <= a).astype(float)
            jw = (z2 <= b).astype(float)
            h = 1e-6 * (1.0 + np.abs(dep))
            kernel = _CellKernel(x, a, b, iy, jw)
            g = kernel.evaluate(dep)[1]
            fd = np.array([
                (kernel.evaluate(dep + h[j] * e)[0]
                 - kernel.evaluate(dep - h[j] * e)[0]) / (2 * h[j])
                for j, e in enumerate(np.eye(3))
            ])
            denom = np.maximum(np.abs(fd), 1e-8)
            assert np.max(np.abs(g - fd) / denom) <= 1e-6

    def test_zero_at_fitted_optimum(self):
        x, a, b, iy, jw = balanced_quadrants(4, 2, 2, 4)
        res = fit_dependence(x, a, b, iy, jw)
        g = _CellKernel(x, a, b, iy, jw).evaluate(res.coef)[1]
        assert np.max(np.abs(g)) <= 1e-8


def cell_problems(sample, fit, weights=None):
    """Yield each body cell (iy, iw) of fit with its fit_dependence arguments,
    at fit's marginal indices."""
    x_dep = sample.x[:, fit.dep_cols]
    for iy, yv in enumerate(fit.grid.y_body):
        a = fit.y_marginal.index(yv, sample.x)
        below_y = (sample.y <= yv).astype(float)
        for iw, wv in enumerate(fit.grid.w_body):
            b = fit.w_marginal.index(wv, sample.x)
            yield (iy, iw), (x_dep, a, b, below_y, (sample.w <= wv).astype(float), weights)


def coherent_cell(seed, n=300):
    """A cell whose indicators are drawn from the model at its own dependence
    coefficients, so the likelihood is smooth and concave near them."""
    rng = np.random.default_rng(seed)
    x = np.column_stack([np.ones(n), rng.random(n), rng.random(n)])
    a, b = rng.uniform(-2.0, 2.0, size=n), rng.uniform(-2.0, 2.0, size=n)
    dep = np.array([0.4, 0.3, -0.2])
    rho = np.tanh(x @ dep)
    z1 = rng.standard_normal(n)
    z2 = rho * z1 + np.sqrt(1 - rho * rho) * rng.standard_normal(n)
    return x, a, b, dep, (z1 <= a).astype(float), (z2 <= b).astype(float)


class TestCellKernel:
    def test_information_is_negative_score_jacobian(self):
        x, a, b, dep, iy, jw = coherent_cell(8)
        kernel = _CellKernel(x, a, b, iy, jw)
        info = kernel.evaluate(dep)[2]
        np.linalg.cholesky(info)  # positive definite: no Fisher fallback here
        h = 1e-5
        jac = np.column_stack([
            (kernel.evaluate(dep + h * e)[1] - kernel.evaluate(dep - h * e)[1]) / (2 * h)
            for e in np.eye(3)
        ])
        np.testing.assert_allclose(info, -jac, rtol=1e-6, atol=1e-9)

    def test_fisher_fallback_where_observed_is_indefinite(self):
        # Indicators drawn without regard to the model, evaluated at a strong
        # correlation: the observed information has a negative eigenvalue
        # there, so the expected information stands in for it.
        rng = np.random.default_rng(173)
        n = 12
        x = np.column_stack([np.ones(n), rng.random(n)])
        a, b = rng.normal(size=n), rng.normal(size=n)
        iy = (rng.random(n) < 0.5).astype(float)
        jw = (rng.random(n) < 0.5).astype(float)
        dep = np.array([1.45, -0.24])
        kernel = _CellKernel(x, a, b, iy, jw)
        h = 1e-6
        jac = np.column_stack([
            (kernel.evaluate(dep + h * e)[1] - kernel.evaluate(dep - h * e)[1]) / (2 * h)
            for e in np.eye(2)
        ])
        assert np.linalg.eigvalsh(-(jac + jac.T) / 2)[0] < -0.05
        info = kernel.evaluate(dep)[2]
        rho, gprime = link_rho(x @ dep)
        cells = (bvn_cdf(a, b, rho), bvn_cdf(a, -b, -rho),
                 bvn_cdf(-a, b, -rho), bvn_cdf(-a, -b, rho))
        recip = sum(1.0 / np.maximum(c, CELL_FLOOR) for c in cells)
        dp = bvn_density(a, b, rho) * gprime
        fisher = (x * (recip * dp * dp)[:, None]).T @ x / n
        np.testing.assert_allclose(info, fisher, rtol=1e-10)
        assert np.all(np.linalg.eigvalsh(info) > 0)

    def test_floored_row_adds_nothing(self):
        # One observation whose own cell lies below CELL_FLOOR at every
        # correlation (P <= Phi(-6.4) < 1e-10), though its density is not
        # negligible against the floor: its log-likelihood term is constant,
        # so the fit, its score and its curvature are those of the other rows.
        x, a, b, _, iy, jw = coherent_cell(9)
        xc = np.vstack([x, [1.0, 0.5, 1.0]])
        ac, bc = np.r_[a, -6.4], np.r_[b, 0.0]
        iyc, jwc = np.r_[iy, 1.0], np.r_[jw, 1.0]
        res = fit_dependence(xc, ac, bc, iyc, jwc)
        assert res.grad_norm <= 1e-8
        ref = fit_dependence(x, a, b, iy, jw)
        assert np.max(np.abs(res.coef - ref.coef)) <= 1e-10
        kernel = _CellKernel(xc, ac, bc, iyc, jwc)
        assert kernel.bvn.cdf(link_rho(xc[-1] @ res.coef)[0])[-1] < CELL_FLOOR
        info = kernel.evaluate(res.coef)[2]
        assert np.all(np.linalg.eigvalsh(info) > 0)
        n = x.shape[0]
        own = _CellKernel(x, a, b, iy, jw).evaluate(res.coef)[2]
        np.testing.assert_allclose(info * (n + 1), own * n, rtol=1e-12)

    def test_one_plan_serves_cdf_and_density(self, monkeypatch):
        # One evaluation checks its correlations once: Phi2 and phi2 read the
        # same _CorrelationPlan, and the only clamps are the link's own and
        # the plan's.
        x, a, b, dep, iy, jw = coherent_cell(8)
        kernel = _CellKernel(x, a, b, iy, jw)
        seen, clamps, clamp = [], [], normal._clamp

        def recorded(method):
            def call(rho):
                seen.append(rho)
                return method(rho)
            return call

        def counted(rho):
            clamps.append(np.size(rho))
            return clamp(rho)

        monkeypatch.setattr(kernel.bvn, "cdf", recorded(kernel.bvn.cdf))
        monkeypatch.setattr(kernel.bvn, "pdf_drho", recorded(kernel.bvn.pdf_drho))
        monkeypatch.setattr(normal, "_clamp", counted)
        kernel.evaluate(dep)
        assert len(seen) == 2 and seen[0] is seen[1]
        assert isinstance(seen[0], normal._CorrelationPlan) and not seen[0].shared
        assert clamps == [x.shape[0]] * 2

    def test_indicators_must_be_binary(self):
        x, a, b, iy, jw = balanced_quadrants(3, 3, 3, 3)
        iy[0] = 0.5
        with pytest.raises(DataError, match="0 or 1"):
            _CellKernel(x, a, b, iy, jw)


class TestFitDependence:
    def test_third_quadrant_frequencies_give_half_correlation(self):
        # counts (1/3, 1/6, 1/6, 1/3) at zero indices: the arcsin identity
        # puts the maximizer exactly at rho = 1/2.
        x, a, b, iy, jw = balanced_quadrants(4, 2, 2, 4)
        res = fit_dependence(x, a, b, iy, jw)
        assert abs(res.coef[0] - ATANH_HALF) <= 1e-4

    def test_uniform_quadrants_give_zero(self):
        x, a, b, iy, jw = balanced_quadrants(3, 3, 3, 3)
        res = fit_dependence(x, a, b, iy, jw)
        assert abs(res.coef[0]) <= 1e-8

    def test_weight_scale_invariance(self):
        x, a, b, iy, jw = balanced_quadrants(5, 2, 3, 4)
        r1 = fit_dependence(x, a, b, iy, jw, weights=np.full(14, 1.0 / 14))
        r2 = fit_dependence(x, a, b, iy, jw, weights=np.ones(14))
        assert np.max(np.abs(r1.coef - r2.coef)) <= 1e-10

    def test_permutation_invariance(self):
        rng = np.random.default_rng(6)
        n = 500
        x = np.column_stack([np.ones(n), rng.random(n)])
        a, b = rng.normal(size=n), rng.normal(size=n)
        iy = (rng.random(n) < 0.6).astype(float)
        jw = (rng.random(n) < 0.4).astype(float)
        r1 = fit_dependence(x, a, b, iy, jw)
        perm = rng.permutation(n)
        r2 = fit_dependence(x[perm], a[perm], b[perm], iy[perm], jw[perm])
        assert np.max(np.abs(r1.coef - r2.coef)) <= 1e-10

    @pytest.mark.parametrize("kind,counts,sign", [
        pytest.param("concordant", (6, 0, 0, 6), 1.0, id="concordant"),
        pytest.param("discordant", (0, 6, 6, 0), -1.0, id="discordant"),
    ])
    def test_boundary_concordant_clamps(self, kind, counts, sign):
        x, a, b, iy, jw = balanced_quadrants(*counts)
        with pytest.warns(RuntimeWarning, match=kind):
            res = fit_dependence(x, a, b, iy, jw)
        assert res.boundary
        rho, _ = link_rho(res.coef[0])
        assert sign * rho >= 1.0 - 1e-6

    def test_start_independence(self):
        rng = np.random.default_rng(7)
        n = 400
        x = np.column_stack([np.ones(n), rng.random(n)])
        a, b = rng.normal(size=n), rng.normal(size=n)
        iy = (rng.random(n) < 0.5).astype(float)
        jw = (rng.random(n) < 0.5).astype(float)
        r1 = fit_dependence(x, a, b, iy, jw)
        r2 = refit_cell((x, a, b, iy, jw), np.full(2, 0.3))
        assert np.max(np.abs(r1.coef - r2.coef)) <= 1e-10

    def test_warm_start_near_optimum_polishes(self):
        # The start is where a BFGS pass once stopped, max-norm score 5.6e-7.
        # No Fisher-scoring step lowers the max-norm there, so a polish
        # judged on it stalled; the fit must reach the cold-start optimum.
        s = generate(bench_spec(n=1000, seed=2058931222))
        grid = build_grid(s, n_points=5)
        base = fit_bdr(s, grid)
        w = draw_weights(1000, WeightScheme(), 9, 0)
        yv, wv = grid.y_body[-1], grid.w_body[0]
        a = base.y_marginal.index(yv, s.x)
        b = base.w_marginal.index(wv, s.x)
        iy = (s.y <= yv).astype(float)
        jw = (s.w <= wv).astype(float)
        start = [0.3674908211267515, 0.18706410054358522, 0.06282829652203696]
        warm = refit_cell((s.x, a, b, iy, jw, w), start)
        cold = fit_dependence(s.x, a, b, iy, jw, weights=w)
        np.testing.assert_allclose(cold.coef, [0.36745870, 0.18711415, 0.06283511],
                                   atol=1e-8)
        assert np.max(np.abs(warm.coef - cold.coef)) <= 1e-9
        ready = _ReplicateBase(s, base)
        for rep in (9, 10):
            fit = ready.replicate(draw_weights(1000, WeightScheme(), rep, 0))
            assert fit.n_failed == 0
            assert np.all(np.isfinite(fit.dep_coef))


class TestFitBdr:
    def test_shape_and_tail_copying(self, small_fit):
        fit, grid = small_fit
        assert fit.dep_coef.shape == (grid.y_body.size, grid.w_body.size, 3)
        # off-grid queries copy the nearest body pair's coefficients
        corner = dep_coef_at(fit, grid.y_grid[-1] + 1.0, grid.w_grid[-1] + 1.0)
        np.testing.assert_array_equal(corner, fit.dep_coef[-1, -1])
        low = dep_coef_at(fit, -np.inf, -np.inf)
        np.testing.assert_array_equal(low, fit.dep_coef[0, 0])

    def test_phi_is_computed_once_per_body_threshold(self, monkeypatch):
        # The dependence cells share each body threshold's index rows and
        # their Phi: one _ndtr call of n elements per body threshold, 4 + 4
        # here, not two per cell (32). The fitted dependence stays below
        # 0.925 (checked), so no row takes the high-correlation branch, whose
        # own Phi depends on rho.
        s = generate(bench_spec(1000, 17))
        grid = build_grid(s, n_points=6)
        sizes, ndtr = [], normal._ndtr

        def counted(x):
            sizes.append(np.size(x))
            return ndtr(x)

        monkeypatch.setattr(normal, "_ndtr", counted)
        fit = fit_bdr(s, grid)
        assert fit.dep_coef.shape[:2] == (4, 4) and fit.n_failed == 0
        assert np.max(np.abs(np.tanh(fit.dep_coef @ s.x.T))) < 0.925
        assert sizes == [s.n] * (grid.y_body.size + grid.w_body.size)

    def test_failed_cell_raises_before_evaluation(self, small_fit, small_sample):
        fit, grid = small_fit
        broken = dataclasses.replace(fit, dep_coef=fit.dep_coef.copy())
        broken.dep_coef[0, 0] = np.nan
        with pytest.raises(EstimationError, match="grid pair"):
            fitted_surface(broken, small_sample)

    def test_mixed_tail_body_query(self, small_fit):
        fit, grid = small_fit
        mid_w = grid.w_body[1]
        got = dep_coef_at(fit, grid.y_grid[-1] + 5.0, mid_w)
        np.testing.assert_array_equal(got, fit.dep_coef[-1, 1])

    def test_independence_dgp_mean_abs_rho(self):
        from _mc_oracles import ORACLES
        s = generate(bench_spec(2000, 5042, dep_coef=[0.0, 0.0, 0.0]))
        grid = build_grid(s, n_points=6)
        fit = fit_bdr(s, grid)
        vals = []
        for iy in range(grid.y_body.size):
            for iw in range(grid.w_body.size):
                rho, _ = link_rho(s.x @ fit.dep_coef[iy, iw])
                vals.append(np.mean(np.abs(rho)))
        stat = float(np.mean(vals))
        ref = ORACLES["independence_mean_abs_rho"]
        assert stat <= ref["mean"] + 3.0 * ref["se"]

    def test_constant_rho_gaussian_dgp(self):
        # jointly Gaussian data: the local correlation is flat at tanh of the
        # dependence intercept
        rho = 0.5
        spec = DgpSpec(
            y_coef=np.zeros(1), w_coef=np.zeros(1),
            dep_coef=np.array([np.arctanh(rho)]), n=6000, seed=71, covariates=(),
        )
        s = generate(spec)
        grid = build_grid(s, n_points=7)
        fit = fit_bdr(s, grid)
        interior = fit.dep_coef[1:-1, 1:-1, 0]
        rhos = np.tanh(interior)
        assert np.max(np.abs(rhos - rho)) <= 0.08

    def test_dep_cols_subset(self):
        s = generate(bench_spec(1500, 72))
        grid = build_grid(s, n_points=5)
        fit = fit_bdr(s, grid, dep_cols=(0, 1))
        assert fit.dep_coef.shape[2] == 2
        assert fit.dep_cols == (0, 1)

    @pytest.mark.parametrize("dep_cols", [(0, 7), (), (-1,), (0, 0)])
    def test_bad_dep_cols_rejected(self, dep_cols):
        # Out of range, empty, negative (which numpy would read from the
        # end) and repeated (which splits one coefficient over two columns).
        s = generate(bench_spec(800, 3))
        with pytest.raises(ConfigError, match=r"distinct design columns in 0\.\.2"):
            fit_bdr(s, build_grid(s, n_points=5), dep_cols=dep_cols)

    def test_dependence_steps_stay_few(self, small_sample, small_fit):
        # Each cell refitted alone from zero gives the fit's estimate. Newton
        # steps on the observed information converge quadratically: 4 or 5
        # steps per cell here, where Fisher scoring took 127 over the 16 cells.
        fit, _ = small_fit
        assert fit.n_failed == 0
        for cell, args in cell_problems(small_sample, fit):
            res = fit_dependence(*args)
            np.testing.assert_allclose(res.coef, fit.dep_coef[cell], rtol=0, atol=1e-12)
            assert res.iterations <= 6

    def test_replicate_cells_step_toward_their_cold_start_optimum(self):
        # Started from the previous cell's estimate, cells (7, 1) and (7, 2)
        # of this replicate once stopped on saturation plateaus up to 8.7e-2
        # per observation below their optimum. A replicate cell now takes one
        # Newton step from the base estimate of the same cell, and in every
        # cell that step climbs toward the cold refit's optimum: it ends above
        # the base estimate, and below the optimum only by what the step
        # leaves (at most 5.6e-4 per observation here, 2e-6 in most cells).
        s = generate(bench_spec(800, 5))
        base = fit_bdr(s, build_grid(s, n_points=10))
        fit = _ReplicateBase(s, base).replicate(draw_weights(s.n, WeightScheme(), 0))
        for cell, args in cell_problems(s, base, fit.weights):
            kernel = _CellKernel(*args)
            got = kernel.evaluate(fit.dep_coef[cell])[0]
            assert kernel.evaluate(base.dep_coef[cell])[0] < got <= fit_dependence(*args).loglik

    def test_two_step_matches_profile_grid_search(self):
        # 200-observation intercept-only instance: brute-force profile search
        # over the dependence index against the two-step maximizer.
        spec = DgpSpec(
            y_coef=np.zeros(1), w_coef=np.zeros(1),
            dep_coef=np.array([0.4]), n=200, seed=73, covariates=(),
        )
        s = generate(spec)
        x = s.x
        # thresholds at sample medians
        ty, tw = float(np.median(s.y)), float(np.median(s.w))
        from bdreg.marginals import fit_probit_dr
        iy = (s.y <= ty).astype(float)
        jw = (s.w <= tw).astype(float)
        mu = fit_probit_dr(x, iy).coef
        nu = fit_probit_dr(x, jw).coef
        a = x @ mu
        b = x @ nu
        res = fit_dependence(x, a, b, iy, jw)

        deltas = np.arange(-3.0, 3.0 + 1e-12, 1e-4)
        # intercept-only: one bvn evaluation per quadrant and delta
        rho = np.tanh(deltas)
        n11 = float(np.sum(iy * jw)); n10 = float(np.sum(iy * (1 - jw)))
        n01 = float(np.sum((1 - iy) * jw)); n00 = float(np.sum((1 - iy) * (1 - jw)))
        av, bv = a[0], b[0]
        ll = (
            n11 * np.log(np.maximum(bvn_cdf(av, bv, rho), 1e-10))
            + n10 * np.log(np.maximum(bvn_cdf(av, -bv, -rho), 1e-10))
            + n01 * np.log(np.maximum(bvn_cdf(-av, bv, -rho), 1e-10))
            + n00 * np.log(np.maximum(bvn_cdf(-av, -bv, rho), 1e-10))
        )
        brute = deltas[np.argmax(ll)]
        assert abs(res.coef[0] - brute) <= 1e-3

    def test_failed_cell_is_recorded_and_stays_nan_in_its_replicates(self, monkeypatch):
        s = generate(bench_spec(1500, 74))
        grid = build_grid(s, n_points=5)
        clean = fit_bdr(s, grid)
        assert clean.n_failed == 0
        yv, wv = grid.y_body[1], grid.w_body[1]
        real_fit_dependence = dependence.fit_dependence

        def fail_at_pair(x_dep, a, b, below_y, below_w, **kwargs):
            if np.array_equal(below_y, s.y <= yv) and np.array_equal(below_w, s.w <= wv):
                raise EstimationError("dependence fit did not converge")
            return real_fit_dependence(x_dep, a, b, below_y, below_w, **kwargs)

        monkeypatch.setattr(dependence, "fit_dependence", fail_at_pair)
        fit = fit_bdr(s, grid)
        assert fit.failures == [(yv, wv, "dependence fit did not converge")]
        assert fit.n_failed == 1
        assert np.all(np.isnan(fit.dep_coef[1, 1]))
        others = np.ones(fit.dep_coef.shape[:2], dtype=bool)
        others[1, 1] = False
        np.testing.assert_array_equal(fit.dep_coef[others], clean.dep_coef[others])

        # A replicate cannot step from a failed cell: it keeps NaN there and
        # the base fit's record of why, its other cells step, and the
        # replicate itself does not fail.
        rep_fit = _ReplicateBase(s, fit).replicate(draw_weights(s.n, WeightScheme(), 3))
        assert rep_fit.failures == fit.failures
        assert np.all(np.isnan(rep_fit.dep_coef[1, 1]))
        assert np.all(np.isfinite(rep_fit.dep_coef[others]))
        assert not np.array_equal(rep_fit.dep_coef[others], clean.dep_coef[others])


def first_newton_trial(kernel, start):
    """The first point `_damped_newton` evaluates after start: start plus its
    full Newton step, before any step halving."""
    trials = []

    class FirstTrial(Exception):
        pass

    def evaluate(coef):
        trials.append(np.array(coef))
        if len(trials) == 2:
            raise FirstTrial
        return kernel.evaluate(coef)

    with pytest.raises(FirstTrial):
        _damped_newton(evaluate, start, "first step")
    return trials[1]


class TestOneStepReplicates:
    """A replicate cell is the first full step of a refit from the base
    estimate under the replicate's weights, at the base marginal indices."""

    def check_first_steps(self, sample, base, weights):
        """Every cell of the one-step replicate against `_damped_newton`'s
        first trial; returns the cells whose observed information had no
        Cholesky factor (the Fisher fallback)."""
        got = _ReplicateBase(sample, base).replicate(weights).dep_coef
        fisher = []
        for cell, args in cell_problems(sample, base, weights):
            kernel = _CellKernel(*args)
            want = first_newton_trial(kernel, base.dep_coef[cell])
            np.testing.assert_allclose(got[cell], want, rtol=0, atol=1e-12)
            observed = kernel._information(kernel.terms(base.dep_coef[cell])[2])
            if not _positive_definite(observed[None])[0]:
                fisher.append(cell)
        return fisher

    @pytest.mark.parametrize("kind,rep", [
        ("exponential", 0), ("exponential", 1), ("exponential", 2), ("multinomial", 3),
    ])
    def test_replicate_is_the_first_newton_step(self, kind, rep, small_sample, small_fit):
        w = draw_weights(small_sample.n, WeightScheme(kind), rep)
        assert kind == "exponential" or np.any(w == 0)  # rows never drawn weigh zero
        assert self.check_first_steps(small_sample, small_fit[0], w) == []

    def test_fisher_fallback_is_the_first_newton_step(self):
        # Strong dependence at n=400: in replicate 0, cell (2, 0)'s observed
        # information at the base estimate is not positive definite, so the
        # step is taken on Fisher's information, as the refit's first is.
        # Every information here is well conditioned (condition number below
        # 200); where it is near singular (1e9 and more, on flat-ridge
        # cells), rounding differences between the batched sums and the
        # kernel's move the two steps apart by up to that times 1e-16.
        s = generate(bench_spec(400, 2, dep_coef=[0.8, 0.5, 0.0]))
        base = fit_bdr(s, build_grid(s, n_points=5))
        w = draw_weights(s.n, WeightScheme(), 0)
        assert self.check_first_steps(s, base, w) == [(2, 0)]

    def test_cell_with_a_polished_gradient_keeps_its_base_coefficients(self):
        # Strong dependence at n=300: corner cells (0, 3) and (3, 0) sit on a
        # flat ridge, where every row's score at the base estimate is nearly
        # zero, so replicate 0's gradient there is at most POLISH_GRAD. A
        # refit from the base estimate returns it without a step; so does the
        # one-step replicate, where solve(I, g) would divide one rounding
        # error by another.
        s = generate(bench_spec(300, 1, dep_coef=[1.05, 0.6, 0.0]))
        base = fit_bdr(s, build_grid(s, n_points=6))
        w = draw_weights(s.n, WeightScheme(), 0)
        got = _ReplicateBase(s, base).replicate(w).dep_coef
        polished = []
        for cell, args in cell_problems(s, base, w):
            refit = refit_cell(args, base.dep_coef[cell])
            if refit.iterations == 0:
                polished.append(cell)
                np.testing.assert_array_equal(got[cell], base.dep_coef[cell])
        assert polished == [(0, 3), (3, 0)]

    def test_clamped_cell_keeps_its_base_coefficients(self):
        # w <= 0 exactly where y is at most its median, so the body cell
        # (median y, 0) is perfectly concordant and its base fit is clamped
        # at the saturation bound. No reweighting can undo that pattern; a
        # refit clamps again, and a replicate keeps the base coefficients
        # without stepping (or warning) from the bound.
        s = generate(bench_spec(600, 3))
        w = np.where(s.y <= np.median(s.y), -1.0, 1.0) * np.abs(s.w - np.median(s.w))
        clamped = Sample(y=s.y, w=w, x=s.x)
        levels = [0.05, 0.5, 0.75, 0.95]
        grid = grid_from_values(np.quantile(s.y, levels),
                                np.r_[np.quantile(w, [0.05, 0.75, 0.95]), 0.0])
        with pytest.warns(RuntimeWarning, match="concordant"):
            base = fit_bdr(clamped, grid)
        assert base.n_failed == 0 and base.dep_coef[0, 0, 0] == dependence.U_SAT
        ready = _ReplicateBase(clamped, base)
        for scheme in (WeightScheme(), WeightScheme("multinomial")):
            weights = draw_weights(clamped.n, scheme, 1)
            got = ready.replicate(weights).dep_coef
            np.testing.assert_array_equal(got[0, 0], base.dep_coef[0, 0])
            assert np.all(np.isfinite(got))
            args = next(cell_problems(clamped, base, weights))[1]
            with pytest.warns(RuntimeWarning, match="concordant"):
                np.testing.assert_array_equal(fit_dependence(*args).coef, got[0, 0])


def test_import_loads_no_scipy():
    # Importing scipy.special alone takes longer than the rest of the package
    # and the CLI together; the package needs numpy only.
    import bdreg
    code = ("import bdreg, bdreg.cli, sys; "
            "assert not [m for m in sys.modules if m.split('.')[0] == 'scipy']")
    env = {**os.environ, "PYTHONPATH": str(Path(bdreg.__file__).parents[1])}
    subprocess.run([sys.executable, "-c", code], check=True, env=env)
