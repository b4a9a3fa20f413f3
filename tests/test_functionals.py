import dataclasses
import tracemalloc
import types

import numpy as np
import pytest
from scipy.special import ndtr

from bdreg import functionals
from bdreg.bootstrap import WeightScheme, draw_weights
from bdreg.data import body_lookup, build_grid, grid_from_values
from bdreg.dependence import fit_bdr
from bdreg.dgp import DgpSpec, generate, true_joint_cdf
from bdreg.exceptions import ConfigError, DataError, EstimationError
from bdreg.functionals import (
    JointCdfSurface,
    counterfactual_joint_cdf,
    decompose_joint,
    decompose_transition,
    fitted_surface,
    independence_counterfactual,
    transition_from_fits,
    transition_matrix,
)
from bdreg.normal import BLOCK_ROWS

from conftest import bench_spec, joint_cdf_rows


@pytest.fixture(scope="module")
def two_group_setup():
    # groups share marginals; group 1 carries extra dependence
    spec0 = bench_spec(1500, 201, dep_coef=[0.1, 0.0, 0.0])
    spec1 = bench_spec(1500, 202, dep_coef=[0.6, 0.0, 0.0])
    samples = {0: generate(spec0), 1: generate(spec1)}
    grids = {g: build_grid(s, n_points=6) for g, s in samples.items()}
    fits = {g: fit_bdr(samples[g], grids[g]) for g in samples}
    return fits, samples, grids


@pytest.fixture(scope="module")
def big_two_groups():
    # Two groups of more than two blocks of covariate rows each (the last
    # block partial), with a 5-point grid (3 x 3 body cells).
    samples = {g: generate(bench_spec(2 * BLOCK_ROWS + 300, 210 + g,
                                      dep_coef=[0.2 + 0.3 * g, 0.4, -0.2]))
               for g in (0, 1)}
    grids = {g: build_grid(s, n_points=5) for g, s in samples.items()}
    fits = {g: fit_bdr(samples[g], grids[g]) for g in samples}
    return fits, samples, grids


class TestConditionalJointCdf:
    def test_sentinel_limits(self, small_fit, small_sample):
        fit, _ = small_fit
        surf = fitted_surface(fit, small_sample, [-np.inf, np.inf], [0.3, np.inf])
        np.testing.assert_allclose(surf.values[0], 0.0)
        np.testing.assert_allclose(surf.values[1, 1], 1.0)

    def test_zero_dependence_factorizes(self, small_fit, small_sample):
        fit, grid = small_fit
        s = small_sample
        ten = type(s)(y=s.y[:10], w=s.w[:10], x=s.x[:10])
        y, w = grid.y_body[1], grid.w_body[2]
        got = independence_counterfactual(fit, ten, [y], [w]).values[0, 0]
        want = np.mean(ndtr(fit.y_marginal.index(y, ten.x)) * ndtr(fit.w_marginal.index(w, ten.x)))
        assert abs(got - want) <= 1e-12

    def test_tracks_dgp_truth(self):
        spec = bench_spec(4000, 203)
        s = generate(spec)
        grid = build_grid(s, n_points=6)
        fit = fit_bdr(s, grid)
        x = s.x[:50]
        y, w = grid.y_body[2], grid.w_body[2]
        est = joint_cdf_rows(fit, fit, fit, y, w, x)
        tru = true_joint_cdf(spec, y, w, x)
        assert np.mean(np.abs(est - tru)) <= 0.03


class TestCounterfactualSurface:
    def test_self_counterfactual_is_fitted_surface(self, two_group_setup):
        fits, samples, grids = two_group_setup
        surf = counterfactual_joint_cdf(fits, samples, "1111",
                                        grids[1].y_grid, grids[1].w_grid)
        own = fitted_surface(fits[1], samples[1], grids[1].y_grid, grids[1].w_grid)
        np.testing.assert_allclose(surf.values, own.values, atol=1e-15)

    def test_identical_groups_all_indices_agree(self):
        spec = bench_spec(1200, 204)
        s = generate(spec)
        grid = build_grid(s, n_points=5)
        fit = fit_bdr(s, grid)
        fits = {0: fit, 1: fit}
        samples = {0: s, 1: s}
        ref = None
        for code in ("0000", "0101", "1010", "1111", "0110"):
            surf = counterfactual_joint_cdf(fits, samples, code,
                                            grid.y_grid, grid.w_grid)
            if ref is None:
                ref = surf.values
            else:
                assert np.max(np.abs(surf.values - ref)) <= 1e-12

    @staticmethod
    def _mixed_axis(body):
        # Off-body points on both sides, body points repeated, points between
        # body points (which share a body key), and both infinities.
        mid = 0.5 * (body[1] + body[2])
        return np.array([-np.inf, body[0] - 1.3, body[0] - 0.4, body[0], body[1],
                         mid, body[1], 0.5 * (body[1] + mid), body[-1],
                         body[-1] + 0.7, np.inf, body[-1] + 0.7])

    @staticmethod
    def _straddling(marginal, x):
        # The point beyond the body where the index reaches the saturation
        # edge 40 at the median row: about half the rows saturate there and
        # the rest do not, so its pairs are partly saturated.
        return marginal.anchor_hi + (40.0 - np.median(x @ marginal.coef[-1])) / marginal.alpha_hi

    def test_batched_surfaces_match_point_by_point(self, small_fit, small_sample,
                                                   two_group_setup):
        fit, grid = small_fit
        x = small_sample.x
        wts = np.full(x.shape[0], 1.0 / x.shape[0])
        ys, ws = self._mixed_axis(grid.y_body), self._mixed_axis(grid.w_body)
        ys = np.append(ys, self._straddling(fit.y_marginal, x))

        def reference(cell):
            return np.array([[cell(yv, wv) for wv in ws] for yv in ys])

        got = fitted_surface(fit, small_sample, ys, ws).values
        want = reference(lambda yv, wv: wts @ joint_cdf_rows(fit, fit, fit, yv, wv, x))
        assert np.max(np.abs(got - want)) <= 1e-13

        got = independence_counterfactual(fit, small_sample, ys, ws).values
        want = reference(lambda yv, wv: wts @ joint_cdf_rows(fit, fit, None, yv, wv, x))
        assert np.max(np.abs(got - want)) <= 1e-13

        # Cross-group: marginals from groups 1 and 0, dependence from group 1,
        # covariates of group 0; the grids of the two groups differ.
        fits, samples, _ = two_group_setup
        x0 = samples[0].x
        w0 = np.full(x0.shape[0], 1.0 / x0.shape[0])
        got = counterfactual_joint_cdf(fits, samples, "1010", ys, ws).values
        want = reference(lambda yv, wv: w0 @ joint_cdf_rows(fits[1], fits[0], fits[1], yv, wv, x0))
        assert np.max(np.abs(got - want)) <= 1e-13

    def test_surface_beyond_one_block_of_rows_matches_pair_by_pair(self, small_fit):
        # More covariate rows than BLOCK_ROWS: _surface evaluates them in row
        # blocks, each with its own correlation plan, and still matches one
        # bvn_cdf call per pair over all rows, saturated and partly saturated
        # axis points included.
        fit, grid = small_fit
        big = generate(bench_spec(n=2 * BLOCK_ROWS + 300, seed=7))
        wts = np.full(big.n, 1.0 / big.n)
        ys, ws = self._mixed_axis(grid.y_body), self._mixed_axis(grid.w_body)
        ys = np.append(ys, self._straddling(fit.y_marginal, big.x))
        got = fitted_surface(fit, big, ys, ws).values
        want = np.array([[wts @ joint_cdf_rows(fit, fit, fit, yv, wv, big.x) for wv in ws]
                         for yv in ys])
        assert np.max(np.abs(got - want)) <= 1e-14

    def test_every_kernel_call_reads_one_correlation_per_row(self, two_group_setup,
                                                             monkeypatch):
        # Each bvn_cdf call of a decomposition passes a rho (a correlation
        # plan on the surfaces) whose np.asarray is 1-D with one entry per
        # row of the call's result, as a tracer annotating the call reads it.
        fits, samples, grids = two_group_setup
        kernel, shapes = functionals.bvn_cdf, []

        def traced(a, b, rho):
            out = kernel(a, b, rho)
            shapes.append((np.asarray(rho, dtype=float).shape, np.shape(out)))
            return out

        monkeypatch.setattr(functionals, "bvn_cdf", traced)
        decompose_joint(fits, samples, grids[0].y_grid, grids[0].w_grid)
        assert len(shapes) >= 5 and all(r == out and len(r) == 1 for r, out in shapes)

    @pytest.mark.parametrize("bad", ["empty", "nan", "inf"])
    def test_bad_covariate_rows_raise(self, bad, small_fit, small_sample):
        # An empty covariate sample used to average to a surface of exact
        # zeros, and a NaN covariate to end in a bare ValueError from the
        # kernel.
        fit, _ = small_fit
        s = small_sample
        x = s.x[:0] if bad == "empty" else s.x.copy()
        if bad != "empty":
            x[5, 1] = np.nan if bad == "nan" else np.inf
        message = ("no covariate rows" if bad == "empty"
                   else "non-finite covariate at row 5, column 1")
        rows = type(s)(y=s.y[:len(x)], w=s.w[:len(x)], x=x)
        for build in (fitted_surface, independence_counterfactual):
            with pytest.raises(DataError, match=message):
                build(fit, rows)

    @pytest.mark.parametrize("axis", ["y", "w"])
    @pytest.mark.parametrize("bad", [0.3, [[0.1, 0.2], [0.3, 0.4]]], ids=["scalar", "2-D"])
    def test_axis_values_must_be_one_dimensional(self, axis, bad, small_fit, small_sample):
        # A scalar used to raise a bare TypeError (iteration over a 0-d
        # array), and a 2-D array a ValueError.
        fit, grid = small_fit
        axes = {"y_values": grid.y_grid, "w_values": grid.w_grid, f"{axis}_values": bad}
        message = f"{axis} values must be a 1-D array of thresholds"
        for build in (fitted_surface, independence_counterfactual):
            with pytest.raises(DataError, match=message):
                build(fit, small_sample, **axes)
        with pytest.raises(DataError, match=message):
            decompose_joint({0: fit, 1: fit}, {0: small_sample, 1: small_sample},
                            axes["y_values"], axes["w_values"])

    def test_nan_threshold_raises(self, small_fit, small_sample):
        # A NaN threshold used to be served by the first body point.
        fit, grid = small_fit
        for build in (fitted_surface, independence_counterfactual):
            with pytest.raises(DataError, match="NaN"):
                build(fit, small_sample, [np.nan, grid.y_body[0]], [0.0])
            with pytest.raises(DataError, match="NaN"):
                build(fit, small_sample, [0.0], [grid.w_body[0], np.nan])

    @pytest.mark.parametrize("bad", ["nan", "negative", "zero_total", "short"])
    def test_bad_x_weights_raise(self, small_fit, small_sample, bad):
        # NaN weights used to give an all-NaN surface without an error, and a
        # negative weight was accepted.
        fit, _ = small_fit
        n = small_sample.n
        weights = {
            "nan": np.full(n, np.nan),
            "negative": np.r_[-0.5, np.ones(n - 1)],
            "zero_total": np.zeros(n),
            "short": np.ones(n - 1),
        }[bad]
        with pytest.raises(DataError, match="weights"):
            fitted_surface(dataclasses.replace(fit, weights=weights), small_sample)

    def test_weighted_fit_averages_rows_with_its_own_weights(self):
        # A replicate-style weighted fit keeps its weights, as given, and every
        # surface built from it averages the covariate rows with them.
        s = generate(bench_spec(400, 31))
        weights = draw_weights(s.n, WeightScheme("multinomial"), 0)
        fit = fit_bdr(s, build_grid(s, n_points=4), weights=weights)
        assert fit.weights is weights
        share = weights / weights.sum()
        ys, ws = fit.grid.y_grid, fit.grid.w_grid

        def reference(dep_fit):
            return np.array([[share @ joint_cdf_rows(fit, fit, dep_fit, yv, wv, s.x)
                              for wv in ws] for yv in ys])

        for got, dep_fit in ((fitted_surface(fit, s), fit),
                             (counterfactual_joint_cdf({0: fit}, {0: s}, "0000"), fit),
                             (independence_counterfactual(fit, s), None)):
            assert np.max(np.abs(got.values - reference(dep_fit))) <= 1e-13

    def test_copy_rule_keys_give_identical_indices(self, small_fit, small_sample):
        # _key_thresholds prepares one index row per (position, beyond) pair
        # of body_lookup, so every value of a pair must give that row's bits.
        fit, grid = small_fit
        x = small_sample.x
        marginal = fit.y_marginal
        values = self._mixed_axis(grid.y_body)
        pairs = list(zip(*body_lookup(grid.y_body, values)))
        # Points between body points share a pair with one of them.
        assert len(set(pairs)) < len(set(values.tolist()))
        for v, pair in zip(values, pairs):
            for u, other in zip(values, pairs):
                if pair == other:
                    np.testing.assert_array_equal(marginal.index(v, x), marginal.index(u, x))

    def test_first_failed_cell_in_grid_order_raises(self, small_fit, small_sample):
        fit, grid = small_fit
        broken = dataclasses.replace(fit, dep_coef=fit.dep_coef.copy())
        broken.dep_coef[-1, 0] = np.nan
        broken.dep_coef[0, -1] = np.nan
        # The y axis runs downward, so grid order reaches (y_body[-1], w_body[0])
        # first, although its keys sort after those of (y_body[0], w_body[-1]).
        with pytest.raises(EstimationError, match=f"{grid.y_body[-1]:.6g}, {grid.w_body[0]:.6g}"):
            fitted_surface(broken, small_sample, grid.y_body[::-1], grid.w_body)

    def test_failed_cell_names_its_recorded_reason(self, small_fit, small_sample):
        # The reason fit_bdr recorded for the cell follows the grid pair; a
        # NaN cell with no record keeps the bare message.
        fit, grid = small_fit
        pair = (float(grid.y_body[0]), float(grid.w_body[0]))
        bare = (f"no dependence estimate at grid pair ({pair[0]:.6g}, {pair[1]:.6g}): "
                "its fit failed")
        broken = dataclasses.replace(fit, dep_coef=fit.dep_coef.copy())
        broken.dep_coef[0, 0] = np.nan
        recorded = dataclasses.replace(broken, failures=[
            (pair[1], pair[0], "wrong pair"), (*pair, "dependence fit did not converge")])
        for case, message in ((broken, bare),
                              (recorded, bare + " (dependence fit did not converge)")):
            with pytest.raises(EstimationError) as info:
                fitted_surface(case, small_sample)
            assert str(info.value) == message

    def test_failed_last_cell_raises_before_any_kernel_call(self, small_fit, small_sample,
                                                            monkeypatch):
        fit, _ = small_fit
        broken = dataclasses.replace(fit, dep_coef=fit.dep_coef.copy())
        broken.dep_coef[-1, -1] = np.nan
        calls = []
        monkeypatch.setattr(functionals, "bvn_cdf", lambda *args: calls.append(args))
        with pytest.raises(EstimationError, match="grid pair"):
            fitted_surface(broken, small_sample)
        assert calls == []

    def test_missing_group_raises(self, small_fit, small_sample):
        fit, grid = small_fit
        with pytest.raises(ConfigError, match="group"):
            counterfactual_joint_cdf({0: fit}, {0: small_sample}, "1111",
                                     grid.y_grid, grid.w_grid)
        with pytest.raises(ConfigError, match="no fit/sample for group 1"):
            decompose_joint({0: fit}, {0: small_sample}, grid.y_grid, grid.w_grid)

    def test_each_digit_picks_its_group(self, monkeypatch):
        # The digits name the groups supplying, in order, the y marginal, the
        # w marginal, the dependence and the covariates with their weights.
        monkeypatch.setattr(functionals, "_surface", lambda *args: args)
        fits = {g: types.SimpleNamespace(weights=f"weights {g}") for g in (0, 1)}
        samples = {g: types.SimpleNamespace(x=f"x {g}") for g in (0, 1)}
        got = counterfactual_joint_cdf(fits, samples, "1011")
        assert got == (fits[1], fits[0], fits[1], "x 1", "weights 1", None, None)
        got = counterfactual_joint_cdf(fits, samples, "0100")
        assert got == (fits[0], fits[1], fits[0], "x 0", "weights 0", None, None)

    @pytest.mark.parametrize("code", ["102", "12ab", "2222"])
    def test_malformed_index_raises(self, code, small_fit, small_sample):
        fit, grid = small_fit
        fits, samples = {0: fit, 1: fit}, {0: small_sample, 1: small_sample}
        message = f"counterfactual index must be 4 binary digits, got '{code}'"
        with pytest.raises(ConfigError, match=message):
            counterfactual_joint_cdf(fits, samples, code, grid.y_grid, grid.w_grid)
        with pytest.raises(ConfigError, match=message):
            transition_from_fits(fits, samples, code, grid.y_grid, grid.w_grid)

    def test_composition_gap_matches_analytic(self):
        # groups share coefficients but differ in the covariate law: the
        # (1,1,1,1) vs (1,1,1,0) difference is the composition gap, computed
        # analytically by integrating the true CDF over each group's law.
        from bdreg.dgp import CovariateSpec
        base = dict(
            y_coef=np.array([0.2, 0.8]), w_coef=np.array([-0.1, 0.5]),
            dep_coef=np.array([0.3, 0.2]),
        )
        spec0 = DgpSpec(**base, n=4000, seed=205,
                        covariates=(CovariateSpec("uniform", 0.0, 1.0),))
        spec1 = DgpSpec(**base, n=4000, seed=206,
                        covariates=(CovariateSpec("uniform", 0.5, 1.5),))
        samples = {0: generate(spec0), 1: generate(spec1)}
        pooled_y = np.quantile(np.r_[samples[0].y, samples[1].y], [0.3, 0.5, 0.7])
        pooled_w = np.quantile(np.r_[samples[0].w, samples[1].w], [0.3, 0.5, 0.7])
        grids = {g: build_grid(s, n_points=7) for g, s in samples.items()}
        fits = {g: fit_bdr(samples[g], grids[g]) for g in samples}

        est_1111 = counterfactual_joint_cdf(fits, samples, "1111", pooled_y, pooled_w)
        est_1110 = counterfactual_joint_cdf(fits, samples, "1110", pooled_y, pooled_w)
        gap_est = est_1111.values - est_1110.values

        # analytic gap via Gauss-Legendre over each uniform law
        nodes, weights = np.polynomial.legendre.leggauss(64)
        def avg_true(spec, lo, hi, y, w):
            u = lo + (hi - lo) * (nodes + 1.0) / 2.0
            x = np.column_stack([np.ones(64), u])
            vals = true_joint_cdf(spec, y, w, x)
            return float((weights / 2.0) @ vals)
        gap_true = np.empty_like(gap_est)
        for iy, yv in enumerate(pooled_y):
            for iw, wv in enumerate(pooled_w):
                f1 = avg_true(spec1, 0.5, 1.5, yv, wv)
                f0 = avg_true(spec1, 0.0, 1.0, yv, wv)
                gap_true[iy, iw] = f1 - f0
        assert np.max(np.abs(gap_est - gap_true)) <= 0.03


class TestDecomposition:
    def test_identical_groups_all_zero(self):
        spec = bench_spec(1200, 207)
        s = generate(spec)
        grid = build_grid(s, n_points=5)
        fit = fit_bdr(s, grid)
        report = decompose_joint({0: fit, 1: fit}, {0: s, 1: s},
                                 grid.y_grid, grid.w_grid)
        for name, comp in report.components().items():
            assert np.max(np.abs(comp)) <= 1e-12, name

    def test_path_surfaces_are_the_counterfactual_surfaces(self, two_group_setup,
                                                         big_two_groups):
        # 1100, 1000 and 0000 share group 0's dependence fit and covariates
        # and are evaluated in one walk over its cells; each of the five path
        # surfaces still gives the bits of counterfactual_joint_cdf for its
        # code, also beyond BLOCK_ROWS covariate rows.
        for fits, samples, grids in (two_group_setup, big_two_groups):
            ys, ws = grids[0].y_grid, grids[1].w_grid
            values = functionals._path_values(fits, samples, ys, ws)
            assert list(values) == list(functionals._PATH)
            for code, got in values.items():
                want = counterfactual_joint_cdf(fits, samples, code, ys, ws).values
                np.testing.assert_array_equal(got, want, err_msg=code)

    def test_one_plan_per_cell_and_shared_walk(self, two_group_setup, big_two_groups,
                                               monkeypatch):
        # A decomposition walks group 1's cells twice (1111 and 1110: two
        # covariate groups) and group 0's once for 1100, 1000 and 0000,
        # building one correlation plan per cell reached and row block: not
        # five walks.
        built, plan = [], functionals._CorrelationPlan

        def counted(rho):
            built.append(np.size(rho))
            return plan(rho)

        monkeypatch.setattr(functionals, "_CorrelationPlan", counted)
        for fits, samples, grids in (two_group_setup, big_two_groups):
            ys, ws = grids[0].y_grid, grids[0].w_grid
            reached = [np.unique(body_lookup(f.grid.y_body, ys)[0]).size
                       * np.unique(body_lookup(f.grid.w_body, ws)[0]).size
                       for f in (fits[0], fits[1])]
            blocks = -(-samples[0].n // BLOCK_ROWS)
            built.clear()
            decompose_joint(fits, samples, ys, ws)
            assert len(built) == (reached[0] + 2 * reached[1]) * blocks
            assert max(built) <= BLOCK_ROWS

    def test_shared_walk_holds_one_plan_at_a_time(self, big_two_groups):
        # The traced peak of a decomposition stays within 10% of one
        # surface's, beyond the prepared thresholds of the two marginals
        # that only the shared walk of 1100, 1000 and 0000 holds at once
        # (group 0's; one surface holds two), each gathered at most once
        # more into a cell's row block: no plan outlives its cell and row
        # block. Holding every plan would take several times the peak.
        fits, samples, grids = big_two_groups
        ys, ws = grids[0].y_grid, grids[0].w_grid

        def peak(fn):
            tracemalloc.start()
            try:
                fn()
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        one = peak(lambda: counterfactual_joint_cdf(fits, samples, "1100", ys, ws))
        both = peak(lambda: decompose_joint(fits, samples, ys, ws))
        sides = [functionals._key_thresholds(marginal, values, samples[0].x)[1]
                 for marginal, values in ((fits[0].y_marginal, ys), (fits[0].w_marginal, ws))]
        extra = sum(v.nbytes for side in sides for v in vars(side).values()
                    if isinstance(v, np.ndarray))
        assert both <= 1.1 * one + extra * (1.0 + BLOCK_ROWS / samples[0].n)

    def test_telescoping_identity(self, two_group_setup):
        fits, samples, grids = two_group_setup
        report = decompose_joint(fits, samples, grids[1].y_grid, grids[1].w_grid)
        resid = (
            report.total - report.composition - report.sorting
            - report.marginal_w - report.marginal_y
        )
        assert np.max(np.abs(resid)) <= 1e-12

    def test_sorting_dominates_when_only_dependence_differs(self, two_group_setup):
        fits, samples, grids = two_group_setup
        report = decompose_joint(fits, samples, grids[1].y_grid, grids[1].w_grid)
        # groups share locations and covariate laws: sorting carries the signal
        assert np.max(np.abs(report.sorting)) > 2.0 * np.max(np.abs(report.composition))
        assert np.max(np.abs(report.sorting)) > 2.0 * np.max(np.abs(report.marginal_y))

    def test_share_floor_guard(self, two_group_setup):
        fits, samples, grids = two_group_setup
        report = decompose_joint(fits, samples, grids[1].y_grid, grids[1].w_grid)
        shares = report.shares()
        tiny = np.abs(report.total) < 1e-3
        assert np.all(np.isnan(shares["sorting"][tiny]))


class TestTransitionMatrix:
    def test_uniform_independent_quintiles(self):
        # product measure on an exact grid: every cell 1/25
        u = np.linspace(0.0, 1.0, 6)
        F = np.minimum.outer(u, np.ones(6)) * np.minimum.outer(np.ones(6), u)
        surf = JointCdfSurface(values=F, y_values=u, w_values=u)
        tm = transition_matrix(surf)
        np.testing.assert_allclose(tm.cells, 0.04, atol=1e-15)
        assert abs(tm.cells.sum() - 1.0) <= 1e-12

    def test_single_cell_total_mass(self, small_fit, small_sample):
        fit, grid = small_fit
        surf = fitted_surface(fit, small_sample,
                              y_values=[-np.inf, np.inf], w_values=[-np.inf, np.inf])
        tm = transition_matrix(surf)
        assert tm.cells.shape == (1, 1)
        assert abs(tm.cells[0, 0] - 1.0) <= 1e-12

    def test_comonotone_diagonal(self):
        # W = Y: cells concentrate on the diagonal at 0.2
        u = np.array([0.0, 0.2, 0.4, 0.6, 0.8, 1.0])
        F = np.minimum.outer(u, u)
        surf = JointCdfSurface(values=F, y_values=u, w_values=u)
        tm = transition_matrix(surf)
        np.testing.assert_allclose(np.diag(tm.cells), 0.2, atol=1e-15)
        off = tm.cells - np.diag(np.diag(tm.cells))
        assert np.max(np.abs(off)) <= 1e-15

    def test_cells_sum_to_one_with_sentinel_cuts(self, small_fit, small_sample):
        fit, grid = small_fit
        y_cuts = np.r_[-np.inf, grid.y_body[1:-1], np.inf]
        w_cuts = np.r_[-np.inf, grid.w_body[1:-1], np.inf]
        tm = transition_from_fits({0: fit}, {0: small_sample}, "0000", y_cuts, w_cuts)
        assert abs(tm.cells.sum() - 1.0) <= 1e-8
        assert tm.cells.min() >= -1e-8

    @pytest.mark.parametrize("cuts", [[-np.inf, 1e200, np.inf], [-np.inf, -1e200, 0.0, np.inf]])
    def test_huge_finite_cuts_give_finite_cells(self, cuts, small_fit, small_sample):
        # A cut this far out gives indices far beyond +/-40, which resolve to
        # the marginal limits as +/-inf do.
        fit, _ = small_fit
        tm = transition_from_fits({0: fit}, {0: small_sample}, "0000", cuts, cuts)
        assert np.all(np.isfinite(tm.cells)) and tm.cells.min() >= -1e-12
        assert abs(tm.cells.sum() - 1.0) <= 1e-12

    def test_huge_finite_thresholds_read_as_infinite(self, small_fit, small_sample):
        fit, _ = small_fit
        axis = [-np.inf, -1e200, -0.3, 0.4, 1e200, np.inf]
        values = fitted_surface(fit, small_sample, y_values=axis, w_values=axis).values
        for far, inf in ((1, 0), (4, 5)):
            np.testing.assert_array_equal(values[far], values[inf])
            np.testing.assert_array_equal(values[:, far], values[:, inf])

    def test_unsorted_cuts_rejected(self, small_fit, small_sample):
        fit, _ = small_fit
        with pytest.raises(DataError, match="sorted"):
            transition_from_fits({0: fit}, {0: small_sample}, "0000",
                                 [0.0, -1.0, np.inf], [-np.inf, 0.0, np.inf])

    @pytest.mark.parametrize("cuts", [[-np.inf, np.inf, np.inf], [-np.inf, -np.inf, 0.0, np.inf]])
    def test_repeated_infinite_cuts_rejected(self, cuts, small_fit, small_sample):
        # inf > inf is false, so a repeated +/-inf is a tie like any other.
        fit, _ = small_fit
        ok = [-np.inf, 0.0, np.inf]
        with pytest.raises(DataError, match="sorted and distinct"):
            transition_from_fits({0: fit}, {0: small_sample}, "0000", cuts, ok)
        with pytest.raises(DataError, match="sorted and distinct"):
            decompose_transition({0: fit, 1: fit}, {0: small_sample, 1: small_sample}, ok, cuts)


class TestTransitionDecomposition:
    def test_identical_groups_zero(self):
        spec = bench_spec(1200, 208)
        s = generate(spec)
        grid = build_grid(s, n_points=5)
        fit = fit_bdr(s, grid)
        cuts_y = np.r_[-np.inf, grid.y_body[1:-1], np.inf]
        cuts_w = np.r_[-np.inf, grid.w_body[1:-1], np.inf]
        report = decompose_transition({0: fit, 1: fit}, {0: s, 1: s}, cuts_y, cuts_w)
        for name, comp in report.components().items():
            assert np.max(np.abs(comp)) <= 1e-12, name

    def test_telescoping(self, two_group_setup):
        fits, samples, grids = two_group_setup
        cuts_y = np.r_[-np.inf, grids[1].y_body[1:-1], np.inf]
        cuts_w = np.r_[-np.inf, grids[1].w_body[1:-1], np.inf]
        report = decompose_transition(fits, samples, cuts_y, cuts_w)
        resid = (
            report.total - report.composition - report.sorting
            - report.marginal_w - report.marginal_y
        )
        assert np.max(np.abs(resid)) <= 1e-12
        assert abs(report.total.sum()) <= 1e-8  # both matrices sum to one

    def test_marginal_only_difference_lands_in_marginals(self):
        # groups share dependence and covariates; only the W location differs
        spec0 = bench_spec(2500, 209)
        spec1 = DgpSpec(
            y_coef=spec0.y_coef,
            w_coef=spec0.w_coef + np.array([0.8, 0.0, 0.0]),
            dep_coef=spec0.dep_coef,
            n=2500, seed=210,
        )
        samples = {0: generate(spec0), 1: generate(spec1)}
        grids = {g: build_grid(s, n_points=6) for g, s in samples.items()}
        fits = {g: fit_bdr(samples[g], grids[g]) for g in samples}
        pooled_w = np.quantile(np.r_[samples[0].w, samples[1].w], [0.25, 0.5, 0.75])
        pooled_y = np.quantile(np.r_[samples[0].y, samples[1].y], [0.25, 0.5, 0.75])
        report = decompose_transition(
            fits, samples,
            np.r_[-np.inf, pooled_y, np.inf], np.r_[-np.inf, pooled_w, np.inf],
        )
        marg = np.abs(report.marginal_w).max()
        assert marg > 3.0 * np.abs(report.composition).max()
        assert marg > 3.0 * np.abs(report.sorting).max()


class TestIndependenceCounterfactual:
    def test_single_row_factorizes(self, small_fit, small_sample):
        fit, grid = small_fit
        one = type(small_sample)(
            y=small_sample.y[:1], w=small_sample.w[:1], x=small_sample.x[:1]
        )
        surf = independence_counterfactual(fit, one)
        y, w = grid.y_grid[2], grid.w_grid[3]
        want = ndtr(fit.y_marginal.index(y, one.x))[0] * ndtr(fit.w_marginal.index(w, one.x))[0]
        iy = list(grid.y_grid).index(y)
        iw = list(grid.w_grid).index(w)
        assert abs(surf.values[iy, iw] - want) <= 1e-12

    def test_independence_dgp_difference_near_zero(self):
        s = generate(bench_spec(3000, 211, dep_coef=[0.0, 0.0, 0.0]))
        grid = build_grid(s, n_points=6)
        fit = fit_bdr(s, grid)
        fitted = fitted_surface(fit, s)
        indep = independence_counterfactual(fit, s)
        assert np.max(np.abs(fitted.values - indep.values)) <= 0.03

    def test_positive_dependence_raises_lower_quadrant(self):
        s = generate(bench_spec(3000, 212, dep_coef=[0.5, 0.0, 0.0]))
        grid = build_grid(s, n_points=6)
        fit = fit_bdr(s, grid)
        fitted = fitted_surface(fit, s)
        indep = independence_counterfactual(fit, s)
        diff = fitted.values - indep.values
        # Gaussian-copula ordering: positive local correlation raises the CDF
        # at interior thresholds
        assert np.all(diff[1:-1, 1:-1] > 0)
