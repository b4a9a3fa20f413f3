import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from bdreg.data import (
    GridSpec,
    Sample,
    build_grid,
    grid_from_values,
    nearest_body_index,
    nearest_body_value,
    split_groups,
    validate,
)
from bdreg.dependence import BdrFit
from bdreg.exceptions import ConfigError, DataError


def make_sample(n=50, d_extra=2, seed=0):
    rng = np.random.default_rng(seed)
    x = np.column_stack([np.ones(n)] + [rng.normal(size=n) for _ in range(d_extra)])
    return Sample(y=rng.normal(size=n), w=rng.normal(size=n), x=x)


class TestValidate:
    def test_clean_sample_passes(self):
        s = make_sample()
        assert validate(s) is s

    def test_duplicated_column_rank_error(self):
        s = make_sample()
        x = np.column_stack([s.x, s.x[:, 1]])
        with pytest.raises(DataError, match="rank"):
            validate(Sample(y=s.y, w=s.w, x=x))

    def test_non_finite_covariate_names_row(self):
        s = make_sample()
        x = s.x.copy()
        x[7, 2] = np.nan
        with pytest.raises(DataError, match="row 7"):
            validate(Sample(y=s.y, w=s.w, x=x))

    def test_non_finite_outcome(self):
        s = make_sample()
        y = s.y.copy()
        y[3] = np.inf
        with pytest.raises(DataError, match="row 3"):
            validate(Sample(y=y, w=s.w, x=s.x))

    def test_missing_intercept(self):
        s = make_sample()
        x = s.x.copy()
        x[0, 0] = 2.0
        with pytest.raises(DataError, match="intercept"):
            validate(Sample(y=s.y, w=s.w, x=x))

    def test_too_few_rows(self):
        s = make_sample(n=3, d_extra=3)
        with pytest.raises(DataError, match="at least"):
            validate(s)

    def test_one_sided_groups_rejected(self):
        s = make_sample()
        d = np.zeros(s.n, dtype=int)
        d[0] = 2
        with pytest.raises(DataError, match="0 or 1"):
            validate(Sample(y=s.y, w=s.w, x=s.x, d=d))

    def test_split_groups(self):
        s = make_sample()
        d = (np.arange(s.n) % 2).astype(int)
        parts = split_groups(Sample(y=s.y, w=s.w, x=s.x, d=d))
        assert parts[0].n + parts[1].n == s.n


class TestBuildGrid:
    def test_equally_spaced_percentile_levels(self):
        # 1..100 with 5 points trimmed to [2%, 98%] lands on the 2/26/50/74/98
        # empirical percentiles under the inverted-CDF convention.
        y = np.arange(1.0, 101.0)
        s = Sample(y=y, w=y, x=np.ones((100, 1)))
        grid = build_grid(s, n_points=5, body_trim=(0.02, 0.98))
        np.testing.assert_array_equal(grid.y_grid, [2.0, 26.0, 50.0, 74.0, 98.0])
        np.testing.assert_array_equal(grid.y_body, [26.0, 50.0, 74.0])

    def test_constant_outcome_errors(self):
        s = Sample(y=np.ones(50), w=np.arange(50.0), x=np.ones((50, 1)))
        with pytest.raises(DataError, match="degenerate"):
            build_grid(s, n_points=5)

    def test_heavy_ties_dedupe(self):
        y = np.repeat([1.0, 2.0, 3.0, 4.0], 25)
        s = Sample(y=y, w=np.arange(100.0), x=np.ones((100, 1)))
        grid = build_grid(s, n_points=12)
        assert grid.y_grid.size < 12
        assert np.all(np.diff(grid.y_grid) > 0)

    def test_bounds_in_sample_range(self):
        rng = np.random.default_rng(4)
        y = rng.normal(size=400)
        s = Sample(y=y, w=y, x=np.ones((400, 1)))
        grid = build_grid(s, n_points=12)
        assert grid.y_grid.min() >= y.min() and grid.y_grid.max() <= y.max()
        assert np.all(np.diff(grid.y_grid) > 0)

    def test_invalid_settings(self):
        s = make_sample(n=100)
        with pytest.raises(ConfigError):
            build_grid(s, n_points=2)
        with pytest.raises(ConfigError):
            build_grid(s, body_trim=(0.5, 0.4))
        with pytest.raises(ConfigError):
            build_grid(s, tail_min_obs=0)

    def test_grid_from_values_body(self):
        grid = grid_from_values([1.0, 2.0, 3.0, 4.0], [0.0, 1.0, 2.0])
        np.testing.assert_array_equal(grid.y_body, [2.0, 3.0])
        np.testing.assert_array_equal(grid.w_body, [1.0])

    def test_gridspec_invariants(self):
        with pytest.raises(DataError, match="sorted and distinct"):
            grid_from_values([0.0, 1.0, 2.0, np.nan], [0.0, 1.0, 2.0])
        with pytest.raises(DataError, match="sorted and distinct"):
            GridSpec(
                y_grid=np.array([1.0, 1.0, 3.0]),  # not distinct
                w_grid=np.array([1.0, 2.0, 3.0]),
            )


class TestNearestBody:
    body = np.array([1.0, 2.0, 4.0])

    def test_inside_returns_itself(self):
        assert nearest_body_value(self.body, 2.0) == 2.0

    def test_clamps_beyond_range(self):
        assert nearest_body_value(self.body, 9.0) == 4.0
        assert nearest_body_value(self.body, -5.0) == 1.0
        assert nearest_body_value(self.body, np.inf) == 4.0
        assert nearest_body_value(self.body, -np.inf) == 1.0

    def test_tie_breaks_to_smaller(self):
        assert nearest_body_value(self.body, 1.5) == 1.0
        assert nearest_body_value(self.body, 3.0) == 2.0

    def test_pairwise(self):
        # The dependence cell is the nearest body point in each coordinate.
        grid = grid_from_values([0.0, 1.0, 2.0, 3.0], [0.0, 1.0, 2.0, 3.0])
        fit = BdrFit(grid=grid, y_marginal=None, w_marginal=None,
                     dep_coef=np.zeros((2, 2, 1)), dep_cols=(0,))
        iy, iw = fit.dep_cell(-10.0, 10.0)
        assert (grid.y_body[iy], grid.w_body[iw]) == (1.0, 2.0)

    def test_nan_raises(self):
        for lookup in (nearest_body_index, nearest_body_value):
            with pytest.raises(DataError, match="NaN"):
                lookup(self.body, np.nan)

    @given(st.floats(-20, 20, allow_nan=False))
    def test_idempotent_and_monotone(self, r):
        v = nearest_body_value(self.body, r)
        assert nearest_body_value(self.body, v) == v
        assert nearest_body_value(self.body, r + 0.7) >= v
