import numpy as np
import pytest
from scipy.special import ndtr

from bdreg.dgp import CovariateSpec, DgpSpec, generate, true_joint_cdf
from bdreg.normal import bvn_cdf

from conftest import bench_spec


class TestGenerate:
    def test_deterministic(self):
        a = generate(bench_spec(500, 9))
        b = generate(bench_spec(500, 9))
        np.testing.assert_array_equal(a.y, b.y)
        np.testing.assert_array_equal(a.x, b.x)

    def test_independence_residual_correlation(self):
        spec = bench_spec(40000, 2, dep_coef=[0.0, 0.0, 0.0])
        s = generate(spec)
        e1 = s.y - s.x @ spec.y_coef
        e2 = s.w - s.x @ spec.w_coef
        assert abs(np.corrcoef(e1, e2)[0, 1]) <= 3.0 / np.sqrt(spec.n)

    def test_intercept_only_dependence_level(self):
        # MC check of the residual correlation against tanh of the intercept.
        rho = 0.5
        spec = DgpSpec(
            y_coef=np.zeros(1), w_coef=np.zeros(1),
            dep_coef=np.array([np.arctanh(rho)]), n=40000, seed=5, covariates=(),
        )
        s = generate(spec)
        assert abs(np.corrcoef(s.y, s.w)[0, 1] - rho) <= 3.0 * (1 - rho**2) / np.sqrt(spec.n)

    def test_quadrant_frequency_matches_arcsin_identity(self):
        rho = 0.5
        spec = DgpSpec(
            y_coef=np.zeros(1), w_coef=np.zeros(1),
            dep_coef=np.array([np.arctanh(rho)]), n=50000, seed=6, covariates=(),
        )
        s = generate(spec)
        freq = np.mean((s.y <= 0.0) & (s.w <= 0.0))
        want = 0.25 + np.arcsin(rho) / (2.0 * np.pi)  # exactly 1/3
        assert abs(freq - want) <= 3.0 * np.sqrt(want * (1 - want) / spec.n)

    def test_bad_coef_length(self):
        with pytest.raises(ValueError, match="length"):
            generate(DgpSpec(
                y_coef=np.zeros(2), w_coef=np.zeros(3), dep_coef=np.zeros(3),
                n=10, seed=0,
            ))

    def test_covariate_kinds(self):
        spec = DgpSpec(
            y_coef=np.zeros(3), w_coef=np.zeros(3), dep_coef=np.zeros(3),
            n=2000, seed=0,
            covariates=(CovariateSpec("uniform", -1.0, 1.0), CovariateSpec("binary", 0.25)),
        )
        s = generate(spec)
        assert s.x[:, 1].min() >= -1.0 and s.x[:, 1].max() <= 1.0
        assert set(np.unique(s.x[:, 2])) <= {0.0, 1.0}


class TestTrueJointCdf:
    def test_center_value(self):
        spec = bench_spec(10, 0, dep_coef=[0.0, 0.0, 0.0])
        x = np.array([[1.0, 0.5, 1.0]])
        y = float((x @ spec.y_coef)[0])
        w = float((x @ spec.w_coef)[0])
        assert abs(true_joint_cdf(spec, y, w, x)[0] - 0.25) <= 1e-15

    def test_marginal_limit(self):
        spec = bench_spec(10, 0)
        x = np.array([[1.0, 0.2, 0.0]])
        w = 0.3
        want = ndtr(w - float((x @ spec.w_coef)[0]))
        assert abs(true_joint_cdf(spec, np.inf, w, x)[0] - want) <= 1e-15

    def test_matches_direct_formula(self):
        spec = bench_spec(10, 0)
        x = np.array([[1.0, 0.7, 1.0]])
        y, w = 0.4, -0.2
        rho = np.tanh(float((x @ spec.dep_coef)[0]))
        want = bvn_cdf(y - float((x @ spec.y_coef)[0]), w - float((x @ spec.w_coef)[0]), rho)
        assert abs(true_joint_cdf(spec, y, w, x)[0] - want) <= 1e-15

    def test_empirical_convergence(self):
        # Joint empirical CDF at a few points approaches the closed form.
        spec = bench_spec(60000, 12)
        s = generate(spec)
        rng = np.random.default_rng(0)
        pick = rng.choice(spec.n, size=4, replace=False)
        for i in pick:
            y, w = float(s.y[i]), float(s.w[i])
            truth = float(np.mean(true_joint_cdf(spec, y, w, s.x)))
            emp = float(np.mean((s.y <= y) & (s.w <= w)))
            assert abs(emp - truth) <= 4.0 * np.sqrt(truth * (1 - truth) / spec.n) + 1e-3
