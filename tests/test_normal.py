"""Gaussian primitive checks: frozen high-precision oracle values, closed-form
identities, Frechet bounds, and finite-difference agreement of the partials.
"""

import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bdreg.normal import (
    BLOCK_ROWS,
    EPS_RHO,
    FixedThresholdBvn,
    bvn_cdf,
    bvn_pdf,
    cdf_partials,
    clamp_rho,
    link_rho,
    std_normal_cdf,
    std_normal_pdf,
    std_normal_quantile,
)

# 30-digit erf-based oracle value for Phi(1).
PHI_AT_1 = 0.841344746068542948585232545632
# Bisection (to 1e-14) on the erf-based CDF.
QUANTILE_75 = 0.674489750196081743
# 2-D adaptive quadrature of the bivariate density, 20 digits.
BVN_ORACLE = [
    ((1.0, -0.5, 0.3), 0.28313842024448095291),
    ((0.7, -1.1, 0.6), 0.13254732266347024771),
    ((-1.3, 0.4, -0.85), 0.0032174842861088792792),
    ((2.0, 1.5, 0.99), 0.93319218244544998945),
]


class TestUnivariate:
    def test_symmetry_at_zero(self):
        assert std_normal_cdf(0.0) == 0.5

    def test_tail_limit(self):
        assert abs(std_normal_cdf(40.0) - 1.0) <= 1e-15

    def test_oracle_value(self):
        assert abs(std_normal_cdf(1.0) - PHI_AT_1) <= 1e-15

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            std_normal_cdf(np.inf)
        with pytest.raises(ValueError):
            std_normal_cdf(np.nan)

    @given(st.floats(-38.0, 38.0, allow_nan=False))
    def test_reflection(self, z):
        assert abs(std_normal_cdf(z) + std_normal_cdf(-z) - 1.0) <= 1e-15

    def test_quantile_median(self):
        assert std_normal_quantile(0.5) == 0.0

    def test_quantile_oracle(self):
        assert abs(std_normal_quantile(0.75) - QUANTILE_75) <= 1e-14

    @pytest.mark.parametrize("p", [0.01, 0.25, 0.975])
    def test_quantile_round_trip(self, p):
        assert abs(std_normal_cdf(std_normal_quantile(p)) - p) <= 1e-12

    @pytest.mark.parametrize("p", [0.0, 1.0, -0.2, 1.4])
    def test_quantile_domain(self, p):
        with pytest.raises(ValueError):
            std_normal_quantile(p)


class TestBivariateCdf:
    def test_independence_at_median(self):
        assert abs(bvn_cdf(0.0, 0.0, 0.0) - 0.25) <= 1e-15

    def test_arcsin_identity_scalar(self):
        assert abs(bvn_cdf(0.0, 0.0, 0.5) - 1.0 / 3.0) <= 1e-14

    @pytest.mark.parametrize("args,want", BVN_ORACLE)
    def test_quadrature_oracle(self, args, want):
        assert abs(bvn_cdf(*args) - want) <= 1e-10

    def test_arcsin_identity_sweep(self):
        rho = np.linspace(-0.95, 0.95, 19)
        want = 0.25 + np.arcsin(rho) / (2.0 * np.pi)
        assert np.max(np.abs(bvn_cdf(0.0, 0.0, rho) - want)) <= 1e-12

    def test_sentinels(self):
        assert bvn_cdf(np.inf, np.inf, 0.3) == 1.0
        assert bvn_cdf(-np.inf, 1.0, 0.3) == 0.0
        assert bvn_cdf(1.0, -np.inf, -0.5) == 0.0
        assert abs(bvn_cdf(np.inf, 1.0, 0.7) - std_normal_cdf(1.0)) <= 1e-15

    def test_rejects_nan_and_bad_rho(self):
        with pytest.raises(ValueError):
            bvn_cdf(np.nan, 0.0, 0.0)
        with pytest.raises(ValueError):
            bvn_cdf(0.0, 0.0, 1.5)

    def test_lattice_properties(self):
        # Frechet bounds, independence factorization, and symmetry on the
        # 20 x 20 x 19 lattice.
        z = np.linspace(-3.5, 3.5, 20)
        a, b = np.meshgrid(z, z)
        pa, pb = std_normal_cdf(a), std_normal_cdf(b)
        for rho in np.linspace(-0.95, 0.95, 19):
            p = bvn_cdf(a, b, rho)
            lower = np.maximum(0.0, pa + pb - 1.0)
            upper = np.minimum(pa, pb)
            assert np.all(p >= lower - 1e-13)
            assert np.all(p <= upper + 1e-13)
            assert np.max(np.abs(p - bvn_cdf(b, a, rho))) <= 1e-15
        assert np.max(np.abs(bvn_cdf(a, b, 0.0) - pa * pb)) <= 1e-14

    @settings(max_examples=200, deadline=None)
    @given(
        st.floats(-5, 5, allow_nan=False),
        st.floats(-5, 5, allow_nan=False),
        st.floats(-1, 1, allow_nan=False),
    )
    def test_bounds_property(self, a, b, rho):
        p = bvn_cdf(a, b, rho)
        lower = max(0.0, std_normal_cdf(a) + std_normal_cdf(b) - 1.0)
        upper = min(std_normal_cdf(a), std_normal_cdf(b))
        assert lower - 1e-13 <= p <= upper + 1e-13

    def test_per_row_rule_matches_row_by_row(self):
        # A batch mixing |rho| from every quadrature band (and the high-
        # correlation branch), longer than one block, gives each row the value
        # a call on that row alone gives.
        rng = np.random.default_rng(11)
        n = BLOCK_ROWS + 301
        a = rng.normal(scale=1.5, size=n)
        b = rng.normal(scale=1.5, size=n)
        bands = np.array([0.0, 0.29, 0.3, 0.5, 0.75, 0.9, 0.925, 0.97])
        rho = rng.choice(bands, size=n) * rng.choice([-1.0, 1.0], size=n)
        rho += rng.uniform(-0.02, 0.0, size=n) * np.sign(rho)
        got = bvn_cdf(a, b, rho)
        want = np.array([bvn_cdf(a[i], b[i], rho[i]) for i in range(n)])
        assert np.max(np.abs(got - want)) <= 1e-15

    def test_fixed_threshold_matches_general(self):
        rng = np.random.default_rng(3)
        a = np.r_[rng.normal(size=50), np.inf, -np.inf, 1.0]
        b = np.r_[rng.normal(size=50), 1.0, 0.5, np.inf]
        ev = FixedThresholdBvn(a, b)
        for rho in (-0.98, -0.4, 0.0, 0.31, 0.77, 0.95):
            got = ev.cdf(np.full(a.size, rho))
            want = bvn_cdf(a, b, rho)
            assert np.max(np.abs(got - want)) <= 5e-15

    def test_pinned_values(self):
        # bvn_cdf and bvn_pdf on the threshold pairs above (with +/-inf rows
        # and |rho| > 0.925), frozen from the two separate evaluators that
        # FixedThresholdBvn replaced.
        pinned = json.loads((Path(__file__).parent / "data" / "bvn_pinned.json").read_text())
        a, b = np.array(pinned["a"]), np.array(pinned["b"])
        assert a.size == 53 and np.isinf(a).sum() == 2 and np.isinf(b).sum() == 1
        for rho, cdf, pdf in zip(pinned["rho"], pinned["cdf"], pinned["pdf"]):
            assert np.max(np.abs(bvn_cdf(a, b, rho) - np.array(cdf))) <= 1e-15
            assert np.max(np.abs(bvn_pdf(a, b, rho) - np.array(pdf))) <= 1e-15
            ev = FixedThresholdBvn(a, b)
            assert np.max(np.abs(ev.pdf(rho) - np.array(pdf))) <= 1e-15


class TestDensityAndPartials:
    def test_density_at_origin(self):
        assert abs(bvn_pdf(0.0, 0.0, 0.0) - 1.0 / (2.0 * np.pi)) <= 1e-16

    def test_density_independence_factorization(self):
        want = std_normal_pdf(1.0) * std_normal_pdf(2.0)
        assert abs(bvn_pdf(1.0, 2.0, 0.0) - want) <= 1e-16

    def test_density_symmetry(self):
        assert bvn_pdf(0.7, -1.1, 0.6) == bvn_pdf(-1.1, 0.7, 0.6)

    def test_density_matches_rho_difference(self):
        # Correlation-derivative identity: d/drho of the CDF is the density.
        a, b, rho = 0.7, -1.1, 0.6
        h = 1e-5
        fd = (bvn_cdf(a, b, rho + h) - bvn_cdf(a, b, rho - h)) / (2.0 * h)
        assert abs(bvn_pdf(a, b, rho) - fd) / abs(fd) <= 1e-6

    def test_partials_closed_form_origin(self):
        d_a, d_b, d_rho = cdf_partials(0.0, 0.0, 0.0)
        assert abs(d_a - 0.5 * std_normal_pdf(0.0)) <= 1e-15
        assert abs(d_b - 0.5 * std_normal_pdf(0.0)) <= 1e-15
        assert abs(d_rho - 1.0 / (2.0 * np.pi)) <= 1e-15

    def test_partials_marginal_limit(self):
        d_a, _, d_rho = cdf_partials(0.8, np.inf, 0.4)
        assert abs(d_a - std_normal_pdf(0.8)) <= 1e-15
        assert d_rho == 0.0

    def test_partials_finite_difference_case(self):
        a, b, rho = 0.3, 0.8, -0.4
        h = 1e-5
        d_a, d_b, d_rho = cdf_partials(a, b, rho)
        for got, fd in (
            (d_a, (bvn_cdf(a + h, b, rho) - bvn_cdf(a - h, b, rho)) / (2 * h)),
            (d_b, (bvn_cdf(a, b + h, rho) - bvn_cdf(a, b - h, rho)) / (2 * h)),
            (d_rho, (bvn_cdf(a, b, rho + h) - bvn_cdf(a, b, rho - h)) / (2 * h)),
        ):
            assert abs(got - fd) / abs(fd) <= 1e-6

    def test_partials_finite_difference_sweep(self):
        # Relative agreement wherever the derivative is large enough for the
        # finite difference itself to carry 6 digits; tiny derivatives are
        # checked absolutely (the difference quotient noise floor is ~1e-11).
        rng = np.random.default_rng(7)
        h = 1e-5
        for _ in range(150):
            a, b = rng.uniform(-3.5, 3.5, 2)
            rho = rng.uniform(-0.99, 0.99)
            parts = cdf_partials(a, b, rho)
            fds = (
                (bvn_cdf(a + h, b, rho) - bvn_cdf(a - h, b, rho)) / (2 * h),
                (bvn_cdf(a, b + h, rho) - bvn_cdf(a, b - h, rho)) / (2 * h),
                (bvn_cdf(a, b, rho + h) - bvn_cdf(a, b, rho - h)) / (2 * h),
            )
            for got, fd in zip(parts, fds):
                if abs(fd) >= 1e-4:
                    assert abs(got - fd) / abs(fd) <= 1e-6
                else:
                    assert abs(got - fd) <= 1e-9


class TestLink:
    def test_at_zero(self):
        rho, deriv = link_rho(0.0)
        assert rho == 0.0 and deriv == 1.0

    def test_inverse_transform(self):
        assert abs(link_rho(np.arctanh(0.5))[0] - 0.5) <= 1e-15

    def test_derivative_identity(self):
        _, deriv = link_rho(1.0)
        assert abs(deriv - (1.0 - np.tanh(1.0) ** 2)) <= 1e-15

    def test_saturation_clamp(self):
        rho, _ = link_rho([30.0, -30.0])
        assert rho[0] == 1.0 - EPS_RHO
        assert rho[1] == -(1.0 - EPS_RHO)

    @given(st.floats(-20, 20, allow_nan=False))
    def test_strictly_increasing_and_bounded(self, u):
        rho, _ = link_rho(u)
        assert abs(rho) <= 1.0 - EPS_RHO
        eps = 1e-4
        if abs(u) < 8.0:
            assert link_rho(u + eps)[0] > rho

    def test_clamp_rho_rejects(self):
        with pytest.raises(ValueError):
            clamp_rho(1.2)
        assert clamp_rho(1.0) == 1.0 - EPS_RHO
