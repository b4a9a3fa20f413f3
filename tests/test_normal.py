"""Gaussian primitive checks: frozen high-precision oracle values, closed-form
identities, Frechet bounds, finite-difference agreement of the CDF's
partials, and scipy.special as an independent reference for Phi.
"""

import json
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import ndtr

from bdreg import normal
from bdreg.bootstrap import _NORMAL_IQR
from bdreg.normal import (
    BLOCK_ROWS,
    EPS_RHO,
    _MODERATE_RULES,
    _RULE_EDGES,
    FixedThresholdBvn,
    _CorrelationPlan,
    _ndtr,
    _path_state,
    bvn_cdf,
    clamp_rho,
    link_rho,
    std_normal_pdf,
)

from conftest import bvn_density

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


def phi2(a, b, rho):
    """The library's bivariate normal density at one threshold pair, as
    FixedThresholdBvn.pdf_drho gives it."""
    return FixedThresholdBvn([a], [b]).pdf_drho(rho)[0][0]


# Phi against scipy.special.ndtr: one ulp of 1 absolute, and relative on
# normal (not subnormal) results, where both carry full precision.
NDTR_ABS = 2.3e-16
NDTR_REL = 1e-15
# The path rules' sines against np.sin, in ulps, in the 6-, 12- and 20-node
# bands.
SINE_ULPS = (2, 3, 4)
# Cephes's ndtr switches at |x| = 1 (erf to erfc), |x| = sqrt 2 (erfc's own
# erf branch to its P/Q rational), |x| = 8 sqrt 2 (P/Q to R/S) and where
# exp(-x^2 / 2) underflows.
NDTR_EDGES = (1.0, np.sqrt(2.0), 8.0 * np.sqrt(2.0), np.sqrt(2.0 * 7.09782712893383996843e2))


def assert_close_to_ndtr(x):
    got, want = _ndtr(x), ndtr(x)
    assert got.shape == want.shape
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan)
    got, want = got[~nan], want[~nan]
    err = np.abs(got - want)
    assert np.max(err, initial=0.0) <= NDTR_ABS
    normal = want >= np.finfo(float).tiny
    assert np.max(err[normal] / want[normal], initial=0.0) <= NDTR_REL


class TestUnivariate:
    def test_tail_limit(self):
        assert abs(_ndtr(40.0) - 1.0) <= 1e-15

    def test_oracle_value(self):
        assert abs(_ndtr(1.0) - PHI_AT_1) <= 1e-15

    def test_ndtr_matches_scipy_on_draws(self):
        rng = np.random.default_rng(17)
        x = np.concatenate([rng.normal(0.0, 1.0, 400_000), rng.normal(0.0, 4.0, 400_000),
                            rng.uniform(-40.0, 40.0, 200_000)])
        assert_close_to_ndtr(x)

    def test_ndtr_at_branch_edges(self):
        edges = np.array(NDTR_EDGES)
        x = np.concatenate([edges, np.nextafter(edges, 0.0), np.nextafter(edges, np.inf)])
        assert_close_to_ndtr(np.concatenate([x, -x]))

    def test_ndtr_limits_and_nan_without_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _ndtr([np.inf, -np.inf, np.nan, 1e308, -1e308])
        assert got[0] == 1.0 and got[1] == 0.0 and np.isnan(got[2])
        assert got[3] == 1.0 and got[4] == 0.0

    def test_ndtr_keeps_shape(self):
        # 0-d and 2-D inputs, the latter longer than one block, give the
        # values the flat call gives, in the input's shape.
        assert _ndtr(0.3).shape == () and _ndtr(0.3) == _ndtr([0.3])[0]
        x = np.random.default_rng(5).normal(0.0, 3.0, (3, BLOCK_ROWS + 7))
        got = _ndtr(x)
        assert got.shape == x.shape
        np.testing.assert_array_equal(got, _ndtr(x.ravel()).reshape(x.shape))
        assert_close_to_ndtr(x)

    def test_quantile_oracle(self):
        # The robust SE's denominator is the standard normal's IQR.
        assert abs(_NORMAL_IQR / 2.0 - QUANTILE_75) <= 1e-14


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
        assert abs(bvn_cdf(np.inf, 1.0, 0.7) - ndtr(1.0)) <= 1e-15

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
        pa, pb = ndtr(a), ndtr(b)
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
        lower = max(0.0, ndtr(a) + ndtr(b) - 1.0)
        upper = min(ndtr(a), ndtr(b))
        assert lower - 1e-13 <= p <= upper + 1e-13

    def test_per_row_rule_matches_row_by_row(self):
        # A batch mixing |rho| from every quadrature band and the high-
        # correlation branch, with more than a block of high rows alone and
        # saturated rows (+/-40, +/-inf) interleaved, gives each row the value
        # a call on that row alone gives: the same bits for high and
        # saturated rows, within 1e-15 for path rows (a one-row matrix
        # product may round the rule's sum differently). Every band's rows
        # get the bits a call on that band's rows alone gives, so no band
        # moves another's values.
        rng = np.random.default_rng(11)
        n = BLOCK_ROWS + 1400
        a = rng.normal(scale=1.5, size=n)
        b = rng.normal(scale=1.5, size=n)
        bands = np.array([0.0, 0.29, 0.3, 0.5, 0.75, 0.9, 0.925, 0.97])
        rho = rng.choice(bands, size=n) * rng.choice([-1.0, 1.0], size=n)
        rho += rng.uniform(-0.02, 0.0, size=n) * np.sign(rho)
        high = rng.permutation(n)[:BLOCK_ROWS + 200]
        rho[high] = rng.uniform(0.926, 1.0, high.size) * rng.choice([-1.0, 1.0], high.size)
        limits = np.array([40.0, -40.0, np.inf, -np.inf])
        a[::61], b[30::61] = rng.choice(limits, a[::61].size), rng.choice(limits, b[30::61].size)
        saturated = (np.abs(a) >= 40.0) | (np.abs(b) >= 40.0)
        absr = np.abs(rho)
        band = np.where(saturated, 4, np.digitize(absr, [0.3, 0.75]) + (absr > 0.925))
        assert (band == 3).sum() > BLOCK_ROWS
        assert set(band) == {0, 1, 2, 3, 4}
        got = bvn_cdf(a, b, rho)
        for k in range(5):
            rows = band == k
            np.testing.assert_array_equal(got[rows], bvn_cdf(a[rows], b[rows], rho[rows]))
        want = np.array([bvn_cdf(a[i], b[i], rho[i]) for i in range(n)])
        np.testing.assert_array_equal(got[band >= 3], want[band >= 3])
        assert np.max(np.abs(got - want)) <= 1e-15

    def test_shared_plan_gives_the_bits_of_a_plain_call(self, monkeypatch):
        # One _CorrelationPlan serves several threshold sets at the same
        # correlations, as a surface's pairs in one dependence cell share it.
        # Over every band and its edges (0.3, 0.75, 0.925, both signs), with
        # more than BLOCK_ROWS rows in one band and saturated thresholds
        # (+/-40, +/-inf, +/-1e200) interleaved, each row gets the bits of a
        # plain call on the same thresholds and correlations.
        rng = np.random.default_rng(23)
        n = 2 * BLOCK_ROWS + 700
        rho = rng.choice([0.1, 0.5, 0.8, 0.97], size=n, p=[0.55, 0.2, 0.15, 0.1])
        rho *= rng.uniform(0.9, 1.0, n) * rng.choice([-1.0, 1.0], n)
        edges = np.array([0.3, 0.75, 0.925])
        at = rng.permutation(n)[:120]
        rho[at] = rng.choice(np.r_[edges, -edges, np.nextafter(edges, 1.0)], at.size)
        plan = _CorrelationPlan(rho)
        np.testing.assert_array_equal(np.asarray(plan), clamp_rho(rho))
        assert [rows.size > 0 for rows in plan.bands] == [True] * 4
        assert max(rows.size for rows in plan.bands) > BLOCK_ROWS

        limits = np.array([40.0, -40.0, np.inf, -np.inf, 1e200, -1e200])
        a, b = rng.normal(scale=1.5, size=(2, n))
        a_sat, b_sat = a.copy(), b.copy()
        a_sat[::37] = rng.choice(limits, a_sat[::37].size)
        b_sat[11::53] = rng.choice(limits, b_sat[11::53].size)
        # a_hi saturates rows of the high-correlation branch alone, so its
        # pairs read the path bands' stored state. The clean pair comes again
        # last: a mixed pair that wrote into the plan's state changes its bits.
        a_hi = a.copy()
        a_hi[plan.bands[3][::5]] = 40.0
        pairs = ((a, b), (a_sat, b_sat), (b_sat, a), (a_hi, b), (a, np.full(n, 1e200)), (a, b))
        for ta, tb in pairs:
            np.testing.assert_array_equal(bvn_cdf(ta, tb, plan), bvn_cdf(ta, tb, rho))

        # A fully saturated set takes its limits and runs no quadrature.
        def no_quadrature(*args):
            raise AssertionError("quadrature ran on saturated rows")

        full = {"inf": np.full(n, np.inf), "-40": np.full(n, -40.0), "1e200": np.full(n, 1e200)}
        want = {name: bvn_cdf(t, b, rho) for name, t in full.items()}
        monkeypatch.setattr(normal, "_path_sum", no_quadrature)
        monkeypatch.setattr(normal, "_bvnu_high", no_quadrature)
        for name, t in full.items():
            np.testing.assert_array_equal(bvn_cdf(t, b, plan), want[name])
            np.testing.assert_array_equal(bvn_cdf(b, t, plan), want[name])
        np.testing.assert_array_equal(want["-40"], 0.0)
        np.testing.assert_array_equal(want["inf"], _ndtr(b))
        with pytest.raises(ValueError, match="plan"):
            bvn_cdf(a[:-1], b[:-1], plan)

    def test_path_rule_matches_a_64_node_rule_on_every_band(self):
        # The node-major 6-, 12- and 20-node path rules against a 64-node
        # Gauss-Legendre evaluation of the same integral, Phi(a) Phi(b) +
        # int_0^asin(rho) exp(-(a^2 + b^2 - 2 ab sin t) / (2 cos^2 t)) dt
        # / (2 pi), at each band edge (0.3, 0.75, 0.925) and on both sides
        # of it, with both signs, in one call mixing every band.
        rng = np.random.default_rng(29)
        edges = np.array([0.3, 0.75, 0.925])
        near = np.r_[edges, np.nextafter(edges, 0.0), edges - 0.01, [0.0, 0.1, 0.5, 0.85]]
        rho = np.repeat(np.r_[near, -near], 60)
        a, b = rng.normal(scale=1.5, size=(2, rho.size))
        nodes, weights = np.polynomial.legendre.leggauss(64)
        top = np.arcsin(rho)[:, None]
        sn = np.sin(0.5 * top * (nodes + 1.0))
        terms = np.exp((sn * (a * b)[:, None] - 0.5 * (a * a + b * b)[:, None]) / (1.0 - sn * sn))
        want = ndtr(a) * ndtr(b) + 0.5 * top[:, 0] * (terms @ weights) / (2.0 * np.pi)
        assert np.max(np.abs(bvn_cdf(a, b, rho) - want)) <= 1e-15
        np.testing.assert_array_equal(bvn_cdf(a, b, _CorrelationPlan(rho)), bvn_cdf(a, b, rho))

    @pytest.mark.parametrize("n", [0, 1, 2000, BLOCK_ROWS + 300])
    @pytest.mark.parametrize("k", [0, 1, 2])
    def test_path_state_sines_match_np_sin(self, k, n):
        # The sines of the k-th path rule, a matrix product on the odd powers
        # of half asin(rho), against np.sin at the same nodes, on |rho| drawn
        # across the band with both signs, its edges and their neighbours,
        # and 0. The bounds are those measured: 2, 3 and 4 ulps.
        rng = np.random.default_rng(31 + k)
        lo, hi = (0.0, *_RULE_EDGES)[k:k + 2]
        rho = rng.uniform(lo, hi, n) * rng.choice([-1.0, 1.0], n)
        ends = np.array([0.0, lo, np.nextafter(lo, 1.0), np.nextafter(hi, 0.0), hi])
        rho[:10] = np.r_[ends, -ends][:n]
        half, sn, inv = _path_state(rho, _MODERATE_RULES[k][0])
        np.testing.assert_array_equal(half, 0.5 * np.arcsin(rho))
        nodes = np.polynomial.legendre.leggauss(sn.shape[0])[0] + 1.0
        want = np.sin(np.multiply.outer(nodes, half))
        assert sn.shape == inv.shape == (nodes.size, n)
        assert np.all(np.abs(sn - want) <= SINE_ULPS[k] * np.spacing(np.abs(want)))
        np.testing.assert_array_equal(inv, 1.0 / (1.0 - sn * sn))

    @pytest.mark.parametrize("k", [0, 1, 2])
    def test_shared_plan_gives_the_bits_of_a_plain_call_beyond_a_block(self, k):
        # A path band with more than BLOCK_ROWS rows runs in two blocks, and
        # a plan shared by several threshold sets gives each the bits of a
        # plain call, with a set whose saturated rows make the plan compute
        # its live blocks' state again.
        rng = np.random.default_rng(37 + k)
        n = BLOCK_ROWS + 300
        lo, hi = (0.0, *_RULE_EDGES)[k:k + 2]
        rho = rng.uniform(lo, hi, n) * rng.choice([-1.0, 1.0], n)
        plan = _CorrelationPlan(rho)
        assert plan.bands[k].size == n
        a, b = rng.normal(scale=1.5, size=(2, n))
        a_sat = a.copy()
        a_sat[::29] = np.inf
        for ta, tb in ((a, b), (b, a), (a_sat, b), (a, b)):
            np.testing.assert_array_equal(bvn_cdf(ta, tb, plan), bvn_cdf(ta, tb, rho))

    @settings(max_examples=300, deadline=None)
    @given(
        st.floats(-39.99, 39.99, allow_nan=False),
        st.floats(-39.99, 39.99, allow_nan=False),
        st.floats(-0.925, 0.925, allow_nan=False),
    )
    @example(39.99, 39.99, 0.925)
    @example(-39.99, -39.99, 0.925)
    @example(39.99, -39.99, -0.925)
    @example(-39.99, 39.99, -0.925)
    def test_path_rule_raises_no_floating_point_warning(self, a, b, rho):
        # The path rule's exponent (sin ab - (a^2 + b^2) / 2) / (1 - sin^2)
        # is never positive, so exp runs with no errstate: no overflow (or
        # any other RuntimeWarning) at finite thresholds below the
        # saturation edge, on every path band.
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            p = bvn_cdf(a, b, rho)
        assert 0.0 <= p <= 1.0

    def test_high_band_runs_in_blocks(self):
        # The high-correlation branch's (rows, nodes) temporaries are blocked
        # like the path rules', so a long call's traced peak stays a few
        # times its per-row arrays (0.4 MB each here).
        rng = np.random.default_rng(5)
        n = 50_000
        ev = FixedThresholdBvn(rng.normal(size=n), rng.normal(size=n))
        rho = rng.uniform(0.93, 0.999, n) * rng.choice([-1.0, 1.0], n)
        tracemalloc.start()
        try:
            ev.cdf(rho)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16e6

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
        # bvn_cdf and the density of pdf_drho on the threshold pairs above
        # (with +/-inf rows and |rho| > 0.925), frozen from the two separate
        # evaluators that FixedThresholdBvn replaced.
        pinned = json.loads((Path(__file__).parent / "data" / "bvn_pinned.json").read_text())
        a, b = np.array(pinned["a"]), np.array(pinned["b"])
        assert a.size == 53 and np.isinf(a).sum() == 2 and np.isinf(b).sum() == 1
        for rho, cdf, pdf in zip(pinned["rho"], pinned["cdf"], pinned["pdf"]):
            assert np.max(np.abs(bvn_cdf(a, b, rho) - np.array(cdf))) <= 1e-15
            dens = FixedThresholdBvn(a, b).pdf_drho(rho)[0]
            assert np.max(np.abs(dens - np.array(pdf))) <= 1e-15


class TestDensityAndPartials:
    def test_density_at_origin(self):
        assert abs(phi2(0.0, 0.0, 0.0) - 1.0 / (2.0 * np.pi)) <= 1e-16

    def test_density_independence_factorization(self):
        want = std_normal_pdf(1.0) * std_normal_pdf(2.0)
        assert abs(phi2(1.0, 2.0, 0.0) - want) <= 1e-16

    def test_density_symmetry(self):
        assert phi2(0.7, -1.1, 0.6) == phi2(-1.1, 0.7, 0.6)

    def test_density_matches_rho_difference(self):
        # Correlation-derivative identity: d/drho of the CDF is the density.
        a, b, rho = 0.7, -1.1, 0.6
        h = 1e-5
        fd = (bvn_cdf(a, b, rho + h) - bvn_cdf(a, b, rho - h)) / (2.0 * h)
        assert abs(phi2(a, b, rho) - fd) / abs(fd) <= 1e-6

    def test_partials_finite_difference_sweep(self):
        # All three partials of the CDF against central differences over a
        # random sweep: d/da = phi(a) Phi((b - rho a) / sqrt(1 - rho^2)), d/db
        # by symmetry, and d/drho = phi2. Relative agreement wherever the
        # derivative is large enough for the finite difference itself to
        # carry 6 digits; tiny derivatives are checked absolutely (the
        # difference quotient noise floor is ~1e-11).
        rng = np.random.default_rng(7)
        h = 1e-5
        for _ in range(150):
            a, b = rng.uniform(-3.5, 3.5, 2)
            rho = rng.uniform(-0.99, 0.99)
            s = np.sqrt(1.0 - rho * rho)
            parts = (
                std_normal_pdf(a) * ndtr((b - rho * a) / s),
                std_normal_pdf(b) * ndtr((a - rho * b) / s),
                phi2(a, b, rho),
            )
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

    def test_density_rho_derivative_matches_difference(self):
        rng = np.random.default_rng(11)
        a, b = rng.uniform(-3.0, 3.0, size=200), rng.uniform(-3.0, 3.0, size=200)
        rho = rng.uniform(-0.95, 0.95, size=200)
        ev = FixedThresholdBvn(a, b)
        dens, slope = ev.pdf_drho(rho)
        np.testing.assert_allclose(dens, bvn_density(a, b, rho), rtol=1e-14, atol=0.0)
        h = 1e-6
        fd = (ev.pdf_drho(rho + h)[0] - ev.pdf_drho(rho - h)[0]) / (2.0 * h)
        big = np.abs(fd) >= 1e-4
        assert np.max(np.abs(slope[big] - fd[big]) / np.abs(fd[big])) <= 1e-6
        assert np.max(np.abs(slope[~big] - fd[~big])) <= 1e-9

    def test_density_rho_derivative_zero_at_infinite_thresholds(self):
        ev = FixedThresholdBvn([np.inf, -np.inf, 0.4, 0.4], [0.3, 0.3, np.inf, -np.inf])
        dens, slope = ev.pdf_drho(0.6)
        assert np.array_equal(dens, np.zeros(4)) and np.array_equal(slope, np.zeros(4))

    @pytest.mark.parametrize("rho", [0.5, 0.95, -0.95])
    def test_saturated_thresholds_resolve_as_infinite_ones(self, rho):
        # From |t| = 40 on Phi(t) is exactly 0 or 1 in double, so such a
        # threshold takes the +/-inf result bit for bit, in both correlation
        # branches (|rho| above and below 0.925).
        for big in (40.0, 1e100, 1e200):
            for t in (big, -big):
                inf = np.copysign(np.inf, t)
                partners = np.array([-3.0, -0.5, 0.0, 1.2, 39.9, t, -t])
                limits = np.r_[partners[:5], inf, -inf]
                np.testing.assert_array_equal(bvn_cdf(t, partners, rho),
                                              bvn_cdf(inf, limits, rho))
                np.testing.assert_array_equal(bvn_cdf(partners, t, rho),
                                              bvn_cdf(limits, inf, rho))
                ev = FixedThresholdBvn(np.r_[np.full(7, t), partners],
                                       np.r_[partners, np.full(7, t)])
                dens, slope = ev.pdf_drho(rho)
                assert not dens.any() and not slope.any()


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
