"""Standard normal primitives: univariate CDF/quantile, the bivariate CDF and
density, their partial derivatives, and the tanh correlation link.

FixedThresholdBvn is the one evaluator of the bivariate CDF and density: it
holds a set of threshold pairs and evaluates at any correlation. The
dependence fits keep one per grid pair; bvn_cdf and bvn_pdf build one for a
single call.

The bivariate CDF follows the Drezner-Wesolowsky/Genz construction: Gauss-
Legendre quadrature along the correlation path for moderate correlation, and
the reflection/expansion branch for |rho| > 0.925. The moderate-correlation
rule is chosen per row by that row's |rho|: 6 nodes below 0.3, 12 below 0.75,
20 otherwise; the high-correlation branch always uses 20. Each rule keeps the
absolute error a few ulps from zero over the range it serves, well beyond
what the likelihood optimizers can see. The moderate-correlation quadrature
runs in place, in blocks of at most BLOCK_ROWS rows, so its (rows, nodes)
temporaries stay a fixed size however many rows a call brings; the
high-correlation branch and the per-row arrays of a call are not blocked.

Thresholds at +/-inf are legal inputs to the bivariate functions and resolve
to the exact marginal limits before any quadrature runs.
"""

from __future__ import annotations

import numpy as np
from scipy import special

__all__ = [
    "EPS_RHO",
    "FixedThresholdBvn",
    "bvn_cdf",
    "bvn_pdf",
    "cdf_partials",
    "clamp_rho",
    "link_rho",
    "std_normal_cdf",
    "std_normal_pdf",
    "std_normal_quantile",
]

# Correlations are clamped to |rho| <= 1 - EPS_RHO so that sqrt(1 - rho^2)
# and the quadrature stay well conditioned when the link saturates.
EPS_RHO = 1e-7

_SQRT_2PI = np.sqrt(2.0 * np.pi)
# Gauss-Legendre rules for the correlation-path quadrature; the node count
# grows with |rho| (6/12/20), matching the accuracy of the fixed 20-point
# rule at a fraction of the work for small correlations. A moderate row uses
# the 6-node rule below |rho| = _RULE_EDGES[0], the 12-node rule below
# _RULE_EDGES[1], and the 20-node rule above; _MODERATE_RULES holds each
# rule's nodes plus one, and its weights, in that order.
_GL_RULES = {n: np.polynomial.legendre.leggauss(n) for n in (6, 12, 20)}
_GL_NODES, _GL_WEIGHTS = _GL_RULES[20]
_RULE_EDGES = (0.3, 0.75)
_MODERATE_RULES = tuple((nodes + 1.0, weights) for nodes, weights in _GL_RULES.values())
# Rows per quadrature block: bounds the (rows, nodes) temporaries.
BLOCK_ROWS = 4096


def std_normal_cdf(z):
    """Standard normal CDF. Rejects non-finite input."""
    z = np.asarray(z, dtype=float)
    if not np.all(np.isfinite(z)):
        raise ValueError("std_normal_cdf requires finite input")
    out = special.ndtr(z)
    return float(out) if out.ndim == 0 else out


def std_normal_pdf(z):
    z = np.asarray(z, dtype=float)
    out = np.exp(-0.5 * z * z) / _SQRT_2PI
    return float(out) if out.ndim == 0 else out


def std_normal_quantile(p):
    """Inverse standard normal CDF for p strictly inside (0, 1)."""
    p = np.asarray(p, dtype=float)
    if not np.all((p > 0.0) & (p < 1.0)):
        raise ValueError("std_normal_quantile requires 0 < p < 1")
    out = special.ndtri(p)
    return float(out) if out.ndim == 0 else out


def clamp_rho(rho):
    """Clamp correlations into [-(1 - EPS_RHO), 1 - EPS_RHO].

    Values with |rho| > 1 (or NaN) are rejected rather than clamped: they
    indicate a bug upstream, not link saturation.
    """
    rho = np.asarray(rho, dtype=float)
    if np.any(np.isnan(rho)) or np.any(np.abs(rho) > 1.0):
        raise ValueError("correlation must lie in [-1, 1]")
    out = np.clip(rho, -1.0 + EPS_RHO, 1.0 - EPS_RHO)
    return float(out) if out.ndim == 0 else out


def link_rho(u):
    """Vectorized tanh link: returns (clamped rho, d rho / d u)."""
    u = np.asarray(u, dtype=float)
    rho = np.clip(np.tanh(u), -1.0 + EPS_RHO, 1.0 - EPS_RHO)
    return rho, 1.0 - rho * rho


def _correction_block(hk, hs, r, nodes1, weights):
    # The correlation-path integral over theta in [0, asin(r)] with one rule,
    # in place in one (rows, nodes) buffer and its denominator.
    asr = np.arcsin(r)
    sn = np.multiply.outer(0.5 * asr, nodes1)
    np.sin(sn, out=sn)
    den = np.multiply(sn, sn)
    np.subtract(1.0, den, out=den)
    sn *= hk[:, None]
    sn -= hs[:, None]
    sn /= den
    with np.errstate(over="ignore"):
        terms = np.exp(sn, out=sn)
    return 0.5 * asr * (terms @ weights) / (2.0 * np.pi)


def _moderate_correction(hk, hs, r):
    # Quadrature on theta in [0, asin(r)] of the correlation-path integrand;
    # add Phi(-h) Phi(-k) to get P(X > h, Y > k) for |r| <= 0.925. Each row
    # gets the smallest rule for its own |r|.
    out = np.empty(r.shape)
    absr = np.abs(r)
    band = (absr >= _RULE_EDGES[0]).astype(np.int8) + (absr >= _RULE_EDGES[1])
    for k, (nodes1, weights) in enumerate(_MODERATE_RULES):
        rows = np.flatnonzero(band == k)
        for lo in range(0, rows.size, BLOCK_ROWS):
            sel = rows[lo:lo + BLOCK_ROWS]
            out[sel] = _correction_block(hk[sel], hs[sel], r[sel], nodes1, weights)
    return out


def _bvnu_high(h, k, r):
    # P(X > h, Y > k) for 0.925 < |r| < 1: expansion around |r| = 1 plus a
    # quadrature correction (the reflection branch of the Genz scheme).
    twopi = 2.0 * np.pi
    neg = r < 0.0
    k = np.where(neg, -k, k)
    hk = h * k

    a2 = (1.0 - r) * (1.0 + r)
    a = np.sqrt(a2)
    bs = (h - k) ** 2
    c = (4.0 - hk) / 8.0
    d = (12.0 - hk) / 16.0
    asr0 = -(bs / a2 + hk) / 2.0

    bvn = np.where(
        asr0 > -100.0,
        a * np.exp(np.maximum(asr0, -745.0))
        * (1.0 - c * (bs - a2) * (1.0 - d * bs / 5.0) / 3.0 + c * d * a2 * a2 / 5.0),
        0.0,
    )
    b = np.sqrt(bs)
    sp = _SQRT_2PI * special.ndtr(-b / a)
    bvn = np.where(
        -hk < 100.0,
        bvn - np.exp(np.minimum(-hk / 2.0, 700.0)) * sp * b
        * (1.0 - c * bs * (1.0 - d * bs / 5.0) / 3.0),
        bvn,
    )

    ah = a[:, None] / 2.0
    xs = (ah * (_GL_NODES[None, :] + 1.0)) ** 2
    rs = np.sqrt(1.0 - xs)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        asr1 = -(bs[:, None] / xs + hk[:, None]) / 2.0
        sp1 = 1.0 + c[:, None] * xs * (1.0 + d[:, None] * xs)
        ep = np.exp(-hk[:, None] * (1.0 - rs) / (2.0 * (1.0 + rs))) / rs
        contrib = np.where(
            asr1 > -100.0, ah * np.exp(np.maximum(asr1, -745.0)) * (ep - sp1), 0.0
        )
    bvn = bvn + contrib @ _GL_WEIGHTS
    bvn = -bvn / twopi

    pos_part = bvn + special.ndtr(-np.maximum(h, k))
    neg_part = -bvn + np.maximum(0.0, special.ndtr(-h) - special.ndtr(-k))
    return np.where(neg, neg_part, pos_part)


class FixedThresholdBvn:
    """The bivariate normal CDF and density at fixed threshold pairs.

    This is the package's one evaluator of Phi2 and phi2. A dependence fit
    evaluates Phi2(a_i, b_i; rho_i) many times with the same thresholds and a
    new correlation each iteration, so everything that does not depend on rho
    is computed once here; bvn_cdf and bvn_pdf are one-shot uses. Thresholds
    may be +/-inf: such rows are constant in rho, resolve exactly to the
    marginal limits (density zero), and are set aside once.
    """

    def __init__(self, a, b):
        a = np.asarray(a, dtype=float).ravel()
        b = np.asarray(b, dtype=float).ravel()
        if a.shape != b.shape:
            raise ValueError("threshold arrays must have equal length")
        if np.any(np.isnan(a)) or np.any(np.isnan(b)):
            raise ValueError("thresholds must not be NaN")
        self.n = a.size
        self.pa = special.ndtr(a)
        self.pb = special.ndtr(b)
        finite = np.isfinite(a) & np.isfinite(b)
        # _finite and _const are None when every row is finite, the common
        # case, which then needs no masked copies.
        self._finite = self._const = None
        pa, pb = self.pa, self.pb
        if not np.all(finite):
            self._finite = finite
            neg = np.isneginf(a) | np.isneginf(b)
            self._const = np.where(neg, 0.0, np.where(np.isposinf(a), pb, pa))
            a, b, pa, pb = a[finite], b[finite], pa[finite], pb[finite]
        self._a, self._b = a, b
        self._hk = a * b
        self._hs = 0.5 * (a * a + b * b)
        self._prod = pa * pb

    def _rows(self, rho):
        # The clamped correlation of every finite row.
        r = np.broadcast_to(np.asarray(clamp_rho(rho), dtype=float), (self.n,))
        return r if self._finite is None else r[self._finite]

    def _scatter(self, vals, const):
        # Finite-row values into a full-length array holding const elsewhere.
        if self._finite is None:
            return vals
        out = np.where(self._finite, 0.0, const)
        out[self._finite] = vals
        return out

    def _cdf(self, rho):
        """Phi2 at the stored thresholds; rho scalar or per-row array."""
        r = self._rows(rho)
        moderate = np.abs(r) <= 0.925
        if np.all(moderate):
            vals = self._prod + _moderate_correction(self._hk, self._hs, r)
        else:
            vals = np.empty(r.shape)
            vals[moderate] = self._prod[moderate] + _moderate_correction(
                self._hk[moderate], self._hs[moderate], r[moderate]
            )
            high = ~moderate
            vals[high] = _bvnu_high(-self._a[high], -self._b[high], r[high])
        return self._scatter(np.clip(vals, 0.0, 1.0), self._const)

    # bvn_cdf calls _cdf, so that a wrapper put on cdf (perfbench's spans)
    # sees only the repeated evaluations of the dependence fits.
    cdf = _cdf

    def pdf(self, rho):
        """phi2 at the stored thresholds, zero where one is infinite."""
        r = self._rows(rho)
        a, b = self._a, self._b
        det = 1.0 - r * r
        q = (a * a - 2.0 * r * a * b + b * b) / det
        return self._scatter(np.exp(-0.5 * q) / (2.0 * np.pi * np.sqrt(det)), 0.0)


def _one_shot(method, a, b, rho):
    # One FixedThresholdBvn method on the broadcast arguments, in their shape.
    a, b, rho = np.broadcast_arrays(a, b, rho)
    out = method(FixedThresholdBvn(a, b), rho.ravel()).reshape(a.shape)
    return float(out) if out.ndim == 0 else out


def bvn_cdf(a, b, rho):
    """Standard bivariate normal CDF P(X <= a, Y <= b) with correlation rho.

    a and b may be +/-inf; those resolve exactly to the marginal limits.
    rho is clamped via :func:`clamp_rho`.
    """
    return _one_shot(FixedThresholdBvn._cdf, a, b, rho)


def bvn_pdf(a, b, rho):
    """Standard bivariate normal density; zero at infinite arguments."""
    return _one_shot(FixedThresholdBvn.pdf, a, b, rho)


def cdf_partials(a, b, rho):
    """Partial derivatives of bvn_cdf with respect to a, b and rho.

    d/da = phi(a) * Phi((b - rho a) / sqrt(1 - rho^2)), symmetrically in b,
    and d/drho equals the bivariate density.
    """
    a, b, rho = np.broadcast_arrays(
        np.asarray(a, dtype=float), np.asarray(b, dtype=float), np.asarray(rho, dtype=float)
    )
    if np.any(np.isnan(a)) or np.any(np.isnan(b)):
        raise ValueError("cdf_partials thresholds must not be NaN")
    r = np.asarray(clamp_rho(rho))
    sig = np.sqrt(1.0 - r * r)

    def _one_sided(u, v):
        # phi(u) * Phi((v - rho u)/sig); zero whenever u is infinite, and the
        # conditional CDF limit when only v is infinite.
        u_fin = np.isfinite(u)
        us = np.where(u_fin, u, 0.0)
        with np.errstate(invalid="ignore"):
            z = (v - r * us) / sig
        z = np.where(np.isposinf(v), np.inf, np.where(np.isneginf(v), -np.inf, z))
        return np.where(u_fin, std_normal_pdf(us) * special.ndtr(z), 0.0)

    d_a = _one_sided(a, b)
    d_b = _one_sided(b, a)
    d_rho = bvn_pdf(a, b, r)
    if np.ndim(d_rho) == 0:
        return float(d_a), float(d_b), float(d_rho)
    return d_a, d_b, d_rho
