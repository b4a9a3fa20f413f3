"""Standard normal primitives: the univariate CDF and density, the bivariate
CDF and density, and the tanh correlation link.

The univariate CDF Phi (_ndtr) is Cephes's ndtr (Moshier 1989, Methods and
Programs for Mathematical Functions) in numpy: the erf and erfc rational
approximations behind scipy.special.ndtr, evaluated by Horner's rule in
Cephes's order. Against scipy it is within 1.1e-16 absolute and 5.5e-16
relative (on normal, not subnormal, results). Every value of the erf branch
(|x| < sqrt 2) is bit-equal, and about 98% of the rest: numpy's exp differs
from the C library's in the last bit of a few results. So the package imports
no scipy.

FixedThresholdBvn is the one evaluator of the bivariate CDF and density: it
holds a set of threshold pairs and evaluates at any correlation. The
dependence fits keep one per grid pair; bvn_cdf builds one for a single
call. It pairs two sides (_Thresholds): each side's Phi, saturation mask
and zeroed thresholds depend on that side alone, so a caller
whose thresholds recur in many pairs (a surface's copy-rule keys, a fit's
body thresholds) prepares each side once, and a pair costs a handful of
elementwise operations. A _CorrelationPlan is the mirror image: it holds
the part of the CDF that depends on the correlations alone, so that many
threshold sets at the same correlations (the threshold pairs of one
dependence cell of a surface) share it; bvn_cdf takes one in place of rho.
It is the kernel's one way in for correlations, where they are checked and
clamped: a plain rho becomes an unshared plan, and a fit evaluation builds
one plan for both the CDF and the density.

The bivariate CDF follows the Drezner-Wesolowsky/Genz construction: Gauss-
Legendre quadrature along the correlation path for moderate correlation, and
the reflection/expansion branch for |rho| > 0.925. Each row takes the
formula of its own band: saturated (below), the 6-, 12- or 20-node path rule
for |rho| below 0.3, below 0.75 or up to 0.925, or the high-correlation
branch, which always uses 20 nodes. Each rule keeps the absolute error a few
ulps from zero over the range it serves, well beyond what the likelihood
optimizers can see. The bands run in blocks of at most BLOCK_ROWS rows, so
their (rows, nodes) temporaries stay a fixed size however many rows a call
brings; only the per-row arrays of a call (and a shared plan, whose caller
bounds its rows) are not blocked.

A path rule is two parts: the correlation-only state (_path_state) and the
threshold sum (_path_sum). The state is h = asin(rho) / 2, the sines
sin(c h) at the rule's nodes c, and 1 / (1 - sin^2). The nodes share one
basis, the odd powers of h, so the sines are one small matrix product of the
rule's Taylor coefficients (_sine_coefs: 6, 9 and 10 terms) with those
powers: a pass over the rows per term, in place of a sine per node and row
(np.sin costs several times np.exp per element). They are within 2, 3
and 4 ulps of np.sin in the 6-, 12- and 20-node bands. The sum is
exp((sin hk - hs) / (1 - sin^2)), with the stored reciprocal multiplied in,
and the node weights. Both are node-major, (nodes, rows) arrays, so every
elementwise pass runs over contiguous rows and the weights reduce the nodes
by one matrix-vector product. A block's state is computed when the block is
reached (a plain rho, or a band with saturated rows), or stored by a shared
plan for every threshold set to reuse, which makes a surface's pair, built
from prepared sides, about a quarter (12 and 20 nodes on full blocks) to a
half (6 nodes) of the cost of a full evaluation (tests/oracles/kernel_ns.py
measures both). A
matrix product may round a row by its position in the block, so only the
same blocks promise the same bits: a shared plan and a plain call build the
same blocks and give the same bits. A plan on rows sorted by band
(_band_order) holds each band contiguously, so a pair's blocks are slices:
no row is gathered or scattered.

Thresholds at or beyond +/-40, +/-inf included, make a saturated row: its
CDF is the exact marginal limit and its density zero, with no quadrature.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "EPS_RHO",
    "FixedThresholdBvn",
    "bvn_cdf",
    "link_rho",
]

# Correlations are clamped to |rho| <= 1 - EPS_RHO so that sqrt(1 - rho^2)
# and the quadrature stay well conditioned when the link saturates.
EPS_RHO = 1e-7

_SQRT_2PI = np.sqrt(2.0 * np.pi)
# Gauss-Legendre rules for the correlation-path quadrature; the node count
# grows with |rho| (6/12/20), matching the accuracy of the fixed 20-point
# rule at a fraction of the work for small correlations. _RULE_EDGES bound
# the |rho| bands of the 6-, 12- and 20-node rules (the last edge included)
# and of the high-correlation branch beyond; _MODERATE_RULES holds each path
# rule's sine coefficients (_sine_coefs) and its weights, in that order.
_GL_RULES = {n: np.polynomial.legendre.leggauss(n) for n in (6, 12, 20)}
_GL_NODES, _GL_WEIGHTS = _GL_RULES[20]
_RULE_EDGES = (0.3, 0.75, 0.925)


def _sine_coefs(nodes1, edge):
    # sin(c h) = sum_j (-1)^j c^(2j+1) / (2j+1)! h^(2j+1): the coefficients,
    # (nodes, terms), of a rule's nodes c along the odd powers of h, with the
    # fewest terms whose first omitted one stays below half an ulp of the
    # band's largest sine, at its largest |c h| (h = asin(edge) / 2: 0.29,
    # 0.84 and 1.18 in the three bands, so 6, 9 and 10 terms, each no more
    # than the rule's nodes).
    top = nodes1.max() * 0.5 * math.asin(edge)
    half_ulp = 0.5 * math.ulp(math.sin(top))
    terms = next(j for j in range(1, 30)
                 if top ** (2 * j + 1) / math.factorial(2 * j + 1) < half_ulp)
    return np.array([[(-1) ** j * c ** (2 * j + 1) / math.factorial(2 * j + 1)
                      for j in range(terms)] for c in nodes1])


_MODERATE_RULES = tuple((_sine_coefs(nodes + 1.0, edge), weights)
                        for (nodes, weights), edge in zip(_GL_RULES.values(), _RULE_EDGES))
# Rows per quadrature block: bounds the (rows, nodes) temporaries.
BLOCK_ROWS = 4096
# From this |threshold| on, Phi is exactly 0 or 1 in double: Phi2 is its limit.
_SATURATED = 40.0
# The saturated rows of a pair with none (read only).
_NO_ROWS = np.empty(0, dtype=np.intp)


# Cephes's rationals, highest power first: erf(z) = z T(z^2) / U(z^2) for
# |z| < 1, and erfc(z) = exp(-z^2) P(z) / Q(z) for 1 <= z < 8, with R / S in
# place of P / Q beyond; U, Q and S are monic, their leading 1 left out.
_ERF_T = np.array((9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3,
                   7.00332514112805075473e3, 5.55923013010394962768e4))
_ERF_U = np.array((3.35617141647503099647e1, 5.21357949780152679795e2, 4.59432382970980127987e3,
                   2.26290000613890934246e4, 4.92673942608635921086e4))
_ERFC_P = np.array((2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0,
                    4.86371970985681366614e1, 1.96520832956077098242e2, 5.26445194995477358631e2,
                    9.34528527171957607540e2, 1.02755188689515710272e3, 5.57535335369399327526e2))
_ERFC_Q = np.array((1.32281951154744992508e1, 8.67072140885989742329e1, 3.54937778887819891062e2,
                    9.75708501743205489753e2, 1.82390916687909736289e3, 2.24633760818710981792e3,
                    1.65666309194161350182e3, 5.57535340817727675546e2))
_ERFC_R = np.array((5.64189583547755073984e-1, 1.27536670759978104416e0, 5.01905042251180477414e0,
                    6.16021097993053585195e0, 7.40974269950448939160e0, 2.97886665372100240670e0))
_ERFC_S = np.array((2.26052863220117276590e0, 9.39603524938001434673e0, 1.20489539808096656605e1,
                    1.70814450747565897222e1, 9.60896809063285878198e0, 3.36907645100081516050e0))
# Beyond z^2 = _MAXLOG, exp(-z^2) underflows and Cephes returns erfc(z) = 0.
_MAXLOG = 7.09782712893383996843e2
_SQRT1_2 = math.sqrt(0.5)


def _horner(x, coefs, monic=False):
    """Cephes's polevl (p1evl when monic): the polynomial with coefficients
    coefs, highest power first, after a leading 1 when monic, at x."""
    out = x + coefs[0] if monic else coefs[0] * x + coefs[1]
    for c in coefs[1 if monic else 2:]:
        out *= x
        out += c
    return out


def _erfc_rational(z, num, den):
    # exp(-z^2) num(z) / den(z), multiplied and divided in Cephes's order.
    out = z * z
    np.negative(out, out=out)
    np.exp(out, out=out)
    out *= _horner(z, num)
    out /= _horner(z, den, monic=True)
    return out


def _ndtr_block(t):
    # Phi(x) at t = x / sqrt(2), as Cephes's ndtr: 0.5 + 0.5 erf(t) for
    # |x| < 1, else 0.5 erfc(|t|), reflected for x > 0. The erf rational runs
    # on every row (clipped into its range) and the erfc rationals only on
    # the rows beyond it: selecting rows costs more than the short erf.
    z = np.abs(t)
    zi = np.minimum(z, 1.0)
    zz = zi * zi
    erf = zi * _horner(zz, _ERF_T)
    erf /= _horner(zz, _ERF_U, monic=True)
    tail = 1.0 - erf  # NaN rows stay NaN from here on
    outer = np.flatnonzero(z >= 1.0)
    if outer.size:
        zo = z.take(outer)
        mid = zo < 8.0
        if mid.all():
            tail[outer] = _erfc_rational(zo, _ERFC_P, _ERFC_Q)
        else:
            zc = np.minimum(zo, 27.0)  # squares without overflow; 27^2 > _MAXLOG
            far = ~mid & (zc * zc <= _MAXLOG)
            vals = np.zeros_like(zo)
            vals[mid] = _erfc_rational(zo[mid], _ERFC_P, _ERFC_Q)
            vals[far] = _erfc_rational(zo[far], _ERFC_R, _ERFC_S)
            tail[outer] = vals
    tail *= 0.5
    out = np.where(t > 0.0, 1.0 - tail, tail)
    np.copysign(erf, t, out=erf)
    erf *= 0.5
    erf += 0.5
    return np.where(z < _SQRT1_2, erf, out)


def _ndtr(x):
    """The standard normal CDF Phi, elementwise, as an array of x's shape.

    +/-inf map exactly to 1 and 0, and NaN passes through, with no
    floating-point warning. Rows go through in blocks of BLOCK_ROWS, so the
    temporaries stay a fixed size.
    """
    t = np.asarray(x, dtype=float) * _SQRT1_2
    flat = t.reshape(-1)
    if flat.size <= BLOCK_ROWS:
        return _ndtr_block(flat).reshape(t.shape)
    out = np.empty_like(flat)
    for lo in range(0, flat.size, BLOCK_ROWS):
        out[lo:lo + BLOCK_ROWS] = _ndtr_block(flat[lo:lo + BLOCK_ROWS])
    return out.reshape(t.shape)


def _clamp(rho):
    # rho into [-(1 - EPS_RHO), 1 - EPS_RHO], as np.clip gives it, without
    # its wrapper's cost.
    return np.minimum(np.maximum(rho, -1.0 + EPS_RHO), 1.0 - EPS_RHO)


def link_rho(u):
    """Vectorized tanh link: returns (clamped rho, d rho / d u)."""
    rho = _clamp(np.tanh(np.asarray(u, dtype=float)))
    return rho, 1.0 - rho * rho


def _band_codes(r):
    # Each row's band: k for the k-th path rule (k < 3), 3 for the high-
    # correlation branch.
    absr = np.abs(r)
    band = (absr >= _RULE_EDGES[0]).astype(np.int8)
    band += absr >= _RULE_EDGES[1]
    band += absr > _RULE_EDGES[2]
    return band


def _band_order(rho):
    """The rows of rho sorted by band, stably: a plan built on rho[order]
    holds each band as one contiguous run of rows."""
    return np.argsort(_band_codes(np.asarray(rho, dtype=float)), kind="stable")


def _path_state(r, coefs):
    # The rho-only part of one path rule at correlations r, node-major: h =
    # asin(r) / 2, and at the rule's nodes c the sines sin(c h), coefs @ the
    # odd powers of h (_sine_coefs), with their 1 / (1 - sin^2), each (nodes,
    # rows), so that every elementwise pass of _path_sum runs over contiguous
    # rows. The powers take the first rows of the reciprocal's buffer (a rule
    # has no more terms than nodes), so they need no buffer of their own.
    half = 0.5 * np.arcsin(r)
    inv = np.empty((len(coefs), half.size))
    powers = inv[:coefs.shape[1]]
    powers[0] = half
    sq = half * half
    for j in range(1, len(powers)):
        np.multiply(powers[j - 1], sq, out=powers[j])
    sn = coefs @ powers
    np.multiply(sn, sn, out=inv)
    np.subtract(1.0, inv, out=inv)
    np.divide(1.0, inv, out=inv)
    return half, sn, inv


def _path_sum(hk, hs, state, weights, scratch=None):
    # The correlation-path integral over theta in [0, asin(r)] at thresholds
    # with products hk and half square sums hs, on one rule's _path_state,
    # in place in one (nodes, rows) buffer: scratch, which may be the
    # state's own sines when the state is used once, or a new one for None.
    # The exponent (sin hk - hs) / (1 - sin^2) is never positive, since
    # hs = (a^2 + b^2) / 2 >= |ab| >= sin ab, so exp cannot overflow.
    half, sn, inv = state
    terms = np.multiply(sn, hk, out=scratch)
    terms -= hs
    terms *= inv
    np.exp(terms, out=terms)
    return half * (weights @ terms) / (2.0 * np.pi)


class _CorrelationPlan:
    """The rho-only part of Phi2 at one correlation per row: the checked and
    clamped correlations, each row's band (bands[k] lists the rows of band
    k: the k-th path rule for k < 3, the high-correlation branch for 3) and,
    when shared, each path band's _path_state over its rows, computed block
    by block as an unshared plan computes it.

    Building a plan checks and clamps the correlations: |rho| > 1 or NaN (a
    bug upstream, not link saturation) raises ValueError.

    A shared plan serves any number of threshold sets at the same
    correlations, as every threshold pair of one dependence cell of a
    surface; it holds rows x nodes sines, so its caller bounds its rows. An
    unshared plan (one evaluation, as a dependence fit's) computes each
    block's state as the block is reached. np.asarray(plan) gives the
    clamped correlations, so a plan stands in for rho wherever only their
    values are read. A plan on rows in _band_order keeps each band
    contiguous, and its blocks are slices.
    """

    def __init__(self, rho, shared=True):
        r = np.asarray(rho, dtype=float).ravel()
        if not (np.abs(r) <= 1.0).all():  # NaN fails the comparison too
            raise ValueError("correlation must lie in [-1, 1]")
        self.rho = r = _clamp(r)
        band = _band_codes(r)
        self.bands = [np.flatnonzero(band == k) for k in range(4)]
        self.shared = shared
        self._blocks = [_blocks_of(rows) for rows in self.bands]
        self._states = None if not shared else [
            [_path_state(r[sel], coefs) for sel in sels]
            for sels, (coefs, _) in zip(self._blocks, _MODERATE_RULES)]

    def __array__(self, dtype=None, copy=None):
        return np.array(self.rho, dtype=dtype, copy=copy)

    def blocks(self, live=None):
        """(k, sel, state) for each block of at most BLOCK_ROWS rows of band
        k, among the rows where the mask live is true (all rows for None):
        the rows a path block evaluates (a slice where they are contiguous)
        and its rule's state on them; state is None in band 3. Blocks are
        those of the live rows alone, so a row meets the same block, and
        gives the same bits, shared or not; a band with rows that are not
        live computes its blocks' state, as an unshared plan does."""
        for k, (rows, sels) in enumerate(zip(self.bands, self._blocks)):
            states = self._states[k] if self.shared and k < 3 else None
            if live is not None and not (keep := live[rows]).all():
                sels, states = _blocks_of(rows[keep]), None
            for b, sel in enumerate(sels):
                if k == 3:
                    yield k, sel, None
                elif states is None:
                    yield k, sel, _path_state(self.rho[sel], _MODERATE_RULES[k][0])
                else:
                    yield k, sel, states[b]


def _blocks_of(rows):
    # rows (ascending) in runs of at most BLOCK_ROWS, each a slice where its
    # rows are contiguous, else an index array.
    runs = (rows[lo:lo + BLOCK_ROWS] for lo in range(0, rows.size, BLOCK_ROWS))
    return [slice(sel[0], sel[-1] + 1) if sel[-1] - sel[0] + 1 == sel.size else sel
            for sel in runs]


def _bvnu_high(a, b, pa, pb, r):
    # Phi2(a, b; r) = P(X > h, Y > k) at h = -a, k = -b for 0.925 < |r| < 1:
    # expansion around |r| = 1 plus a quadrature correction (the reflection
    # branch of the Genz scheme). pa and pb are Phi(a) and Phi(b).
    neg = r < 0.0
    h = -a
    k = np.where(neg, b, -b)
    hk = h * k

    a2 = (1.0 - r) * (1.0 + r)
    sa = np.sqrt(a2)
    bs = (h - k) ** 2
    c = (4.0 - hk) / 8.0
    d = (12.0 - hk) / 16.0
    asr0 = -(bs / a2 + hk) / 2.0

    bvn = np.where(
        asr0 > -100.0,
        sa * np.exp(np.maximum(asr0, -745.0))
        * (1.0 - c * (bs - a2) * (1.0 - d * bs / 5.0) / 3.0 + c * d * a2 * a2 / 5.0),
        0.0,
    )
    sb = np.sqrt(bs)
    sp = _SQRT_2PI * _ndtr(-sb / sa)
    bvn = np.where(
        -hk < 100.0,
        bvn - np.exp(np.minimum(-hk / 2.0, 700.0)) * sp * sb
        * (1.0 - c * bs * (1.0 - d * bs / 5.0) / 3.0),
        bvn,
    )

    ah = sa[:, None] / 2.0
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
    bvn = -bvn / (2.0 * np.pi)

    # Phi(-max(h, k)) = Phi(min(a, b)) for r > 0, and Phi(-h) = Phi(a).
    pos_part = bvn + np.where(a <= b, pa, pb)
    neg_part = -bvn + np.maximum(0.0, pa - _ndtr(-k))
    return np.where(neg, neg_part, pos_part)


class _Thresholds:
    """One side of a set of threshold pairs, with everything about it that
    does not depend on its partner: Phi at each threshold, which thresholds
    are saturated (at or beyond +/-_SATURATED, +/-inf included) and the
    thresholds with the saturated ones stored as 0 (so that the per-row
    arithmetic stays finite). The squares are left to the pair: stored here
    they would add half again to every side a surface keeps.

    Its arrays may have any shape; FixedThresholdBvn pairs two 1-D sides. A
    caller whose thresholds recur in many pairs prepares them once: a
    surface its keys' index rows (one row per key), gathering each cell's
    rows with take; a dependence fit each body threshold's.
    """

    def __init__(self, t):
        t = np.asarray(t, dtype=float)
        if np.any(np.isnan(t)):
            raise ValueError("thresholds must not be NaN")
        self.p = _ndtr(t)
        self.sat = np.abs(t) >= _SATURATED
        self.any_sat = bool(self.sat.any())
        self.t = np.where(self.sat, 0.0, t)

    def take(self, key, rows):
        """Row key of a 2-D side at the columns rows, as a 1-D side, with no
        recomputation."""
        out = object.__new__(_Thresholds)
        out.p, out.sat, out.t = (v[key].take(rows) for v in (self.p, self.sat, self.t))
        out.any_sat = bool(out.sat.any())
        return out


class FixedThresholdBvn:
    """The bivariate normal CDF and density at fixed threshold pairs.

    This is the package's one evaluator of Phi2 and phi2. A dependence fit
    evaluates Phi2(a_i, b_i; rho_i) many times with the same thresholds and a
    new correlation each iteration, so everything that does not depend on rho
    is computed once here; bvn_cdf is a one-shot use. A row with a threshold
    at or beyond +/-40 (_SATURATED), +/-inf included, is saturated: constant
    in rho, its CDF is exactly the marginal limit and its density zero.

    a and b are the two sides, each a _Thresholds or an array of
    thresholds. A pair is built from its two sides by a handful of
    elementwise operations (the saturation mask, a b, (a^2 + b^2) / 2 and
    Phi(a) Phi(b)), so a caller whose thresholds recur in many pairs
    prepares each side once and passes it in, with the bits of the arrays.
    Likewise a caller that evaluates many threshold sets at the same
    correlations passes one _CorrelationPlan to each, with the same bits as
    a plain rho.
    """

    def __init__(self, a, b):
        sa = a if isinstance(a, _Thresholds) else _Thresholds(np.ravel(a))
        sb = b if isinstance(b, _Thresholds) else _Thresholds(np.ravel(b))
        if sa.t.ndim != 1 or sa.t.shape != sb.t.shape:
            raise ValueError("threshold arrays must have equal length")
        self.n = sa.t.size
        self.pa, self.pb = sa.p, sb.p
        self._a, self._b = sa.t, sb.t
        # Saturated rows, the rest (None when every row is live) and the
        # saturated rows' limits; a side with no saturated row skips this.
        self._saturated, self._live, self._limit = _NO_ROWS, None, np.empty(0)
        if sa.any_sat or sb.any_sat:
            saturated = sa.sat | sb.sat
            self._saturated = sat = np.flatnonzero(saturated)
            self._live = ~saturated
            # Phi is exactly 0 or 1 at a saturated threshold, so the limit,
            # 0 below or the other side's marginal above, is min(pa, pb).
            self._limit = np.minimum(sa.p[sat], sb.p[sat])
        self._hk = sa.t * sb.t
        self._hs = 0.5 * (sa.t * sa.t + sb.t * sb.t)
        self._prod = sa.p * sb.p

    def _cdf(self, rho):
        """Phi2 at the stored thresholds; rho a scalar, one correlation per
        row, or a _CorrelationPlan of one per row.

        Every row takes the formula of its band (_CorrelationPlan.blocks),
        block by block, and the saturated rows take their limit; with every
        row saturated no quadrature runs. A plain rho gets an unshared plan
        (_plan), so every caller goes through this one dispatch. On a plan in
        _band_order with no saturated row, every block is a slice: no row is
        gathered or scattered.
        """
        plan = self._plan(rho)
        out = np.empty(self.n)
        out[self._saturated] = self._limit
        if self._saturated.size < self.n:
            for k, sel, state in plan.blocks(self._live):
                if k == 3:
                    out[sel] = _bvnu_high(self._a[sel], self._b[sel], self.pa[sel],
                                          self.pb[sel], plan.rho[sel])
                else:
                    out[sel] = self._prod[sel] + _path_sum(
                        self._hk[sel], self._hs[sel], state, _MODERATE_RULES[k][1],
                        None if plan.shared else state[1])
        np.maximum(out, 0.0, out=out)
        return np.minimum(out, 1.0, out=out)

    # bvn_cdf calls _cdf, so that a wrapper put on cdf (perfbench's spans)
    # sees only the repeated evaluations of the dependence fits.
    cdf = _cdf

    def _plan(self, rho):
        # rho as is if a plan, else an unshared plan of rho broadcast to the rows.
        plan = rho if isinstance(rho, _CorrelationPlan) else _CorrelationPlan(
            np.broadcast_to(rho, (self.n,)), shared=False)
        if plan.rho.size != self.n:
            raise ValueError("correlation plan must match the thresholds in length")
        return plan

    def pdf_drho(self, rho):
        """phi2 and its derivative in rho at the stored thresholds, both zero
        where a threshold is saturated; rho as for _cdf, checked and clamped
        by its plan, whose correlations it reads:

            d phi2 / d rho = phi2 * [rho / (1 - rho^2)
                                     + (ab (1 + rho^2) - rho (a^2 + b^2)) / (1 - rho^2)^2]
        """
        r = self._plan(rho).rho
        a, b = self._a, self._b
        det = 1.0 - r * r
        q = (a * a - 2.0 * r * a * b + b * b) / det
        dens = np.exp(-0.5 * q) / (2.0 * np.pi * np.sqrt(det))
        slope = r / det + (self._hk * (1.0 + r * r) - 2.0 * r * self._hs) / (det * det)
        slope *= dens
        dens[self._saturated] = slope[self._saturated] = 0.0
        return dens, slope


def bvn_cdf(a, b, rho):
    """Standard bivariate normal CDF P(X <= a, Y <= b) with correlation rho.

    a and b may be +/-inf; those and all beyond +/-40 resolve exactly to the
    marginal limits. rho is checked and clamped by its _CorrelationPlan.

    rho may also be a _CorrelationPlan, whose state the call reuses: then a
    and b are 1-D with one entry per plan row (arrays, or sides prepared
    once as _Thresholds), and the result is too, with the bits of the call
    on the plan's correlations.
    """
    if isinstance(rho, _CorrelationPlan):
        return FixedThresholdBvn(a, b)._cdf(rho)
    a, b, rho = np.broadcast_arrays(a, b, rho)
    out = FixedThresholdBvn(a, b)._cdf(rho.ravel()).reshape(a.shape)
    return float(out) if out.ndim == 0 else out
