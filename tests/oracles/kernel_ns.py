"""Time the bivariate-normal kernel per row, band by band.

For each band of the correlation-path rule (|rho| below 0.3, below 0.75, up
to 0.925: the 6-, 12- and 20-node rules) and the high-correlation branch,
on blocks of 2,000 and of BLOCK_ROWS rows whose correlations all lie in the
band (both signs) and whose thresholds are standard normal draws, it prints
the median time per row of:

- state: the path rule's correlation-only state alone (_path_state: half
  asin rho, the node sines from the shared power basis and 1 / (1 - sin^2));
- plan: building a shared _CorrelationPlan (the banding and that state,
  computed once per dependence cell block of a surface);
- shared: one threshold set on that shared plan (FixedThresholdBvn._cdf on
  an evaluator built once), the threshold sum alone;
- pair: bvn_cdf on the shared plan and two prepared sides (_Thresholds),
  what a surface pays per (y key, w key, cell) triple before its dot;
- full: FixedThresholdBvn.cdf with a plain rho, the whole rule as the
  dependence fits run it (unshared plan, state computed block by block).

The high-correlation branch keeps no shared state, so its state column
reads nan, its plan column is the banding alone and its shared column is
the whole branch.

Not collected by pytest. Run from the repository root:

    PYTHONPATH=src python tests/oracles/kernel_ns.py [--repeat 15] [--seed 0]

It takes about fifteen seconds. Times move with the host: quote the ranges
of a few runs, with the CPU, the Python and numpy versions and the BLAS.
"""

import argparse
import time

import numpy as np

from bdreg.normal import (BLOCK_ROWS, _MODERATE_RULES, FixedThresholdBvn, _CorrelationPlan,
                          _Thresholds, _path_state, bvn_cdf)

BANDS = (("6 nodes", 0.0, 0.3), ("12 nodes", 0.3, 0.75), ("20 nodes", 0.75, 0.925),
         ("high", 0.93, 0.999))


def ns_per_row(fn, rows, repeat, calls=20):
    """Median over repeat rounds of the time per row of fn, called calls
    times a round."""
    times = []
    for _ in range(repeat):
        start = time.perf_counter()
        for _ in range(calls):
            fn()
        times.append((time.perf_counter() - start) / calls)
    return 1e9 * float(np.median(times)) / rows


def band_row(k, lo, hi, n, repeat, rng):
    rho = rng.uniform(lo, hi, n) * rng.choice([-1.0, 1.0], n)
    a, b = rng.normal(size=(2, n))
    plan = _CorrelationPlan(rho)
    sides = _Thresholds(a), _Thresholds(b)
    fixed = FixedThresholdBvn(a, b)
    state = (float("nan") if k == 3 else
             ns_per_row(lambda: _path_state(rho, _MODERATE_RULES[k][0]), n, repeat))
    return [state,
            ns_per_row(lambda: _CorrelationPlan(rho), n, repeat),
            ns_per_row(lambda: fixed._cdf(plan), n, repeat),
            ns_per_row(lambda: bvn_cdf(*sides, plan), n, repeat),
            ns_per_row(lambda: fixed.cdf(rho), n, repeat)]


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeat", type=int, default=15, help="timed rounds per cell")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    rng = np.random.default_rng(args.seed)
    print(f"ns per row, median of {args.repeat} rounds")
    print(f"{'band':<10}{'rows':>6}{'state':>8}{'plan':>8}{'shared':>8}{'pair':>8}{'full':>8}")
    for k, (name, lo, hi) in enumerate(BANDS):
        for n in (2000, BLOCK_ROWS):
            cells = band_row(k, lo, hi, n, args.repeat, rng)
            print(f"{name:<10}{n:>6}" + "".join(f"{v:8.1f}" for v in cells))
