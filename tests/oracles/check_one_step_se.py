"""Check one-step bootstrap replicates against full refits.

A bootstrap replicate takes one Newton step from each dependence cell's base
estimate (dependence._ReplicateBase). This script reruns the gates that
justify it and prints the tables:

1. SE gate: the robust SE of the fitted surface at every body point, from
   one-step replicates over the same from refit replicates (each cell
   refitted to convergence from its base estimate, the replicate rule the
   one-step replaced), with the same weight draws and the same refitted
   marginals. Design a is the bench DGP at n=5000, seed 13, grid 12; design
   b is the strong-dependence design, dep (1.05, 0.6, 0), grid 6. The gate
   asks every ratio to lie in [0.95, 1.05].
2. Monte Carlo check: on a fixed 6-point grid (4x4 body) of the bench DGP at
   n=2000, the SD over independent samples is the truth; each bootstrap
   mode's SD over its replicates (root mean variance over a few samples) is
   divided by it, per body cell, for the surface, the local rho at
   x = (1, 0.5, 1) and the dependence coefficients.

Not collected by pytest. Run from the repository root:

    PYTHONPATH=src python tests/oracles/check_one_step_se.py [--draws 40]
        [--workers 2] [--mc-samples 400] [--mc-boot-samples 6]
        [--mc-draws 100] [--skip-mc]

At the defaults it takes about two minutes on 2 CPUs.
"""

import argparse
import dataclasses
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from bdreg.bootstrap import WeightScheme, _fork_map, draw_weights, robust_se_map
from bdreg.data import build_grid
from bdreg.dependence import _cells, _ReplicateBase, fit_bdr, fit_dependence
from bdreg.dgp import generate
from bdreg.exceptions import EstimationError
from bdreg.functionals import fitted_surface
from bdreg.normal import link_rho

from conftest import bench_spec

SE_BAND = (0.95, 1.05)
RHO_X = np.array([1.0, 0.5, 1.0])


def refit_dependence(sample, base, weights):
    """Each cell refitted to convergence under weights from its base
    estimate, at the base marginal indices; NaN where the base or the refit
    fails."""
    x = np.asarray(sample.x, dtype=float)
    x_dep = x[:, base.dep_cols]
    dep = np.full_like(base.dep_coef, np.nan)
    for cell, args in _cells(sample, x, base.grid, base.y_marginal, base.w_marginal):
        if np.all(np.isfinite(base.dep_coef[cell])):
            try:
                dep[cell] = fit_dependence(x_dep, *args, weights=weights,
                                           start=base.dep_coef[cell]).coef
            except EstimationError:
                pass
    return dep


def replicate_pair(sample, ready, weights):
    """(one-step replicate, refit replicate), sharing the refitted marginals."""
    base = ready.fit
    one = fit_bdr(sample, base.grid, base.dep_cols, weights=weights, base=ready)
    return one, dataclasses.replace(one, dep_coef=refit_dependence(sample, base, weights))


def body_surface(fit, sample):
    return fitted_surface(fit, sample, fit.grid.y_body, fit.grid.w_body).values


def summary(ratios):
    r = np.asarray(ratios, dtype=float).ravel()
    return f"{np.median(r):.3f} [{r.min():.3f}, {r.max():.3f}]"


def se_gate(name, spec, grid_points, draws, workers):
    t0 = time.perf_counter()
    sample = generate(spec)
    base = fit_bdr(sample, build_grid(sample, grid_points))
    ready = _ReplicateBase(sample, base)
    scheme = WeightScheme()

    def task(rep):
        one, refit = replicate_pair(sample, ready, draw_weights(sample.n, scheme, rep))
        return body_surface(one, sample), body_surface(refit, sample), one.dep_coef, refit.dep_coef

    out = _fork_map(task, list(range(draws)), workers)
    one_s, refit_s, one_c, refit_c = (np.stack([o[k] for o in out]) for k in range(4))
    ratio = robust_se_map(one_s) / robust_se_map(refit_s)
    sd_ratio = one_s.std(axis=0, ddof=1) / refit_s.std(axis=0, ddof=1)
    ok = bool(np.all((ratio >= SE_BAND[0]) & (ratio <= SE_BAND[1])))
    print(f"\n== SE gate, design {name}: {base.dep_coef.shape[0]}x{base.dep_coef.shape[1]} "
          f"body, {draws} draws, {time.perf_counter() - t0:.0f} s ==")
    print(f"robust SE ratio (one-step / refit), median [min, max]: {summary(ratio)}  "
          f"{'PASS' if ok else 'FAIL'} {SE_BAND}")
    print(f"SD ratio: {summary(sd_ratio)}")
    deviation = np.max(np.abs(one_s - body_surface(base, sample)))
    print(f"max |surface difference| {np.max(np.abs(one_s - refit_s)):.2e}; "
          f"max |coefficient difference| {np.nanmax(np.abs(one_c - refit_c)):.2e}; "
          f"max |one-step deviation from base| {deviation:.2e}")
    print("ratio by body point (rows y, columns w):")
    for row in ratio:
        print("  " + " ".join(f"{v:.3f}" for v in row))
    return ok


def functionals_of(fit, sample):
    rho, _ = link_rho(fit.dep_coef @ RHO_X[list(fit.dep_cols)])
    return body_surface(fit, sample), rho, fit.dep_coef


def monte_carlo(n_samples, boot_samples, draws, workers):
    t0 = time.perf_counter()
    grid = build_grid(generate(bench_spec(200_000, 0)), 6)

    def truth_task(seed):
        sample = generate(bench_spec(2000, 10_000 + seed))
        return functionals_of(fit_bdr(sample, grid), sample)

    truth = _fork_map(truth_task, list(range(n_samples)), workers)
    mc_sd = [np.stack([t[k] for t in truth]).std(axis=0, ddof=1) for k in range(3)]

    variances = {"one-step": [], "refit": []}
    for b in range(boot_samples):
        sample = generate(bench_spec(2000, 20_000 + b))
        ready = _ReplicateBase(sample, fit_bdr(sample, grid))

        def task(rep):
            pair = replicate_pair(sample, ready, draw_weights(sample.n, WeightScheme(seed=b), rep))
            return [functionals_of(fit, sample) for fit in pair]

        out = _fork_map(task, list(range(draws)), workers)
        for m, mode in enumerate(variances):
            variances[mode].append(
                [np.stack([o[m][k] for o in out]).var(axis=0, ddof=1) for k in range(3)])

    print(f"\n== Monte Carlo check: {n_samples} samples for the truth, {boot_samples} "
          f"samples x {draws} draws per mode, {time.perf_counter() - t0:.0f} s ==")
    print("bootstrap SD / Monte Carlo SD, median [min, max] over the 16 body cells "
          "(48 cell-coefficient pairs for the coefficients)")
    print("| replicate mode | surface | local rho at x = (1, 0.5, 1) | dependence coefficients |")
    print("|---|---|---|---|")
    for mode, runs in variances.items():
        cols = [summary(np.sqrt(np.mean([r[k] for r in runs], axis=0)) / mc_sd[k])
                for k in range(3)]
        print(f"| {mode} | " + " | ".join(cols) + " |")


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--draws", type=int, default=40)
    p.add_argument("--workers", type=int, default=2)
    p.add_argument("--mc-samples", type=int, default=400)
    p.add_argument("--mc-boot-samples", type=int, default=6)
    p.add_argument("--mc-draws", type=int, default=100)
    p.add_argument("--skip-mc", action="store_true")
    args = p.parse_args(argv)
    ok = se_gate("a (bench, n=5000, seed 13, grid 12)", bench_spec(5000, 13), 12,
                 args.draws, args.workers)
    ok &= se_gate("b (dep (1.05, 0.6, 0), n=5000, seed 13, grid 6)",
                  bench_spec(5000, 13, dep_coef=[1.05, 0.6, 0.0]), 6, args.draws, args.workers)
    if not args.skip_mc:
        monte_carlo(args.mc_samples, args.mc_boot_samples, args.mc_draws, args.workers)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
