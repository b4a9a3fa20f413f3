"""Check one-step bootstrap replicates against full refits.

A bootstrap replicate refits nothing: each marginal takes one Fisher-scoring
step from the base fit, and each dependence cell one Newton step from its
base estimate (dependence._ReplicateBase.replicate). Under the same weight
draw this script also fits two references: "refit marginals" refits the
marginals by fit_marginal and keeps the one-step cells, and "refit" also
refits each cell to convergence from its base estimate at the base marginal
indices (refit_cell). It reruns the gates that justify the one-step rule and prints
the tables:

1. SE gate: on four two-group designs, the decomposition (decompose_joint at
   group 1's grid), each group's fitted surface at its body points, and each
   group's marginal coefficients and tail scales, over B draws of each mode.
   Three comparisons are made: one-step against refit marginals (the
   marginals' step alone), refit marginals against refit (the cells' step
   alone) and one-step against refit (both). At every point whose SD under
   the second mode exceeds 1e-3 each takes rms(first - second) / SD and the
   SD ratio (first over second). A comparison passes when rms/SD <= 0.15,
   every SD ratio lies in [0.93, 1.07] and their median in [0.99, 1.01];
   the script exits 1 when one-step against refit fails. The designs are
   the perfbench decompose-boot pair (group 0 the bench DGP, group 1 its
   shifted coefficients, drawn with seeds 1 and 2, as `bdreg simulate
   --seed 1 --two-groups` does) at n = 2000 per group and grids 5 and 12,
   the same with group 0's dependence (1.05, 0.6, 0) at grid 5, and the
   pair at n = 5000 and grid 12.
2. Monte Carlo check: on a fixed 6-point grid (4x4 body) of the bench DGP at
   n=2000, the SD over independent samples is the truth; each bootstrap
   mode's SD over its replicates (root mean variance over a few samples) is
   divided by it, per body cell, for the surface, the local rho at
   x = (1, 0.5, 1), the dependence coefficients and the marginal
   coefficients and tail scales.

Not collected by pytest. Run from the repository root:

    PYTHONPATH=src python tests/oracles/check_one_step_se.py [--draws 60]
        [--large-draws 40] [--workers 2] [--mc-samples 400]
        [--mc-boot-samples 6] [--mc-draws 100] [--skip-mc]

At the defaults it takes about three minutes on 2 CPUs.
"""

import argparse
import dataclasses
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from bdreg.bootstrap import WeightScheme, _fork_map, draw_weights
from bdreg.data import build_grid
from bdreg.dependence import _cells, _ReplicateBase, fit_bdr
from bdreg.dgp import DgpSpec, generate
from bdreg.exceptions import EstimationError
from bdreg.functionals import decompose_joint, fitted_surface
from bdreg.marginals import fit_marginal
from bdreg.normal import link_rho

from conftest import bench_spec, refit_cell

RMS_BOUND = 0.15
SD_BAND = (0.93, 1.07)
MEDIAN_BAND = (0.99, 1.01)
SD_FLOOR = 1e-3
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
                dep[cell] = refit_cell((x_dep, *args, weights), base.dep_coef[cell]).coef
            except EstimationError:
                pass
    return dep


MODES = ("one-step", "refit marginals", "refit")
COMPARISONS = (("one-step", "refit marginals"), ("refit marginals", "refit"),
               ("one-step", "refit"))


def replicate_modes(sample, ready, weights):
    """The replicate of each of MODES under the same weights."""
    base = ready.fit
    one = ready.replicate(weights)
    y_marg, w_marg = (fit_marginal(values, sample.x, base.grid, outcome, weights=weights)
                      for values, outcome in ((sample.y, "y"), (sample.w, "w")))
    refit_marginals = dataclasses.replace(one, y_marginal=y_marg, w_marginal=w_marg)
    return one, refit_marginals, dataclasses.replace(
        refit_marginals, dep_coef=refit_dependence(sample, base, weights))


def body_surface(fit, sample):
    return fitted_surface(fit, sample, fit.grid.y_body, fit.grid.w_body).values


def marginal_coefficients(fit):
    """Both marginals' coefficients and tail scales as one vector."""
    return np.concatenate([np.r_[m.coef.ravel(), m.alpha_lo, m.alpha_hi]
                           for m in (fit.y_marginal, fit.w_marginal)])


def summary(values):
    r = np.asarray(values, dtype=float).ravel()
    return f"{np.median(r):.3f} [{r.min():.3f}, {r.max():.3f}]"


def agreement(first, second):
    """(rms/SD, SD ratio) of two draw stacks at every point whose SD in the
    second exceeds SD_FLOOR."""
    sd = second.std(axis=0, ddof=1)
    kept = sd > SD_FLOOR
    rms = np.sqrt(np.mean((first - second) ** 2, axis=0))
    return rms[kept] / sd[kept], first.std(axis=0, ddof=1)[kept] / sd[kept]


def pair_design(n, dep_0=None):
    """The perfbench pair at n rows per group, group 0's dependence
    coefficients replaced by dep_0 when given."""
    # Group 1 shifts every coefficient of the bench DGP.
    spec_1 = DgpSpec(y_coef=np.array([0.4, 0.6, -0.2]), w_coef=np.array([0.1, 0.7, 0.3]),
                     dep_coef=np.array([0.2, 0.3, -0.1]), n=n, seed=2)
    return [bench_spec(n, 1, dep_coef=dep_0), spec_1]


def se_gate(name, specs, grid_points, draws, workers):
    t0 = time.perf_counter()
    samples = {g: generate(spec) for g, spec in enumerate(specs)}
    bases = {g: fit_bdr(s, build_grid(s, grid_points)) for g, s in samples.items()}
    ready = {g: _ReplicateBase(samples[g], bases[g]) for g in samples}
    y_values, w_values = bases[1].grid.y_grid, bases[1].grid.w_grid
    scheme = WeightScheme()

    def functionals(fits):
        comps = decompose_joint(fits, samples, y_values, w_values).components()
        return [np.stack(list(comps.values())),
                np.stack([body_surface(fits[g], samples[g]) for g in (0, 1)]),
                np.concatenate([marginal_coefficients(fits[g]) for g in (0, 1)])]

    def task(rep):
        fits = {g: replicate_modes(samples[g], ready[g], draw_weights(s.n, scheme, rep, g))
                for g, s in samples.items()}
        return {mode: functionals({g: f[m] for g, f in fits.items()})
                for m, mode in enumerate(MODES)}

    out = _fork_map(task, list(range(draws)), workers)
    print(f"\n== SE gate, design {name}: {draws} draws, {time.perf_counter() - t0:.0f} s ==")
    print("| comparison | functional | points | rms/SD, median [min, max] "
          "| SD ratio, median [min, max] | gate |")
    print("|---|---|---|---|---|---|")
    ok = True
    for first, second in COMPARISONS:
        for k, label in enumerate(("decomposition", "fitted surface",
                                   "marginal coefs and alpha")):
            rms, ratio = agreement(*(np.stack([o[mode][k] for o in out])
                                     for mode in (first, second)))
            passed = bool(np.all(rms <= RMS_BOUND)
                          and np.all((ratio >= SD_BAND[0]) & (ratio <= SD_BAND[1]))
                          and MEDIAN_BAND[0] <= np.median(ratio) <= MEDIAN_BAND[1])
            if (first, second) == ("one-step", "refit"):
                ok &= passed
            print(f"| {first} vs {second} | {label} | {rms.size} | {summary(rms)} | "
                  f"{summary(ratio)} | {'PASS' if passed else 'FAIL'} |")
    return ok


def functionals_of(fit, sample):
    rho, _ = link_rho(fit.dep_coef @ RHO_X[list(fit.dep_cols)])
    return body_surface(fit, sample), rho, fit.dep_coef, marginal_coefficients(fit)


def monte_carlo(n_samples, boot_samples, draws, workers):
    t0 = time.perf_counter()
    grid = build_grid(generate(bench_spec(200_000, 0)), 6)
    parts = 4

    def truth_task(seed):
        sample = generate(bench_spec(2000, 10_000 + seed))
        return functionals_of(fit_bdr(sample, grid), sample)

    truth = _fork_map(truth_task, list(range(n_samples)), workers)
    mc_sd = [np.stack([t[k] for t in truth]).std(axis=0, ddof=1) for k in range(parts)]

    variances = {mode: [] for mode in MODES}
    for b in range(boot_samples):
        sample = generate(bench_spec(2000, 20_000 + b))
        ready = _ReplicateBase(sample, fit_bdr(sample, grid))

        def task(rep):
            fits = replicate_modes(sample, ready, draw_weights(sample.n, WeightScheme(seed=b), rep))
            return [functionals_of(fit, sample) for fit in fits]

        out = _fork_map(task, list(range(draws)), workers)
        for m, mode in enumerate(variances):
            variances[mode].append(
                [np.stack([o[m][k] for o in out]).var(axis=0, ddof=1) for k in range(parts)])

    print(f"\n== Monte Carlo check: {n_samples} samples for the truth, {boot_samples} "
          f"samples x {draws} draws per mode, {time.perf_counter() - t0:.0f} s ==")
    print("bootstrap SD / Monte Carlo SD, median [min, max] over the 16 body cells "
          "(48 cell-coefficient pairs for the dependence coefficients, 28 marginal "
          "coefficients and tail scales)")
    print("| replicate mode | surface | local rho at x = (1, 0.5, 1) | dependence coefficients "
          "| marginal coefs and alpha |")
    print("|---|---|---|---|---|")
    for mode, runs in variances.items():
        cols = [summary(np.sqrt(np.mean([r[k] for r in runs], axis=0)) / mc_sd[k])
                for k in range(parts)]
        print(f"| {mode} | " + " | ".join(cols) + " |")


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--draws", type=int, default=60)
    p.add_argument("--large-draws", type=int, default=40)
    p.add_argument("--workers", type=int, default=2)
    p.add_argument("--mc-samples", type=int, default=400)
    p.add_argument("--mc-boot-samples", type=int, default=6)
    p.add_argument("--mc-draws", type=int, default=100)
    p.add_argument("--skip-mc", action="store_true")
    args = p.parse_args(argv)
    ok = True
    for name, specs, grid_points, draws in (
        ("perfbench pair, n = 2000, grid 5", pair_design(2000), 5, args.draws),
        ("perfbench pair, n = 2000, grid 12", pair_design(2000), 12, args.draws),
        ("group 0 dep (1.05, 0.6, 0), n = 2000, grid 5",
         pair_design(2000, dep_0=[1.05, 0.6, 0.0]), 5, args.draws),
        ("perfbench pair, n = 5000, grid 12", pair_design(5000), 12, args.large_draws),
    ):
        ok &= se_gate(name, specs, grid_points, draws, args.workers)
    if not args.skip_mc:
        monte_carlo(args.mc_samples, args.mc_boot_samples, args.mc_draws, args.workers)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
