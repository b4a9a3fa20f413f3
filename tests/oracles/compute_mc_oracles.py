"""Recompute the frozen Monte Carlo standard errors used by the test suite.

Each block runs 50 independent replications of an estimator on synthetic data
and records the spread of the estimates. The acceptance checks then require
the (larger-sample) point estimates to sit within 3 of these standard errors
of the truth, which keeps them conservative.

Writes tests/data/mc_oracles.json. Runtime is a few minutes.
"""

import json
import sys
import time
from pathlib import Path

import numpy as np
from scipy.special import ndtr

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from bdreg.data import build_grid, grid_from_values
from bdreg.dependence import fit_bdr
from bdreg.dgp import generate
from bdreg.marginals import fit_probit_dr, fit_tail_scale
from bdreg.normal import link_rho

from conftest import bench_spec

N_REPS = 50
SMALL_N = 2000

OUT = Path(__file__).resolve().parents[1] / "data" / "mc_oracles.json"


def probit_two_covariate():
    coef = np.array([0.3, -0.6, 0.9])
    draws = []
    for r in range(N_REPS):
        rng = np.random.default_rng(1000 + r)
        n = 10000
        x = np.column_stack([np.ones(n), rng.normal(size=n), rng.random(n)])
        below = (rng.random(n) < ndtr(x @ coef)).astype(float)
        draws.append(fit_probit_dr(x, below).coef)
    return np.std(np.asarray(draws), axis=0, ddof=1).tolist()


def tail_alpha(scale, seed0):
    draws = []
    for r in range(N_REPS):
        rng = np.random.default_rng(seed0 + r)
        y = scale * rng.standard_normal(10000)
        x = np.ones((10000, 1))
        anchor = float(np.quantile(y, 0.98, method="inverted_cdf"))
        coef = fit_probit_dr(x, (y <= anchor).astype(float)).coef
        draws.append(fit_tail_scale(y, x, coef, anchor, "upper", min_obs=30).alpha)
    return float(np.std(draws, ddof=1))


def dep_cells():
    draws = []
    for r in range(N_REPS):
        s = generate(bench_spec(SMALL_N, 4000 + r))
        grid = build_grid(s, n_points=10)
        fit = fit_bdr(s, grid)
        draws.append(fit.dep_coef)
    return np.std(np.asarray(draws), axis=0, ddof=1).tolist()


def independence_mean_abs_rho():
    stats = []
    for r in range(N_REPS):
        s = generate(bench_spec(SMALL_N, 5000 + r, dep_coef=[0.0, 0.0, 0.0]))
        grid = build_grid(s, n_points=6)
        fit = fit_bdr(s, grid)
        vals = []
        for iy in range(grid.y_body.size):
            for iw in range(grid.w_body.size):
                rho, _ = link_rho(s.x @ fit.dep_coef[iy, iw])
                vals.append(np.mean(np.abs(rho)))
        stats.append(float(np.mean(vals)))
    return {
        "mean": float(np.mean(stats)),
        "se": float(np.std(stats, ddof=1)),
    }


def independence_quintile_cells():
    from bdreg.functionals import transition_from_fits

    draws = []
    for r in range(N_REPS):
        s = generate(bench_spec(SMALL_N, 6000 + r, dep_coef=[0.0, 0.0, 0.0]))
        y_inner = np.quantile(s.y, [0.2, 0.4, 0.6, 0.8], method="inverted_cdf")
        w_inner = np.quantile(s.w, [0.2, 0.4, 0.6, 0.8], method="inverted_cdf")
        base = build_grid(s, n_points=10)
        grid = grid_from_values(
            np.union1d(base.y_grid, y_inner), np.union1d(base.w_grid, w_inner)
        )
        fit = fit_bdr(s, grid)
        y_cuts = np.r_[-np.inf, y_inner, np.inf]
        w_cuts = np.r_[-np.inf, w_inner, np.inf]
        tm = transition_from_fits({0: fit}, {0: s}, "0000", y_cuts, w_cuts)
        draws.append(tm.cells)
    return np.std(np.asarray(draws), axis=0, ddof=1).tolist()


def main():
    out = {}
    blocks = [
        ("probit_two_covariate_se", probit_two_covariate),
        ("tail_alpha_unit_se", lambda: tail_alpha(1.0, 2000)),
        ("tail_alpha_scale2_se", lambda: tail_alpha(2.0, 3000)),
        ("dep_cell_se", dep_cells),
        ("independence_mean_abs_rho", independence_mean_abs_rho),
        ("transition_cell_se", independence_quintile_cells),
    ]
    for name, fn in blocks:
        t0 = time.time()
        out[name] = fn()
        print(f"{name}: {time.time() - t0:.1f}s")
    out["n_reps"] = N_REPS
    out["small_n"] = SMALL_N
    OUT.parent.mkdir(parents=True, exist_ok=True)
    OUT.write_text(json.dumps(out, indent=2, sort_keys=True) + "\n")
    print(f"wrote {OUT}")


if __name__ == "__main__":
    main()
