"""Benchmark workloads: inputs generated from the seed, one timed pass, and
the checks on each pass's outputs.

Group 0 always uses the canonical covariate-dependent design of the test
suite (tests/conftest.py bench_spec); group 1 shifts every coefficient a
little and is drawn with seed + 1, as `bdreg simulate --two-groups` does.
Dependence stays moderate (|rho| < 0.6), so no grid cell is near
quasi-separation and no operation fails.
"""

from __future__ import annotations

import csv
import json
import os
import resource
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from bdreg import cli, data, dependence, functionals
from bdreg.data import Sample, nearest_body_value
from bdreg.data import build_grid as _build_grid  # bound here: checks make no spans
from bdreg.dgp import DgpSpec, generate, true_joint_cdf

import cli_child

HERE = Path(__file__).resolve().parent
CLI_CHILD = HERE / "cli_child.py"

Y0, W0, D0 = (0.2, 0.5, -0.3), (-0.1, 0.8, 0.2), (0.3, 0.4, -0.2)
Y1, W1, D1 = (0.4, 0.6, -0.2), (0.1, 0.7, 0.3), (0.2, 0.3, -0.1)

# Statistical tolerance on the sup-norm gap between the decomposition total
# and its target: ERR_SE times the largest standard error of a difference of
# two empirical CDF values, 0.5 * sqrt(1/n0 + 1/n1).
ERR_SE = 6.0
SURFACE_TOL = 1e-12  # covariate averages of exact 0s and 1s round by ~1e-16
TELESCOPE_TOL = 1e-12
TRANSITION_TOL = 1e-9
CSV_TELESCOPE_TOL = 1e-10  # the CLI writes 12 significant digits
PASS_TIMEOUT_S = 150
# Untraced passes cycle through this many datasets drawn from the run's seed,
# so a run's medians do not hang on one draw's iteration counts.
DATASETS = 5


@dataclass(frozen=True)
class Size:
    n: int
    grid: int
    eval_grid: int = 0  # surfaces-fine: evaluation points per axis
    replicates: int = 0  # decompose-boot
    workers: int = 1


# Full sizes, and smoke sizes that finish in seconds for the self-tests.
# decompose-boot runs n=2000: at n=1000 a replicate's sparse corner cell now
# and then fails to converge, and 2 failed replicates of 12 abort the CLI.
SIZES = {
    "surfaces-fine": (Size(n=2000, grid=6, eval_grid=16), Size(n=400, grid=5, eval_grid=6)),
    "decompose-boot": (
        Size(n=2000, grid=5, replicates=12, workers=2),
        Size(n=400, grid=5, replicates=10, workers=2),
    ),
}


@dataclass
class Inputs:
    name: str
    seed: int
    size: Size
    specs: list[DgpSpec]
    samples: dict[int, Sample]
    workdir: Path
    csv_path: Path | None = None
    y_eval: np.ndarray | None = None
    w_eval: np.ndarray | None = None
    y_cuts: np.ndarray | None = None
    w_cuts: np.ndarray | None = None
    truth_cache: dict = field(default_factory=dict)


@dataclass
class PassResult:
    run_s: float
    cpu_s: float
    fit_s: float
    functionals_s: float
    attempted: int
    failed: int
    checks: dict[str, bool]
    sup_err: float

    @property
    def ok(self) -> bool:
        return all(self.checks.values())


def _spec(coefs, n, seed):
    y, w, d = (np.array(c, dtype=float) for c in coefs)
    return DgpSpec(y_coef=y, w_coef=w, dep_coef=d, n=n, seed=seed)


def make_inputs(name: str, seed: int, workdir: Path, smoke: bool = False) -> Inputs:
    """Generate the workload's inputs from the seed (the set-up step)."""
    size = SIZES[name][1 if smoke else 0]
    specs = [_spec((Y0, W0, D0), size.n, seed), _spec((Y1, W1, D1), size.n, seed + 1)]
    samples = {g: generate(spec) for g, spec in enumerate(specs)}
    inp = Inputs(name, seed, size, specs, samples, Path(workdir))
    if name == "surfaces-fine":
        y_all = np.concatenate([s.y for s in samples.values()])
        w_all = np.concatenate([s.w for s in samples.values()])
        levels = np.linspace(0.02, 0.98, size.eval_grid)
        inp.y_eval = np.quantile(y_all, levels)
        inp.w_eval = np.quantile(w_all, levels)
        deciles = np.linspace(0.1, 0.9, 9)
        inp.y_cuts = np.concatenate([[-np.inf], np.quantile(y_all, deciles), [np.inf]])
        inp.w_cuts = np.concatenate([[-np.inf], np.quantile(w_all, deciles), [np.inf]])
    elif name == "decompose-boot":
        inp.workdir.mkdir(parents=True, exist_ok=True)
        argv = [
            "simulate", "--n", str(size.n), "--seed", str(seed),
            f"--y-coef={_csv(Y0)}", f"--w-coef={_csv(W0)}", f"--dep-coef={_csv(D0)}",
            "--two-groups",
            f"--y-coef-1={_csv(Y1)}", f"--w-coef-1={_csv(W1)}", f"--dep-coef-1={_csv(D1)}",
            "--out", str(inp.workdir), "--output-name", "sample.csv",
        ]
        if cli.main(argv) != 0:
            raise RuntimeError("bdreg simulate failed")
        inp.csv_path = inp.workdir / "sample.csv"
    return inp


def dataset_seed(seed: int, j: int) -> int:
    """Seed of the run's j-th dataset (group 1 uses this + 1)."""
    return int(np.random.SeedSequence([seed, j]).generate_state(1)[0] >> 1)


def make_datasets(name: str, seed: int, workdir: Path, smoke: bool = False) -> list[Inputs]:
    """The run's set-up: every dataset the untraced passes cycle through."""
    return [make_inputs(name, dataset_seed(seed, j), Path(workdir) / f"data-{j}", smoke)
            for j in range(DATASETS)]


def _csv(values) -> str:
    return ",".join(repr(v) for v in values)


def _cpu(who) -> float:
    ru = resource.getrusage(who)
    return ru.ru_utime + ru.ru_stime


def _snap(r: float, body: np.ndarray) -> float:
    """The threshold whose coefficients the fit uses at r: the nearest body
    point inside the body range; beyond it the tail extrapolation, which is
    exact for this location model."""
    return r if r < body[0] or r > body[-1] else nearest_body_value(body, r)


def _target(inp: Inputs, g: int, y_values, w_values) -> np.ndarray:
    """Covariate-averaged true joint CDF of group g at the thresholds its fit
    uses (the DGP's dependence does not vary with the thresholds), cached.

    On the group's own grid this is the DGP truth itself; between grid points
    it takes out the step error of the nearest-body copy rule, so the gap to
    the estimate is statistical error only."""
    key = (g, np.asarray(y_values).tobytes(), np.asarray(w_values).tobytes())
    if key not in inp.truth_cache:
        grid = _build_grid(inp.samples[g], inp.size.grid)
        x, spec = inp.samples[g].x, inp.specs[g]
        inp.truth_cache[key] = np.array([
            [true_joint_cdf(spec, _snap(yv, grid.y_body), _snap(wv, grid.w_body), x).mean()
             for wv in w_values]
            for yv in y_values
        ])
    return inp.truth_cache[key]


def _target_total(inp: Inputs, y_values, w_values) -> np.ndarray:
    """Decomposition total (group 1 minus group 0) of the targets."""
    return _target(inp, 1, y_values, w_values) - _target(inp, 0, y_values, w_values)


def _err_tol(inp: Inputs) -> float:
    n = [s.n for s in inp.samples.values()]
    return ERR_SE * 0.5 * float(np.sqrt(sum(1.0 / k for k in n)))


def _telescopes(report, tol) -> bool:
    comps = report.components()
    parts = sum(comps[k] for k in ("composition", "sorting", "marginal_w", "marginal_y"))
    return bool(np.all(np.isfinite(comps["total"])) and np.max(np.abs(parts - comps["total"])) <= tol)


def run_surfaces_fine(inp: Inputs) -> PassResult:
    samples = inp.samples
    cpu0, t0 = _cpu(resource.RUSAGE_SELF), time.perf_counter()
    fits = {g: dependence.fit_bdr(s, data.build_grid(s, inp.size.grid)) for g, s in samples.items()}
    t1 = time.perf_counter()
    report = functionals.decompose_joint(fits, samples, inp.y_eval, inp.w_eval)
    trans = functionals.decompose_transition(fits, samples, inp.y_cuts, inp.w_cuts)
    surf = functionals.counterfactual_joint_cdf(fits, samples, "1111", inp.y_cuts, inp.w_cuts)
    tm = functionals.transition_matrix(surf)
    t2, cpu1 = time.perf_counter(), _cpu(resource.RUSAGE_SELF)

    total = report.components()["total"]
    err = float(np.max(np.abs(total - _target_total(inp, inp.y_eval, inp.w_eval))))
    trans_sums = [abs(float(c.sum())) for c in trans.components().values()]
    checks = {
        "surface finite in [0, 1]": bool(
            np.all(np.isfinite(surf.values))
            and surf.values.min() >= -SURFACE_TOL and surf.values.max() <= 1 + SURFACE_TOL
        ),
        "decomposition telescopes": _telescopes(report, TELESCOPE_TOL),
        "transition decomposition telescopes": _telescopes(trans, TELESCOPE_TOL),
        "transition cells sum to 1": bool(abs(tm.cells.sum() - 1.0) <= TRANSITION_TOL),
        "transition differences sum to 0": max(trans_sums) <= TRANSITION_TOL,
        "decomposition total in [-1, 1]": bool(np.max(np.abs(total)) <= 1.0),
        "total_err within tolerance": err <= _err_tol(inp),
    }
    cells = sum(f.dep_coef.shape[0] * f.dep_coef.shape[1] for f in fits.values())
    failed = sum(f.n_failed for f in fits.values()) + (not all(checks.values()))
    return PassResult(t2 - t0, cpu1 - cpu0, t1 - t0, t2 - t1, cells + 1, failed, checks, err)


def _decompose_argv(inp: Inputs, out: Path, workers: int) -> list[str]:
    return [
        "decompose", "--input", str(inp.csv_path), "--covariates", "x1,x2",
        "--group-col", "group", "--grid-points", str(inp.size.grid),
        "--replicates", str(inp.size.replicates), "--workers", str(workers),
        "--out", str(out),
    ]


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(HERE.parent / "src")
    env.pop(cli.WORKERS_ENV, None)
    return env


def _run_child(cmd: list[str]) -> tuple[int, str]:
    """Run cmd in its own process group; on timeout kill the group (the CLI's
    pool workers too) and wait for it."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                            env=_child_env(), start_new_session=True, text=True)
    try:
        out, _ = proc.communicate(timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    return proc.returncode, out


def run_decompose_boot(inp: Inputs, in_process: bool = False) -> PassResult:
    """One `bdreg decompose` run. By default a subprocess on size.workers
    workers; in_process calls bdreg.cli.main on one worker, which the traced
    pass needs because spans recorded in forked pool workers are lost."""
    out = inp.workdir / "out"
    timings_path = inp.workdir / "timings.json"
    timings_path.unlink(missing_ok=True)
    if in_process:
        argv = _decompose_argv(inp, out, 1)
        cpu0, t0 = _cpu(resource.RUSAGE_SELF), time.perf_counter()
        code = cli_child.main(str(timings_path), argv)
        t1, cpu1 = time.perf_counter(), _cpu(resource.RUSAGE_SELF)
        log = ""
    else:
        cmd = [sys.executable, str(CLI_CHILD), str(timings_path)]
        cmd += _decompose_argv(inp, out, inp.size.workers)
        cpu0, t0 = _cpu(resource.RUSAGE_CHILDREN), time.perf_counter()
        code, log = _run_child(cmd)
        t1, cpu1 = time.perf_counter(), _cpu(resource.RUSAGE_CHILDREN)
    # A CLI that died before writing its timings has failed its exit check.
    timings = _read_json(timings_path) if timings_path.exists() else dict(cli_child.EMPTY)

    checks = {"exit code 0": code == 0}
    err = float("nan")
    if code == 0:
        rows = _read_decomposition(out / "decomposition.csv")
        checks.update(_check_decomposition(inp, rows))
        err = _decomposition_err(inp, rows)
        checks["total_err within tolerance"] = bool(err <= _err_tol(inp))
    elif log:
        print(log, file=sys.stderr)
    ops = 1 + timings["cells"] + timings["replicates"]
    failed = timings["cells_failed"] + timings["replicates_failed"] + (not all(checks.values()))
    return PassResult(t1 - t0, cpu1 - cpu0, timings["fit_s"], timings["functionals_s"],
                      ops, failed, checks, err)


def _read_json(path: Path) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _read_decomposition(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _check_decomposition(inp: Inputs, rows: list[dict]) -> dict[str, bool]:
    g = inp.size.grid
    se = np.array([float(r.get("se", "nan")) for r in rows])
    value = np.array([float(r["value"]) for r in rows])
    checks = {
        f"decomposition.csv has 5 x {g}^2 rows": len(rows) == 5 * g * g,
        "se column finite": bool(se.size and np.all(np.isfinite(se))),
        "values finite": bool(value.size and np.all(np.isfinite(value))),
    }
    if checks[f"decomposition.csv has 5 x {g}^2 rows"]:
        by = {name: value[i * g * g:(i + 1) * g * g] for i, name in
              enumerate(r["component"] for r in rows[:: g * g])}
        parts = sum(by.get(k, np.nan) for k in ("composition", "sorting", "marginal_w", "marginal_y"))
        checks["components telescope"] = bool(
            "total" in by and np.max(np.abs(parts - by["total"])) <= CSV_TELESCOPE_TOL
        )
    return checks


def _decomposition_err(inp: Inputs, rows: list[dict]) -> float:
    total = [r for r in rows if r["component"] == "total"]
    y_values = np.unique([float(r["y"]) for r in total])
    w_values = np.unique([float(r["w"]) for r in total])
    if len(total) != y_values.size * w_values.size:
        return float("inf")
    est = np.array([float(r["value"]) for r in total]).reshape(y_values.size, w_values.size)
    return float(np.max(np.abs(est - _target_total(inp, y_values, w_values))))


RUNNERS = {
    "surfaces-fine": run_surfaces_fine,
    "decompose-boot": run_decompose_boot,
}
