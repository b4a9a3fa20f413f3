"""Batch front end: CSV ingestion, pipeline orchestration, and plot-ready
delimited outputs with a JSON run manifest.

Subcommands: estimate, counterfactual, decompose, transition, simulate.
Given --replicates N (0 for none, else at least 10), a fitting command adds
weighted-bootstrap standard errors to its tables: each replicate refits the
marginals under its weights and takes one Newton step from the base estimate
in every dependence cell (bootstrap.bootstrap_fit). Exit codes: 0 success,
2 configuration error, 3 data error, 4 estimation/inference error.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from dataclasses import asdict, dataclass, field, fields, replace
from functools import partial
from pathlib import Path

import numpy as np
import scipy

from . import __version__
from .bootstrap import (
    MIN_DRAWS_FOR_INFERENCE,
    BootstrapEnsemble,
    WeightScheme,
    bootstrap_fit,
    ensemble_apply,
    robust_se_map,
)
from .data import (
    DEFAULT_GRID_POINTS,
    DEFAULT_TAIL_MIN_OBS,
    DEFAULT_TRIM,
    Sample,
    build_grid,
    empirical_quantile,
    grid_from_values,
    increasing,
    split_groups,
    validate,
)
from .dependence import BdrFit, fit_bdr
from .dgp import CovariateSpec, DgpSpec, generate
from .exceptions import BdrError, ConfigError, DataError
from .functionals import (
    CounterfactualIndex,
    counterfactual_joint_cdf,
    decompose_joint,
    decompose_transition,
    fitted_surface,
    independence_counterfactual,  # noqa: F401  (perfbench/spans.py traces it at this name)
    transition_from_fits,
)

__all__ = ["OutputWriter", "RunConfig", "build_parser", "ingest", "main"]

MISSING_TOKENS = {"", "na", "nan", "null", "."}
WORKERS_ENV = "BDREG_WORKERS"
_LIST_FLAGS = ("--y-coef", "--w-coef", "--dep-coef", "--y-coef-1", "--w-coef-1", "--dep-coef-1",
               "--y-cuts", "--w-cuts")
_VERSIONS = {"bdreg": __version__, "numpy": np.__version__, "scipy": scipy.__version__}


def _fmt(v) -> str:
    """12-significant-digit fixed formatting for all numeric output."""
    v = float(v)
    if np.isnan(v):
        return "nan"
    if np.isposinf(v):
        return "inf"
    if np.isneginf(v):
        return "-inf"
    return f"{v:.12g}"


@dataclass
class RunConfig:
    """The settings of a fitting command, one field per option of the same
    name; the manifest records them as they are."""

    input: str = ""
    y_col: str = "y"
    w_col: str = "w"
    group_col: str | None = None
    covariates: list[str] = field(default_factory=list)
    grid_points: int = DEFAULT_GRID_POINTS
    trim: tuple[float, float] = DEFAULT_TRIM
    tail_min_obs: int = DEFAULT_TAIL_MIN_OBS
    dep_covariates: list[str] | None = None  # subset of covariates, None = all
    replicates: int = 0
    scheme: str = "exponential"
    seed: int = 0
    workers: int = 1


class OutputWriter:
    """Tracks written files so a failed run can remove its partial output."""

    def __init__(self, outdir: Path):
        self.outdir = outdir
        self.written: list[Path] = []
        outdir.mkdir(parents=True, exist_ok=True)

    def csv(self, name: str, header: list[str], rows) -> Path:
        path = self.outdir / name
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            for row in rows:
                writer.writerow(
                    [_fmt(v) if isinstance(v, (int, float, np.floating)) and not isinstance(v, bool) else str(v) for v in row]
                )
        self.written.append(path)
        return path

    def manifest(self, payload: dict) -> Path:
        path = self.outdir / "manifest.json"
        with open(path, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
        self.written.append(path)
        return path

    def cleanup(self):
        for path in self.written:
            try:
                path.unlink()
            except OSError:
                pass


def ingest(path: str, config: RunConfig):
    """Parse the delimited input into per-group Samples.

    Rows with a missing value in any used column are dropped (counted in the
    manifest); unparseable cells raise a DataError naming row and column.
    """
    used = [config.y_col, config.w_col] + list(config.covariates)
    if config.group_col:
        used.append(config.group_col)
    try:
        fh = open(path, newline="")
    except OSError as err:
        raise DataError(f"cannot open input {path}: {err}") from None
    with fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path} is empty") from None
        header = [h.strip() for h in header]
        missing_cols = [c for c in used if c not in header]
        if missing_cols:
            raise ConfigError(f"unknown column(s) {missing_cols}; file has {header}")
        pos = {c: header.index(c) for c in used}

        kept_rows = []
        n_dropped = 0
        for line_no, row in enumerate(reader, start=2):
            if not row or all(not c.strip() for c in row):
                continue
            vals = {}
            drop = False
            for col in used:
                raw = row[pos[col]].strip() if pos[col] < len(row) else ""
                if raw.lower() in MISSING_TOKENS:
                    drop = True
                    break
                try:
                    vals[col] = float(raw)
                except ValueError:
                    raise DataError(
                        f"unparseable value {raw!r} at line {line_no}, column {col!r}"
                    ) from None
            if drop:
                n_dropped += 1
                continue
            kept_rows.append(vals)

    if not kept_rows:
        raise DataError("no usable rows after dropping missing values")

    y = np.array([r[config.y_col] for r in kept_rows])
    w = np.array([r[config.w_col] for r in kept_rows])
    x = np.column_stack(
        [np.ones(len(kept_rows))]
        + [np.array([r[c] for r in kept_rows]) for c in config.covariates]
    )
    d = None
    if config.group_col:
        draw = np.array([r[config.group_col] for r in kept_rows])
        if not np.all(np.isin(draw, (0.0, 1.0))):
            raise DataError(f"group column {config.group_col!r} must be binary 0/1")
        d = draw.astype(int)
    sample = validate(Sample(y=y, w=w, x=x, d=d))
    return sample, n_dropped


def _dep_cols(config: RunConfig) -> tuple[int, ...] | None:
    if config.dep_covariates is None:
        return None
    unknown = [c for c in config.dep_covariates if c not in config.covariates]
    if unknown:
        raise ConfigError(f"dep covariates {unknown} not in covariate list")
    # intercept column is always included
    return (0,) + tuple(
        1 + config.covariates.index(c) for c in config.dep_covariates
    )


def _manifest_base(command: str, config: RunConfig, n_dropped: int,
                   samples: dict[int, Sample]) -> dict:
    return {
        "command": command,
        "config": asdict(config),
        "versions": _VERSIONS,
        "rows_dropped_missing": n_dropped,
        "group_sizes": {str(g): int(s.n) for g, s in samples.items()},
    }


@dataclass
class _Run:
    """What a fitting command works from: per-group samples and base fits,
    the bootstrap ensembles (None without replicates), the manifest so far,
    and, for transition, the cuts with +/-inf outermost."""

    samples: dict[int, Sample]
    fits: dict[int, BdrFit]
    ensembles: dict[int, BootstrapEnsemble] | None
    manifest: dict
    y_cuts: np.ndarray | None = None
    w_cuts: np.ndarray | None = None
    workers: int = 1

    def se(self, fn, group=None):
        """Robust SE over the replicates of fn(fits), fits keyed by group
        (each replicate fit carries its own weights); only group's
        replicates when given, else those valid in every group, on the
        run's workers. A dict result gets one SE per key; None without
        replicates."""
        if self.ensembles is None:
            return None
        ensembles = self.ensembles if group is None else {group: self.ensembles[group]}
        draws = list(ensemble_apply(ensembles, fn, self.workers).values())
        if isinstance(draws[0], dict):
            return {k: robust_se_map(np.stack([d[k] for d in draws])) for k in draws[0]}
        return robust_se_map(np.stack(draws))


def _prologue(command: str, config: RunConfig, two_groups=False, cut_args=None) -> _Run:
    """Ingest the input, split it by group, fit each group on its quantile
    grid and, given replicates, bootstrap each fit and record each group's
    failed replicates in the manifest. --replicates is 0 (no standard
    errors) or at least MIN_DRAWS_FOR_INFERENCE; any other count is
    rejected before ingest.

    With cut_args (the transition arguments) the cuts are taken from the
    pooled outcomes, so rows and columns mean the same across groups, and
    merged into every grid so surfaces are exact there. Cuts that coincide
    (distinct levels at one empirical quantile) raise DataError before any
    fit."""
    if config.replicates and config.replicates < MIN_DRAWS_FOR_INFERENCE:
        raise ConfigError(
            f"--replicates must be 0 (no standard errors) or >= {MIN_DRAWS_FOR_INFERENCE}"
        )
    sample, n_dropped = ingest(config.input, config)
    if two_groups and sample.d is None:
        raise ConfigError("this command requires --group-col with two groups")
    samples = {0: sample} if sample.d is None else split_groups(sample)
    y_cuts = w_cuts = None
    if cut_args is not None:
        y_cuts = _parse_cuts(cut_args.y_cuts, cut_args.y_cut_levels, sample.y, "y")
        w_cuts = _parse_cuts(cut_args.w_cuts, cut_args.w_cut_levels, sample.w, "w")
    grids = {}
    for g, s in samples.items():
        grids[g] = build_grid(s, config.grid_points, config.trim, config.tail_min_obs)
        if cut_args is not None:
            grids[g] = grid_from_values(
                np.union1d(grids[g].y_grid, y_cuts[1:-1]),
                np.union1d(grids[g].w_grid, w_cuts[1:-1]),
                config.tail_min_obs,
            )
    dep_cols = _dep_cols(config)
    fits = {g: fit_bdr(samples[g], grids[g], dep_cols) for g in sorted(samples)}
    manifest = _manifest_base(command, config, n_dropped, samples)
    ensembles = None
    if config.replicates:
        scheme = WeightScheme(kind=config.scheme, seed=config.seed)
        ensembles = {
            g: bootstrap_fit(samples[g], fits[g], config.replicates, scheme,
                             group=g, workers=config.workers)
            for g in sorted(samples)
        }
        manifest["bootstrap_failures"] = {str(g): len(e.failed) for g, e in ensembles.items()}
    return _Run(samples, fits, ensembles, manifest, y_cuts, w_cuts, config.workers)


def _write_fit_tables(writer: OutputWriter, fits: dict[int, BdrFit]):
    coef_rows_y, coef_rows_w, dep_rows, tail_rows = [], [], [], []
    for g, fit in sorted(fits.items()):
        d_x = fit.y_marginal.coef.shape[1]
        for i, r in enumerate(fit.y_marginal.body):
            coef_rows_y.append([g, r] + list(fit.y_marginal.coef[i]))
        for i, r in enumerate(fit.w_marginal.body):
            coef_rows_w.append([g, r] + list(fit.w_marginal.coef[i]))
        for iy, yv in enumerate(fit.grid.y_body):
            for iw, wv in enumerate(fit.grid.w_body):
                dep_rows.append([g, yv, wv] + list(fit.dep_coef[iy, iw]))
        for outcome, marg in (("y", fit.y_marginal), ("w", fit.w_marginal)):
            tail_rows.append([g, outcome, "lower", marg.alpha_lo, marg.anchor_lo, marg.r0_lo])
            tail_rows.append([g, outcome, "upper", marg.alpha_hi, marg.anchor_hi, marg.r0_hi])
    coef_header = ["group", "threshold"] + [f"coef_{j}" for j in range(d_x)]
    writer.csv("coefficients_y.csv", coef_header, coef_rows_y)
    writer.csv("coefficients_w.csv", coef_header, coef_rows_w)
    n_dep = len(next(iter(fits.values())).dep_cols)
    writer.csv(
        "dependence.csv",
        ["group", "y", "w"] + [f"coef_{j}" for j in range(n_dep)],
        dep_rows,
    )
    writer.csv(
        "tails.csv",
        ["group", "outcome", "side", "alpha", "anchor", "r0"],
        tail_rows,
    )


def _write_surface(writer: OutputWriter, name: str, surface, se=None):
    rows = []
    for iy, yv in enumerate(surface.y_values):
        for iw, wv in enumerate(surface.w_values):
            row = [yv, wv, surface.values[iy, iw]]
            if se is not None:
                row.append(se[iy, iw])
            rows.append(row)
    header = ["y", "w", "value"] + (["se"] if se is not None else [])
    writer.csv(name, header, rows)


def _write_decomposition(writer: OutputWriter, name: str, report, rows_axis, cols_axis,
                         se=None):
    """One row per component and cell: its value, its share of the total (1
    for the total itself) and, given per-component SEs, its se. Each axis is
    a (column name, labels) pair."""
    (row_name, row_labels), (col_name, col_labels) = rows_axis, cols_axis
    shares = report.shares()
    rows = []
    for comp_name, comp in report.components().items():
        for i, row_label in enumerate(row_labels):
            for j, col_label in enumerate(col_labels):
                row = [comp_name, row_label, col_label, comp[i, j],
                       shares[comp_name][i, j] if comp_name in shares else 1.0]
                if se is not None:
                    row.append(se[comp_name][i, j])
                rows.append(row)
    header = ["component", row_name, col_name, "value", "share_of_total"]
    writer.csv(name, header + (["se"] if se is not None else []), rows)


def _cmd_estimate(args, config: RunConfig, writer: OutputWriter) -> dict:
    run = _prologue("estimate", config)
    _write_fit_tables(writer, run.fits)
    se_rows = {"y": [], "w": []}
    for g, fit in sorted(run.fits.items()):
        surface = partial(fitted_surface, sample=run.samples[g])
        se = run.se(lambda f: {
            "y": f[g].y_marginal.coef,
            "w": f[g].w_marginal.coef,
            "surface": surface(f[g]).values,
        }, group=g) or {}
        for outcome, rows in se_rows.items():
            body = getattr(fit, f"{outcome}_marginal").body
            rows.extend([g, thr] + list(row) for thr, row in zip(body, se.get(outcome, ())))
        _write_surface(writer, f"surface_fitted_{g}.csv", surface(fit), se=se.get("surface"))
    if run.ensembles is not None:
        d_x = next(iter(run.fits.values())).y_marginal.coef.shape[1]
        header = ["group", "threshold"] + [f"se_{j}" for j in range(d_x)]
        for outcome, rows in se_rows.items():
            writer.csv(f"coefficients_{outcome}_se.csv", header, rows)
    return run.manifest


def _cmd_counterfactual(args, config: RunConfig, writer: OutputWriter) -> dict:
    run = _prologue("counterfactual", config, two_groups=True)
    # common evaluation thresholds: group-1 estimation grid
    y_vals, w_vals = run.fits[1].grid.y_grid, run.fits[1].grid.w_grid
    indices = args.index or ["1110"]
    for code in indices:
        surface = partial(counterfactual_joint_cdf, samples=run.samples,
                          index=CounterfactualIndex.parse(code), y_values=y_vals, w_values=w_vals)
        surf = surface(run.fits)
        se = run.se(lambda f: surface(f).values)
        _write_surface(writer, f"surface_counterfactual_{code}.csv", surf, se=se)
    run.manifest["indices"] = list(indices)
    return run.manifest


def _cmd_decompose(args, config: RunConfig, writer: OutputWriter) -> dict:
    run = _prologue("decompose", config, two_groups=True)
    y_vals, w_vals = run.fits[1].grid.y_grid, run.fits[1].grid.w_grid
    decompose = partial(decompose_joint, samples=run.samples, y_values=y_vals, w_values=w_vals)
    report = decompose(run.fits)
    se = run.se(lambda f: decompose(f).components())
    _write_decomposition(writer, "decomposition.csv", report, ("y", y_vals), ("w", w_vals), se)
    return run.manifest


def _parse_cuts(arg: str | None, levels_arg: str | None, values, name: str):
    """The cuts, -inf and inf outermost, from explicit interior numbers or
    quantile levels. A repeated number is a ConfigError; levels that meet at
    one data point make a repeated cut, a DataError."""
    if arg and levels_arg:
        raise ConfigError(f"give either --{name}-cuts or --{name}-cut-levels, not both")
    if arg:
        vals = _numbers(arg, f"{name}-cuts", distinct=True)
        if not np.all(np.isfinite(vals)):
            raise ConfigError(
                f"--{name}-cuts must be finite (the outer -inf and inf cuts are implied)"
            )
    elif levels_arg:
        levels = _numbers(levels_arg, f"{name}-cut-levels", distinct=True)
        if any(not 0.0 < lv < 1.0 for lv in levels):
            raise ConfigError("cut levels must lie in (0, 1)")
        vals = list(empirical_quantile(values, levels))
    else:
        # quintiles by default
        vals = list(empirical_quantile(values, [0.2, 0.4, 0.6, 0.8]))
    return increasing([-np.inf, *sorted(vals), np.inf], f"{name} cuts", 2)


def _cmd_transition(args, config: RunConfig, writer: OutputWriter) -> dict:
    run = _prologue("transition", config, two_groups=args.decompose, cut_args=args)
    y_cuts, w_cuts = run.y_cuts, run.w_cuts
    rows = []
    for g in sorted(run.fits):
        matrix = partial(transition_from_fits, samples=run.samples, index=f"{g}{g}{g}{g}",
                         y_cuts=y_cuts, w_cuts=w_cuts)
        tm = matrix(run.fits)
        se = run.se(lambda f: matrix(f).cells, group=g)
        for j, k in np.ndindex(tm.cells.shape):
            row = [g, j + 1, k + 1, y_cuts[j], y_cuts[j + 1], w_cuts[k],
                   w_cuts[k + 1], tm.cells[j, k]]
            if se is not None:
                row.append(se[j, k])
            rows.append(row)
    header = ["group", "row", "col", "y_lo", "y_hi", "w_lo", "w_hi", "value"]
    writer.csv("transition.csv", header + (["se"] if run.ensembles is not None else []), rows)

    if args.decompose:
        decompose = partial(decompose_transition, samples=run.samples, y_cuts=y_cuts,
                            w_cuts=w_cuts)
        report = decompose(run.fits)
        se = run.se(lambda f: decompose(f).components())
        cells = [("row", range(1, len(y_cuts))), ("col", range(1, len(w_cuts)))]
        _write_decomposition(writer, "transition_decomposition.csv", report, *cells, se)

    run.manifest["y_cuts"] = [_fmt(v) for v in y_cuts]
    run.manifest["w_cuts"] = [_fmt(v) for v in w_cuts]
    return run.manifest


def _numbers(arg: str, flag: str, distinct: bool = False) -> list[float]:
    """The numbers of a comma-separated list option; empty entries are
    skipped, and a non-number (or, when distinct, a repeat) is a ConfigError."""
    try:
        vals = [float(tok) for tok in arg.split(",") if tok.strip()]
    except ValueError:
        raise ConfigError(f"--{flag} must be a comma-separated number list") from None
    if distinct and len(set(vals)) < len(vals):
        raise ConfigError(f"--{flag} repeats a value")
    return vals


def _cmd_simulate(args, config: None, writer: OutputWriter) -> dict:
    if args.n < 1 or args.seed < 0:
        raise ConfigError("simulate needs --n >= 1 and --seed >= 0")
    y_coef = np.array(_numbers(args.y_coef, "y-coef"))
    w_coef = np.array(_numbers(args.w_coef, "w-coef"))
    dep_coef = np.array(_numbers(args.dep_coef, "dep-coef"))
    covs = (CovariateSpec("uniform", 0.0, 1.0), CovariateSpec("binary", 0.5))
    d_x = 1 + len(covs)
    for name, coef in (("y-coef", y_coef), ("w-coef", w_coef), ("dep-coef", dep_coef)):
        if coef.size != d_x:
            raise ConfigError(f"--{name} must have {d_x} entries (intercept + 2 covariates)")

    spec = DgpSpec(y_coef=y_coef, w_coef=w_coef, dep_coef=dep_coef,
                   n=args.n, seed=args.seed, covariates=covs)
    specs, groups = [spec], [None]
    if args.two_groups:
        y1 = np.array(_numbers(args.y_coef_1, "y-coef-1")) if args.y_coef_1 else y_coef
        w1 = np.array(_numbers(args.w_coef_1, "w-coef-1")) if args.w_coef_1 else w_coef
        d1 = np.array(_numbers(args.dep_coef_1, "dep-coef-1")) if args.dep_coef_1 else dep_coef
        specs.append(replace(spec, y_coef=y1, w_coef=w1, dep_coef=d1, seed=args.seed + 1))
        groups = [0, 1]

    rows = []
    for spec, g in zip(specs, groups):
        s = generate(spec, group=g)
        for i in range(s.n):
            row = [s.y[i], s.w[i]] + list(s.x[i, 1:])
            if g is not None:
                row.append(g)
            rows.append(row)
    header = ["y", "w", "x1", "x2"] + (["group"] if args.two_groups else [])
    writer.csv(args.output_name, header, rows)
    return {
        "command": "simulate",
        "versions": _VERSIONS,
        "n": args.n,
        "seed": args.seed,
        "two_groups": bool(args.two_groups),
    }


def _add_common(p: argparse.ArgumentParser):
    d = RunConfig()
    p.add_argument("--input", required=True, help="delimited input file with header row")
    p.add_argument("--y-col", default=d.y_col)
    p.add_argument("--w-col", default=d.w_col)
    p.add_argument("--group-col", default=d.group_col)
    p.add_argument("--covariates", default=",".join(d.covariates),
                   help="comma-separated covariate columns (intercept added automatically)")
    p.add_argument("--grid-points", type=int, default=d.grid_points)
    p.add_argument("--trim", default=",".join(map(str, d.trim)),
                   help="lower,upper percentile trim for the grid")
    p.add_argument("--tail-min-obs", type=int, default=d.tail_min_obs)
    p.add_argument("--dep-covariates", default=d.dep_covariates,
                   help="subset of covariates driving the dependence (default: all)")
    p.add_argument("--replicates", type=int, default=d.replicates,
                   help="bootstrap replicates for standard errors: 0 for none, else at least "
                        f"{MIN_DRAWS_FOR_INFERENCE}; each refits the marginals and takes one "
                        "Newton step per dependence cell")
    p.add_argument("--scheme", choices=["exponential", "multinomial"], default=d.scheme)
    p.add_argument("--seed", type=int, default=d.seed)
    p.add_argument("--out", default="bdreg-out")
    p.add_argument("--workers", type=int, default=None,
                   help="processes for the bootstrap replicate fits and their functionals "
                        f"(default: ${WORKERS_ENV}, else {d.workers})")


def _config_from(args) -> RunConfig:
    """Each RunConfig field from the parsed option of its name; the options
    given as text lists, and the worker count (--workers, else WORKERS_ENV),
    are parsed here. A negative seed, a worker count below 1, or a column
    named twice among the roles or the dependence covariates is a ConfigError."""
    trim = tuple(_numbers(args.trim, "trim"))
    if len(trim) != 2:
        raise ConfigError("--trim must be lower,upper")
    if args.seed < 0:
        raise ConfigError("--seed must be non-negative")
    workers, source = args.workers, "--workers"
    if workers is None:
        source = WORKERS_ENV
        try:
            workers = int(os.environ.get(WORKERS_ENV, RunConfig.workers))
        except ValueError:
            raise ConfigError(f"{WORKERS_ENV} must be an integer") from None
    if workers < 1:
        raise ConfigError(f"{source} must be at least 1, got {workers}")
    covariates = [c for c in args.covariates.split(",") if c.strip()]
    dep = args.dep_covariates
    dep = None if dep is None else [c for c in dep.split(",") if c.strip()]
    roles = [c for c in (args.y_col, args.w_col, args.group_col, *covariates) if c is not None]
    for names, options in ((roles, "--y-col, --w-col, --group-col and --covariates"),
                           (dep or [], "--dep-covariates")):
        repeated = [c for i, c in enumerate(names) if c in names[:i]]
        if repeated:
            raise ConfigError(f"column {repeated[0]!r} is named twice in {options}")
    parsed = {"covariates": covariates, "trim": trim, "dep_covariates": dep,
              "workers": workers}
    return RunConfig(**{
        f.name: parsed[f.name] if f.name in parsed else getattr(args, f.name)
        for f in fields(RunConfig)
    })


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bdreg",
        description="Bivariate distribution regression pipelines",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name in ("estimate", "decompose"):
        p = sub.add_parser(name)
        _add_common(p)

    p = sub.add_parser("counterfactual")
    _add_common(p)
    p.add_argument("--index", action="append", default=None,
                   help="4-digit group index (y, w, dependence, covariates); repeatable")

    p = sub.add_parser("transition")
    _add_common(p)
    p.add_argument("--y-cuts", default=None, help="comma-separated interior cut values")
    p.add_argument("--w-cuts", default=None)
    p.add_argument("--y-cut-levels", default=None,
                   help="comma-separated quantile levels for the cuts (default quintiles)")
    p.add_argument("--w-cut-levels", default=None)
    p.add_argument("--decompose", action="store_true",
                   help="also decompose the group difference in transition matrices")

    p = sub.add_parser("simulate")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--y-coef", default="0,0.5,-0.3")
    p.add_argument("--w-coef", default="0,0.8,0.2")
    p.add_argument("--dep-coef", default="0.3,0.4,-0.2")
    p.add_argument("--two-groups", action="store_true")
    p.add_argument("--y-coef-1", default=None)
    p.add_argument("--w-coef-1", default=None)
    p.add_argument("--dep-coef-1", default=None)
    p.add_argument("--output-name", default="sample.csv")
    p.add_argument("--out", default="bdreg-out")
    return parser


_COMMANDS = {
    "estimate": _cmd_estimate,
    "counterfactual": _cmd_counterfactual,
    "decompose": _cmd_decompose,
    "transition": _cmd_transition,
    "simulate": _cmd_simulate,
}


def _attach_list_values(argv: list[str]) -> list[str]:
    """Join each number-list flag to its value as one --flag=value token, so
    argparse does not take a list that starts with a minus sign
    (--w-coef -0.1,0.8,0.2, --y-cuts -0.5,0.5) for an option."""
    out = []
    for arg in argv:
        if out and out[-1] in _LIST_FLAGS:
            out[-1] = f"{out[-1]}={arg}"
        else:
            out.append(arg)
    return out


def main(argv=None) -> int:
    """Run one subcommand; on any failure remove the files this run wrote."""
    args = build_parser().parse_args(_attach_list_values(sys.argv[1:] if argv is None else argv))
    writer = None
    code = 1
    try:
        config = None if args.command == "simulate" else _config_from(args)
        writer = OutputWriter(Path(args.out))
        writer.manifest(_COMMANDS[args.command](args, config, writer))
        code = 0
    except ConfigError as err:
        print(f"configuration error: {err}", file=sys.stderr)
        code = 2
    except DataError as err:
        print(f"data error: {err}", file=sys.stderr)
        code = 3
    except BdrError as err:
        print(f"estimation error: {err}", file=sys.stderr)
        code = 4
    finally:
        if code != 0 and writer is not None:
            writer.cleanup()
    return code


if __name__ == "__main__":
    sys.exit(main())
