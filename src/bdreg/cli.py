"""Batch front end: CSV ingestion, pipeline orchestration, and plot-ready
delimited outputs with a JSON run manifest.

Subcommands: estimate, bootstrap, counterfactual, decompose, transition,
simulate. Exit codes: 0 success, 2 configuration error, 3 data error,
4 estimation/inference error.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy

from . import __version__
from .bootstrap import WeightScheme, bootstrap_fit, ensemble_apply, robust_se_map
from .data import (
    DEFAULT_GRID_POINTS,
    DEFAULT_TAIL_MIN_OBS,
    DEFAULT_TRIM,
    GridSpec,
    Sample,
    build_grid,
    empirical_quantile,
    grid_from_values,
    split_groups,
    validate,
)
from .dependence import BdrFit, FitConfig, fit_bdr
from .dgp import CovariateSpec, DgpSpec, generate
from .exceptions import (
    BdrError,
    ConfigError,
    DataError,
    EstimationError,
    InferenceError,
)
from .functionals import (
    CounterfactualIndex,
    counterfactual_joint_cdf,
    decompose_joint,
    decompose_transition,
    fitted_surface,
    independence_counterfactual,
    transition_from_fits,
)

MISSING_TOKENS = {"", "na", "nan", "null", "."}
WORKERS_ENV = "BDREG_WORKERS"


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
    level: float = 0.95
    out: str = "bdreg-out"
    strict: bool = False
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


def _fit_config(config: RunConfig) -> FitConfig:
    return FitConfig(dep_cols=_dep_cols(config), strict=config.strict)


def _per_group(sample: Sample):
    if sample.d is None:
        return {0: sample}
    return split_groups(sample)


def _grids(samples: dict[int, Sample], config: RunConfig,
           extra_y=(), extra_w=()) -> dict[int, GridSpec]:
    """Quantile grid per group; explicit extra thresholds (e.g. transition
    cuts) are merged in so surfaces are exact there."""
    grids = {}
    for g, s in samples.items():
        base = build_grid(s, config.grid_points, config.trim, config.tail_min_obs)
        if len(extra_y) or len(extra_w):
            y_vals = np.union1d(base.y_grid, [v for v in extra_y if np.isfinite(v)])
            w_vals = np.union1d(base.w_grid, [v for v in extra_w if np.isfinite(v)])
            grids[g] = grid_from_values(y_vals, w_vals, config.tail_min_obs)
        else:
            grids[g] = base
    return grids


def _manifest_base(command: str, config: RunConfig, n_dropped: int,
                   samples: dict[int, Sample]) -> dict:
    return {
        "command": command,
        "config": {
            "input": config.input,
            "y_col": config.y_col,
            "w_col": config.w_col,
            "group_col": config.group_col,
            "covariates": config.covariates,
            "grid_points": config.grid_points,
            "trim": list(config.trim),
            "tail_min_obs": config.tail_min_obs,
            "dep_covariates": config.dep_covariates,
            "replicates": config.replicates,
            "scheme": config.scheme,
            "seed": config.seed,
            "level": config.level,
            "strict": config.strict,
            "workers": config.workers,
        },
        "versions": {
            "bdreg": __version__,
            "numpy": np.__version__,
            "scipy": scipy.__version__,
        },
        "rows_dropped_missing": n_dropped,
        "group_sizes": {str(g): int(s.n) for g, s in samples.items()},
    }


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


def _scheme(config: RunConfig) -> WeightScheme:
    return WeightScheme(kind=config.scheme, seed=config.seed)


def _fit_all(samples, grids, config):
    fc = _fit_config(config)
    return {g: fit_bdr(samples[g], grids[g], fc) for g in sorted(samples)}


def _bootstrap_all(samples, grids, config, fits):
    fc = _fit_config(config)
    return {
        g: bootstrap_fit(
            samples[g], grids[g], fc, config.replicates, _scheme(config),
            base=fits[g], group=g, workers=config.workers,
        )
        for g in sorted(samples)
    }


def cmd_estimate(config: RunConfig, writer: OutputWriter) -> dict:
    sample, n_dropped = ingest(config.input, config)
    samples = _per_group(sample)
    grids = _grids(samples, config)
    fits = _fit_all(samples, grids, config)
    _write_fit_tables(writer, fits)
    for g, fit in sorted(fits.items()):
        _write_surface(writer, f"surface_fitted_{g}.csv", fitted_surface(fit, samples[g]))
    manifest = _manifest_base("estimate", config, n_dropped, samples)
    manifest["dependence_failures"] = {
        str(g): fit.n_failed for g, fit in fits.items()
    }
    return manifest


def cmd_bootstrap(config: RunConfig, writer: OutputWriter) -> dict:
    if config.replicates < 1:
        raise ConfigError("bootstrap needs --replicates >= 1")
    sample, n_dropped = ingest(config.input, config)
    samples = _per_group(sample)
    grids = _grids(samples, config)
    fits = _fit_all(samples, grids, config)
    ensembles = _bootstrap_all(samples, grids, config, fits)
    _write_fit_tables(writer, fits)

    se_rows_y, se_rows_w = [], []
    for g in sorted(fits.keys()):
        ens = ensembles[g]
        ids = ens.replicate_ids()
        for outcome, rows in (("y", se_rows_y), ("w", se_rows_w)):
            marg = getattr(fits[g], f"{outcome}_marginal")
            stack = np.stack(
                [getattr(ens.draws[r], f"{outcome}_marginal").coef for r in ids]
            )
            se = robust_se_map(stack)
            for i, thr in enumerate(marg.body):
                rows.append([g, thr] + list(se[i]))
    d_x = next(iter(fits.values())).y_marginal.coef.shape[1]
    header = ["group", "threshold"] + [f"se_{j}" for j in range(d_x)]
    writer.csv("coefficients_y_se.csv", header, se_rows_y)
    writer.csv("coefficients_w_se.csv", header, se_rows_w)

    for g, fit in sorted(fits.items()):
        base_surface = fitted_surface(fit, samples[g])
        draws = ensemble_apply(
            {g: ensembles[g]},
            lambda f, w: fitted_surface(
                f[g], samples[g], fit.grid.y_grid, fit.grid.w_grid, x_weights=w[g]
            ).values,
        )
        se = robust_se_map(np.stack(list(draws.values())))
        _write_surface(writer, f"surface_fitted_{g}.csv", base_surface, se=se)

    manifest = _manifest_base("bootstrap", config, n_dropped, samples)
    manifest["bootstrap_failures"] = {
        str(g): len(ens.failed) for g, ens in ensembles.items()
    }
    return manifest


def _require_groups(sample: Sample):
    if sample.d is None:
        raise ConfigError("this command requires --group-col with two groups")


def cmd_counterfactual(config: RunConfig, writer: OutputWriter, indices) -> dict:
    sample, n_dropped = ingest(config.input, config)
    _require_groups(sample)
    samples = _per_group(sample)
    grids = _grids(samples, config)
    fits = _fit_all(samples, grids, config)
    # common evaluation thresholds: group-1 estimation grid
    y_vals, w_vals = grids[1].y_grid, grids[1].w_grid
    ensembles = None
    if config.replicates:
        ensembles = _bootstrap_all(samples, grids, config, fits)
    for code in indices:
        index = CounterfactualIndex.parse(code)
        surf = counterfactual_joint_cdf(fits, samples, index, y_vals, w_vals)
        se = None
        if ensembles is not None:
            draws = ensemble_apply(
                ensembles,
                lambda f, w: counterfactual_joint_cdf(
                    f, samples, index, y_vals, w_vals, x_weights=w
                ).values,
            )
            se = robust_se_map(np.stack(list(draws.values())))
        _write_surface(writer, f"surface_counterfactual_{code}.csv", surf, se=se)
    manifest = _manifest_base("counterfactual", config, n_dropped, samples)
    manifest["indices"] = list(indices)
    return manifest


def cmd_decompose(config: RunConfig, writer: OutputWriter) -> dict:
    sample, n_dropped = ingest(config.input, config)
    _require_groups(sample)
    samples = _per_group(sample)
    grids = _grids(samples, config)
    fits = _fit_all(samples, grids, config)
    y_vals, w_vals = grids[1].y_grid, grids[1].w_grid
    report = decompose_joint(fits, samples, y_vals, w_vals)

    se_by_comp = None
    if config.replicates:
        ensembles = _bootstrap_all(samples, grids, config, fits)
        draws = ensemble_apply(
            ensembles,
            lambda f, w: decompose_joint(
                f, samples, y_vals, w_vals, x_weights=w
            ).components(),
        )
        se_by_comp = {
            name: robust_se_map(np.stack([d[name] for d in draws.values()]))
            for name in report.components()
        }

    shares = report.shares()
    rows = []
    for name, comp in report.components().items():
        for iy, yv in enumerate(y_vals):
            for iw, wv in enumerate(w_vals):
                row = [name, yv, wv, comp[iy, iw]]
                row.append(shares[name][iy, iw] if name in shares else 1.0)
                if se_by_comp is not None:
                    row.append(se_by_comp[name][iy, iw])
                rows.append(row)
    header = ["component", "y", "w", "value", "share_of_total"]
    if se_by_comp is not None:
        header.append("se")
    writer.csv("decomposition.csv", header, rows)
    manifest = _manifest_base("decompose", config, n_dropped, samples)
    return manifest


def _parse_cuts(arg: str | None, levels_arg: str | None, values, name: str):
    """Interior cut values from explicit numbers or quantile levels."""
    if arg and levels_arg:
        raise ConfigError(f"give either --{name}-cuts or --{name}-cut-levels, not both")
    if arg:
        vals = [float(tok) for tok in arg.split(",") if tok.strip()]
    elif levels_arg:
        levels = [float(tok) for tok in levels_arg.split(",") if tok.strip()]
        if any(not 0.0 < lv < 1.0 for lv in levels):
            raise ConfigError("cut levels must lie in (0, 1)")
        vals = list(empirical_quantile(values, levels))
    else:
        # quintiles by default
        vals = list(empirical_quantile(values, [0.2, 0.4, 0.6, 0.8]))
    return sorted(vals)


def cmd_transition(config: RunConfig, writer: OutputWriter, args) -> dict:
    sample, n_dropped = ingest(config.input, config)
    samples = _per_group(sample)
    # cuts from pooled outcomes so rows/columns mean the same across groups
    y_inner = _parse_cuts(args.y_cuts, args.y_cut_levels, sample.y, "y")
    w_inner = _parse_cuts(args.w_cuts, args.w_cut_levels, sample.w, "w")
    y_cuts = np.array([-np.inf] + y_inner + [np.inf])
    w_cuts = np.array([-np.inf] + w_inner + [np.inf])

    grids = _grids(samples, config, extra_y=y_inner, extra_w=w_inner)
    fits = _fit_all(samples, grids, config)
    ensembles = _bootstrap_all(samples, grids, config, fits) if config.replicates else None

    rows = []
    for g in sorted(fits.keys()):
        own = f"{g}{g}{g}{g}"
        tm = transition_from_fits(fits, samples, own, y_cuts, w_cuts)
        se = None
        if ensembles is not None:
            draws = ensemble_apply(
                {g: ensembles[g]},
                lambda f, w, g=g, own=own: transition_from_fits(
                    {g: f[g]}, {g: samples[g]}, own, y_cuts, w_cuts, x_weights=w
                ).cells,
            )
            se = robust_se_map(np.stack(list(draws.values())))
        for j in range(tm.cells.shape[0]):
            for k in range(tm.cells.shape[1]):
                row = [g, j + 1, k + 1, y_cuts[j], y_cuts[j + 1], w_cuts[k],
                       w_cuts[k + 1], tm.cells[j, k]]
                if se is not None:
                    row.append(se[j, k])
                rows.append(row)
    header = ["group", "row", "col", "y_lo", "y_hi", "w_lo", "w_hi", "value"]
    if ensembles is not None:
        header.append("se")
    writer.csv("transition.csv", header, rows)

    if args.decompose:
        _require_groups(sample)
        report = decompose_transition(fits, samples, y_cuts, w_cuts)
        se_by_comp = None
        if ensembles is not None:
            draws = ensemble_apply(
                ensembles,
                lambda f, w: decompose_transition(
                    f, samples, y_cuts, w_cuts, x_weights=w
                ).components(),
            )
            se_by_comp = {
                name: robust_se_map(np.stack([d[name] for d in draws.values()]))
                for name in report.components()
            }
        shares = report.shares()
        rows = []
        for name, comp in report.components().items():
            for j in range(comp.shape[0]):
                for k in range(comp.shape[1]):
                    row = [name, j + 1, k + 1, comp[j, k]]
                    row.append(shares[name][j, k] if name in shares else 1.0)
                    if se_by_comp is not None:
                        row.append(se_by_comp[name][j, k])
                    rows.append(row)
        header = ["component", "row", "col", "value", "share_of_total"]
        if se_by_comp is not None:
            header.append("se")
        writer.csv("transition_decomposition.csv", header, rows)

    manifest = _manifest_base("transition", config, n_dropped, samples)
    manifest["y_cuts"] = [_fmt(v) for v in y_cuts]
    manifest["w_cuts"] = [_fmt(v) for v in w_cuts]
    return manifest


def _parse_coef(arg: str, name: str) -> np.ndarray:
    try:
        return np.array([float(tok) for tok in arg.split(",")])
    except ValueError:
        raise ConfigError(f"--{name} must be a comma-separated number list") from None


def cmd_simulate(args, writer: OutputWriter) -> dict:
    y_coef = _parse_coef(args.y_coef, "y-coef")
    w_coef = _parse_coef(args.w_coef, "w-coef")
    dep_coef = _parse_coef(args.dep_coef, "dep-coef")
    covs = (CovariateSpec("uniform", 0.0, 1.0), CovariateSpec("binary", 0.5))
    d_x = 1 + len(covs)
    for name, coef in (("y-coef", y_coef), ("w-coef", w_coef), ("dep-coef", dep_coef)):
        if coef.size != d_x:
            raise ConfigError(f"--{name} must have {d_x} entries (intercept + 2 covariates)")

    specs = [DgpSpec(y_coef=y_coef, w_coef=w_coef, dep_coef=dep_coef,
                     n=args.n, seed=args.seed, covariates=covs)]
    groups = [None]
    if args.two_groups:
        y1 = _parse_coef(args.y_coef_1, "y-coef-1") if args.y_coef_1 else y_coef
        w1 = _parse_coef(args.w_coef_1, "w-coef-1") if args.w_coef_1 else w_coef
        d1 = _parse_coef(args.dep_coef_1, "dep-coef-1") if args.dep_coef_1 else dep_coef
        specs = [
            DgpSpec(y_coef=y_coef, w_coef=w_coef, dep_coef=dep_coef,
                    n=args.n, seed=args.seed, covariates=covs),
            DgpSpec(y_coef=y1, w_coef=w1, dep_coef=d1,
                    n=args.n, seed=args.seed + 1, covariates=covs),
        ]
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
        "versions": {"bdreg": __version__, "numpy": np.__version__, "scipy": scipy.__version__},
        "n": args.n,
        "seed": args.seed,
        "two_groups": bool(args.two_groups),
    }


def _add_common(p: argparse.ArgumentParser):
    p.add_argument("--input", required=True, help="delimited input file with header row")
    p.add_argument("--y-col", default="y")
    p.add_argument("--w-col", default="w")
    p.add_argument("--group-col", default=None)
    p.add_argument("--covariates", default="",
                   help="comma-separated covariate columns (intercept added automatically)")
    p.add_argument("--grid-points", type=int, default=DEFAULT_GRID_POINTS)
    p.add_argument("--trim", default=f"{DEFAULT_TRIM[0]},{DEFAULT_TRIM[1]}",
                   help="lower,upper percentile trim for the grid")
    p.add_argument("--tail-min-obs", type=int, default=DEFAULT_TAIL_MIN_OBS)
    p.add_argument("--dep-covariates", default=None,
                   help="subset of covariates driving the dependence (default: all)")
    p.add_argument("--replicates", type=int, default=0)
    p.add_argument("--scheme", choices=["exponential", "multinomial"],
                   default="exponential")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--level", type=float, default=0.95)
    p.add_argument("--out", default="bdreg-out")
    p.add_argument("--strict", action="store_true")
    p.add_argument("--workers", type=int,
                   default=int(os.environ.get(WORKERS_ENV, "1")))


def _config_from(args) -> RunConfig:
    trim = tuple(float(t) for t in args.trim.split(","))
    if len(trim) != 2:
        raise ConfigError("--trim must be lower,upper")
    covs = [c for c in args.covariates.split(",") if c.strip()]
    dep = None
    if args.dep_covariates is not None:
        dep = [c for c in args.dep_covariates.split(",") if c.strip()]
    return RunConfig(
        input=args.input,
        y_col=args.y_col,
        w_col=args.w_col,
        group_col=args.group_col,
        covariates=covs,
        grid_points=args.grid_points,
        trim=trim,  # type: ignore[arg-type]
        tail_min_obs=args.tail_min_obs,
        dep_covariates=dep,
        replicates=args.replicates,
        scheme=args.scheme,
        seed=args.seed,
        level=args.level,
        out=args.out,
        strict=args.strict,
        workers=max(1, args.workers),
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bdreg",
        description="Bivariate distribution regression pipelines",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name in ("estimate", "bootstrap", "decompose"):
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


def main(argv=None) -> int:
    """Run one subcommand; on any failure remove the files this run wrote."""
    parser = build_parser()
    args = parser.parse_args(argv)
    writer = None
    code = 1
    try:
        if args.command == "simulate":
            writer = OutputWriter(Path(args.out))
            manifest = cmd_simulate(args, writer)
        else:
            config = _config_from(args)
            writer = OutputWriter(Path(config.out))
            if args.command == "estimate":
                manifest = cmd_estimate(config, writer)
            elif args.command == "bootstrap":
                manifest = cmd_bootstrap(config, writer)
            elif args.command == "counterfactual":
                indices = args.index or ["1110"]
                manifest = cmd_counterfactual(config, writer, indices)
            elif args.command == "decompose":
                manifest = cmd_decompose(config, writer)
            elif args.command == "transition":
                manifest = cmd_transition(config, writer, args)
            else:  # pragma: no cover
                raise ConfigError(f"unknown command {args.command}")
        writer.manifest(manifest)
        code = 0
    except ConfigError as err:
        print(f"configuration error: {err}", file=sys.stderr)
        code = 2
    except DataError as err:
        print(f"data error: {err}", file=sys.stderr)
        code = 3
    except (EstimationError, InferenceError, BdrError) as err:
        print(f"estimation error: {err}", file=sys.stderr)
        code = 4
    finally:
        if code != 0 and writer is not None:
            writer.cleanup()
    return code


if __name__ == "__main__":
    sys.exit(main())
