"""Batch front end: CSV ingestion, pipeline orchestration, and plot-ready
delimited outputs with a JSON run manifest.

Subcommands: estimate, counterfactual, decompose, transition, simulate.
Given --replicates N (0 for none, else at least 10), a fitting command adds
weighted-bootstrap standard errors to its tables: each replicate refits the
marginals under its weights and takes one Newton step from the base estimate
in every dependence cell (bootstrap.bootstrap_fit). Exit codes: 0 success,
2 configuration error, 3 data error, 4 estimation/inference error.

Every table has one row per cell of a product of axes (_long): the cell's
axis labels, then its values, then se only with replicates.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field, fields
from functools import partial
from pathlib import Path

import numpy as np

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
    validate,
)
from .dependence import BdrFit, fit_bdr
from .dgp import DEFAULT_COVARIATES, DgpSpec, generate
from .exceptions import BdrError, ConfigError, DataError, EstimationError
from .functionals import (
    _check_index,
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
_VERSIONS = {"bdreg": __version__, "numpy": np.__version__}


def _fmt(v) -> str:
    """12 significant digits for all numeric output; nan, inf and -inf as words."""
    return f"{float(v):.12g}"


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
    """Tracks written files so a failed run can remove its partial output.

    An output directory that cannot be created or written into is a
    ConfigError: --out names it.
    """

    def __init__(self, outdir: Path):
        self.outdir = outdir
        self.written: list[Path] = []
        try:
            outdir.mkdir(parents=True, exist_ok=True)
        except OSError as err:
            raise ConfigError(f"cannot create output directory {outdir}: {err.strerror}") from None

    @contextmanager
    def _open(self, name: str, newline=None):
        path = self.outdir / name
        # Recorded before opening, so that a partly written file is removed.
        self.written.append(path)
        try:
            with open(path, "w", newline=newline) as fh:
                yield fh
        except OSError as err:
            raise ConfigError(f"cannot write {path}: {err.strerror}") from None

    def csv(self, name: str, header: list[str], rows) -> Path:
        with self._open(name, newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            writer.writerows([v if isinstance(v, str) else _fmt(v) for v in row] for row in rows)
        return self.outdir / name

    def manifest(self, payload: dict) -> Path:
        with self._open("manifest.json") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
        return self.outdir / "manifest.json"

    def cleanup(self):
        for path in self.written:
            try:
                path.unlink()
            except OSError:
                pass


def ingest(path: str, config: RunConfig):
    """Parse the delimited UTF-8 input into (sample, n_dropped, labels): the
    pooled Sample in file order, the count of dropped rows, and the group
    column as a 0/1 array (None without --group-col). A leading byte-order
    mark (Excel's "CSV UTF-8") is skipped.

    Rows with a missing value in any used column are dropped (counted in the
    manifest); unparseable or non-finite cells (such as inf), a used column
    named twice in the header, and a group column holding anything but 0
    and 1, raise a DataError.
    """
    used = [config.y_col, config.w_col] + list(config.covariates)
    if config.group_col:
        used.append(config.group_col)
    try:
        fh = open(path, newline="", encoding="utf-8-sig")
    except OSError as err:
        raise DataError(f"cannot open input {path}: {err}") from None
    kept, n_dropped = [], 0
    try:
        with fh:
            reader = csv.reader(fh)
            try:
                header = [h.strip() for h in next(reader)]
            except StopIteration:
                raise DataError(f"{path} is empty") from None
            missing_cols = [c for c in used if c not in header]
            if missing_cols:
                raise ConfigError(f"unknown column(s) {missing_cols}; file has {header}")
            repeated = [c for c in used if header.count(c) > 1]
            if repeated:
                raise DataError(f"column {repeated[0]!r} appears more than once in the header")
            pos = [header.index(c) for c in used]
            for line_no, row in enumerate(reader, start=2):
                if not row or all(not c.strip() for c in row):
                    continue
                vals = []
                for col, at in zip(used, pos):
                    raw = row[at].strip() if at < len(row) else ""
                    if raw.lower() in MISSING_TOKENS:
                        n_dropped += 1
                        break
                    try:
                        val = float(raw)
                    except ValueError:
                        val = None
                    if val is None or not math.isfinite(val):
                        bad = "unparseable" if val is None else "non-finite"
                        raise DataError(f"{bad} value {raw!r} at line {line_no}, column {col!r}")
                    vals.append(val)
                else:
                    kept.append(vals)
    except UnicodeDecodeError as err:
        raise DataError(
            f"input {path} is not UTF-8 text: cannot decode byte 0x{err.object[err.start]:02x}"
        ) from None

    if not kept:
        raise DataError("no usable rows after dropping missing values")

    # One contiguous array per used column, in the order of used.
    columns = np.array(kept).T.copy()
    y, w = columns[0], columns[1]
    x = np.column_stack([np.ones(len(kept)), *columns[2:2 + len(config.covariates)]])
    labels = None
    if config.group_col:
        labels = columns[-1]
        if not np.all(np.isin(labels, (0.0, 1.0))):
            raise DataError(f"group column {config.group_col!r} must be binary 0/1")
    return validate(Sample(y=y, w=w, x=x)), n_dropped, labels


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
    pooled outcomes, so rows and columns mean the same across groups. Each
    cut within a group's grid range is merged into that grid, so surfaces
    are exact there; a cut beyond it is left out, as the affine tails reach
    it, and merging it would pull the grid's old extreme into the body.
    Cuts that coincide (distinct levels at one empirical quantile) raise
    DataError before any fit. With --group-col, a DataError or
    EstimationError from gridding or fitting a group names the group."""
    if config.replicates and config.replicates < MIN_DRAWS_FOR_INFERENCE:
        raise ConfigError(
            f"--replicates must be 0 (no standard errors) or >= {MIN_DRAWS_FOR_INFERENCE}"
        )
    sample, n_dropped, labels = ingest(config.input, config)
    if two_groups and labels is None:
        raise ConfigError("this command requires --group-col with two groups")
    samples = {0: sample}
    if labels is not None:
        samples = {g: Sample(*(v[labels == g] for v in (sample.y, sample.w, sample.x)))
                   for g in (0, 1)}
        if min(s.n for s in samples.values()) == 0:
            raise DataError("both groups must be non-empty")
    y_cuts = w_cuts = None
    if cut_args is not None:
        y_cuts = _parse_cuts(cut_args.y_cuts, cut_args.y_cut_levels, sample.y, "y")
        w_cuts = _parse_cuts(cut_args.w_cuts, cut_args.w_cut_levels, sample.w, "w")
    dep_cols = _dep_cols(config)
    fits = {}
    for g, s in samples.items():
        try:
            grid = build_grid(s, config.grid_points, config.trim, config.tail_min_obs)
            if cut_args is not None:
                grid = grid_from_values(*(
                    np.union1d(values, cuts[(cuts >= values[0]) & (cuts <= values[-1])])
                    for values, cuts in ((grid.y_grid, y_cuts), (grid.w_grid, w_cuts))
                ), config.tail_min_obs)
            fits[g] = fit_bdr(s, grid, dep_cols)
        except (DataError, EstimationError) as err:
            if labels is not None:
                err.args = (f"group {g}: {err}",)
            raise
    manifest = {
        "command": command,
        "config": asdict(config),
        "versions": _VERSIONS,
        "rows_dropped_missing": n_dropped,
        "group_sizes": {str(g): int(s.n) for g, s in samples.items()},
    }
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


def _long(axes: dict, columns: dict) -> tuple[list[str], list[list]]:
    """The (header, rows) of a long table: one row per cell of the product
    of axes (name -> labels), in np.ndindex order, holding the cell's labels
    and then each column's value there (name -> array broadcast to the axes'
    shape). A None column is left out, so se appears only with replicates."""
    labels = list(axes.values())
    shape = tuple(len(v) for v in labels)
    kept = {name: np.broadcast_to(col, shape) for name, col in columns.items() if col is not None}
    rows = [[*(v[i] for v, i in zip(labels, cell)), *(col[cell] for col in kept.values())]
            for cell in np.ndindex(shape)]
    return [*axes, *kept], rows


def _write_groups(writer: OutputWriter, parts: list[dict]):
    """Write each table of parts, one {file name: _long table} per group, its
    rows joined in group order."""
    for name in parts[0]:
        writer.csv(name, parts[0][name][0], [row for part in parts for row in part[name][1]])


def _coefficients(g: int, marginal, values, prefix: str) -> tuple[list[str], list[list]]:
    """Group g's rows of a marginal coefficient table, prefix_j for column j."""
    return _long({"group": [g], "threshold": marginal.body},
                 {f"{prefix}_{j}": v for j, v in enumerate(values.T)})


def _fit_tables(g: int, fit: BdrFit) -> dict:
    """Group g's part of each fit table, by file name."""
    margs = {"y": fit.y_marginal, "w": fit.w_marginal}
    return {
        **{f"coefficients_{o}.csv": _coefficients(g, m, m.coef, "coef") for o, m in margs.items()},
        "dependence.csv": _long(
            {"group": [g], "y": fit.grid.y_body, "w": fit.grid.w_body},
            {f"coef_{j}": fit.dep_coef[..., j] for j in range(fit.dep_coef.shape[-1])}),
        "tails.csv": _long({"group": [g], "outcome": list(margs), "side": ["lower", "upper"]}, {
            "alpha": [[m.alpha_lo, m.alpha_hi] for m in margs.values()],
            "anchor": [[m.anchor_lo, m.anchor_hi] for m in margs.values()],
            "r0": [[m.r0_lo, m.r0_hi] for m in margs.values()],
        }),
    }


def _write_surface(writer: OutputWriter, name: str, surface, se=None):
    writer.csv(name, *_long({"y": surface.y_values, "w": surface.w_values},
                            {"value": surface.values, "se": se}))


def _write_decomposition(writer: OutputWriter, name: str, report, axes: dict, se=None):
    """One row per component and cell of axes (the row and column axes): its
    value, its share of the total (1 for the total itself) and, given
    per-component SEs, its se."""
    comps = report.components()
    shares = {"total": np.ones_like(report.total), **report.shares()}
    writer.csv(name, *_long({"component": list(comps), **axes}, {
        "value": np.stack(list(comps.values())),
        "share_of_total": np.stack([shares[c] for c in comps]),
        "se": None if se is None else np.stack([se[c] for c in comps]),
    }))


def _cmd_estimate(args, config: RunConfig, writer: OutputWriter) -> dict:
    run = _prologue("estimate", config)
    _write_groups(writer, [_fit_tables(g, fit) for g, fit in sorted(run.fits.items())])
    se_tables = []
    for g, fit in sorted(run.fits.items()):
        surface = partial(fitted_surface, sample=run.samples[g])
        se = run.se(lambda f: {
            "y": f[g].y_marginal.coef,
            "w": f[g].w_marginal.coef,
            "surface": surface(f[g]).values,
        }, group=g) or {}
        _write_surface(writer, f"surface_fitted_{g}.csv", surface(fit), se=se.get("surface"))
        se_tables.append({f"coefficients_{o}_se.csv": _coefficients(g, m, se[o], "se")
                          for o, m in (("y", fit.y_marginal), ("w", fit.w_marginal)) if o in se})
    _write_groups(writer, se_tables)
    return run.manifest


def _cmd_counterfactual(args, config: RunConfig, writer: OutputWriter) -> dict:
    indices = [_check_index(code) for code in args.index or ["1110"]]  # before any fit
    repeated = [c for i, c in enumerate(indices) if c in indices[:i]]
    if repeated:
        raise ConfigError(f"--index {repeated[0]} is given twice")
    run = _prologue("counterfactual", config, two_groups=True)
    # common evaluation thresholds: group-1 estimation grid
    y_vals, w_vals = run.fits[1].grid.y_grid, run.fits[1].grid.w_grid
    for code in indices:
        surface = partial(counterfactual_joint_cdf, samples=run.samples,
                          index=code, y_values=y_vals, w_values=w_vals)
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
    _write_decomposition(writer, "decomposition.csv", report, {"y": y_vals, "w": w_vals}, se)
    return run.manifest


def _parse_cuts(arg: str | None, levels_arg: str | None, values, name: str):
    """The cuts, -inf and inf outermost, from explicit interior numbers or
    quantile levels (quintiles by default). A repeated number is a
    ConfigError; two levels that meet at one data point make a repeated cut,
    a DataError that names both levels and the value."""
    if arg and levels_arg:
        raise ConfigError(f"give either --{name}-cuts or --{name}-cut-levels, not both")
    if arg:
        vals = _numbers(arg, f"{name}-cuts", distinct=True)
        if not np.all(np.isfinite(vals)):
            raise ConfigError(
                f"--{name}-cuts must be finite (the outer -inf and inf cuts are implied)"
            )
    else:
        levels, source = [0.2, 0.4, 0.6, 0.8], " (the default quintiles)"
        if levels_arg:
            levels, source = _numbers(levels_arg, f"{name}-cut-levels", distinct=True), ""
            if any(not 0.0 < lv < 1.0 for lv in levels):
                raise ConfigError("cut levels must lie in (0, 1)")
        levels = sorted(levels)
        vals = list(empirical_quantile(values, levels))
        tied = np.flatnonzero(np.diff(vals) == 0.0)
        if tied.size:
            i = tied[0]
            raise DataError(
                f"{name} cut levels {levels[i]:g} and {levels[i + 1]:g}{source} both fall at "
                f"{name} = {vals[i]:.15g}; give distinct cuts with --{name}-cuts or "
                f"--{name}-cut-levels")
    return increasing([-np.inf, *sorted(vals), np.inf], f"{name} cuts", 2)


def _cmd_transition(args, config: RunConfig, writer: OutputWriter) -> dict:
    run = _prologue("transition", config, two_groups=args.decompose, cut_args=args)
    y_cuts, w_cuts = run.y_cuts, run.w_cuts
    groups = sorted(run.fits)

    def matrix(fits, g):
        return transition_from_fits(fits, run.samples, f"{g}{g}{g}{g}", y_cuts, w_cuts).cells

    values = np.stack([matrix(run.fits, g) for g in groups])
    ses = [run.se(partial(matrix, g=g), group=g) for g in groups]
    cells = {"row": range(1, len(y_cuts)), "col": range(1, len(w_cuts))}
    writer.csv("transition.csv", *_long({"group": groups, **cells}, {
        "y_lo": y_cuts[:-1, None], "y_hi": y_cuts[1:, None], "w_lo": w_cuts[:-1],
        "w_hi": w_cuts[1:], "value": values, "se": None if ses[0] is None else np.stack(ses),
    }))

    if args.decompose:
        decompose = partial(decompose_transition, samples=run.samples, y_cuts=y_cuts,
                            w_cuts=w_cuts)
        report = decompose(run.fits)
        se = run.se(lambda f: decompose(f).components())
        _write_decomposition(writer, "transition_decomposition.csv", report, cells, se)

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
    # Group g draws with seed + g; a group-1 list left unset takes group 0's.
    d_x = 1 + len(DEFAULT_COVARIATES)
    specs = []
    for g in (0, 1) if args.two_groups else (0,):
        coefs = {}
        for name in ("y_coef", "w_coef", "dep_coef"):
            option = f"{name}_1" if g else name
            flag, arg = option.replace("_", "-"), getattr(args, option)
            coefs[name] = getattr(specs[0], name) if arg is None else np.array(_numbers(arg, flag))
            if coefs[name].size != d_x:
                raise ConfigError(f"--{flag} must have {d_x} entries "
                                  f"(intercept + {d_x - 1} covariates)")
        specs.append(DgpSpec(**coefs, n=args.n, seed=args.seed + g))

    header = ["y", "w"] + [f"x{j}" for j in range(1, d_x)]
    rows = []
    for g, spec in enumerate(specs):
        s = generate(spec)
        rows += np.column_stack([s.y, s.w, s.x[:, 1:]]
                                + ([np.full(s.n, g)] if args.two_groups else [])).tolist()
    writer.csv(args.output_name, header + (["group"] if args.two_groups else []), rows)
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


def _names(arg: str) -> list[str]:
    """The names of a comma-separated column list, stripped as the header is."""
    return [c.strip() for c in arg.split(",") if c.strip()]


def _config_from(args) -> RunConfig:
    """Each RunConfig field from the parsed option of its name; the options
    given as text lists, and the worker count (--workers, else WORKERS_ENV),
    are parsed here, and every column name is stripped. A negative seed, a
    worker count below 1, or a column named twice among the roles or the
    dependence covariates is a ConfigError."""
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
    columns = {f: getattr(args, f) for f in ("y_col", "w_col", "group_col")}
    columns = {f: c if c is None else c.strip() for f, c in columns.items()}
    covariates = _names(args.covariates)
    dep = None if args.dep_covariates is None else _names(args.dep_covariates)
    roles = [c for c in (*columns.values(), *covariates) if c is not None]
    for names, options in ((roles, "--y-col, --w-col, --group-col and --covariates"),
                           (dep or [], "--dep-covariates")):
        repeated = [c for i, c in enumerate(names) if c in names[:i]]
        if repeated:
            raise ConfigError(f"column {repeated[0]!r} is named twice in {options}")
    parsed = {**columns, "covariates": covariates, "trim": trim, "dep_covariates": dep,
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
