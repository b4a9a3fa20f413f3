import argparse
import csv
import dataclasses
import json
import re

import numpy as np
import pytest

from bdreg import cli
from bdreg.bootstrap import MIN_DRAWS_FOR_INFERENCE

GRID = 4
BODY = GRID - 2  # body grid points per outcome
CELLS = 2 * 2  # transition cells from the median cuts in EXTRA
CONFIG_KEYS = {
    "covariates", "dep_covariates", "grid_points", "group_col", "input", "replicates",
    "scheme", "seed", "tail_min_obs", "trim", "w_col", "workers", "y_col",
}
COEF = ["group", "threshold", "coef_0", "coef_1", "coef_2"]
SURFACE = ["y", "w", "value"]
FIT_TABLES = {
    "coefficients_y.csv": (COEF, 2 * BODY),
    "coefficients_w.csv": (COEF, 2 * BODY),
    "dependence.csv": (["group", "y", "w", "coef_0", "coef_1", "coef_2"], 2 * BODY * BODY),
    "tails.csv": (["group", "outcome", "side", "alpha", "anchor", "r0"], 2 * 2 * 2),
}
SE = ["group", "threshold", "se_0", "se_1", "se_2"]
# Files, headers and row counts each two-group run writes: estimate without
# replicates, and each other case with --replicates 10. The "bootstrap" case is
# estimate with replicates, the run that took the bootstrap subcommand's place.
ROUND_TRIPS = {
    "estimate": {
        **FIT_TABLES,
        "surface_fitted_0.csv": (SURFACE, GRID * GRID),
        "surface_fitted_1.csv": (SURFACE, GRID * GRID),
    },
    "bootstrap": {
        **FIT_TABLES,
        "coefficients_y_se.csv": (SE, 2 * BODY),
        "coefficients_w_se.csv": (SE, 2 * BODY),
        "surface_fitted_0.csv": (SURFACE + ["se"], GRID * GRID),
        "surface_fitted_1.csv": (SURFACE + ["se"], GRID * GRID),
    },
    "counterfactual": {
        "surface_counterfactual_1110.csv": (SURFACE + ["se"], GRID * GRID),
    },
    "decompose": {
        "decomposition.csv": (
            ["component", "y", "w", "value", "share_of_total", "se"], 5 * GRID * GRID),
    },
    "transition": {
        "transition.csv": (
            ["group", "row", "col", "y_lo", "y_hi", "w_lo", "w_hi", "value", "se"], 2 * CELLS),
        "transition_decomposition.csv": (
            ["component", "row", "col", "value", "share_of_total", "se"], 5 * CELLS),
    },
}
# The command of each ROUND_TRIPS case not named after its command.
COMMAND = {"bootstrap": "estimate"}
# Median cuts keep the transition tables 2 x 2; the default quintile cuts are
# run by test_transition_decompose_at_quintile_cuts.
EXTRA = {
    "counterfactual": ["--index", "1110"],
    "transition": ["--decompose", "--y-cut-levels", "0.5", "--w-cut-levels", "0.5"],
}


@pytest.fixture(scope="module")
def sample_csv(tmp_path_factory):
    out = tmp_path_factory.mktemp("sim")
    assert cli.main(["simulate", "--n", "600", "--two-groups",
                     "--dep-coef-1", "0.2,0.3,-0.1", "--out", str(out)]) == 0
    return out / "sample.csv"


def run(command, input_path, out, *extra, group_col="group"):
    groups = ["--group-col", group_col] if group_col else []
    return cli.main([
        command, "--input", str(input_path), "--covariates", "x1,x2", *groups,
        "--grid-points", str(GRID), "--workers", "1", "--out", str(out), *extra,
    ])


def decompose(input_path, out, *extra):
    return run("decompose", input_path, out, *extra)


def no_fit(*args, **kwargs):
    raise AssertionError("fit_bdr must not run")


def check_round_trip(case, out, tables=None, groups=("0", "1")):
    """The case's command wrote exactly its tables (by default its ROUND_TRIPS
    entry) and a manifest, each table with its header and row count, every se
    finite, and the manifest the golden config keys and, for a run with
    standard errors, each group's failed-replicate count."""
    tables = ROUND_TRIPS[case] if tables is None else tables
    assert sorted(p.name for p in out.iterdir()) == sorted([*tables, "manifest.json"])
    for name, (header, n_rows) in tables.items():
        with open(out / name, newline="") as fh:
            reader = csv.DictReader(fh)
            rows = list(reader)
        assert reader.fieldnames == header, name
        assert len(rows) == n_rows, name
        if "se" in header or "se_0" in header:
            se = [float(v) for r in rows for k, v in r.items() if k.startswith("se")]
            assert np.all(np.isfinite(se)), name
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == COMMAND.get(case, case)
    assert set(manifest["config"]) == CONFIG_KEYS
    with_se = any("se" in header or "se_0" in header for header, _ in tables.values())
    assert set(manifest.get("bootstrap_failures", ())) == (set(groups) if with_se else set())


def test_decompose_round_trip(sample_csv, tmp_path):
    assert decompose(sample_csv, tmp_path, "--replicates", "10") == 0
    check_round_trip("decompose", tmp_path)


@pytest.mark.parametrize("case", ["estimate", "bootstrap", "counterfactual", "transition"])
def test_round_trip(case, sample_csv, tmp_path):
    command = COMMAND.get(case, case)
    replicates = [] if case == "estimate" else ["--replicates", "10"]
    assert run(command, sample_csv, tmp_path, *replicates, *EXTRA.get(command, [])) == 0
    check_round_trip(case, tmp_path)


def test_bootstrap_subcommand_is_gone(sample_csv, tmp_path):
    # estimate --replicates N took its place; no alias is kept.
    with pytest.raises(SystemExit) as exc:
        run("bootstrap", sample_csv, tmp_path, "--replicates", "10")
    assert exc.value.code == 2


def test_docstring_names_every_subcommand():
    parser = cli.build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    listed = re.search(r"Subcommands: ([^.]*)\.", cli.__doc__).group(1)
    assert sorted(c.strip() for c in listed.split(",")) == sorted(sub.choices)


def test_transition_decompose_at_quintile_cuts(sample_csv, tmp_path):
    # The quintile cuts make a 6 x 6 body grid on these 600 rows per group.
    # Each replicate's sparse corner cells must converge: a replicate with a
    # failed cell is dropped whole, and one dropped of ten aborts the run.
    assert run("transition", sample_csv, tmp_path, "--decompose", "--replicates", "10") == 0
    with open(tmp_path / "transition_decomposition.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 5 * 5 * 5
    assert np.all(np.isfinite([float(r["se"]) for r in rows]))


@pytest.mark.parametrize("coef", [["--w-coef", "-0.1,0.8,0.2"], ["--w-coef=-0.1,0.8,0.2"]])
def test_simulate_takes_negative_coefficient_lists(coef, tmp_path):
    assert cli.main(["simulate", "--n", "50", *coef, "--out", str(tmp_path)]) == 0
    with open(tmp_path / "sample.csv", newline="") as fh:
        assert len(list(csv.DictReader(fh))) == 50


@pytest.mark.parametrize("command,bad", [
    ("estimate", ["--trim", "a,b"]),
    ("transition", ["--y-cuts", "abc"]),
    ("transition", ["--w-cuts", "0,x"]),
    ("transition", ["--y-cut-levels", "x"]),
    ("transition", ["--w-cut-levels", "0.5,?"]),
    ("simulate", ["--y-coef", "0,a,1"]),
    ("simulate", ["--dep-coef-1", "x"]),
])
def test_non_numeric_list_is_config_error(command, bad, sample_csv, tmp_path):
    out = tmp_path / "out"
    if command == "simulate":
        code = cli.main(["simulate", "--n", "50", "--two-groups", *bad, "--out", str(out)])
    else:
        code = run(command, sample_csv, out, *bad)
    assert code == 2
    assert list(out.glob("*")) == []


@pytest.mark.parametrize("command,bad", [
    ("transition", ["--y-cuts", "inf"]),
    ("transition", ["--w-cuts=-inf,0"]),
    ("transition", ["--y-cuts", "nan"]),
    ("estimate", ["--grid-points", "2"]),
    ("estimate", ["--trim", "0.5,0.4"]),
    ("estimate", ["--tail-min-obs", "0"]),
])
def test_bad_cut_or_grid_setting_is_config_error(command, bad, sample_csv, tmp_path):
    # Explicit cuts are interior: the outer -inf and inf cuts are implied.
    out = tmp_path / "out"
    assert run(command, sample_csv, out, *bad) == 2
    assert list(out.glob("*")) == []


@pytest.mark.parametrize("command,replicates", [
    ("estimate", "5"),
    ("estimate", "9"),
    ("estimate", "-3"),
    ("counterfactual", "1"),
    ("transition", "4"),
    ("decompose", "-3"),
])
def test_too_few_replicates_is_config_error_before_any_fit(command, replicates, sample_csv,
                                                           tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(cli, "fit_bdr", no_fit)
    out = tmp_path / "out"
    assert run(command, sample_csv, out, "--replicates", replicates,
               *EXTRA.get(command, [])) == 2
    assert list(out.glob("*")) == []
    assert f">= {MIN_DRAWS_FOR_INFERENCE}" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["simulate", "--n", "50", "--seed", "-1"],
    ["simulate", "--n", "-5"],
    ["simulate", "--n", "0"],
    ["estimate", "--replicates", "10", "--seed", "-1"],
])
def test_negative_seed_or_nonpositive_n_is_config_error(argv, sample_csv, tmp_path,
                                                        monkeypatch):
    # numpy's SeedSequence and its array constructors reject these with a
    # bare ValueError, and --n 0 would write a header-only sample.
    monkeypatch.setattr(cli, "fit_bdr", no_fit)
    out = tmp_path / "out"
    if argv[0] == "simulate":
        code = cli.main([*argv, "--out", str(out)])
    else:
        code = run(argv[0], sample_csv, out, *argv[1:])
    assert code == 2
    assert list(out.glob("*")) == []


@pytest.mark.parametrize("bad,column", [
    (["--dep-covariates", "x1,x1"], "x1"),
    (["--covariates", "x1,x1"], "x1"),
    (["--group-col", "x2"], "x2"),
    (["--w-col", "y"], "y"),
])
def test_column_named_twice_is_config_error_before_any_fit(bad, column, sample_csv, tmp_path,
                                                           monkeypatch, capsys):
    # A column in two roles makes a rank-deficient design, or, as both
    # outcomes, a fit with every cell at the saturation bound; the error
    # names the column before any fit runs.
    monkeypatch.setattr(cli, "fit_bdr", no_fit)
    out = tmp_path / "out"
    assert run("estimate", sample_csv, out, *bad) == 2
    assert list(out.glob("*")) == []
    assert f"column {column!r} is named twice" in capsys.readouterr().err


def test_multinomial_bootstrap_round_trip(sample_csv, tmp_path):
    # Rows a replicate never draws carry weight zero in its fits and in the
    # covariate averaging of its surfaces.
    assert run("estimate", sample_csv, tmp_path, "--replicates", "10",
               "--scheme", "multinomial") == 0
    check_round_trip("bootstrap", tmp_path)
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["config"]["scheme"] == "multinomial"


@pytest.mark.parametrize("bad,code", [
    (["--y-cuts", "0,0"], 2),
    (["--w-cuts=-0.5,0.5,-0.5"], 2),
    (["--y-cut-levels", "0.5,0.5"], 2),
    (["--w-cut-levels", "0.2,0.8,0.2"], 2),
    # Both levels pick the 600th of the 1200 pooled y values.
    (["--y-cut-levels", "0.4998,0.5"], 3),
])
def test_bad_transition_cuts_fail_before_any_fit(bad, code, sample_csv, tmp_path,
                                                 monkeypatch):
    # A repeated cut or level is a configuration error; distinct levels at
    # one empirical quantile are a data error. Both used to surface only
    # after every group was fitted.
    monkeypatch.setattr(cli, "fit_bdr", no_fit)
    out = tmp_path / "out"
    assert run("transition", sample_csv, out, *bad) == code
    assert list(out.glob("*")) == []


def test_bad_workers_variable_is_config_error(sample_csv, tmp_path, monkeypatch, capsys):
    monkeypatch.setenv(cli.WORKERS_ENV, "abc")
    code = cli.main(["estimate", "--input", str(sample_csv), "--covariates", "x1,x2",
                     "--group-col", "group", "--out", str(tmp_path / "out")])
    assert code == 2
    assert cli.WORKERS_ENV in capsys.readouterr().err
    # simulate takes no worker count, so the variable does not concern it;
    # an explicit --workers overrides it.
    assert cli.main(["simulate", "--n", "50", "--out", str(tmp_path / "sim")]) == 0
    assert run("estimate", sample_csv, tmp_path / "est") == 0


@pytest.mark.parametrize("workers,env,named", [
    (["--workers", "0"], None, "--workers"),
    (["--workers", "-4"], None, "--workers"),
    ([], "0", cli.WORKERS_ENV),
])
def test_workers_below_one_is_config_error(workers, env, named, sample_csv, tmp_path,
                                           monkeypatch, capsys):
    # These used to be taken as one worker.
    if env is not None:
        monkeypatch.setenv(cli.WORKERS_ENV, env)
    monkeypatch.setattr(cli, "fit_bdr", no_fit)
    out = tmp_path / "out"
    code = cli.main(["estimate", "--input", str(sample_csv), "--covariates", "x1,x2",
                     "--group-col", "group", *workers, "--out", str(out)])
    assert code == 2
    assert f"{named} must be at least 1" in capsys.readouterr().err
    assert list(out.glob("*")) == []


def test_transition_takes_negative_cut_lists(sample_csv, tmp_path):
    cuts = {"--y-cuts": "-0.5,0.5", "--w-cuts": "-0.5,0.5"}
    spaced = [tok for flag, value in cuts.items() for tok in (flag, value)]
    joined = [f"{flag}={value}" for flag, value in cuts.items()]
    assert run("transition", sample_csv, tmp_path / "spaced", *spaced) == 0
    assert run("transition", sample_csv, tmp_path / "joined", *joined) == 0
    spaced_csv, joined_csv = (tmp_path / d / "transition.csv" for d in ("spaced", "joined"))
    assert spaced_csv.read_bytes() == joined_csv.read_bytes()


def test_unmeetable_tail_min_obs_is_data_error(sample_csv, tmp_path, capsys):
    assert run("estimate", sample_csv, tmp_path / "out", "--tail-min-obs", "100000") == 3
    assert "reduce tail_min_obs=100000" in capsys.readouterr().err


@pytest.mark.parametrize("command,extra", [
    ("decompose", []),
    ("transition", EXTRA["transition"]),
    ("estimate", []),
])
def test_pooled_replicates_write_what_one_worker_writes(command, extra, sample_csv, tmp_path):
    # Replicate fits and their functionals run on the worker pool; every
    # table must match the one-worker run byte for byte.
    for workers in ("1", "2"):
        out = tmp_path / workers
        assert run(command, sample_csv, out, "--replicates", "10", *extra,
                   "--workers", workers) == 0
    tables = sorted(p.name for p in (tmp_path / "1").glob("*.csv"))
    assert tables == sorted(p.name for p in (tmp_path / "2").glob("*.csv"))
    for name in tables:
        assert (tmp_path / "1" / name).read_bytes() == (tmp_path / "2" / name).read_bytes(), name


def test_unknown_covariate_is_config_error(sample_csv, tmp_path):
    code = cli.main(["decompose", "--input", str(sample_csv), "--covariates", "x1,nope",
                     "--group-col", "group", "--out", str(tmp_path)])
    assert code == 2


def test_unparseable_cell_is_data_error(sample_csv, tmp_path):
    lines = sample_csv.read_text().splitlines()
    fields = lines[5].split(",")
    fields[0] = "abc"
    lines[5] = ",".join(fields)
    bad = tmp_path / "bad.csv"
    bad.write_text("\n".join(lines) + "\n")
    assert decompose(bad, tmp_path / "out") == 3


def fail_first_cell(monkeypatch):
    """Make every base fit of the CLI come back with its first dependence
    cell failed (NaN coefficients)."""
    real_fit = cli.fit_bdr

    def fit_with_failed_cell(*args, **kwargs):
        fit = real_fit(*args, **kwargs)
        fit = dataclasses.replace(fit, dep_coef=fit.dep_coef.copy())
        fit.dep_coef[0, 0] = np.nan
        return fit

    monkeypatch.setattr(cli, "fit_bdr", fit_with_failed_cell)


def test_failed_dependence_cell_is_estimation_error(sample_csv, tmp_path, monkeypatch):
    fail_first_cell(monkeypatch)
    assert decompose(sample_csv, tmp_path) == 4


def test_failed_dependence_cell_with_replicates_is_estimation_error(sample_csv, tmp_path,
                                                                    monkeypatch, capsys):
    # A replicate cannot step from the failed base cell: the cell stays NaN
    # in every replicate, no replicate fails, and the base fit's error, not
    # a bootstrap one, ends the run.
    fail_first_cell(monkeypatch)
    assert decompose(sample_csv, tmp_path, "--replicates", "10") == 4
    assert "estimation error: no dependence estimate at grid pair (" in capsys.readouterr().err


def test_failed_run_leaves_no_partial_output(sample_csv, tmp_path, monkeypatch):
    # estimate writes its coefficient tables before the surface evaluation
    # meets the failed cell; none of them may outlive the failed run.
    fail_first_cell(monkeypatch)
    out = tmp_path / "out"
    code = cli.main(["estimate", "--input", str(sample_csv), "--covariates", "x1,x2",
                     "--group-col", "group", "--grid-points", str(GRID),
                     "--out", str(out)])
    assert code == 4
    assert out.is_dir()
    assert sorted(out.iterdir()) == []


@pytest.fixture(scope="module")
def one_group_csv(tmp_path_factory):
    out = tmp_path_factory.mktemp("sim1")
    assert cli.main(["simulate", "--n", "600", "--seed", "8", "--out", str(out)]) == 0
    return out / "sample.csv"


def test_one_group_estimate_round_trip(one_group_csv, tmp_path):
    assert run("estimate", one_group_csv, tmp_path, "--replicates", "10", group_col=None) == 0
    tables = {name: (header, n_rows // 2) for name, (header, n_rows) in FIT_TABLES.items()}
    check_round_trip("estimate", tmp_path, groups=("0",), tables={
        **tables,
        "coefficients_y_se.csv": (SE, BODY),
        "coefficients_w_se.csv": (SE, BODY),
        "surface_fitted_0.csv": (SURFACE + ["se"], GRID * GRID),
    })


def test_one_group_transition_round_trip(one_group_csv, tmp_path):
    assert run("transition", one_group_csv, tmp_path, "--replicates", "10",
               "--y-cut-levels", "0.5", "--w-cut-levels", "0.5", group_col=None) == 0
    header = ROUND_TRIPS["transition"]["transition.csv"][0]
    check_round_trip("transition", tmp_path, groups=("0",),
                     tables={"transition.csv": (header, CELLS)})


@pytest.mark.parametrize("command,extra", [
    ("decompose", []),
    ("counterfactual", ["--index", "1110"]),
    ("transition", ["--decompose"]),
])
def test_group_comparison_on_one_group_is_config_error(command, extra, one_group_csv,
                                                       tmp_path, capsys):
    out = tmp_path / "out"
    assert run(command, one_group_csv, out, *extra, group_col=None) == 2
    assert list(out.glob("*")) == []
    assert "requires --group-col with two groups" in capsys.readouterr().err


def test_estimate_with_dependence_covariates(sample_csv, tmp_path):
    assert run("estimate", sample_csv, tmp_path, "--dep-covariates", "x1") == 0
    check_round_trip("estimate", tmp_path, tables={
        **ROUND_TRIPS["estimate"],
        "dependence.csv": (["group", "y", "w", "coef_0", "coef_1"], 2 * BODY * BODY),
    })


def test_decompose_with_dependence_covariates(sample_csv, tmp_path):
    assert decompose(sample_csv, tmp_path, "--dep-covariates", "x2", "--replicates", "10") == 0
    check_round_trip("decompose", tmp_path)
