import argparse
import csv
import dataclasses
import json
import re

import numpy as np
import pytest

from bdreg import cli, marginals
from bdreg.bootstrap import MIN_DRAWS_FOR_INFERENCE, WeightScheme, draw_weights
from bdreg.dependence import _ReplicateBase
from bdreg.exceptions import EstimationError, TailError

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


def with_cells(csv_path, cells):
    """The lines of csv_path with each (line, column, token) of cells put in
    place, lines counted from 1 at the header."""
    lines = csv_path.read_text().splitlines()
    header = lines[0].split(",")
    for line_no, column, token in cells:
        fields = lines[line_no - 1].split(",")
        fields[header.index(column)] = token
        lines[line_no - 1] = ",".join(fields)
    return lines


def write_lines(path, lines):
    path.write_text("".join(f"{line}\n" for line in lines))


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


@pytest.mark.parametrize("bad", [
    ["--y-coef-1", "1,2"],
    ["--w-coef-1", "0,1,2,3"],
    ["--dep-coef-1", "0.1"],
])
def test_coefficient_list_of_wrong_length_is_config_error(bad, tmp_path, capsys):
    # A group-1 list used to reach the generator unchecked and end in a
    # ValueError traceback.
    out = tmp_path / "out"
    assert cli.main(["simulate", "--n", "50", "--two-groups", *bad, "--out", str(out)]) == 2
    assert list(out.glob("*")) == []
    assert f"{bad[0]} must have 3 entries" in capsys.readouterr().err


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


def test_bad_counterfactual_index_is_config_error_before_any_fit(sample_csv, tmp_path,
                                                                 monkeypatch, capsys):
    # A valid index ahead of the bad one used to be fitted, bootstrapped and
    # written before the bad one was parsed.
    monkeypatch.setattr(cli, "fit_bdr", no_fit)
    out = tmp_path / "out"
    assert run("counterfactual", sample_csv, out, "--index", "1110", "--index", "2222",
               "--replicates", "10") == 2
    assert list(out.glob("*")) == []
    assert "'2222'" in capsys.readouterr().err


def test_repeated_counterfactual_index_is_config_error_before_any_fit(sample_csv, tmp_path,
                                                                      monkeypatch, capsys):
    # A repeated index used to be fitted, bootstrapped and written twice.
    monkeypatch.setattr(cli, "fit_bdr", no_fit)
    out = tmp_path / "out"
    assert run("counterfactual", sample_csv, out, "--index", "1111", "--index", "0101",
               "--index", "1111", "--replicates", "10") == 2
    assert list(out.glob("*")) == []
    assert "--index 1111 is given twice" in capsys.readouterr().err


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
    ((["--y-cuts", "0,0"], "--y-cuts repeats a value"), 2),
    ((["--w-cuts=-0.5,0.5,-0.5"], "--w-cuts repeats a value"), 2),
    ((["--y-cut-levels", "0.5,0.5"], "--y-cut-levels repeats a value"), 2),
    ((["--w-cut-levels", "0.2,0.8,0.2"], "--w-cut-levels repeats a value"), 2),
    # Both levels pick the 600th of the 1200 pooled y values.
    ((["--y-cut-levels", "0.5,0.4998"], "y cut levels 0.4998 and 0.5 both fall at y = "), 3),
])
def test_bad_transition_cuts_fail_before_any_fit(bad, code, sample_csv, tmp_path,
                                                 monkeypatch, capsys):
    # A repeated cut or level is a configuration error; distinct levels at
    # one empirical quantile are a data error, which names both levels. Both
    # used to surface only after every group was fitted.
    argv, message = bad
    monkeypatch.setattr(cli, "fit_bdr", no_fit)
    out = tmp_path / "out"
    assert run("transition", sample_csv, out, *argv) == code
    assert list(out.glob("*")) == []
    assert message in capsys.readouterr().err


def test_default_quintiles_at_one_value_name_their_levels(sample_csv, tmp_path, monkeypatch,
                                                          capsys):
    # With y and w rounded to integers, the default y quintiles 0.4 and 0.6
    # both fall at y = 0. No cut was given, yet this used to read only "y
    # cuts must be sorted and distinct".
    rows = list(csv.reader(sample_csv.open(newline="")))
    cols = [rows[0].index("y"), rows[0].index("w")]
    for row in rows[1:]:
        for c in cols:
            row[c] = str(round(float(row[c])))
    rounded = tmp_path / "rounded.csv"
    with rounded.open("w", newline="") as fh:
        csv.writer(fh).writerows(rows)
    monkeypatch.setattr(cli, "fit_bdr", no_fit)
    out = tmp_path / "out"
    assert run("transition", rounded, out, "--decompose") == 3
    assert list(out.glob("*")) == []
    err = capsys.readouterr().err
    assert ("y cut levels 0.4 and 0.6 (the default quintiles) both fall at y = 0; "
            "give distinct cuts with --y-cuts or --y-cut-levels") in err


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
    err = capsys.readouterr().err
    assert "reduce tail_min_obs=100000" in err
    assert "group 0: marginal y tail fit failed: no admissible lower-tail point" in err


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


def test_column_names_are_stripped_like_the_header(sample_csv, tmp_path):
    # ingest strips the header's names, so the names that must match them are
    # stripped too: spaces around a name change no table and no manifest.
    def estimate(out, *columns):
        return cli.main(["estimate", "--input", str(sample_csv), *columns,
                         "--grid-points", str(GRID), "--workers", "1", "--out", str(out)])

    assert estimate(tmp_path / "plain", "--covariates", "x1,x2", "--dep-covariates", "x1,x2",
                    "--y-col", "y", "--w-col", "w", "--group-col", "group") == 0
    assert estimate(tmp_path / "spaced", "--covariates", "x1, x2", "--dep-covariates", " x1 ,x2",
                    "--y-col", " y", "--w-col", "w ", "--group-col", " group ") == 0
    files = sorted(p.name for p in (tmp_path / "plain").iterdir())
    assert files == sorted(p.name for p in (tmp_path / "spaced").iterdir())
    for name in files:
        assert (tmp_path / "plain" / name).read_bytes() == \
            (tmp_path / "spaced" / name).read_bytes(), name


def test_unparseable_cell_is_data_error(sample_csv, tmp_path):
    bad = tmp_path / "bad.csv"
    write_lines(bad, with_cells(sample_csv, [(6, "y", "abc")]))
    assert decompose(bad, tmp_path / "out") == 3


@pytest.mark.parametrize("cells,named", [
    ([("y", "abc"), ("w", "NA")], "unparseable value 'abc' at line 5, column 'y'"),
    ([("y", "NA"), ("w", "abc")], "unparseable value 'abc' at line 5, column 'w'"),
    ([("y", "NA"), ("w", "inf"), ("x1", "abc")], "non-finite value 'inf' at line 5, column 'w'"),
])
def test_bad_cell_is_data_error_wherever_a_missing_token_sits(cells, named, sample_csv,
                                                              tmp_path, monkeypatch, capsys):
    # A row's used cells are all read before it is judged, so a missing
    # token before a bad cell does not drop the row; the first bad cell is
    # named.
    monkeypatch.setattr(cli, "fit_bdr", no_fit)
    bad = tmp_path / "bad.csv"
    write_lines(bad, with_cells(sample_csv, [(5, column, token) for column, token in cells]))
    out = tmp_path / "out"
    assert run("estimate", bad, out) == 3
    assert list(out.glob("*")) == []
    assert named in capsys.readouterr().err


@pytest.mark.parametrize("token", ["inf", "-inf", "Infinity", "1e400"])
def test_non_finite_cell_is_data_error_at_its_line(token, sample_csv, tmp_path, monkeypatch,
                                                   capsys):
    # ingest used to pass a non-finite cell on to validate, which counts the
    # rows kept after dropping: with line 4 dropped, line 9 was "row 6".
    monkeypatch.setattr(cli, "fit_bdr", no_fit)
    bad = tmp_path / "bad.csv"
    write_lines(bad, with_cells(sample_csv, [(4, "y", "NA"), (9, "y", token)]))
    out = tmp_path / "out"
    assert run("estimate", bad, out) == 3
    assert list(out.glob("*")) == []
    assert f"non-finite value {token!r} at line 9, column 'y'" in capsys.readouterr().err


def test_rows_with_a_missing_cell_are_dropped_and_counted(sample_csv, tmp_path):
    # Each missing token drops its row and a blank line is skipped: the run
    # writes what a file without those rows writes.
    lines = with_cells(sample_csv, [(3, "y", "NA"), (6, "w", "."), (10, "x1", "")])
    write_lines(tmp_path / "holed.csv", lines[:11] + [""] + lines[11:])
    write_lines(tmp_path / "clean.csv",
                [line for i, line in enumerate(lines, start=1) if i not in (3, 6, 10)])
    for name in ("holed", "clean"):
        assert run("estimate", tmp_path / f"{name}.csv", tmp_path / name) == 0
    dropped = [json.loads((tmp_path / name / "manifest.json").read_text())["rows_dropped_missing"]
               for name in ("holed", "clean")]
    assert dropped == [3, 0]
    tables = sorted(p.name for p in (tmp_path / "clean").glob("*.csv"))
    assert tables == sorted(p.name for p in (tmp_path / "holed").glob("*.csv"))
    for name in tables:
        assert (tmp_path / "holed" / name).read_bytes() == \
            (tmp_path / "clean" / name).read_bytes(), name


@pytest.mark.parametrize("content,message", [
    (None, "cannot open input"),
    ("", "is empty"),
    ("y,w,x1,x2,group\nNA,1,0.5,1,0\n1,.,0.5,1,1\n", "no usable rows after dropping missing values"),
])
def test_unusable_input_is_data_error(content, message, tmp_path, capsys):
    path = tmp_path / "input.csv"
    if content is not None:
        path.write_text(content)
    out = tmp_path / "out"
    assert run("estimate", path, out) == 3
    assert list(out.glob("*")) == []
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("command,argv,message", [
    ("estimate", ["--covariates", "x1", "--dep-covariates", "x2"],
     "dep covariates ['x2'] not in covariate list"),
    ("transition", ["--covariates", "x1,x2", "--y-cuts", "0", "--y-cut-levels", "0.5"],
     "give either --y-cuts or --y-cut-levels, not both"),
    ("transition", ["--covariates", "x1,x2", "--y-cut-levels", "0,0.5"],
     "cut levels must lie in (0, 1)"),
    ("estimate", ["--covariates", "x1,x2", "--trim", "0.1"], "--trim must be lower,upper"),
])
def test_bad_option_is_config_error_before_any_fit(command, argv, message, sample_csv, tmp_path,
                                                   monkeypatch, capsys):
    monkeypatch.setattr(cli, "fit_bdr", no_fit)
    out = tmp_path / "out"
    assert cli.main([command, "--input", str(sample_csv), "--group-col", "group",
                     "--out", str(out), *argv]) == 2
    assert list(out.glob("*")) == []
    assert message in capsys.readouterr().err


def test_used_column_twice_in_header_is_data_error(sample_csv, tmp_path, monkeypatch, capsys):
    # ingest used to read the first of the two x1 columns without a word.
    monkeypatch.setattr(cli, "fit_bdr", no_fit)
    rows = list(csv.reader(sample_csv.open(newline="")))
    twice = tmp_path / "twice.csv"
    with twice.open("w", newline="") as fh:
        csv.writer(fh).writerows(row + [row[rows[0].index("x1")]] for row in rows)
    out = tmp_path / "out"
    assert run("estimate", twice, out) == 3
    assert list(out.glob("*")) == []
    assert "column 'x1' appears more than once in the header" in capsys.readouterr().err


def test_group_fit_error_names_the_group(sample_csv, tmp_path, monkeypatch, capsys):
    # x2 constant in group 1 makes only that group's design rank deficient.
    rows = list(csv.reader(sample_csv.open(newline="")))
    x2, group = rows[0].index("x2"), rows[0].index("group")
    for row in rows[1:]:
        if row[group] == "1":
            row[x2] = "1"
    collinear = tmp_path / "collinear.csv"
    with collinear.open("w", newline="") as fh:
        csv.writer(fh).writerows(rows)
    assert run("estimate", collinear, tmp_path / "data") == 3
    assert "data error: group 1: design matrix is rank deficient" in capsys.readouterr().err

    real_fit, calls = cli.fit_bdr, []

    def second_fit_fails(*args, **kwargs):
        calls.append(args)
        if len(calls) == 2:
            raise EstimationError("dependence fit did not converge")
        return real_fit(*args, **kwargs)

    monkeypatch.setattr(cli, "fit_bdr", second_fit_fails)
    assert run("estimate", sample_csv, tmp_path / "fit") == 4
    assert "estimation error: group 1: dependence fit did not converge" in capsys.readouterr().err


def test_group_bootstrap_error_names_the_group(sample_csv, tmp_path, monkeypatch, capsys):
    # Group 1's replicate 9 fails (each group has 600 rows), which leaves
    # nine replicates, too few: the InferenceError names the group, as a
    # failed fit's error does, and the run exits 4.
    reason = "tail scale non-positive at every admissible upper-tail point"
    failing = draw_weights(600, WeightScheme(), 9, group=1)
    real_replicate = _ReplicateBase.replicate

    def replicate_9_of_group_1_fails(ready, weights):
        if np.array_equal(weights, failing):
            raise TailError(reason)
        return real_replicate(ready, weights)

    monkeypatch.setattr(_ReplicateBase, "replicate", replicate_9_of_group_1_fails)
    out = tmp_path / "out"
    assert decompose(sample_csv, out, "--replicates", "10") == 4
    assert list(out.glob("*")) == []
    assert ("estimation error: group 1: 1 of 10 bootstrap replicates failed, leaving 9 "
            f"(replicate 9: {reason})") in capsys.readouterr().err


def test_replicate_tail_stepped_to_a_non_positive_scale_is_refitted(tmp_path, monkeypatch):
    # On this file, one step from the base fit leaves group 1's multinomial
    # replicate 9 with a non-positive upper w tail scale. That tail alone
    # is refitted under the replicate's weights, and the run succeeds.
    assert cli.main(["simulate", "--n", "2000", "--seed", "1", "--y-coef=0.2,0.5,-0.3",
                     "--w-coef=-0.1,0.8,0.2", "--dep-coef=0.3,0.4,-0.2", "--two-groups",
                     "--y-coef-1=0.4,0.6,-0.2", "--w-coef-1=0.1,0.7,0.3",
                     "--dep-coef-1=0.2,0.3,-0.1", "--out", str(tmp_path)]) == 0
    refits, real = [], marginals.fit_tail_scale

    def recorded(*args, weights=None):
        if weights is not None:
            refits.append(args[4])
        return real(*args, weights=weights)

    monkeypatch.setattr(marginals, "fit_tail_scale", recorded)
    out = tmp_path / "out"
    assert cli.main(["decompose", "--input", str(tmp_path / "sample.csv"), "--covariates",
                     "x1,x2", "--group-col", "group", "--replicates", "10", "--grid-points", "3",
                     "--scheme", "multinomial", "--tail-min-obs", "5", "--out", str(out)]) == 0
    assert refits == ["upper"]
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["bootstrap_failures"] == {"0": 0, "1": 0}


@pytest.mark.parametrize("labels,message", [
    (lambda i, g: "2" if i == 7 else g, "group column 'group' must be binary 0/1"),
    (lambda i, g: "0", "both groups must be non-empty"),
])
def test_bad_group_column_is_data_error_before_any_fit(labels, message, sample_csv, tmp_path,
                                                       monkeypatch, capsys):
    monkeypatch.setattr(cli, "fit_bdr", no_fit)
    rows = list(csv.reader(sample_csv.open(newline="")))
    col = rows[0].index("group")
    for i, row in enumerate(rows[1:]):
        row[col] = labels(i, row[col])
    relabelled = tmp_path / "relabelled.csv"
    with relabelled.open("w", newline="") as fh:
        csv.writer(fh).writerows(rows)
    out = tmp_path / "out"
    assert run("estimate", relabelled, out) == 3
    assert list(out.glob("*")) == []
    assert message in capsys.readouterr().err


def test_input_with_a_byte_order_mark_reads_as_without(sample_csv, tmp_path):
    # Excel's "CSV UTF-8" starts the file with EF BB BF, which would
    # otherwise stick to the first column's name.
    marked = tmp_path / "marked.csv"
    marked.write_bytes(b"\xef\xbb\xbf" + sample_csv.read_bytes())
    for path, out in ((sample_csv, "plain"), (marked, "marked")):
        assert cli.main(["estimate", "--input", str(path), "--covariates", "x1,x2",
                         "--grid-points", str(GRID), "--out", str(tmp_path / out)]) == 0
    files = sorted(p.name for p in (tmp_path / "plain").iterdir())
    assert files == sorted(p.name for p in (tmp_path / "marked").iterdir())
    for name in files:
        plain, bom = ((tmp_path / out / name).read_bytes() for out in ("plain", "marked"))
        if name == "manifest.json":
            plain, bom = (json.loads(m) for m in (plain, bom))
            for m, path in ((plain, sample_csv), (bom, marked)):
                assert m["config"].pop("input") == str(path)
        assert plain == bom, name


def test_non_utf8_input_is_data_error(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_bytes(b"y,w,x1\n1,2,\xff\xfe\n")
    code = cli.main(["estimate", "--input", str(bad), "--covariates", "x1",
                     "--out", str(tmp_path / "out")])
    assert code == 3
    assert f"{bad} is not UTF-8" in capsys.readouterr().err


def test_unusable_out_is_config_error(tmp_path, capsys):
    # --out names a file, so its directory cannot be created.
    taken = tmp_path / "taken"
    taken.touch()
    assert cli.main(["simulate", "--n", "10", "--out", str(taken)]) == 2
    assert "cannot create output directory" in capsys.readouterr().err
    # The output file's name is taken by a directory, so it cannot be
    # written.
    out = tmp_path / "out"
    (out / "sample.csv").mkdir(parents=True)
    assert cli.main(["simulate", "--n", "10", "--out", str(out)]) == 2
    assert "cannot write" in capsys.readouterr().err


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


def test_failed_dependence_cell_error_carries_its_reason(sample_csv, tmp_path, monkeypatch,
                                                        capsys):
    real_fit = cli.fit_bdr

    def fit_with_recorded_failure(sample, grid, *args, **kwargs):
        fit = real_fit(sample, grid, *args, **kwargs)
        failures = [(float(grid.y_body[0]), float(grid.w_body[0]),
                     "dependence fit did not converge")]
        fit = dataclasses.replace(fit, dep_coef=fit.dep_coef.copy(), failures=failures)
        fit.dep_coef[0, 0] = np.nan
        return fit

    monkeypatch.setattr(cli, "fit_bdr", fit_with_recorded_failure)
    assert run("estimate", sample_csv, tmp_path / "out") == 4
    assert re.search(r"no dependence estimate at grid pair \([^)]+\): its fit failed "
                     r"\(dependence fit did not converge\)$", capsys.readouterr().err, re.M)


def test_binary_outcome_is_data_error_naming_it(sample_csv, tmp_path, capsys):
    rows = list(csv.reader(sample_csv.open(newline="")))
    col = rows[0].index("w")
    for row in rows[1:]:
        row[col] = "1" if float(row[col]) > 0.0 else "0"
    binary = tmp_path / "binary.csv"
    with binary.open("w", newline="") as fh:
        csv.writer(fh).writerows(rows)
    assert run("estimate", binary, tmp_path / "out") == 3
    assert "outcome w is too close to degenerate" in capsys.readouterr().err


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


def test_estimate_on_outcomes_in_other_units(one_group_csv, tmp_path):
    # y and w as 100 v + 50000, written at full precision. Each tail fit
    # used to start at alpha = 1, where such outcomes saturate the index: it
    # stopped there (alpha = 1, as here) or failed to converge (exit 4).
    rows = list(csv.reader(one_group_csv.open(newline="")))
    for row in rows[1:]:
        row[:2] = [repr(100.0 * float(v) + 50000.0) for v in row[:2]]
    scaled = tmp_path / "scaled.csv"
    with scaled.open("w", newline="") as fh:
        csv.writer(fh).writerows(rows)
    assert run("estimate", scaled, tmp_path / "out", group_col=None) == 0
    with open(tmp_path / "out" / "tails.csv", newline="") as fh:
        alphas = [float(r["alpha"]) for r in csv.DictReader(fh)]
    assert all(0 < a < 0.1 for a in alphas)


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


@pytest.mark.parametrize("simulate,extra", [
    (["--n", "600", "--two-groups"], ["--y-cuts=-1e200,0", "--w-cuts", "1e3", "--decompose"]),
    (["--n", "2000"], ["--y-cuts=-1,1e3", "--w-cuts", "50", "--replicates", "10"]),
], ids=["two-group", "one-group"])
def test_cuts_beyond_the_grid_leave_the_grid_alone(simulate, extra, tmp_path):
    # A cut beyond the trimmed range used to become the grid's new extreme,
    # pulling the old extreme into the body, whose tail fit then found too
    # few observations beyond it (exit 3). The affine tails reach such a cut.
    assert cli.main(["simulate", *simulate, "--seed", "3", "--out", str(tmp_path / "sim")]) == 0
    group_col = "group" if "--two-groups" in simulate else None
    assert run("transition", tmp_path / "sim" / "sample.csv", tmp_path / "out", *extra,
               group_col=group_col) == 0
    with open(tmp_path / "out" / "transition.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    for g in {r["group"] for r in rows}:
        cells = np.array([float(r["value"]) for r in rows if r["group"] == g])
        assert cells.size == 3 * 2
        assert np.all(np.isfinite(cells)) and np.all(cells >= -1e-12)
        assert cells.sum() == pytest.approx(1.0, abs=1e-9)


def capture_fits(monkeypatch) -> list:
    """Record the (sample, fit) of every base fit the CLI makes, in order."""
    real_fit, fits = cli.fit_bdr, []

    def recorded(sample, *args, **kwargs):
        fits.append((sample, real_fit(sample, *args, **kwargs)))
        return fits[-1][1]

    monkeypatch.setattr(cli, "fit_bdr", recorded)
    return fits


def read_rows(path) -> list[list[str]]:
    with open(path, newline="") as fh:
        return list(csv.reader(fh))[1:]


def formatted(*values) -> list[str]:
    return [v if isinstance(v, str) else cli._fmt(v) for v in values]


def test_estimate_cells_hold_the_fit(sample_csv, tmp_path, monkeypatch):
    # Each row's labels and values are the fit's at those labels, in group,
    # then axis order; the se columns only join them.
    fits = capture_fits(monkeypatch)
    assert run("estimate", sample_csv, tmp_path, "--replicates", "10") == 0
    assert len(fits) == 2
    coef = {"y": [], "w": []}
    dep, tails = [], []
    for g, (sample, fit) in enumerate(fits):
        margs = {"y": fit.y_marginal, "w": fit.w_marginal}
        for outcome, m in margs.items():
            coef[outcome] += [formatted(g, r, *c) for r, c in zip(m.body, m.coef)]
            tails += [formatted(g, outcome, "lower", m.alpha_lo, m.anchor_lo, m.r0_lo),
                      formatted(g, outcome, "upper", m.alpha_hi, m.anchor_hi, m.r0_hi)]
        dep += [formatted(g, yv, wv, *fit.dep_coef[iy, iw])
                for iy, yv in enumerate(fit.grid.y_body) for iw, wv in enumerate(fit.grid.w_body)]
        surface = cli.fitted_surface(fit, sample)
        assert [r[:3] for r in read_rows(tmp_path / f"surface_fitted_{g}.csv")] == [
            formatted(yv, wv, surface.values[iy, iw])
            for iy, yv in enumerate(surface.y_values) for iw, wv in enumerate(surface.w_values)]
    for outcome, rows in coef.items():
        assert read_rows(tmp_path / f"coefficients_{outcome}.csv") == rows
        se_rows = read_rows(tmp_path / f"coefficients_{outcome}_se.csv")
        assert [r[:2] for r in se_rows] == [r[:2] for r in rows]
    assert read_rows(tmp_path / "dependence.csv") == dep
    assert read_rows(tmp_path / "tails.csv") == tails


def test_decomposition_cells_hold_the_report(sample_csv, tmp_path, monkeypatch):
    # Component-major, then y, then w, at group 1's grid; the total's share
    # is 1 and the se column follows.
    fits = capture_fits(monkeypatch)
    assert decompose(sample_csv, tmp_path, "--replicates", "10") == 0
    samples = {g: sample for g, (sample, _) in enumerate(fits)}
    grid = fits[1][1].grid
    report = cli.decompose_joint({g: fit for g, (_, fit) in enumerate(fits)}, samples,
                                 y_values=grid.y_grid, w_values=grid.w_grid)
    shares = report.shares()
    expected = [
        formatted(name, yv, wv, comp[iy, iw], shares[name][iy, iw] if name in shares else 1.0)
        for name, comp in report.components().items()
        for iy, yv in enumerate(grid.y_grid) for iw, wv in enumerate(grid.w_grid)
    ]
    assert [r[:5] for r in read_rows(tmp_path / "decomposition.csv")] == expected
