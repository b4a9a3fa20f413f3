import csv
import dataclasses

import numpy as np
import pytest

from bdreg import cli

GRID = 4


@pytest.fixture(scope="module")
def sample_csv(tmp_path_factory):
    out = tmp_path_factory.mktemp("sim")
    assert cli.main(["simulate", "--n", "600", "--two-groups",
                     "--dep-coef-1", "0.2,0.3,-0.1", "--out", str(out)]) == 0
    return out / "sample.csv"


def decompose(input_path, out, *extra):
    return cli.main([
        "decompose", "--input", str(input_path), "--covariates", "x1,x2",
        "--group-col", "group", "--grid-points", str(GRID), "--workers", "1",
        "--out", str(out), *extra,
    ])


def test_decompose_round_trip(sample_csv, tmp_path):
    assert decompose(sample_csv, tmp_path, "--replicates", "10") == 0
    with open(tmp_path / "decomposition.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 5 * GRID * GRID
    se = np.array([float(r["se"]) for r in rows])
    assert np.all(np.isfinite(se))
    assert (tmp_path / "manifest.json").is_file()


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


def test_failed_dependence_cell_is_estimation_error(sample_csv, tmp_path, monkeypatch):
    real_fit = cli.fit_bdr

    def fit_with_failed_cell(*args, **kwargs):
        fit = real_fit(*args, **kwargs)
        fit = dataclasses.replace(fit, dep_coef=fit.dep_coef.copy())
        fit.dep_coef[0, 0] = np.nan
        return fit

    monkeypatch.setattr(cli, "fit_bdr", fit_with_failed_cell)
    assert decompose(sample_csv, tmp_path) == 4


def test_failed_run_leaves_no_partial_output(sample_csv, tmp_path, monkeypatch):
    # estimate writes its coefficient tables before the surface evaluation
    # meets the failed cell; none of them may outlive the failed run.
    real_fit = cli.fit_bdr

    def fit_with_failed_cell(*args, **kwargs):
        fit = real_fit(*args, **kwargs)
        fit = dataclasses.replace(fit, dep_coef=fit.dep_coef.copy())
        fit.dep_coef[0, 0] = np.nan
        return fit

    monkeypatch.setattr(cli, "fit_bdr", fit_with_failed_cell)
    out = tmp_path / "out"
    code = cli.main(["estimate", "--input", str(sample_csv), "--covariates", "x1,x2",
                     "--group-col", "group", "--grid-points", str(GRID),
                     "--out", str(out)])
    assert code == 4
    assert out.is_dir()
    assert sorted(out.iterdir()) == []
