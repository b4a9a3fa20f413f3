"""Digest every table and manifest the CLI writes over a fixed matrix of runs.

Two versions of the program are compared byte for byte by running this
script under each and diffing its output. The matrix, all at grid 6:

- estimate, counterfactual --index 1110 --index 0101, decompose and
  transition --decompose on `simulate --two-groups --seed 3` files of
  n = 600 and 2,000, each with --replicates 0 and 12 on 1 and 2 workers;
- one-group estimate and transition --y-cut-levels 0.1,0.5,0.9 on a
  `simulate --seed 3` file of n = 2,000, with the same replicates and
  workers;
- two transitions with cuts beyond the grid: --y-cuts=-1e200,0 --w-cuts 1e3
  --decompose on the two-group n = 600 file, and one-group
  --y-cuts=-1,1e3 --w-cuts 50 --replicates 10;
- one-group transition --y-cuts 53 --w-cuts 0, whose y index at 53 spans
  the kernel's saturation edge 40 across covariate rows (39.6 to 40.5): some
  rows of a threshold pair are saturated and the rest are not;
- estimate, decompose --replicates 12 --workers 2 and transition
  --decompose on a strong-dependence `simulate --two-groups --seed 3
  --dep-coef 1.05,0.6,0` file of n = 2,000, where a third or more of the
  bivariate-normal kernel's rows take its high-correlation branch
  (|rho| > 0.925);
- estimate and transition --y-cut-levels 0.1,0.5,0.9 on two rescaled
  copies of the one-group file, y and w written as 100 v + 50000 and
  20000 v + 50000 at full precision (outcomes in other units, such as
  earnings in dollars); their surfaces are the one-group file's at the
  rescaled thresholds.

The runs write into folders under OUT, with paths relative to OUT, so no
manifest depends on where OUT is. For each run the script prints its exit
code, then one `sha256  relative/path` line per CSV and manifest.json it
wrote, in path order.

Not collected by pytest. Run from the repository root:

    PYTHONPATH=src python tests/oracles/cli_digest.py OUT > digest.txt

and compare two versions with `diff`. It takes about a minute on 2 CPUs.
Where the hashes differ by rounding, the drift report

    PYTHONPATH=src python tests/oracles/cli_digest.py --compare OUT_A OUT_B

reads the two trees that two such runs left and prints, for each file and
column that differ, the largest |difference| between them (a manifest's
columns are its JSON leaves, list entries gathered under `key[]`); a
non-numeric difference, or a file or column in one tree only, reads inf.
"""

import argparse
import csv
import hashlib
import json
import math
import os
from pathlib import Path

from bdreg.cli import build_parser, main

COMMON = ["--covariates", "x1,x2", "--grid-points", "6"]
SETTINGS = [(replicates, workers) for replicates in ("0", "12") for workers in ("1", "2")]
TWO_GROUP = {
    "estimate": ["estimate"],
    "counterfactual": ["counterfactual", "--index", "1110", "--index", "0101"],
    "decompose": ["decompose"],
    "transition": ["transition", "--decompose"],
}
ONE_GROUP = {
    "estimate": ["estimate"],
    "transition": ["transition", "--y-cut-levels", "0.1,0.5,0.9"],
}


def simulate(name: str, n: int, *extra: str) -> str:
    """Simulate the seed-3 sample of n rows per group into folder name."""
    code = main(["simulate", "--n", str(n), "--seed", "3", *extra, "--out", name])
    if code != 0:
        raise SystemExit(f"simulate {name} exited {code}")
    return f"{name}/sample.csv"


def rescale(source: str, scale: float, shift: float) -> str:
    """Copy source with y and w as scale * v + shift, written by repr so no
    digit is lost, into folder scaled_<scale>."""
    with open(source, newline="") as fh:
        rows = list(csv.reader(fh))
    cols = [rows[0].index("y"), rows[0].index("w")]
    for row in rows[1:]:
        for c in cols:
            row[c] = repr(scale * float(row[c]) + shift)
    folder = Path(f"scaled_{scale:g}")
    folder.mkdir(exist_ok=True)
    with open(folder / "sample.csv", "w", newline="") as fh:
        csv.writer(fh).writerows(rows)
    return f"{folder}/sample.csv"


def matrix() -> dict[str, list[str]]:
    """The argv of each run, keyed by the folder it writes into."""
    runs = {}
    for n in (600, 2000):
        data = simulate(f"two_{n}", n, "--two-groups")
        for name, command in TWO_GROUP.items():
            for replicates, workers in SETTINGS:
                runs[f"two_{n}/{name}_r{replicates}_w{workers}"] = [
                    *command, "--input", data, "--group-col", "group",
                    "--replicates", replicates, "--workers", workers]
    data = simulate("one_2000", 2000)
    for name, command in ONE_GROUP.items():
        for replicates, workers in SETTINGS:
            runs[f"one_2000/{name}_r{replicates}_w{workers}"] = [
                *command, "--input", data, "--replicates", replicates, "--workers", workers]
    runs["two_600/transition_far_cuts"] = [
        "transition", "--input", "two_600/sample.csv", "--group-col", "group",
        "--y-cuts=-1e200,0", "--w-cuts", "1e3", "--decompose"]
    runs["one_2000/transition_far_cuts"] = [
        "transition", "--input", data, "--y-cuts=-1,1e3", "--w-cuts", "50",
        "--replicates", "10"]
    runs["one_2000/transition_straddling_cut"] = [
        "transition", "--input", data, "--y-cuts", "53", "--w-cuts", "0"]
    data = simulate("strong_2000", 2000, "--two-groups", "--dep-coef", "1.05,0.6,0")
    strong = ["--input", data, "--group-col", "group"]
    runs["strong_2000/estimate"] = ["estimate", *strong]
    runs["strong_2000/decompose_r12_w2"] = [
        "decompose", *strong, "--replicates", "12", "--workers", "2"]
    runs["strong_2000/transition"] = ["transition", "--decompose", *strong]
    for scale in (100.0, 20000.0):
        scaled = rescale("one_2000/sample.csv", scale, 50000.0)
        for name, command in ONE_GROUP.items():
            runs[f"{Path(scaled).parent}/{name}"] = [*command, "--input", scaled]
    return runs


def digest(folder: Path) -> list[str]:
    """One `sha256  path` line per file a run left in folder: its CSVs and
    manifest, or nothing after a failure."""
    files = sorted(folder.iterdir()) if folder.is_dir() else []
    return [f"{hashlib.sha256(p.read_bytes()).hexdigest()}  {p}" for p in files]


def run_all(out: Path):
    out.mkdir(parents=True, exist_ok=True)
    os.chdir(out)
    runs = {folder: [*argv, *COMMON, "--out", folder] for folder, argv in matrix().items()}
    for argv in runs.values():  # a renamed option fails here, before the first run
        build_parser().parse_args(argv)
    for folder, argv in runs.items():
        code = main(argv)
        print(f"exit {code}  {folder}", flush=True)
        for line in digest(Path(folder)):
            print(line, flush=True)


def _leaves(node, key=""):
    """(path, value) of each scalar of a JSON document."""
    if isinstance(node, dict):
        for k, v in node.items():
            yield from _leaves(v, f"{key}.{k}" if key else k)
    elif isinstance(node, list):
        for v in node:
            yield from _leaves(v, f"{key}[]")
    else:
        yield key, node


def columns(path: Path) -> dict[str, list]:
    """A CSV's columns by header name, or a manifest's leaves by path."""
    if path.suffix == ".csv":
        with open(path, newline="") as fh:
            header, *rows = csv.reader(fh)
        return {name: [row[i] for row in rows] for i, name in enumerate(header)}
    out = {}
    for key, value in _leaves(json.loads(path.read_text())):
        out.setdefault(key, []).append(value)
    return out


def gap(u, v) -> float:
    """|u - v| for entries that read as numbers (0 where equal, NaN and inf
    included), else 0 or inf as they are equal or not."""
    try:
        x, y = float(u), float(v)
    except (TypeError, ValueError):
        return 0.0 if u == v else math.inf
    if x == y or (math.isnan(x) and math.isnan(y)):
        return 0.0
    d = abs(x - y)
    return d if d == d else math.inf


def compare(a: Path, b: Path) -> list[str]:
    """The drift report between the trees a and b: `max|d|  file  column`
    for each file and column that differ, then the largest per file name
    and column over all runs, then how many files are the same."""
    def tables(root):
        return {p.relative_to(root) for p in root.rglob("*") if p.suffix in (".csv", ".json")}

    in_a, in_b = tables(a), tables(b)
    lines = [f"inf  {rel}  (only in {a if rel in in_a else b})" for rel in sorted(in_a ^ in_b)]
    largest, same = {}, 0
    for rel in sorted(in_a & in_b):
        ca, cb = columns(a / rel), columns(b / rel)
        drift = {}
        for name in [*ca, *(k for k in cb if k not in ca)]:
            x, y = ca.get(name), cb.get(name)
            if x is None or y is None or len(x) != len(y):
                drift[name] = math.inf
            else:
                drift[name] = max(map(gap, x, y), default=0.0)
        same += not any(drift.values())
        for name, d in drift.items():
            if d:
                lines.append(f"{d:.3g}  {rel}  {name}")
                key = (rel.name, name)
                largest[key] = max(largest.get(key, 0.0), d)
    lines += [f"largest {d:.3g}  {file}  {name}" for (file, name), d in sorted(largest.items())]
    lines.append(f"{same} of {len(in_a & in_b)} files in both trees have no difference")
    return lines


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out", type=Path, nargs="?", help="folder for the inputs and the runs")
    parser.add_argument("--compare", type=Path, nargs=2, metavar=("OUT_A", "OUT_B"),
                        help="print the drift report between two runs' folders instead")
    args = parser.parse_args()
    if args.compare:
        print("\n".join(compare(*(p.resolve() for p in args.compare))))
    elif args.out:
        run_all(args.out.resolve())
    else:
        parser.error("give OUT, or --compare OUT_A OUT_B")
