"""Layered benchmark for bdreg.

Run from the repository root:

    python3 perfbench/run.py --workload surfaces-fine --seed 1 --seconds 55 --trace 0

Workloads are listed in BENCHMARK.json and built in workloads.py from the
seed. Passes run closed-loop, one after another, in one process (the
decompose-boot pass is one `bdreg decompose` subprocess), until --seconds
have elapsed. Every pass's outputs are checked.

--trace 0 prints the end-to-end metrics: medians over the passes, with set-up
time as the median of fresh-interpreter set-ups. --trace 1 first times
untraced passes, then records spans over at least two traced passes of the
same input and prints the per-layer metrics, the tracing overhead, and
whether the named counts repeated exactly.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; the lines before it are for people.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import contextmanager, nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
OUT = ROOT / ".perfbench_out"
# BLAS/OpenMP pools would otherwise add threads on top of the CLI's workers.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_REPEATS = 3
MIN_PASSES = 3
MIN_TRACED_PASSES = 2
SETUP_PROBE = """
import sys, time
t0 = time.perf_counter()
import bdreg, workloads
workloads.make_datasets(sys.argv[1], int(sys.argv[2]), sys.argv[3])
print(time.perf_counter() - t0)
"""


def _median(values) -> float:
    return float(statistics.median(values))


def _peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux; for children it is the largest one's peak.
    return max(resource.getrusage(who).ru_maxrss
               for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)) / 1024.0


def _git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _record(workload: str, seed: int, workers: int) -> dict:
    import numpy
    import scipy

    return {
        "workload": workload,
        "seed": seed,
        "workers": workers,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": _git_commit(),
        "threads_env": {v: os.environ[v] for v in THREAD_VARS},
    }


def _setup_seconds(workload: str, seed: int, workdir: Path, env: dict) -> list[float]:
    """Import bdreg and generate the inputs in fresh interpreters."""
    env = dict(env, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(HERE)]))
    out = []
    for i in range(SETUP_REPEATS):
        probe_dir = workdir / f"setup-{i}"
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_PROBE, workload, str(seed), str(probe_dir)],
            env=env, capture_output=True, text=True, timeout=60,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        out.append(float(proc.stdout.split()[-1]))
    return out


@contextmanager
def _on_cpu(k: int):
    """Pin this process to the k-th usable CPU (cyclically) for one in-process
    pass. On a VM each vCPU's speed drifts with its own host contention, so
    alternating passes over the CPUs keeps a run from hanging on one of them."""
    cpus = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpus[k % len(cpus)]})
    try:
        yield
    finally:
        os.sched_setaffinity(0, cpus)


def _passes(runner, inputs: list, seconds: float, minimum: int, pin: bool) -> list:
    """Closed loop: one pass after another, cycling through the inputs; with
    pin, each pass runs on the next CPU."""
    results = []
    deadline = time.perf_counter() + seconds
    while len(results) < minimum or time.perf_counter() < deadline:
        k = len(results)
        with _on_cpu(k) if pin else nullcontext():
            results.append(runner(inputs[k % len(inputs)]))
    return results


def _report_checks(passes, label: str) -> None:
    failed = {}
    for p in passes:
        for name, ok in p.checks.items():
            if not ok:
                failed[name] = failed.get(name, 0) + 1
    checks = sorted({name for p in passes for name in p.checks})
    print(f"checks ({label}, {len(passes)} passes): " + "; ".join(
        f"{name}: {'FAILED ' + str(failed[name]) + 'x' if name in failed else 'ok'}" for name in checks
    ))


def run_untraced(workload: str, seed: int, seconds: float, workdir: Path) -> tuple[dict, list]:
    import workloads

    setup = _setup_seconds(workload, seed, workdir, dict(os.environ))
    inputs = workloads.make_datasets(workload, seed, workdir / "inputs")
    # The decompose-boot pass is a CLI subprocess that uses every CPU.
    passes = _passes(workloads.RUNNERS[workload], inputs, seconds, MIN_PASSES,
                     pin=workload != "decompose-boot")
    _report_checks(passes, "untraced")
    metrics = {
        "run_s": _median(p.run_s for p in passes),
        "fit_s": _median(p.fit_s for p in passes),
        "functionals_s": _median(p.functionals_s for p in passes),
        "cpu_s": _median(p.cpu_s for p in passes),
        "peak_rss_mb": _peak_rss_mb(),
        "setup_s": _median(setup),
        "functionals.sup_err": _median(p.sup_err for p in passes),
    }
    print(f"samples: {len(passes)} passes, {len(setup)} set-ups; run_s per pass: "
          + " ".join(f"{p.run_s:.3f}" for p in passes))
    return metrics, passes


def run_traced(workload: str, seed: int, seconds: float, workdir: Path) -> tuple[dict, list, bool]:
    import spans
    import workloads

    # Every traced pass and its untraced reference use the run's first
    # dataset, so the named counts must repeat exactly.
    inp = workloads.make_inputs(workload, workloads.dataset_seed(seed, 0), workdir / "inputs")
    runner = workloads.RUNNERS[workload]
    pooled = []
    if workload == "decompose-boot":
        # Spans recorded in forked pool workers are lost, so the traced pass
        # (and its untraced reference) call bdreg.cli.main in-process on one
        # worker. One subprocess pass on the workload's workers gives the
        # parallel efficiency.
        print("decompose-boot traced pass: bdreg.cli.main in-process with --workers 1")
        pooled.append(runner(inp))
        runner = functools.partial(workloads.run_decompose_boot, in_process=True)
    reference = _passes(runner, [inp], seconds / 2, 1, pin=True)
    untraced = pooled + reference
    parallel_eff = _median(p.cpu_s / (p.run_s * inp.size.workers) for p in pooled or reference)

    traced, recorders = [], []
    deadline = time.perf_counter() + seconds / 2
    while len(traced) < MIN_TRACED_PASSES or time.perf_counter() < deadline:
        recorders.append(spans.Recorder())
        with _on_cpu(len(traced)), spans.installed(recorders[-1]):
            traced.append(runner(inp))
    layer = [spans.layer_metrics(r.spans) for r in recorders]
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"spans-{workload}.jsonl"
    spans_path.unlink(missing_ok=True)
    for i, recorder in enumerate(recorders):
        recorder.write(spans_path, workload=workload, seed=seed, traced_pass=i)
    _report_checks(untraced, "untraced")
    _report_checks(traced, "traced")

    repeat = True
    for key in spans.DETERMINISTIC_COUNTS:
        values = [m[key] for m in layer]
        if len(set(values)) != 1:
            repeat = False
            print(f"count {key} differs between traced passes: {values}")
    print(f"named counts repeat exactly over {len(layer)} traced passes: {repeat}")

    # Counts that repeat are reported as they are; times as medians.
    metrics = {}
    for key in layer[0]:
        values = [m[key] for m in layer]
        metrics[key] = values[0] if len(set(values)) == 1 else _median(values)
    metrics["bootstrap.parallel_eff"] = parallel_eff
    metrics["functionals.sup_err"] = _median(p.sup_err for p in traced)
    metrics["trace.run_s"] = _median(p.run_s for p in traced)
    metrics["trace.untraced_run_s"] = _median(p.run_s for p in reference)
    metrics["trace.overhead_s"] = metrics["trace.run_s"] - metrics["trace.untraced_run_s"]
    print(f"spans written to {spans_path.relative_to(ROOT)}")

    return metrics, untraced + traced, repeat


def _print_metrics(title: str, metrics: dict, units: dict) -> None:
    print(title)
    for name in sorted(metrics):
        unit = units.get(name) or ("s" if name.endswith(("_s", ".s")) else "count")
        print(f"  {name:34s} {metrics[name]:>16.6g} {unit}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    for var in THREAD_VARS:
        os.environ[var] = "1"
    src = ROOT / "src"
    bench_file = ROOT / "BENCHMARK.json"
    if not (src / "bdreg" / "__init__.py").is_file():
        print(f"perfbench: bdreg sources not found under {src}", file=sys.stderr)
        return 2
    if not bench_file.is_file():
        print(f"perfbench: {bench_file} not found", file=sys.stderr)
        return 2
    bench = json.loads(bench_file.read_text())
    names = [w["name"] for w in bench["workloads"]]
    if args.workload not in names:
        print(f"perfbench: unknown workload {args.workload!r}; choose from {names}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import bdreg
    import workloads

    if not Path(bdreg.__file__).resolve().is_relative_to(src.resolve()):
        print(f"perfbench: imported bdreg from {bdreg.__file__}, not {src}", file=sys.stderr)
        return 2

    listed = bench["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    size = workloads.SIZES[args.workload][0]
    print("record " + json.dumps(_record(args.workload, args.seed, size.workers)))
    why = next(w["why"] for w in bench["workloads"] if w["name"] == args.workload)
    print(f"workload {args.workload}: {why}; {size}")

    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=WORK))
    try:
        if args.trace:
            metrics, passes, repeat = run_traced(args.workload, args.seed, args.seconds, workdir)
        else:
            metrics, passes = run_untraced(args.workload, args.seed, args.seconds, workdir)
            repeat = True
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    _print_metrics("per-layer metrics (traced)" if args.trace else "end-to-end metrics",
                   metrics, units)
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    print(f"fail_share: {failed}/{attempted} = {failed / attempted:.4g}")
    result = {name: metrics[name] for name in (m["name"] for m in listed)}
    broken = [name for name, value in result.items() if not math.isfinite(value)]
    if broken:
        print(f"perfbench: no finite value for {broken}", file=sys.stderr)
        return 1
    correct = repeat and all(p.ok for p in passes)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in result.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
