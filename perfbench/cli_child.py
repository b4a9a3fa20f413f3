"""Run `bdreg <argv>` as the console script would, timing the base fits and
the functionals in this process, and write the timings as JSON. main() is
also called in-process by the traced decompose-boot pass; it restores the
names it wrapped.

Usage: python3 cli_child.py TIMINGS.json decompose --input ... [bdreg args]

fit_s covers the per-group base fits (replicate fits run inside
bootstrap_fit, possibly in pool workers); functionals_s covers every
decompose_joint call, the ensemble's included. Replicate failures are read
from the returned ensembles, since the CLI writes no failure count.
"""

import json
import sys
import time

from bdreg import cli


EMPTY = {"fit_s": 0.0, "functionals_s": 0.0, "cells": 0, "cells_failed": 0,
         "replicates": 0, "replicates_failed": 0}


def main(timings_path: str, argv: list[str]) -> int:
    t = dict(EMPTY)
    fit_bdr, decompose_joint, bootstrap_fit = cli.fit_bdr, cli.decompose_joint, cli.bootstrap_fit

    def timed_fit(*args, **kwargs):
        t0 = time.perf_counter()
        fit = fit_bdr(*args, **kwargs)
        t["fit_s"] += time.perf_counter() - t0
        t["cells"] += fit.dep_coef.shape[0] * fit.dep_coef.shape[1]
        t["cells_failed"] += fit.n_failed
        return fit

    def timed_decompose(*args, **kwargs):
        t0 = time.perf_counter()
        report = decompose_joint(*args, **kwargs)
        t["functionals_s"] += time.perf_counter() - t0
        return report

    def counted_bootstrap(*args, **kwargs):
        ens = bootstrap_fit(*args, **kwargs)
        t["replicates"] += ens.n_requested
        t["replicates_failed"] += len(ens.failed)
        return ens

    cli.fit_bdr, cli.decompose_joint, cli.bootstrap_fit = timed_fit, timed_decompose, counted_bootstrap
    try:
        code = cli.main(argv)
    finally:
        cli.fit_bdr, cli.decompose_joint, cli.bootstrap_fit = fit_bdr, decompose_joint, bootstrap_fit
    with open(timings_path, "w") as fh:
        json.dump(t, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2:]))
