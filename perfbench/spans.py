"""Span recorder for the traced pass.

Spans are recorded from the benchmark's side only: each public bdreg function
of interest is replaced, at the module attribute its caller looks it up by,
with a wrapper that records name, start, end and parent span. Nothing in
bdreg itself is changed, and every original is restored when the recorder is
removed. Spans are kept in memory and written out once the run ends.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field

import numpy as np

SMALL_RHO = 0.3
HIGH_RHO = 0.925  # the switch to the high-correlation quadrature in bdreg.normal


@dataclass
class Span:
    name: str
    start: float
    end: float = float("nan")
    parent: int | None = None
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """In-memory span store; spans on one thread nest by call order."""

    def __init__(self, clock=time.perf_counter):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._clock = clock

    def wrap(self, name: str, fn, annotate=None):
        """Return fn recording one span per call. annotate(attrs, args,
        kwargs, result) runs after the span has ended."""

        def wrapper(*args, **kwargs):
            span = Span(name, 0.0, parent=self._stack[-1] if self._stack else None)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span.start = self._clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as err:
                span.attrs["error"] = type(err).__name__
                raise
            finally:
                span.end = self._clock()
                self._stack.pop()
            if annotate is not None:
                annotate(span.attrs, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def write(self, path, **fields):
        """Write the spans as JSON lines, each tagged with fields."""
        with open(path, "a") as fh:
            for i, span in enumerate(self.spans):
                fh.write(json.dumps({"id": i, **fields, **asdict(span)}) + "\n")


def _rho_rows(attrs, rho, n):
    r = np.abs(np.broadcast_to(np.asarray(rho, dtype=float), (n,)))
    attrs["rows"] = n
    attrs["small_rho"] = int(np.count_nonzero(r < SMALL_RHO))
    attrs["high_rho"] = int(np.count_nonzero(r > HIGH_RHO))


def _fixed_cdf(attrs, args, kwargs, result):
    _rho_rows(attrs, args[1] if len(args) > 1 else kwargs["rho"], args[0].n)


def _bvn_cdf(attrs, args, kwargs, result):
    _rho_rows(attrs, args[2] if len(args) > 2 else kwargs["rho"], np.size(result))


def _dep_cell(attrs, args, kwargs, result):
    attrs["iterations"] = int(result.iterations)
    attrs["boundary"] = bool(result.boundary)


def _marginal(attrs, args, kwargs, result):
    attrs["iterations"] = int(sum(result.iterations))


def _bootstrap(attrs, args, kwargs, result):
    attrs["replicates"] = int(result.n_requested)
    attrs["failed"] = len(result.failed)


def _ingest(attrs, args, kwargs, result):
    attrs["rows"] = int(result[0].n)


def _surface(attrs, args, kwargs, result):
    attrs["surface"] = True


def targets():
    """(owner, attribute, span name, annotate) for every wrapped function,
    listed at each name a caller looks it up by."""
    from bdreg import bootstrap, cli, data, dependence, functionals, normal

    out = [
        (normal.FixedThresholdBvn, "cdf", "normal.fixed_cdf", _fixed_cdf),
        (functionals, "bvn_cdf", "normal.bvn_cdf", _bvn_cdf),
        (dependence, "bvn_cdf", "normal.bvn_cdf", _bvn_cdf),
        (dependence, "fit_marginal", "marginals.fit_marginal", _marginal),
        (dependence, "fit_dependence", "dependence.cell", _dep_cell),
        (dependence, "fit_bdr", "dependence.fit_bdr", None),
        (bootstrap, "fit_bdr", "dependence.fit_bdr", None),
        (cli, "fit_bdr", "dependence.fit_bdr", None),
        (data, "build_grid", "data.build_grid", None),
        (cli, "build_grid", "data.build_grid", None),
        (cli, "bootstrap_fit", "bootstrap.bootstrap_fit", _bootstrap),
        (cli, "ensemble_apply", "bootstrap.ensemble_apply", None),
        (cli, "ingest", "cli.ingest", _ingest),
        (cli.OutputWriter, "csv", "cli.write", None),
        (cli.OutputWriter, "manifest", "cli.write", None),
    ]
    surfaces = ("counterfactual_joint_cdf", "fitted_surface", "independence_counterfactual")
    for owner in (functionals, cli):
        for name in surfaces + ("decompose_joint", "decompose_transition", "transition_from_fits"):
            out.append((owner, name, f"functionals.{name}", _surface if name in surfaces else None))
    return out


@contextmanager
def installed(recorder: Recorder):
    """Install the wrappers for the duration of the block, then restore every
    original attribute, also when the block raises."""
    patched = []
    try:
        for owner, attr, name, annotate in targets():
            # A class attribute is read from __dict__ so a plain function is
            # put back, not a bound method.
            original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            patched.append((owner, attr, original))
            setattr(owner, attr, recorder.wrap(name, original, annotate))
        yield recorder
    finally:
        for owner, attr, original in reversed(patched):
            setattr(owner, attr, original)


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of its interval that its child
    spans cover (children clipped to the parent, overlaps counted once)."""
    children: dict[int, list[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    out = []
    for i, span in enumerate(spans):
        covered, reach = 0.0, span.start
        for lo, hi in sorted((c.start, c.end) for c in children.get(i, ())):
            lo, hi = max(lo, reach), min(hi, span.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(span.duration - covered)
    return out


def _under(spans: list[Span], prefix: str) -> list[bool]:
    """Whether each span has an ancestor whose name starts with prefix."""
    flags = []
    for span in spans:
        p = span.parent
        flags.append(p is not None and (spans[p].name.startswith(prefix) or flags[p]))
    return flags


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer counts and times from one traced pass."""
    selfs = self_times(spans)
    in_functionals = _under(spans, "functionals.")
    by_name: dict[str, list[int]] = {}
    for i, span in enumerate(spans):
        by_name.setdefault(span.name, []).append(i)

    def total(name, key=None):
        ids = by_name.get(name, ())
        if key is None:
            return float(sum(spans[i].duration for i in ids))
        return sum(spans[i].attrs.get(key, 0) for i in ids)

    m: dict[str, float] = {}
    kernel_rows = 0
    small = high = 0
    for short, name in (("fixed_cdf", "normal.fixed_cdf"), ("bvn_cdf", "normal.bvn_cdf")):
        ids = by_name.get(name, ())
        rows = total(name, "rows")
        m[f"normal.{short}.calls"] = len(ids)
        m[f"normal.{short}.rows"] = rows
        m[f"normal.{short}.s"] = total(name)
        m[f"normal.{short}.ns_per_row"] = 1e9 * total(name) / rows if rows else 0.0
        kernel_rows += rows
        small += total(name, "small_rho")
        high += total(name, "high_rho")
    m["normal.small_rho_share"] = small / kernel_rows if kernel_rows else 0.0
    m["normal.high_rho_share"] = high / kernel_rows if kernel_rows else 0.0

    m["marginals.fit_marginal.calls"] = len(by_name.get("marginals.fit_marginal", ()))
    m["marginals.fit_marginal.s"] = total("marginals.fit_marginal")
    m["marginals.iterations"] = total("marginals.fit_marginal", "iterations")

    cells = by_name.get("dependence.cell", ())
    cell_s = [spans[i].duration for i in cells]
    m["dependence.cells"] = len(cells)
    m["dependence.cells_failed"] = sum("error" in spans[i].attrs for i in cells)
    m["dependence.cells_boundary"] = total("dependence.cell", "boundary")
    m["dependence.s"] = float(sum(cell_s))
    m["dependence.self_s"] = float(sum(selfs[i] for i in cells))
    m["dependence.cell_s.p50"] = float(np.percentile(cell_s, 50)) if cells else 0.0
    m["dependence.cell_s.p90"] = float(np.percentile(cell_s, 90)) if cells else 0.0
    m["dependence.iterations"] = total("dependence.cell", "iterations")
    m["dependence.passes_per_cell"] = (
        m["normal.fixed_cdf.calls"] / len(cells) if cells else 0.0
    )

    func = [i for i, s in enumerate(spans) if s.name.startswith("functionals.")]
    points = sum(
        spans[i].attrs.get("rows", 0) for i in by_name.get("normal.bvn_cdf", ()) if in_functionals[i]
    )
    m["functionals.surfaces"] = sum(bool(spans[i].attrs.get("surface")) for i in func)
    m["functionals.points"] = points
    m["functionals.s"] = float(sum(spans[i].duration for i in func if not in_functionals[i]))
    m["functionals.self_s"] = float(sum(selfs[i] for i in func))
    m["functionals.ns_per_point"] = 1e9 * m["functionals.s"] / points if points else 0.0

    boot = by_name.get("bootstrap.bootstrap_fit", ())
    replicates = total("bootstrap.bootstrap_fit", "replicates")
    m["bootstrap.s"] = total("bootstrap.bootstrap_fit")
    m["bootstrap.replicates"] = replicates
    m["bootstrap.replicates_failed"] = total("bootstrap.bootstrap_fit", "failed") + sum(
        "error" in spans[i].attrs for i in boot
    )
    m["bootstrap.s_per_replicate"] = m["bootstrap.s"] / replicates if replicates else 0.0
    m["bootstrap.ensemble_apply.s"] = total("bootstrap.ensemble_apply")

    m["data.build_grid.s"] = total("data.build_grid")
    m["cli.ingest.s"] = total("cli.ingest")
    m["cli.ingest.rows"] = total("cli.ingest", "rows")
    m["cli.write.s"] = total("cli.write")
    return m


# Counts that must repeat exactly across two traced passes on one input.
DETERMINISTIC_COUNTS = (
    "dependence.iterations",
    "normal.fixed_cdf.calls",
    "normal.fixed_cdf.rows",
    "normal.bvn_cdf.rows",
    "functionals.points",
    "marginals.iterations",
)
