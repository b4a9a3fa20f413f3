"""Self-tests for the benchmark: self-time arithmetic, wrapper install and
restore, and a smoke-size pass of each workload.

Run from the repository root: python3 -m pytest perfbench -q
"""

import shutil
import sys
import tempfile
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import spans  # noqa: E402
import workloads  # noqa: E402
from spans import Span  # noqa: E402


@pytest.fixture
def workdir():
    """Scratch directory inside the checkout, removed afterwards."""
    root = HERE.parent / ".perfbench_work"
    root.mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(prefix="selftest-", dir=root))
    yield path
    shutil.rmtree(path, ignore_errors=True)


def test_self_time_subtracts_children_once():
    spans_ = [
        Span("root", 0.0, 10.0),
        Span("a", 1.0, 4.0, parent=0),
        Span("b", 3.0, 6.0, parent=0),  # overlaps a by 1: covered once
        Span("leaf", 1.5, 2.0, parent=1),
        Span("late", 9.0, 12.0, parent=0),  # runs past its parent: clipped
    ]
    assert spans.self_times(spans_) == pytest.approx([10.0 - 5.0 - 1.0, 2.5, 3.0, 0.5, 3.0])


def test_layer_metrics_attribute_kernel_rows_to_functionals():
    spans_ = [
        Span("functionals.decompose_joint", 0.0, 4.0),
        Span("functionals.counterfactual_joint_cdf", 0.5, 3.5, parent=0, attrs={"surface": True}),
        Span("normal.bvn_cdf", 1.0, 3.0, parent=1, attrs={"rows": 100, "small_rho": 25, "high_rho": 0}),
        Span("dependence.cell", 5.0, 7.0, attrs={"iterations": 4, "boundary": False}),
        Span("normal.fixed_cdf", 5.5, 6.5, parent=3, attrs={"rows": 50, "small_rho": 50, "high_rho": 0}),
        Span("normal.fixed_cdf", 6.5, 6.75, parent=3, attrs={"rows": 50, "small_rho": 50, "high_rho": 0}),
    ]
    m = spans.layer_metrics(spans_)
    assert m["functionals.s"] == 4.0  # nested functionals spans counted once
    assert m["functionals.self_s"] == pytest.approx(4.0 - 2.0)
    assert m["functionals.points"] == 100
    assert m["functionals.surfaces"] == 1
    assert m["dependence.cells"] == 1
    assert m["dependence.self_s"] == pytest.approx(2.0 - 1.25)
    assert m["dependence.passes_per_cell"] == 2
    assert m["normal.fixed_cdf.rows"] == 100
    assert m["normal.small_rho_share"] == pytest.approx(125 / 200)


def test_wrappers_install_and_restore():
    from bdreg import cli, dependence, functionals, normal

    originals = [
        (owner, attr, owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr))
        for owner, attr, _, _ in spans.targets()
    ]
    fit_dependence = dependence.fit_dependence
    recorder = spans.Recorder()
    with pytest.raises(RuntimeError):
        with spans.installed(recorder):
            assert dependence.fit_dependence is not fit_dependence
            normal.FixedThresholdBvn([0.1, 0.2], [0.3, -0.1]).cdf(0.5)
            functionals.bvn_cdf(0.0, 0.0, 0.0)
            raise RuntimeError("restore must survive an error")
    for owner, attr, original in originals:
        now = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        assert now is original, f"{owner.__name__}.{attr} not restored"
    assert [s.name for s in recorder.spans] == ["normal.fixed_cdf", "normal.bvn_cdf"]
    assert recorder.spans[0].attrs["rows"] == 2
    assert cli.fit_bdr is dependence.fit_bdr


def test_span_records_error_and_parent():
    recorder = spans.Recorder()

    def inner():
        raise ValueError("boom")

    outer = recorder.wrap("outer", lambda: wrapped_inner())
    wrapped_inner = recorder.wrap("inner", inner)
    with pytest.raises(ValueError):
        outer()
    assert [s.parent for s in recorder.spans] == [None, 0]
    assert all(s.attrs["error"] == "ValueError" for s in recorder.spans)
    assert all(s.end >= s.start for s in recorder.spans)


@pytest.mark.parametrize("name", sorted(workloads.RUNNERS))
def test_smoke_pass(name, workdir):
    inp = workloads.make_inputs(name, 3, workdir, smoke=True)
    result = workloads.RUNNERS[name](inp)
    assert result.ok, result.checks
    assert result.failed == 0 and result.attempted > 1
    assert result.run_s > 0 and result.cpu_s > 0

    recorder = spans.Recorder()
    runner = workloads.RUNNERS[name]
    with spans.installed(recorder):
        traced = (runner(inp, in_process=True) if name == "decompose-boot" else runner(inp))
    assert traced.ok, traced.checks
    m = spans.layer_metrics(recorder.spans)
    assert m["dependence.cells"] > 0 and m["dependence.cells_failed"] == 0
    assert m["normal.fixed_cdf.rows"] > 0 and m["functionals.points"] > 0
    if name == "decompose-boot":
        assert m["bootstrap.replicates"] == 2 * inp.size.replicates
        assert m["cli.ingest.rows"] == 2 * inp.size.n
