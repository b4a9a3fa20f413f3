"""The package's public names are locked: bdreg.__all__ is the agreed set,
and each module's __all__ lists exactly the public functions and classes it
defines. No module imports a name it never uses."""

import ast
import importlib
import importlib.util
import inspect
import pkgutil
from pathlib import Path

import pytest

import bdreg

PUBLIC = {
    # bootstrap
    "BootstrapEnsemble", "WeightScheme", "bootstrap_fit", "draw_weights",
    "ensemble_apply", "robust_se", "robust_se_map",
    # data
    "GridSpec", "Sample", "build_grid", "grid_from_values", "split_groups", "validate",
    # dependence
    "BdrFit", "fit_bdr", "fit_dependence",
    # dgp
    "CovariateSpec", "DgpSpec", "generate", "true_joint_cdf",
    # exceptions
    "BdrError", "ConfigError", "DataError", "EstimationError", "InferenceError", "TailError",
    # functionals
    "CounterfactualIndex", "DecompositionReport", "JointCdfSurface", "TransitionMatrix",
    "counterfactual_joint_cdf", "decompose_joint", "decompose_transition", "fitted_surface",
    "independence_counterfactual", "transition_from_fits", "transition_matrix",
    # marginals
    "MarginalFit", "fit_marginal", "fit_probit_dr", "fit_tail_scale",
    # normal
    "EPS_RHO", "bvn_cdf", "bvn_pdf", "std_normal_cdf", "std_normal_pdf",
    "std_normal_quantile",
}
MODULES = [m.name for m in pkgutil.iter_modules(bdreg.__path__)]


def test_package_all_is_the_agreed_set():
    assert len(bdreg.__all__) == len(set(bdreg.__all__)) == len(PUBLIC) == 47
    assert set(bdreg.__all__) == PUBLIC
    for name in bdreg.__all__:
        assert hasattr(bdreg, name), name


@pytest.mark.parametrize("name", MODULES)
def test_module_all_lists_its_public_definitions(name):
    module = importlib.import_module(f"bdreg.{name}")
    defined = {
        attr for attr, obj in vars(module).items()
        if not attr.startswith("_")
        and (inspect.isfunction(obj) or inspect.isclass(obj))
        and obj.__module__ == module.__name__
    }
    listed = {attr for attr in module.__all__ if not attr.isupper()}
    assert listed == defined
    for attr in module.__all__:
        assert hasattr(module, attr), attr


def unused_imports(source: str) -> list[str]:
    """Names a module imports and never reads, __future__ imports and lines
    marked `# noqa: F401` aside. A name listed in __all__ counts as read."""
    lines = source.splitlines()
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if "# noqa: F401" not in lines[alias.lineno - 1]:
                    imported[alias.asname or alias.name.split(".")[0]] = alias.lineno
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    read |= {
        elt.value for node in ast.walk(tree) if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
        for elt in node.value.elts
    }
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in read)


@pytest.mark.parametrize("name", MODULES)
def test_module_imports_only_names_it_uses(name):
    # The package's __init__ imports to re-export, so it is not scanned.
    path = Path(bdreg.__file__).with_name(f"{name}.py")
    assert unused_imports(path.read_text()) == []


def test_unused_import_scan_flags_a_dropped_caller():
    source = "from .normal import bvn_cdf, std_normal_cdf\n\n\ndef f(a):\n    return bvn_cdf(a, a, 0.0)\n"
    assert unused_imports(source) == ["std_normal_cdf (line 1)"]
    marked = source.replace("\n", "  # noqa: F401\n", 1)
    assert unused_imports(marked) == []


def test_oracle_script_matches_the_current_api():
    # tests/oracles/compute_mc_oracles.py regenerates tests/data/mc_oracles.json
    # and runs only by hand. Loading it (its __main__ guard keeps the Monte
    # Carlo from running) fails when a name it imports goes away, and each of
    # its calls into bdreg must still bind to that function's signature.
    path = Path(__file__).parent / "oracles" / "compute_mc_oracles.py"
    spec = importlib.util.spec_from_file_location("compute_mc_oracles", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    calls = 0
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            fn = vars(module).get(node.func.id)
            if getattr(fn, "__module__", "").startswith("bdreg."):
                inspect.signature(fn).bind(*node.args, **{k.arg: None for k in node.keywords})
                calls += 1
    assert calls >= 3
