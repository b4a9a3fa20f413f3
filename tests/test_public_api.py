"""The package's public names are locked: bdreg.__all__ is the agreed set,
and each module's __all__ lists exactly the public functions and classes it
defines. No module imports a name it never uses, and no public name or
class member exists only for the tests."""

import ast
import importlib
import importlib.util
import inspect
import pkgutil
import textwrap
from pathlib import Path
from types import SimpleNamespace

import pytest

import bdreg

PUBLIC = {
    # bootstrap
    "BootstrapEnsemble", "WeightScheme", "bootstrap_fit", "draw_weights",
    "ensemble_apply", "robust_se_map",
    # data
    "GridSpec", "Sample", "build_grid", "grid_from_values", "validate",
    # dependence
    "BdrFit", "fit_bdr", "fit_dependence",
    # dgp
    "CovariateSpec", "DgpSpec", "generate", "true_joint_cdf",
    # exceptions
    "BdrError", "ConfigError", "DataError", "EstimationError", "InferenceError", "TailError",
    # functionals
    "DecompositionReport", "JointCdfSurface", "TransitionMatrix", "counterfactual_joint_cdf",
    "decompose_joint", "decompose_transition", "fitted_surface", "independence_counterfactual",
    "transition_from_fits", "transition_matrix",
    # marginals
    "MarginalFit", "fit_marginal", "fit_probit_dr", "fit_tail_scale",
    # normal
    "EPS_RHO", "bvn_cdf",
}
MODULES = [m.name for m in pkgutil.iter_modules(bdreg.__path__)]


def test_package_all_is_the_agreed_set():
    assert len(bdreg.__all__) == len(set(bdreg.__all__)) == len(PUBLIC) == 40
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
    source = "from .normal import bvn_cdf, link_rho\n\n\ndef f(a):\n    return bvn_cdf(a, a, 0.0)\n"
    assert unused_imports(source) == ["link_rho (line 1)"]
    marked = source.replace("\n", "  # noqa: F401\n", 1)
    assert unused_imports(marked) == []


def names_read(sources) -> set[str]:
    """Every name and attribute the sources read (loaded, not assigned)."""
    read = set()
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    return read


def names_mentioned(sources) -> set[str]:
    """Every identifier the sources mention: names, attributes, imported
    names and string constants (attribute names looked up by string)."""
    named = set()
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
            elif isinstance(node, ast.alias):
                named.add(node.asname or node.name)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                named.add(node.value)
    return named


def public_members(cls) -> list[str]:
    """The public methods, properties and annotated fields a class defines."""
    tree = ast.parse(textwrap.dedent(inspect.getsource(cls))).body[0]
    members = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            members.append(node.name)
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            members.append(node.target.id)
    return [m for m in members if not m.startswith("_")]


def uncalled(public, library_sources, bench_sources) -> list[str]:
    """The public names (each name, and each class's public members as
    Class.member) that no library source reads and no benchmark source
    mentions."""
    read, named = names_read(library_sources), names_mentioned(bench_sources)
    out = []
    for name, obj in public.items():
        wanted = [(name, name)]
        if inspect.isclass(obj):
            wanted += [(f"{name}.{m}", m) for m in public_members(obj)]
        out += [label for label, key in wanted if key not in read and key not in named]
    return sorted(out)


def test_every_public_name_has_a_caller():
    # A public function, class, method, property or field that only the tests
    # call is a second way to compute what the library computes elsewhere.
    # perfbench/ reads some names to time or check a run; those count.
    src = Path(bdreg.__file__).parent
    library = [p.read_text() for p in sorted(src.glob("*.py")) if p.name != "__init__.py"]
    bench = [p.read_text() for p in sorted((src.parents[1] / "perfbench").glob("*.py"))]
    public = {name: getattr(bdreg, name) for name in bdreg.__all__}
    assert uncalled(public, library, bench) == []


def test_caller_scan_flags_a_name_only_tests_call():
    class Fit:
        coef: int
        spare: int

        def value(self):
            return self.coef

        def extra(self):
            return 0

    library = ["def use(fit):\n    fit.spare = 1\n    return fit.value(), helper\n"]
    bench = ["import x\nx.lookup(Fit, 'coef')\n"]
    public = {"Fit": Fit, "helper": len, "dropped": len}
    assert uncalled(public, library, bench) == ["Fit.extra", "Fit.spare", "dropped"]


ORACLES = sorted((Path(__file__).parent / "oracles").glob("*.py"))


def bound_calls(path, module) -> int:
    """Bind each call of a bdreg function (or class) in the script at path to
    that function's signature, and count them. A call with *args is checked
    on its keyword names only, and **kwargs are skipped."""
    calls = 0
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            fn = vars(module).get(node.func.id)
            if getattr(fn, "__module__", "").startswith("bdreg."):
                signature = inspect.signature(fn)
                keywords = {k.arg: None for k in node.keywords if k.arg is not None}
                if any(isinstance(a, ast.Starred) for a in node.args):
                    signature.bind_partial(**keywords)
                else:
                    signature.bind(*node.args, **keywords)
                calls += 1
    return calls


def test_oracle_script_matches_the_current_api():
    # The scripts in tests/oracles/ run only by hand. Loading one (its
    # __main__ guard keeps its work from running) fails when a name it
    # imports goes away, and each of its calls into bdreg must still bind to
    # that function's signature. One test covers every script.
    assert {"check_one_step_se.py", "cli_digest.py", "compute_mc_oracles.py"} <= {
        p.name for p in ORACLES}
    for path in ORACLES:
        spec = importlib.util.spec_from_file_location(path.stem, path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        assert bound_calls(path, module) >= 3, path.name


def test_binder_checks_keywords_of_a_starred_call(tmp_path):
    script = tmp_path / "script.py"
    script.write_text("fit_dependence(x, *args, weights=w)\nfit_bdr(s, g, **extra)\n"
                      "draw_weights(3, scheme, 0)\n")
    module = SimpleNamespace(fit_dependence=bdreg.fit_dependence, fit_bdr=bdreg.fit_bdr,
                             draw_weights=bdreg.draw_weights)
    assert bound_calls(script, module) == 3
    script.write_text("fit_dependence(x, *args, start=s)\n")
    with pytest.raises(TypeError, match="start"):
        bound_calls(script, module)
