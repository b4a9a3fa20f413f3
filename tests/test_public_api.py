"""The package's public names are locked: bdreg.__all__ is the agreed set,
and each module's __all__ lists exactly the public functions and classes it
defines."""

import importlib
import inspect
import pkgutil

import pytest

import bdreg

PUBLIC = {
    # bootstrap
    "BootstrapEnsemble", "WeightScheme", "bootstrap_fit", "draw_weights",
    "ensemble_apply", "robust_se", "robust_se_map",
    # data
    "GridSpec", "Sample", "build_grid", "grid_from_values", "split_groups", "validate",
    # dependence
    "BdrFit", "FitConfig", "dep_score", "fit_bdr", "fit_dependence",
    "joint_loglik", "quadrant_probs",
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
    "EPS_RHO", "bvn_cdf", "bvn_pdf", "cdf_partials", "std_normal_cdf", "std_normal_pdf",
    "std_normal_quantile",
}
MODULES = [m.name for m in pkgutil.iter_modules(bdreg.__path__)]


def test_package_all_is_the_agreed_set():
    assert len(bdreg.__all__) == len(set(bdreg.__all__)) == len(PUBLIC) == 52
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
