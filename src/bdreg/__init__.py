"""Bivariate distribution regression.

Estimates the joint conditional distribution of two outcomes as a grid of
bivariate probits with a tanh-linked local correlation, and derives
counterfactual joint distributions, composition/sorting/marginals
decompositions, transition matrices, and weighted-bootstrap inference.
"""

from .bootstrap import (
    BootstrapEnsemble,
    WeightScheme,
    bootstrap_fit,
    draw_weights,
    ensemble_apply,
    robust_se_map,
)
from .data import (
    GridSpec,
    Sample,
    build_grid,
    grid_from_values,
    validate,
)
from .dependence import (
    BdrFit,
    fit_bdr,
    fit_dependence,
)
from .dgp import CovariateSpec, DgpSpec, generate, true_joint_cdf
from .exceptions import (
    BdrError,
    ConfigError,
    DataError,
    EstimationError,
    InferenceError,
    TailError,
)
from .functionals import (
    DecompositionReport,
    JointCdfSurface,
    TransitionMatrix,
    counterfactual_joint_cdf,
    decompose_joint,
    decompose_transition,
    fitted_surface,
    independence_counterfactual,
    transition_from_fits,
    transition_matrix,
)
from .marginals import (
    MarginalFit,
    fit_marginal,
    fit_probit_dr,
    fit_tail_scale,
)
from .normal import (
    EPS_RHO,
    bvn_cdf,
)

__all__ = [
    "BdrError",
    "BdrFit",
    "BootstrapEnsemble",
    "ConfigError",
    "CovariateSpec",
    "DataError",
    "DecompositionReport",
    "DgpSpec",
    "EPS_RHO",
    "EstimationError",
    "GridSpec",
    "InferenceError",
    "JointCdfSurface",
    "MarginalFit",
    "Sample",
    "TailError",
    "TransitionMatrix",
    "WeightScheme",
    "bootstrap_fit",
    "build_grid",
    "bvn_cdf",
    "counterfactual_joint_cdf",
    "decompose_joint",
    "decompose_transition",
    "draw_weights",
    "ensemble_apply",
    "fit_bdr",
    "fit_dependence",
    "fit_marginal",
    "fit_probit_dr",
    "fit_tail_scale",
    "fitted_surface",
    "generate",
    "grid_from_values",
    "independence_counterfactual",
    "robust_se_map",
    "transition_from_fits",
    "transition_matrix",
    "true_joint_cdf",
    "validate",
]

__version__ = "0.1.0"
