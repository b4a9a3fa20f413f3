"""Synthetic data generation inside the model class.

Outcomes are location-shifted jointly Gaussian given X with a per-row
correlation tanh(x'dep_coef), so every location coefficient, the dependence
surface (constant in the threshold pair), and the joint conditional CDF have
closed forms usable as ground truth by the estimator tests.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Sample
from .normal import bvn_cdf, link_rho

__all__ = ["CovariateSpec", "DgpSpec", "generate", "true_joint_cdf"]


@dataclass(frozen=True)
class CovariateSpec:
    """One generated covariate column: uniform(lo, hi) or binary(p)."""

    kind: str  # "uniform" | "binary"
    a: float = 0.0
    b: float = 1.0

    def draw(self, rng: np.random.Generator, n: int) -> np.ndarray:
        if self.kind == "uniform":
            return rng.uniform(self.a, self.b, size=n)
        if self.kind == "binary":
            return (rng.random(n) < self.a).astype(float)
        raise ValueError(f"unknown covariate kind {self.kind!r}")


DEFAULT_COVARIATES = (
    CovariateSpec("uniform", 0.0, 1.0),
    CovariateSpec("binary", 0.5),
)


@dataclass(frozen=True)
class DgpSpec:
    """Y = x'y_coef + e1, W = x'w_coef + e2 with (e1, e2) standard bivariate
    normal of correlation tanh(x'dep_coef). Coefficient vectors include the
    intercept as their first entry."""

    y_coef: np.ndarray
    w_coef: np.ndarray
    dep_coef: np.ndarray
    n: int
    seed: int
    covariates: tuple[CovariateSpec, ...] = DEFAULT_COVARIATES

    @property
    def d_x(self) -> int:
        return 1 + len(self.covariates)


def _design(spec: DgpSpec, rng: np.random.Generator) -> np.ndarray:
    cols = [np.ones(spec.n)]
    cols.extend(c.draw(rng, spec.n) for c in spec.covariates)
    return np.column_stack(cols)


def generate(spec: DgpSpec) -> Sample:
    """Draw one sample; deterministic given spec.seed."""
    for name in ("y_coef", "w_coef", "dep_coef"):
        if np.asarray(getattr(spec, name)).shape != (spec.d_x,):
            raise ValueError(f"{name} must have length {spec.d_x}")
    rng = np.random.default_rng(spec.seed)
    x = _design(spec, rng)
    rho, _ = link_rho(x @ np.asarray(spec.dep_coef, dtype=float))
    z1 = rng.standard_normal(spec.n)
    z2 = rng.standard_normal(spec.n)
    e1 = z1
    e2 = rho * z1 + np.sqrt(1.0 - rho * rho) * z2
    y = x @ np.asarray(spec.y_coef, dtype=float) + e1
    w = x @ np.asarray(spec.w_coef, dtype=float) + e2
    return Sample(y=y, w=w, x=x)


def true_joint_cdf(spec: DgpSpec, y, w, x) -> np.ndarray:
    """Closed-form joint conditional CDF of the generating process."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    rho, _ = link_rho(x @ np.asarray(spec.dep_coef, dtype=float))
    a = y - x @ np.asarray(spec.y_coef, dtype=float)
    b = w - x @ np.asarray(spec.w_coef, dtype=float)
    return bvn_cdf(a, b, rho)
