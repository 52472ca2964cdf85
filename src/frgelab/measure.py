"""The regularized Gaussian measure at finite truncation.

Provides sampling, Gauss-Hermite and Monte-Carlo expectations and the
Cameron-Martin map of dual vectors.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import scipy.linalg as sla

from .errors import BudgetExceeded, NotSPD
from .model import ModelSpec, covariance

DEFAULT_GH_LEVEL_1D = 128
DEFAULT_GH_LEVEL_ND = 16
MAX_GH_LEVEL = 256
MAX_MC_SAMPLES = 4_000_000


@dataclass(frozen=True)
class GaussianMeasure:
    """Centred Gaussian with covariance ``cov`` = L L^T."""

    cov: np.ndarray
    chol: np.ndarray
    inv: np.ndarray
    logdet: float

    @property
    def dim(self) -> int:
        return self.cov.shape[0]


@dataclass(frozen=True)
class ExpectationResult:
    value: float
    error: float
    method: str  # "quadrature" | "monte-carlo"
    count: int


def build_measure(spec_or_cov) -> GaussianMeasure:
    """Construct the measure from a ModelSpec or an SPD covariance matrix."""
    if isinstance(spec_or_cov, ModelSpec):
        cov = covariance(spec_or_cov)
    else:
        cov = np.atleast_2d(np.asarray(spec_or_cov, dtype=float))
    cov = 0.5 * (cov + cov.T)
    try:
        chol = sla.cholesky(cov, lower=True)
    except sla.LinAlgError as exc:
        raise NotSPD("covariance is not positive definite") from exc
    inv = sla.cho_solve((chol, True), np.eye(cov.shape[0]))
    logdet = 2.0 * float(np.sum(np.log(np.diag(chol))))
    return GaussianMeasure(cov=cov, chol=chol, inv=inv, logdet=logdet)


def sample(measure: GaussianMeasure, count: int, seed: int) -> np.ndarray:
    """Draw ``count`` fields psi = L z, deterministic given ``seed``."""
    if count < 1:
        raise ValueError("count must be >= 1")
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((count, measure.dim))
    return z @ measure.chol.T


def r_nu(measure: GaussianMeasure, t: np.ndarray) -> np.ndarray:
    """Map a dual vector to its Cameron-Martin representative C T."""
    return measure.cov @ np.asarray(t, dtype=float)

# -- quadrature machinery ---------------------------------------------


@lru_cache(maxsize=32)
def gauss_hermite_nodes(level: int, dim: int):
    """Tensorized probabilists' Gauss-Hermite rule for N(0, I_dim).

    Returns nodes of shape (level**dim, dim) and log-weights whose
    exponentials sum to one.  The arrays are cached and read-only.
    """
    x, w = np.polynomial.hermite_e.hermegauss(level)
    logw = np.log(w) - 0.5 * np.log(2.0 * np.pi)
    grids = np.meshgrid(*([x] * dim), indexing="ij")
    nodes = np.stack([g.ravel() for g in grids], axis=-1)
    logweights = np.zeros(level**dim)
    for g in np.meshgrid(*([logw] * dim), indexing="ij"):
        logweights += g.ravel()
    nodes.setflags(write=False)
    logweights.setflags(write=False)
    return nodes, logweights


def default_level(dim: int) -> int:
    return DEFAULT_GH_LEVEL_1D if dim == 1 else DEFAULT_GH_LEVEL_ND


def _quadrature_value(measure: GaussianMeasure, g, level: int) -> float:
    nodes, logw = gauss_hermite_nodes(level, measure.dim)
    psi = nodes @ measure.chol.T
    vals = np.asarray(g(psi), dtype=float)
    return float(np.exp(logw) @ vals)


def expectation(
    measure: GaussianMeasure,
    g,
    method: str = "quadrature",
    target_error: float = 1e-10,
    level: int | None = None,
    samples: int = 100_000,
    seed: int = 0,
) -> ExpectationResult:
    """Expectation of ``g`` under the measure.

    ``g`` must accept an array of fields of shape (n, M) and return n values.
    Quadrature is tensorized Gauss-Hermite through the Cholesky factor and
    refines the level until two consecutive rules agree within the target;
    Monte-Carlo returns the sample mean with a standard-error estimate.
    """
    if method == "quadrature":
        if measure.dim > 4:
            raise BudgetExceeded("quadrature expectations are limited to M <= 4")
        lvl = level if level is not None else default_level(measure.dim)
        value = _quadrature_value(measure, g, lvl)
        while True:
            nxt = min(2 * lvl, MAX_GH_LEVEL)
            refined = _quadrature_value(measure, g, nxt)
            err = abs(refined - value)
            if err <= target_error:
                return ExpectationResult(refined, err, "quadrature", nxt**measure.dim)
            if nxt >= MAX_GH_LEVEL or nxt**measure.dim > 2_000_000:
                raise BudgetExceeded(
                    f"quadrature error {err:.3e} above target {target_error:.3e} "
                    f"at level {nxt}"
                )
            value, lvl = refined, nxt
    elif method == "monte-carlo":
        n = samples
        while True:
            psi = sample(measure, n, seed)
            vals = np.asarray(g(psi), dtype=float)
            mean = float(vals.mean())
            se = float(vals.std(ddof=1) / np.sqrt(n))
            if se <= target_error or n >= MAX_MC_SAMPLES:
                if se > target_error:
                    raise BudgetExceeded(
                        f"MC standard error {se:.3e} above target {target_error:.3e} "
                        f"at {n} samples"
                    )
                return ExpectationResult(mean, se, "monte-carlo", n)
            n = min(4 * n, MAX_MC_SAMPLES)
    else:
        raise ValueError(f"unknown expectation method {method!r}")
