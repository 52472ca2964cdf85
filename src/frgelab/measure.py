"""The regularized Gaussian measure at finite truncation.

Provides the measure's Cholesky data, the Cameron-Martin map of dual
vectors and the tensorised Gauss-Hermite rule that the quadrature kernel
``functionals.tilted_moments`` integrates with.
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
MAX_GH_NODES = 2_000_000  # largest tensor rule built (level**dim nodes)


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


def r_nu(measure: GaussianMeasure, t: np.ndarray) -> np.ndarray:
    """Map a dual vector to its Cameron-Martin representative C T."""
    return measure.cov @ np.asarray(t, dtype=float)

# -- quadrature machinery ---------------------------------------------


@lru_cache(maxsize=32)
def gauss_hermite_nodes(level: int, dim: int):
    """Tensorized probabilists' Gauss-Hermite rule for N(0, I_dim).

    Returns nodes of shape (level**dim, dim) and log-weights whose
    exponentials sum to one.  The arrays are cached and read-only.  A rule
    of more than ``MAX_GH_NODES`` nodes raises :class:`BudgetExceeded`
    before anything is allocated.
    """
    if level**dim > MAX_GH_NODES:
        raise BudgetExceeded(
            f"a level-{level} tensor rule in {dim} dimensions has {level}^{dim} "
            f"nodes, above the cap of {MAX_GH_NODES}"
        )
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
