"""The regularized Gaussian measure at finite truncation.

Provides the measure's Cholesky data and the tensorised Gauss-Hermite rules
that the quadrature kernel ``functionals.tilted_moments`` integrates with.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import scipy.linalg as sla

from .errors import BudgetExceeded, NotSPD
from .model import ModelSpec, covariance

# the kernel's rule levels on each tilted measure, its own first: each finer
# rung certifies the value of the rung below it
LADDER_1D = (64, 80, 96, 128)
LADDER_ND = (16, 24)
UNTILTED_GH_LEVEL_1D = 128  # a one-mode rule kept at an untilted Gaussian's width
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


# -- quadrature machinery ---------------------------------------------


def gauss_hermite_nodes(level: int, dim: int):
    """Tensorized probabilists' Gauss-Hermite rule for N(0, I_dim).

    Returns nodes of shape (level**dim, dim) and log-weights whose
    exponentials sum to one.  The arrays are cached and read-only.  A rule
    of more than ``MAX_GH_NODES`` nodes raises :class:`BudgetExceeded`
    before anything is allocated; the cap is read on every call, so a
    lowered cap refuses a rule built before.
    """
    if level**dim > MAX_GH_NODES:
        raise BudgetExceeded(
            f"a level-{level} tensor rule in {dim} dimensions has {level}^{dim} "
            f"nodes, above the cap of {MAX_GH_NODES}"
        )
    return _tensor_rule(level, dim)


@lru_cache(maxsize=32)
def _tensor_rule(level: int, dim: int):
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


def ladder(dim: int) -> tuple[int, ...]:
    return LADDER_1D if dim == 1 else LADDER_ND


def untilted_level(dim: int) -> int:
    """The level of a rule that integrates against an untilted Gaussian on
    its own width: that width is up to several times the tilted one, so one
    mode takes twice the kernel's level."""
    return UNTILTED_GH_LEVEL_1D if dim == 1 else LADDER_ND[0]
