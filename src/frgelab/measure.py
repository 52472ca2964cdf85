"""The regularized Gaussian measure at finite truncation.

Provides the measure's Cholesky data and the tensorised Gauss-Hermite rules
that the quadrature kernel ``functionals.tilted_moments`` integrates with.
``spd_inverse`` factors and inverts the covariance and each C^-1 + F_k.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

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
    cov = (covariance(spec_or_cov) if isinstance(spec_or_cov, ModelSpec)
           else np.atleast_2d(np.asarray(spec_or_cov, dtype=float)))
    cov = 0.5 * (cov + cov.T)
    return GaussianMeasure(cov, *spd_inverse(cov, "covariance"))


def spd_inverse(a: np.ndarray, what: str):
    """The Cholesky factor L of the SPD ``a``, its inverse inv(L)^T inv(L) (at one
    mode scipy's ``cho_solve`` bits, which inv(a) is not) and ln det a.  A
    non-finite or indefinite ``a`` raises :class:`NotSPD` naming ``what``."""
    if not np.isfinite(a).all():
        raise NotSPD(f"{what} is not finite")
    try:
        chol = np.linalg.cholesky(a)
    except np.linalg.LinAlgError as exc:
        raise NotSPD(f"{what} is not positive definite") from exc
    chol_inv = np.linalg.inv(chol)
    return chol, chol_inv.T @ chol_inv, 2.0 * float(np.sum(np.log(np.diag(chol))))


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
