"""Oracle-grade generating functionals and the effective average action.

Everything here is computed by Gauss-Hermite quadrature after a
shifted-Gaussian change of variables: the Gaussian content of the tilted
integrand (measure, quadratic regulator term, linear source) is absorbed
exactly, and the quadrature nodes are recentred on the tilted mean so
large sources do not cause cancellation.  These values serve as ground
truth for the flow integrator.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla
from scipy.special import logsumexp

from .errors import NewtonStalled, RangeExceeded, SelfCheckFailed
from .measure import (
    GaussianMeasure,
    build_measure,
    default_level,
    gauss_hermite_nodes,
    r_nu,
)
from .model import ModelSpec
from .regulator import Regulator

BUDGET = 1e-10  # stated oracle accuracy; scales the W self-check margin
NEWTON_TOL = 1e-10
NEWTON_MAX_ITER = 60
SCALE_CACHE_SIZE = 64  # scale records kept per context, least recently used dropped


@dataclass
class ScaleRecord:
    """The regularised Gaussian of one scale k.

    ``f`` and ``f_dot`` are the diagonals of F_k = R_k(p) w and d_k F_k,
    ``prec`` = C^-1 + F_k, ``sigma`` its inverse with Cholesky factor
    ``chol_s`` and ``logdet_s`` = ln det sigma.  ``moments`` holds the
    zero-source tilted moments (ln N_k and its measure) once first asked for.
    """

    f: np.ndarray
    f_dot: np.ndarray
    prec: np.ndarray
    sigma: np.ndarray
    chol_s: np.ndarray
    logdet_s: float
    moments: TiltedMoments | None = None


@dataclass
class FunctionalContext:
    spec: ModelSpec
    regulator: Regulator
    self_check: bool = True
    measure: GaussianMeasure = field(init=False)
    gh_level: int = field(init=False)
    _scales: OrderedDict = field(init=False, default_factory=OrderedDict, repr=False)

    def __post_init__(self):
        self.measure = build_measure(self.spec)
        self.gh_level = default_level(self.measure.dim)

    def scale(self, k: float) -> ScaleRecord:
        """The record of scale k, built on first use and kept for the last
        ``SCALE_CACHE_SIZE`` scales used; its arrays are read-only."""
        key = float(k)
        record = self._scales.get(key)
        if record is not None:
            self._scales.move_to_end(key)
            return record
        p, w = self.spec.momenta, self.spec.momentum_weights
        f = self.regulator.value(k, p) * w
        prec = self.measure.inv + np.diag(f)
        chol_p = sla.cholesky(prec, lower=True)
        sigma = sla.cho_solve((chol_p, True), np.eye(self.measure.dim))
        record = ScaleRecord(
            f=f,
            f_dot=self.regulator.dk(k, p) * w,
            prec=prec,
            sigma=sigma,
            chol_s=sla.cholesky(0.5 * (sigma + sigma.T), lower=True),
            logdet_s=-2.0 * float(np.sum(np.log(np.diag(chol_p)))),
        )
        # every caller of this scale shares the arrays
        for a in (record.f, record.f_dot, record.prec, record.sigma, record.chol_s):
            a.setflags(write=False)
        self._scales[key] = record
        if len(self._scales) > SCALE_CACHE_SIZE:
            self._scales.popitem(last=False)
        return record


@dataclass(frozen=True)
class TiltedMoments:
    """log E_nu[exp(T.psi - S^int(psi+shift) - F_k/2 psi.psi)] with moments
    of the corresponding normalized tilted measure."""

    log_value: float
    mean: np.ndarray
    second_moment: np.ndarray

    @property
    def cov(self) -> np.ndarray:
        return self.second_moment - np.outer(self.mean, self.mean)


@dataclass(frozen=True)
class MeanFieldSolve:
    source: np.ndarray
    residual: float
    iterations: int


def tilted_moments(
    ctx: FunctionalContext, k: float, t_vec=None, shift=None
) -> TiltedMoments:
    m = ctx.measure.dim
    t_vec = np.zeros(m) if t_vec is None else np.asarray(t_vec, dtype=float)
    shift = np.zeros(m) if shift is None else np.asarray(shift, dtype=float)
    record = ctx.scale(k)
    prec = record.prec

    mu = record.sigma @ t_vec
    log_gauss = (
        0.5 * float(t_vec @ mu) + 0.5 * (record.logdet_s - ctx.measure.logdet)
    )

    nodes, logw = gauss_hermite_nodes(ctx.gh_level, m)
    scaled = nodes @ record.chol_s.T
    centre = mu.copy()
    scale = float(np.sqrt(np.diag(record.sigma).min()))
    result = None
    for _ in range(8):
        psi = scaled + centre
        # importance ratio N(psi; mu, Sigma) / N(psi; centre, Sigma)
        log_ratio = (
            psi @ (prec @ (mu - centre))
            + 0.5 * float(centre @ prec @ centre)
            - 0.5 * float(mu @ prec @ mu)
        )
        log_h = -ctx.spec.interaction_batch(psi + shift)
        log_terms = logw + log_ratio + log_h
        log_i0 = float(logsumexp(log_terms))
        omega = np.exp(log_terms - log_i0)
        mean = omega @ psi
        second = (omega[:, None] * psi).T @ psi
        result = TiltedMoments(log_gauss + log_i0, mean, second)
        if float(np.linalg.norm(mean - centre)) <= 0.05 * scale:
            break
        centre = mean
    return result


def _zero_source(ctx: FunctionalContext, k: float) -> TiltedMoments:
    """Zero-source tilted moments of scale k, computed once per scale record."""
    record = ctx.scale(k)
    if record.moments is None:
        record.moments = tilted_moments(ctx, k)
    return record.moments


def log_normalization(ctx: FunctionalContext, k: float) -> float:
    """ln N_k = ln E_nu[exp(-S^int - F_k/2 psi.psi)]."""
    return _zero_source(ctx, k).log_value


def W(ctx: FunctionalContext, k: float, t_vec) -> float:
    """Log moment-generating function of the scale-k theory.

    Computed directly and, when self-checking is enabled, re-derived through
    the shifted-measure representation; the two routes must agree within
    ten times the accuracy budget.
    """
    t_vec = np.asarray(t_vec, dtype=float)
    ln_n = log_normalization(ctx, k)
    direct = tilted_moments(ctx, k, t_vec).log_value - ln_n
    if ctx.self_check:
        shifted, scale = _w_shifted_form(ctx, k, t_vec, ln_n)
        # the shifted route cancels terms of size ``scale``; allow for the
        # roundoff and quadrature error that cancellation amplifies
        tol = 10.0 * BUDGET * (1.0 + abs(direct)) + 1e-11 * scale**2
        if abs(direct - shifted) > tol:
            raise SelfCheckFailed(
                f"W self-check failed at k={k}: direct={direct!r} "
                f"shifted={shifted!r}"
            )
    return direct


def _w_shifted_form(ctx, k, t_vec, ln_n):
    """W via the shift identity: tilt by the Cameron-Martin representative."""
    phi0 = r_nu(ctx.measure, t_vec)
    f_diag = ctx.scale(k).f
    inner = float(t_vec @ phi0)
    quad = float(phi0 @ (f_diag * phi0))
    tm = tilted_moments(ctx, k, -(f_diag * phi0), shift=phi0)
    value = 0.5 * inner - 0.5 * quad + tm.log_value - ln_n
    scale = 1.0 + abs(inner) + abs(quad)
    return value, scale


def mean_field(ctx: FunctionalContext, k: float, t_vec) -> np.ndarray:
    """Derivative of W_k at the source: the tilted-measure mean."""
    return tilted_moments(ctx, k, np.asarray(t_vec, dtype=float)).mean


def connected_cov(ctx: FunctionalContext, k: float, t_vec) -> np.ndarray:
    """Second derivative of W_k at the source: the tilted covariance."""
    return tilted_moments(ctx, k, np.asarray(t_vec, dtype=float)).cov


def invert_mean_field(
    ctx: FunctionalContext, k: float, phi, j0=None
) -> MeanFieldSolve:
    """Solve mean_field(J) = phi by Newton with line search on the residual."""
    phi = np.atleast_1d(np.asarray(phi, dtype=float))
    j = ctx.scale(k).prec @ phi if j0 is None else np.asarray(j0, dtype=float).copy()
    tm = tilted_moments(ctx, k, j)
    if not (np.all(np.isfinite(tm.mean)) and np.all(np.isfinite(tm.cov))):
        raise RangeExceeded(
            f"tilted moments overflowed inverting the mean field at "
            f"phi={phi}, k={k}; the field lies outside the resolvable range"
        )
    res = tm.mean - phi
    res_norm = float(np.linalg.norm(res))
    for it in range(1, NEWTON_MAX_ITER + 1):
        if res_norm <= NEWTON_TOL:
            return MeanFieldSolve(j, res_norm, it - 1)
        try:
            step = np.linalg.solve(tm.cov, -res)
        except np.linalg.LinAlgError:
            raise RangeExceeded(
                f"tilted covariance degenerated inverting the mean field at "
                f"phi={phi}, k={k}; the field lies outside the resolvable range"
            ) from None
        alpha = 1.0
        while alpha >= 1e-6:
            j_try = j + alpha * step
            if float(np.linalg.norm(j_try)) > 1e8:
                raise RangeExceeded(
                    f"source magnitude diverged inverting the mean field at "
                    f"phi={phi}, k={k}"
                )
            tm_try = tilted_moments(ctx, k, j_try)
            new_norm = float(np.linalg.norm(tm_try.mean - phi))
            if new_norm < res_norm * (1.0 - 1e-4 * alpha) or new_norm <= NEWTON_TOL:
                break
            alpha *= 0.5
        else:
            raise NewtonStalled(
                f"line search stalled at residual {res_norm:.3e} "
                f"(phi={phi}, k={k}); raise the quadrature budget"
            )
        j, tm = j_try, tm_try
        res = tm.mean - phi
        res_norm = new_norm
    if res_norm <= NEWTON_TOL:
        return MeanFieldSolve(j, res_norm, NEWTON_MAX_ITER)
    raise NewtonStalled(
        f"Newton did not reach tolerance {NEWTON_TOL:.1e}; residual "
        f"{res_norm:.3e} at phi={phi}, k={k}"
    )


def legendre_sweep(ctx: FunctionalContext, k: float, fields, j0=None):
    """Effective average action along a path of fields.

    Yields ``(gamma_k(phi), MeanFieldSolve)`` for each field in order; each
    mean-field inversion is warm-started from the previous field's source
    (the first from ``j0``).  gamma_k(phi) = J.phi - W_k(J) - F_k(phi, phi)/2
    at the inverting source J.
    """
    f_diag = ctx.scale(k).f
    for phi in fields:
        phi = np.atleast_1d(np.asarray(phi, dtype=float))
        solve = invert_mean_field(ctx, k, phi, j0=j0)
        j0 = solve.source
        value = float(j0 @ phi) - W(ctx, k, j0) - 0.5 * float(phi @ (f_diag * phi))
        yield value, solve


def gamma(ctx: FunctionalContext, k: float, phi, j0=None) -> float:
    """Effective average action: Legendre value minus the regulator term."""
    value, _ = next(legendre_sweep(ctx, k, [phi], j0=j0))
    return value


def gamma_bar(ctx: FunctionalContext, k: float, phi, j0=None) -> float:
    """Subtracted action: gamma(phi) - gamma(0)."""
    return gamma(ctx, k, phi, j0=j0) - gamma(ctx, k, np.zeros(ctx.measure.dim))


def gamma_gradient(ctx: FunctionalContext, k: float, phi, j0=None) -> np.ndarray:
    """D gamma at phi: the inverting source minus the regulator action."""
    phi = np.atleast_1d(np.asarray(phi, dtype=float))
    solve = invert_mean_field(ctx, k, phi, j0=j0)
    return solve.source - ctx.scale(k).f * phi


def gamma_hessian(
    ctx: FunctionalContext, k: float, phi, step: float | None = None
) -> np.ndarray:
    """Richardson-extrapolated finite differences of the gamma gradient."""
    phi = np.atleast_1d(np.asarray(phi, dtype=float))
    m = phi.size
    h = step if step is not None else 1e-4 * (1.0 + float(np.linalg.norm(phi)))
    out = np.empty((m, m))
    for a in range(m):
        e = np.zeros(m)
        e[a] = 1.0

        def central(hh):
            gp = gamma_gradient(ctx, k, phi + hh * e)
            gm = gamma_gradient(ctx, k, phi - hh * e)
            return (gp - gm) / (2.0 * hh)

        d_h = central(h)
        d_h2 = central(h / 2.0)
        out[:, a] = (4.0 * d_h2 - d_h) / 3.0
    return 0.5 * (out + out.T)


def dk_log_normalization(ctx: FunctionalContext, k: float) -> float:
    """d_k ln N_k = -1/2 tr[dF_k . second moment of the k-tilted measure]."""
    fdot = ctx.scale(k).f_dot
    if not np.any(fdot):
        return 0.0
    return -0.5 * float(fdot @ np.diag(_zero_source(ctx, k).second_moment))


def dirac_ratio(ctx: FunctionalContext, g, k: float) -> float:
    """E_nu[g exp(-F_k/2)] / E_nu[exp(-F_k/2)]; concentrates on g(0) as k grows."""
    nodes, logw = gauss_hermite_nodes(ctx.gh_level, ctx.measure.dim)
    psi = nodes @ ctx.scale(k).chol_s.T
    vals = np.asarray(g(psi), dtype=float)
    w = np.exp(logw)
    return float((w @ vals) / w.sum())
