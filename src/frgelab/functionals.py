"""Oracle-grade generating functionals and the effective average action.

Everything here is computed by Gauss-Hermite quadrature after a
shifted-Gaussian change of variables: the Gaussian content of the tilted
integrand (measure, quadratic regulator term, linear source) is absorbed
exactly, and the quadrature nodes are recentred on the tilted mean so
large sources do not cause cancellation.  These values serve as ground
truth for the flow integrator.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla
from scipy.special import logsumexp

from .errors import NewtonStalled, RangeExceeded, SelfCheckFailed
from .measure import GaussianMeasure, build_measure, default_level, gauss_hermite_nodes
from .model import ModelSpec
from .regulator import Regulator, regulator_matrix


@dataclass
class FunctionalContext:
    spec: ModelSpec
    regulator: Regulator
    measure: GaussianMeasure = None
    gh_level: int | None = None
    budget: float = 1e-10
    newton_tol: float = 1e-10
    newton_max_iter: int = 60
    self_check: bool = True
    _k_cache: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        if self.measure is None:
            self.measure = build_measure(self.spec)
        if self.gh_level is None:
            self.gh_level = default_level(self.measure.dim)

    def reg_diag(self, k: float) -> np.ndarray:
        return regulator_matrix(
            self.regulator, k, self.spec.momenta, self.spec.momentum_weights
        ).diagonal

    def reg_dk_diag(self, k: float) -> np.ndarray:
        return regulator_matrix(
            self.regulator, k, self.spec.momenta, self.spec.momentum_weights
        ).dk_diagonal

    def _k_objects(self, k: float):
        """Per-scale precision P = C^-1 + F_k, its inverse and factorization."""
        key = float(k)
        if key not in self._k_cache:
            f_diag = self.reg_diag(k)
            prec = self.measure.inv + np.diag(f_diag)
            chol_p = sla.cholesky(prec, lower=True)
            sigma = sla.cho_solve((chol_p, True), np.eye(self.measure.dim))
            chol_s = sla.cholesky(0.5 * (sigma + sigma.T), lower=True)
            logdet_s = -2.0 * float(np.sum(np.log(np.diag(chol_p))))
            self._k_cache[key] = (f_diag, prec, sigma, chol_s, logdet_s)
        return self._k_cache[key]


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
    _, prec, sigma, chol_s, logdet_s = ctx._k_objects(k)

    mu = sigma @ t_vec
    log_gauss = (
        0.5 * float(t_vec @ mu) + 0.5 * (logdet_s - ctx.measure.logdet)
    )

    nodes, logw = gauss_hermite_nodes(ctx.gh_level, m)
    scaled = nodes @ chol_s.T
    centre = mu.copy()
    scale = float(np.sqrt(np.diag(sigma).min()))
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


def log_normalization(ctx: FunctionalContext, k: float) -> float:
    """ln N_k = ln E_nu[exp(-S^int - F_k/2 psi.psi)]."""
    return tilted_moments(ctx, k).log_value


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
        tol = 10.0 * ctx.budget * (1.0 + abs(direct)) + 1e-11 * scale**2
        if abs(direct - shifted) > tol:
            raise SelfCheckFailed(
                f"W self-check failed at k={k}: direct={direct!r} "
                f"shifted={shifted!r}"
            )
    return direct


def _w_shifted_form(ctx, k, t_vec, ln_n):
    """W via the shift identity: tilt by the Cameron-Martin representative."""
    phi0 = ctx.measure.cov @ t_vec
    f_diag = ctx.reg_diag(k)
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
    _, prec, _, _, _ = ctx._k_objects(k)
    j = prec @ phi if j0 is None else np.asarray(j0, dtype=float).copy()
    tm = tilted_moments(ctx, k, j)
    if not (np.all(np.isfinite(tm.mean)) and np.all(np.isfinite(tm.cov))):
        raise RangeExceeded(
            f"tilted moments overflowed inverting the mean field at "
            f"phi={phi}, k={k}; the field lies outside the resolvable range"
        )
    res = tm.mean - phi
    res_norm = float(np.linalg.norm(res))
    for it in range(1, ctx.newton_max_iter + 1):
        if res_norm <= ctx.newton_tol:
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
            if new_norm < res_norm * (1.0 - 1e-4 * alpha) or new_norm <= ctx.newton_tol:
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
    if res_norm <= ctx.newton_tol:
        return MeanFieldSolve(j, res_norm, ctx.newton_max_iter)
    raise NewtonStalled(
        f"Newton did not reach tolerance {ctx.newton_tol:.1e}; residual "
        f"{res_norm:.3e} at phi={phi}, k={k}"
    )


def legendre_sweep(ctx: FunctionalContext, k: float, fields, j0=None):
    """Effective average action along a path of fields.

    Yields ``(gamma_k(phi), MeanFieldSolve)`` for each field in order; each
    mean-field inversion is warm-started from the previous field's source
    (the first from ``j0``).  gamma_k(phi) = J.phi - W_k(J) - F_k(phi, phi)/2
    at the inverting source J.
    """
    f_diag = ctx.reg_diag(k)
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
    return solve.source - ctx.reg_diag(k) * phi


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
    fdot = ctx.reg_dk_diag(k)
    if not np.any(fdot):
        return 0.0
    tm = tilted_moments(ctx, k)
    return -0.5 * float(fdot @ np.diag(tm.second_moment))


def x_functional(ctx: FunctionalContext, k: float, phi, t_vec) -> float:
    """Shifted-interaction moment-generating function X_{k,phi}(T)."""
    phi = np.atleast_1d(np.asarray(phi, dtype=float))
    tm = tilted_moments(ctx, k, np.asarray(t_vec, dtype=float), shift=phi)
    return float(np.exp(tm.log_value - log_normalization(ctx, k)))


def dirac_ratio(ctx: FunctionalContext, g, k: float) -> float:
    """E_nu[g exp(-F_k/2)] / E_nu[exp(-F_k/2)]; concentrates on g(0) as k grows."""
    _, _, _, chol_s, _ = ctx._k_objects(k)
    nodes, logw = gauss_hermite_nodes(ctx.gh_level, ctx.measure.dim)
    psi = nodes @ chol_s.T
    vals = np.asarray(g(psi), dtype=float)
    w = np.exp(logw)
    return float((w @ vals) / w.sum())
