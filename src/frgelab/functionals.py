"""Oracle-grade generating functionals and the effective average action.

Everything here is computed by Gauss-Hermite quadrature after a
shifted-Gaussian change of variables: the Gaussian content of the tilted
integrand (measure, quadratic regulator term, linear source) is absorbed
exactly, and the quadrature nodes are recentred on the tilted mean so
large sources do not cause cancellation.  These values serve as ground
truth for the flow integrator.

Neither exponential of the kernel is evaluated where its result underflows.
The log-sum-exp writes +0 for terms below -746, exactly what ``exp`` gives
there.  The normalised weights are +0 below ln 2^-1022, where a weight is
subnormal: under 2^-1022 of its lane's total, too small to move a moment's
last bit.  The benchmark's outputs keep the bits of the full exponentials.
"""

from __future__ import annotations

from collections import OrderedDict
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla

from . import measure
from .errors import NewtonStalled, RangeExceeded, SelfCheckFailed, SpecValidationError
from .measure import (
    GaussianMeasure,
    build_measure,
    default_level,
    gauss_hermite_nodes,
    r_nu,
)
from .model import ModelSpec
from .regulator import Regulator, regulator_diagonals

BUDGET = 1e-10  # stated oracle accuracy; scales the W self-check margin
NEWTON_TOL = 1e-10
NEWTON_MAX_ITER = 60
RECENTRE_PASSES = 8  # quadrature recentrings before a source counts as out of range
SCALE_CACHE_SIZE = 64  # scale records kept per context, least recently used dropped
# exp(x) is exactly +0 below -746 and subnormal below ln 2^-1022; numpy's exp
# is tens to a hundred times slower on such arguments than on normal ones
_EXP_ZERO_BELOW = -746.0
_EXP_NORMAL_FROM = -1022.0 * float(np.log(2.0))


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
        if not np.isfinite(key):
            raise SpecValidationError(f"the scale k must be finite, got {k}")
        f, f_dot = regulator_diagonals(
            self.regulator, k, self.spec.momenta, self.spec.momentum_weights)
        prec = self.measure.inv + np.diag(f)
        chol_p = sla.cholesky(prec, lower=True)
        sigma = sla.cho_solve((chol_p, True), np.eye(self.measure.dim))
        record = ScaleRecord(
            f=f,
            f_dot=f_dot,
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
    of the corresponding normalized tilted measure.

    For one source the fields are a float, an (M,) mean and an (M, M)
    second moment; for a batch of B sources each gains a leading axis B.
    """

    log_value: float | np.ndarray
    mean: np.ndarray
    second_moment: np.ndarray

    @property
    def cov(self) -> np.ndarray:
        return self.second_moment - self.mean[..., :, None] * self.mean[..., None, :]


@dataclass(frozen=True)
class MeanFieldSolve:
    """The inverting source, its residual, the Newton iterations and the
    tilted moments at that source (so W_k(J) needs no further kernel call).

    For a batch of fields ``source``, ``residual`` and ``moments`` carry a
    leading lane axis; ``iterations`` is the total over the lanes.
    """

    source: np.ndarray
    residual: float | np.ndarray
    iterations: int
    moments: TiltedMoments


def _lanes(ctx: FunctionalContext, x) -> tuple[np.ndarray, bool]:
    """``x`` as a (B, M) batch, and whether it was a single (M,) vector."""
    x = np.asarray(x, dtype=float)
    return x.reshape(-1, ctx.measure.dim), x.ndim < 2


def _first_lane(tm: TiltedMoments) -> TiltedMoments:
    """The moments of a batch's first lane, shaped as for a single source."""
    return TiltedMoments(float(tm.log_value[0]), tm.mean[0], tm.second_moment[0])


def _exp_above(x: np.ndarray, floor: float) -> np.ndarray:
    """exp(x) in place where x >= ``floor`` and +0 below it; returns ``x``.

    NaN stays NaN and -inf gives +0, as with ``np.exp``.  The arguments below
    the floor are never passed to ``exp``.
    """
    np.exp(x, out=x, where=x >= floor)
    return np.maximum(x, 0.0, out=x)


def _log_sum_exp(a: np.ndarray):
    """ln sum(exp(a)) along the last axis, with the arithmetic of
    ``scipy.special.logsumexp``.

    The terms equal to a row's largest are taken out of its sum and
    counted, so each row's value is bit for bit scipy's, without its
    per-call overhead.
    """
    top = a.max(axis=-1)
    finite = np.isfinite(top)
    if not finite.all():
        out = np.empty(top.shape)
        # an infinite or NaN term decides its row's sum: scipy's direct route
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            out[~finite] = np.log(np.exp(a[~finite]).sum(axis=-1))
        out[finite] = _log_sum_exp(a[finite])
        return out
    is_top = a == top[..., None]
    count = np.count_nonzero(is_top, axis=-1)
    # below the floor exp is +0 anyway, so the rows stay scipy's bits
    terms = _exp_above(a - top[..., None], _EXP_ZERO_BELOW)
    terms[is_top] = 0.0
    return np.log1p(terms.sum(axis=-1) / count) + np.log(count) + top


def tilted_moments(
    ctx: FunctionalContext, k: float, t_vec=None, shift=None
) -> TiltedMoments:
    """Tilted moments at the source ``t_vec``, of shape (M,) or a batch (B, M).

    Each lane's quadrature nodes are recentred on its tilted mean until the
    mean moves by at most 5 % of the narrowest width; a settled lane is
    frozen while the others go on.  ``shift`` is one (M,) vector or one per
    lane.  A batch whose rows (lanes times rule nodes) exceed
    ``measure.MAX_GH_NODES`` is evaluated in chunks of lanes.

    Raises :class:`RangeExceeded`, naming the first such source, if a mean
    has not settled after ``RECENTRE_PASSES`` recentrings: the source lies
    outside the range the rule resolves.
    """
    m = ctx.measure.dim
    t, single = _lanes(ctx, np.zeros(m) if t_vec is None else t_vec)
    if shift is not None:
        shift = np.broadcast_to(np.asarray(shift, dtype=float).reshape(-1, m), t.shape)
    width = max(1, measure.MAX_GH_NODES // ctx.gh_level**m)  # lanes per chunk
    parts = [
        _moments(ctx, k, t[i:i + width], None if shift is None else shift[i:i + width])
        for i in range(0, len(t), width)
    ]
    tm = parts[0] if len(parts) == 1 else TiltedMoments(
        np.concatenate([p.log_value for p in parts]),
        np.concatenate([p.mean for p in parts]),
        np.concatenate([p.second_moment for p in parts]),
    )
    return _first_lane(tm) if single else tm


@contextmanager
def _overflow_out_of_range(k):
    """Raise :class:`RangeExceeded` naming the scale k where the block's
    arithmetic overflows; it adds no work per lane."""
    try:
        with np.errstate(over="raise"):
            yield
    except FloatingPointError:
        raise RangeExceeded(
            f"arithmetic overflowed at the scale k={k}; the scale lies outside "
            f"the resolvable range"
        ) from None


def _moments(ctx, k, t, shift) -> TiltedMoments:
    """The tilted moments of a (B, M) batch of sources, all lanes at once."""
    record = ctx.scale(k)
    prec = record.prec
    with _overflow_out_of_range(k):
        mu = t @ record.sigma.T
        log_gauss = (0.5 * np.sum(t * mu, axis=-1)
                     + 0.5 * (record.logdet_s - ctx.measure.logdet))

    nodes, logw = gauss_hermite_nodes(ctx.gh_level, ctx.measure.dim)
    scaled = nodes @ record.chol_s.T
    scale = float(np.sqrt(np.diag(record.sigma).min()))
    log_value = np.empty(len(t))
    mean_out = np.empty_like(t)
    second_out = np.empty(t.shape + t.shape[-1:])
    centre = mu.copy()
    lanes = np.arange(len(t))  # the lanes still recentring
    for recentred in range(RECENTRE_PASSES):
        c = centre[lanes]
        psi = scaled + c[:, None, :]
        log_w = logw
        if recentred:
            # importance ratio N(psi; mu, Sigma) / N(psi; centre, Sigma), which
            # is exactly 1 while the nodes sit on mu
            m_c = mu[lanes]
            with _overflow_out_of_range(k):
                step = (m_c - c) @ prec.T
                # psi . step at every node.  With one mode it is one product:
                # the stacked matmul would make one BLAS call per lane, which
                # costs more than the arithmetic.  With more modes the matmul
                # is the faster route.
                if psi.shape[-1] == 1:
                    psi_step = psi[..., 0] * step
                else:
                    psi_step = (psi @ step[:, :, None])[..., 0]
                log_w = logw + (
                    psi_step
                    + 0.5 * np.sum((c @ prec) * c, axis=-1)[:, None]
                    - 0.5 * np.sum((m_c @ prec) * m_c, axis=-1)[:, None]
                )
        log_terms = log_w - ctx.spec.interaction_batch(
            psi if shift is None else psi + shift[lanes][:, None, :])
        log_i0 = _log_sum_exp(log_terms)
        # a weight below 2^-1022 of its lane's total is dropped: it is
        # subnormal, slow to compute and too small to move the moments
        log_terms -= log_i0[:, None]
        omega = _exp_above(log_terms, _EXP_NORMAL_FROM)
        mean = (omega[:, None, :] @ psi)[:, 0, :]
        settled = np.linalg.norm(mean - c, axis=-1) <= 0.05 * scale
        if settled.any():
            done = lanes[settled]
            log_value[done] = log_gauss[done] + log_i0[settled]
            mean_out[done] = mean[settled]
            psi_s = psi[settled]
            second_out[done] = (omega[settled][..., None] * psi_s).transpose(0, 2, 1) @ psi_s
        lanes = lanes[~settled]
        if lanes.size == 0:
            return TiltedMoments(log_value, mean_out, second_out)
        centre[lanes] = mean[~settled]
    raise RangeExceeded(
        f"tilted mean did not settle after {RECENTRE_PASSES} recentrings at "
        f"k={k}, source={t[lanes[0]]}; the source lies outside the resolvable range"
    )


def _zero_source(ctx: FunctionalContext, k: float) -> TiltedMoments:
    """Zero-source tilted moments of scale k, computed once per scale record."""
    record = ctx.scale(k)
    if record.moments is None:
        record.moments = tilted_moments(ctx, k)
    return record.moments


def log_normalization(ctx: FunctionalContext, k: float) -> float:
    """ln N_k = ln E_nu[exp(-S^int - F_k/2 psi.psi)]."""
    return _zero_source(ctx, k).log_value


def W(ctx: FunctionalContext, k: float, t_vec):
    """Log moment-generating function of the scale-k theory at one source
    (M,) or a batch (B, M); a float or (B,) values.

    Computed directly and, when self-checking is enabled, re-derived through
    the shifted-measure representation; the two routes must agree within
    ten times the accuracy budget.
    """
    t, single = _lanes(ctx, t_vec)
    w = _checked_w(ctx, k, t, tilted_moments(ctx, k, t))
    return float(w[0]) if single else w


def _checked_w(ctx, k, t, moments: TiltedMoments) -> np.ndarray:
    """W_k(T) = ln E[...] - ln N_k of a (B, M) batch from the tilted moments
    at T, each lane re-derived through the shifted form when the context
    self-checks."""
    ln_n = log_normalization(ctx, k)
    direct = moments.log_value - ln_n
    if ctx.self_check:
        shifted, scale = _w_shifted_form(ctx, k, t, ln_n)
        # the shifted route cancels terms of size ``scale``; allow for the
        # roundoff and quadrature error that cancellation amplifies
        tol = 10.0 * BUDGET * (1.0 + np.abs(direct)) + 1e-11 * scale**2
        bad = np.flatnonzero(np.abs(direct - shifted) > tol)
        if bad.size:
            i = bad[0]
            raise SelfCheckFailed(
                f"W self-check failed at k={k}, source={t[i]}: "
                f"direct={float(direct[i])!r} shifted={float(shifted[i])!r}"
            )
    return direct


def _w_shifted_form(ctx, k, t, ln_n):
    """W of a (B, M) batch via the shift identity: tilt each lane by its
    Cameron-Martin representative."""
    phi0 = r_nu(ctx.measure, t.T).T
    f_diag = ctx.scale(k).f
    with _overflow_out_of_range(k):
        inner = np.sum(t * phi0, axis=-1)
        quad = np.sum(phi0 * (f_diag * phi0), axis=-1)
        tm = tilted_moments(ctx, k, -(f_diag * phi0), shift=phi0)
        value = 0.5 * inner - 0.5 * quad + tm.log_value - ln_n
        scale = 1.0 + np.abs(inner) + np.abs(quad)
    return value, scale


def mean_field(ctx: FunctionalContext, k: float, t_vec) -> np.ndarray:
    """Derivative of W_k at the source: the tilted-measure mean."""
    return tilted_moments(ctx, k, t_vec).mean


def connected_cov(ctx: FunctionalContext, k: float, t_vec) -> np.ndarray:
    """Second derivative of W_k at the source: the tilted covariance."""
    return tilted_moments(ctx, k, t_vec).cov


def invert_mean_field(ctx: FunctionalContext, k: float, phi) -> MeanFieldSolve:
    """Solve mean_field(J) = phi for one field (M,) or a batch (B, M).

    Newton with a backtracking line search on the residual, run on every
    lane at once: each lane starts from J = (C^-1 + F_k) phi, keeps its own
    step length and is masked out once its residual is within
    ``NEWTON_TOL``.  Errors name the first field that fails.
    """
    phis, single = _lanes(ctx, phi)
    with _overflow_out_of_range(k):
        j = phis @ ctx.scale(k).prec.T
    tm = tilted_moments(ctx, k, j)
    finite = np.isfinite(tm.mean).all(axis=-1) & np.isfinite(tm.cov).all(axis=(-2, -1))
    if not finite.all():
        raise RangeExceeded(
            f"tilted moments overflowed inverting the mean field at "
            f"phi={phis[np.argmin(finite)]}, k={k}; the field lies outside "
            f"the resolvable range"
        )
    log_value, mean, second = tm.log_value, tm.mean, tm.second_moment
    res_norm = np.linalg.norm(mean - phis, axis=-1)
    # a source far beyond the cold start diverged; the cold start itself
    # grows like k^2 |phi|, and a bound past the float range is no bound
    with np.errstate(over="ignore"):
        far_bound = 1e8 * (1.0 + np.linalg.norm(j, axis=-1))
    iterations = 0
    for _ in range(NEWTON_MAX_ITER):
        lanes = np.flatnonzero(res_norm > NEWTON_TOL)
        if lanes.size == 0:
            break
        iterations += lanes.size
        step = _newton_step(k, phis, lanes, mean, second)
        alpha = np.ones(lanes.size)
        trying = np.arange(lanes.size)  # lanes (by position) still searching
        while trying.size:
            at = lanes[trying]
            j_try = j[at] + alpha[trying, None] * step[trying]
            far = np.linalg.norm(j_try, axis=-1) > far_bound[at]
            if far.any():
                raise RangeExceeded(
                    f"source magnitude diverged inverting the mean field at "
                    f"phi={phis[at[np.argmax(far)]]}, k={k}"
                )
            tm_try = tilted_moments(ctx, k, j_try)
            new_norm = np.linalg.norm(tm_try.mean - phis[at], axis=-1)
            ok = (new_norm < res_norm[at] * (1.0 - 1e-4 * alpha[trying])) | (
                new_norm <= NEWTON_TOL)
            took = at[ok]
            j[took] = j_try[ok]
            log_value[took] = tm_try.log_value[ok]
            mean[took] = tm_try.mean[ok]
            second[took] = tm_try.second_moment[ok]
            res_norm[took] = new_norm[ok]
            trying = trying[~ok]
            alpha[trying] *= 0.5
            stalled = alpha[trying] < 1e-6
            if stalled.any():
                i = lanes[trying[np.argmax(stalled)]]
                raise NewtonStalled(
                    f"line search stalled at residual {res_norm[i]:.3e} "
                    f"(phi={phis[i]}, k={k}); raise the quadrature budget"
                )
    unconverged = np.flatnonzero(res_norm > NEWTON_TOL)
    if unconverged.size:
        i = unconverged[0]
        raise NewtonStalled(
            f"Newton did not reach tolerance {NEWTON_TOL:.1e}; residual "
            f"{res_norm[i]:.3e} at phi={phis[i]}, k={k}"
        )
    tm = TiltedMoments(log_value, mean, second)
    if single:
        return MeanFieldSolve(j[0], float(res_norm[0]), iterations, _first_lane(tm))
    return MeanFieldSolve(j, res_norm, iterations, tm)


def _newton_step(k, phis, lanes, mean, second) -> np.ndarray:
    """Newton steps -cov^-1 (mean - phi) of the given lanes."""
    m = mean[lanes]
    cov = second[lanes] - m[:, :, None] * m[:, None, :]
    try:
        return np.linalg.solve(cov, (phis[lanes] - m)[:, :, None])[..., 0]
    except np.linalg.LinAlgError:
        singular = lanes[np.linalg.det(cov) == 0.0]
        raise RangeExceeded(
            f"tilted covariance degenerated inverting the mean field at "
            f"phi={phis[singular[0] if singular.size else lanes[0]]}, k={k}; "
            f"the field lies outside the resolvable range"
        ) from None


def legendre_transform(ctx: FunctionalContext, k: float, fields):
    """Effective average action at every field of a batch.

    ``fields`` is a sequence of B fields, each of shape (M,) (a float for
    M = 1); one (M,) field is a batch of one.  Returns ``(values, solve)``: the (B,) values
    gamma_k(phi) = J.phi - W_k(J) - F_k(phi, phi)/2 at the inverting sources
    J, and the one batched :class:`MeanFieldSolve` that found them.  W_k(J)
    comes from the inversion's own tilted moments, self-checked per lane.
    """
    phis, _ = _lanes(ctx, fields)
    solve = invert_mean_field(ctx, k, phis)
    w = _checked_w(ctx, k, solve.source, solve.moments)
    f_diag = ctx.scale(k).f
    values = (np.sum(solve.source * phis, axis=-1) - w
              - 0.5 * np.sum(phis * (f_diag * phis), axis=-1))
    return values, solve


def gamma(ctx: FunctionalContext, k: float, phi) -> float:
    """Effective average action: Legendre value minus the regulator term."""
    values, _ = legendre_transform(ctx, k, phi)
    return float(values[0])


def gamma_bar(ctx: FunctionalContext, k: float, phi) -> float:
    """Subtracted action: gamma(phi) - gamma(0), one transform of both fields."""
    phi = np.atleast_1d(np.asarray(phi, dtype=float))
    values, _ = legendre_transform(ctx, k, [phi, np.zeros_like(phi)])
    return float(values[0] - values[1])


def gamma_gradient(ctx: FunctionalContext, k: float, phi) -> np.ndarray:
    """D gamma at phi: the inverting source minus the regulator action."""
    phi = np.atleast_1d(np.asarray(phi, dtype=float))
    solve = invert_mean_field(ctx, k, phi)
    return solve.source - ctx.scale(k).f * phi


def gamma_hessian(ctx: FunctionalContext, k: float, phi) -> np.ndarray:
    """Richardson-extrapolated finite differences of the gamma gradient."""
    phi = np.atleast_1d(np.asarray(phi, dtype=float))
    m = phi.size
    h = 1e-4 * (1.0 + float(np.linalg.norm(phi)))
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
