"""Oracle-grade generating functionals and the effective average action.

Everything here is computed by Gauss-Hermite quadrature after a
shifted-Gaussian change of variables: the Gaussian content of the tilted
integrand (measure, quadratic regulator term, linear source) is absorbed
exactly, and what remains, exp(-S^int), is integrated against it.  These
values serve as ground truth for the flow integrator, and
``frge_first_form_check`` tests the exact flow identity on them alone.

The rule is adaptive (Naylor & Smith, Appl. Stat. 31, 1982; Liu & Pierce,
Biometrika 81, 1994): each lane places its nodes c + L x with its own
centre c and Cholesky factor L, weighted by the importance ratio of the
Gaussian part to N(c, L L^T), and re-places them on the tilted mean and
covariance it measured until both settle.  Callers that know where a
lane's tilted measure lies start the rule there: the mean-field Newton
solve on the field and its last tilted covariance (at its one-loop start,
the one-loop covariance), and ``W`` on the zero-source measure's linear
response.  What the oracle returns is certified on the same placement by
the next, finer rule of ``measure.ladder`` (see ``_certified``).  Each lane
reads the regularised Gaussian part of its own context, so one kernel call
serves several contexts that share an interaction: ``W`` takes every member
of a window sequence at once.

Neither exponential of the kernel is evaluated where its result underflows.
The log-sum-exp writes +0 for terms below -746, exactly what ``exp`` gives
there.  The normalised weights are +0 below ln 2^-1022, where a weight is
subnormal: under 2^-1022 of its lane's total, too small to move a moment's
last bit.  The benchmark's outputs keep the bits of the full exponentials.
"""

from __future__ import annotations

from collections import OrderedDict
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from functools import lru_cache

import numpy as np

from . import measure
from .errors import BudgetExceeded, NewtonStalled, RangeExceeded, SpecValidationError
from .measure import (
    GaussianMeasure,
    build_measure,
    gauss_hermite_nodes,
    ladder,
    spd_inverse,
    untilted_level,
)
from .model import ModelSpec, is_mirrored, unfold
from .regulator import Regulator, regulator_diagonals

BUDGET = 1e-10  # stated oracle accuracy of ln I, relative where |ln I| > 1
NEWTON_TOL = 1e-10
NEWTON_MAX_ITER = 60
RECENTRE_PASSES = 8  # rule placements before a source counts as out of range
SETTLED = 0.05  # a lane settles once mean and width move by at most this, in rule widths
WIDTH_FLOOR = 0.1  # smallest factor by which one pass narrows a rule
# rule nodes the kernel reads at once: the 16^3-node rule of three modes is
# one block, kept between calls; larger rules are read in blocks
RULE_BLOCK = 4096
SCALE_CACHE_SIZE = 64  # scale records kept per context, least recently used dropped
# exp(x) is exactly +0 below -746 and subnormal below ln 2^-1022; numpy's exp
# is tens to a hundred times slower on such arguments than on normal ones
_EXP_ZERO_BELOW = -746.0
_EXP_NORMAL_FROM = -1022.0 * float(np.log(2.0))
_EPS = float(np.finfo(float).eps)


@dataclass
class ScaleRecord:
    """The regularised Gaussian of one scale k.

    ``f`` and ``f_dot`` are the diagonals of F_k = R_k(p) w and d_k F_k,
    ``prec`` = C^-1 + F_k with Cholesky factor ``chol_p``, ``sigma`` its
    inverse with Cholesky factor ``chol_s`` and ``logdet_s`` = ln det sigma;
    ``gaussian`` holds them as the kernel's lanes read them.
    ``moments`` holds the zero-source tilted moments (ln N_k and its
    measure), as a batch of one lane, once first asked for, their ln N_k
    ``certified`` once a value that reads it is first asked for, and
    ``start`` what the Newton start reads of them once first inverted at.
    """

    f: np.ndarray
    f_dot: np.ndarray
    prec: np.ndarray
    chol_p: np.ndarray
    sigma: np.ndarray
    chol_s: np.ndarray
    logdet_s: float
    gaussian: _Gaussian
    moments: TiltedMoments | None = None
    certified: bool = False
    start: StartTerms | None = None


@dataclass(frozen=True)
class StartTerms:
    """What the one-loop Newton start reads of a scale's zero-source tilted
    covariance Z: ``z_inv`` = Z^-1, ``curvature`` = Z^-1 - D^2 S(0), so that
    G(phi)^-1 = curvature + D^2 S(phi), ``matching`` = Z^-1 - L0 with
    L0 = C^-1 + F_k + D^2 S(0) + D^4 S(0):Z / 2, and ``widest`` = the largest
    eigenvalue of Z.
    """

    z_inv: np.ndarray
    curvature: np.ndarray
    matching: np.ndarray
    widest: float


@dataclass
class FunctionalContext:
    """The oracle of one model and regulator; with ``self_check`` the values
    it returns are certified within ``BUDGET`` (``_certified``)."""

    spec: ModelSpec
    regulator: Regulator
    self_check: bool = True
    measure: GaussianMeasure = field(init=False)
    gh_level: int = field(init=False)
    _scales: OrderedDict = field(init=False, default_factory=OrderedDict, repr=False)

    def __post_init__(self):
        self.measure = build_measure(self.spec)
        self.gh_level = ladder(self.measure.dim)[0]

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
        chol_p, sigma, logdet_p = spd_inverse(prec, f"C^-1 + F_k at k = {key}")
        chol_s = np.linalg.cholesky(0.5 * (sigma + sigma.T))
        record = ScaleRecord(
            f=f, f_dot=f_dot, prec=prec, chol_p=chol_p, sigma=sigma, chol_s=chol_s,
            logdet_s=-logdet_p, gaussian=_Gaussian(
                self.spec, None, None, sigma, chol_p, chol_s, -logdet_p, self.measure.logdet))
        # every caller of this scale shares the arrays
        for a in (f, f_dot, prec, chol_p, sigma, chol_s):
            a.setflags(write=False)
        self._scales[key] = record
        if len(self._scales) > SCALE_CACHE_SIZE:
            self._scales.popitem(last=False)
        return record


@dataclass(frozen=True)
class TiltedMoments:
    """log E_nu[exp(T.psi - S^int(psi) - F_k/2 psi.psi)] with the mean and
    covariance of the corresponding normalized tilted measure.

    ``log_interaction`` is the interaction's share of ``log_value``,
    ln I = ln E[exp(-S^int(psi))] under the Gaussian part N(Sigma T, Sigma);
    the rest, T.Sigma T / 2 + ln sqrt(det Sigma / det C), is exact and grows
    like |T|^2 / k^2.  For one source the fields are floats, an (M,) mean
    and an (M, M) covariance; for a batch of B sources each gains a leading
    axis B.
    """

    log_value: float | np.ndarray
    log_interaction: float | np.ndarray
    mean: np.ndarray
    cov: np.ndarray

    @property
    def second_moment(self) -> np.ndarray:
        return self.cov + self.mean[..., :, None] * self.mean[..., None, :]


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


def _contexts(ctx) -> list[FunctionalContext]:
    """``ctx`` as a list: one context, or a sequence of contexts that share a
    mode count and an interaction; else SpecValidationError."""
    if isinstance(ctx, FunctionalContext):
        return [ctx]
    ctxs = list(ctx)
    for i, c in enumerate(ctxs[1:], start=1):
        if c.measure.dim != ctxs[0].measure.dim:
            raise SpecValidationError(
                f"member {i} has {c.measure.dim} mode(s), member 0 has "
                f"{ctxs[0].measure.dim}: the contexts must share the mode count")
        if c.spec.interaction_key != ctxs[0].spec.interaction_key:
            raise SpecValidationError(
                f"member {i} has another interaction than member 0: the contexts "
                f"must share it")
    return ctxs


def _member(ctxs: list, index) -> np.ndarray | None:
    """The lanes' ``member`` argument of the kernel: None for one context,
    whose lanes all read it, else each lane's index into ``ctxs``."""
    return None if len(ctxs) == 1 else np.asarray(index, dtype=np.intp)


def _naming(k, t, lane, ctxs, member) -> str:
    """The scale and a lane's source, and its member (index and window) when
    the lanes read several contexts."""
    where = f"k={k}, source={t[lane]}"
    if member is not None:
        i = int(member[lane])
        where += f", member {i} (window {ctxs[i].spec.window})"
    return where


def _lanes(ctx: FunctionalContext, x, one: bool = False) -> tuple[np.ndarray, bool]:
    """``x`` as a (B, M) batch, and whether it was one field or source: an
    (M,) vector, or a float at M = 1.  A batch is (B, M), or (B,) at M = 1,
    and ``one`` refuses it; any other shape raises SpecValidationError."""
    x = np.asarray(x, dtype=float)
    m = ctx.measure.dim
    single = x.shape == (m,) or (m == 1 and x.ndim == 0)
    batch = x.shape[1:] == (m,) or (m == 1 and x.ndim == 1)
    if not (single or batch and not one):
        what = "one field" if one else "a field, a source or a batch"
        raise SpecValidationError(f"an array of shape {x.shape} is not {what} of {m} mode(s)")
    return x.reshape(-1, m), single


def _first_lane(tm: TiltedMoments) -> TiltedMoments:
    """The moments of a batch's first lane, shaped as for a single source."""
    return TiltedMoments(float(tm.log_value[0]), float(tm.log_interaction[0]),
                         tm.mean[0], tm.cov[0])


def _lane(tm: TiltedMoments, i: int) -> TiltedMoments:
    """Lane i of a batch, as a batch of one."""
    return TiltedMoments(tm.log_value[i:i + 1], tm.log_interaction[i:i + 1],
                         tm.mean[i:i + 1], tm.cov[i:i + 1])


def _join(parts, m: int) -> TiltedMoments:
    """The lanes of a list of batches as one batch; no batch is the empty
    batch of M modes."""
    if len(parts) == 1:
        return parts[0]
    if not parts:
        return TiltedMoments(np.empty(0), np.empty(0), np.empty((0, m)), np.empty((0, m, m)))
    return TiltedMoments(*(np.concatenate([getattr(p, name) for p in parts])
                           for name in ("log_value", "log_interaction", "mean", "cov")))


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
    count = is_top.sum(axis=-1)
    # below the floor exp is +0 anyway, so the rows stay scipy's bits
    terms = _exp_above(a - top[..., None], _EXP_ZERO_BELOW)
    terms[is_top] = 0.0
    return np.log1p(terms.sum(axis=-1) / count) + np.log(count) + top


def tilted_moments(
    ctx, k: float, t_vec=None, level=None, start=None, member=None
) -> TiltedMoments:
    """Tilted moments at the source ``t_vec``, of shape (M,) or a batch (B, M).

    ``ctx`` is one context, whose regularised Gaussian part every lane reads,
    or a sequence of contexts that share a mode count and an interaction
    (else SpecValidationError); then ``member``, a (B,) array of indices
    into it, gives each lane's context, and each lane reads that context's
    Gaussian part.  A lane's bits do not depend on the other lanes of its
    batch.

    Each lane places its quadrature rule with its own centre c and
    Cholesky factor L, and re-places it on the tilted mean and covariance
    it measured until the mean moves by at most 5 % of the rule's width and
    the width by at most 5 %; a settled lane is frozen while the others go
    on.  ``start`` = (centre, cov) is where the caller expects each lane's
    tilted mean and covariance, one (M,) and (M, M) pair or one per lane;
    without it the first rule sits on the Gaussian part of the integrand.
    ``level`` is the rule's level per axis, by default the context's
    ``gh_level``.  A batch whose rows (lanes times rule nodes) exceed
    ``measure.MAX_GH_NODES`` is evaluated in chunks of lanes; an empty batch
    returns empty moments without evaluating anything.

    Raises :class:`RangeExceeded`, naming the first such source (and its
    member), if a mean or width has not settled after ``RECENTRE_PASSES``
    placements or if a rule is narrower than the rounding of its centre: the
    source lies outside the range the rule resolves.
    """
    ctxs = _contexts(ctx)
    if not ctxs or member is None and len(ctxs) != 1:
        raise SpecValidationError("the lanes need one context, or several and each lane's member")
    m = ctxs[0].measure.dim
    t, single = _lanes(ctxs[0], np.zeros(m) if t_vec is None else t_vec)
    if member is not None:
        member = np.asarray(member, dtype=np.intp)
        if member.shape != (len(t),):
            raise SpecValidationError(
                f"member has shape {member.shape}, the batch needs ({len(t)},)")
    level = ctxs[0].gh_level if level is None else level
    if start is not None:
        start = (np.broadcast_to(np.asarray(start[0], dtype=float).reshape(-1, m), t.shape),
                 np.broadcast_to(np.asarray(start[1], dtype=float).reshape(-1, m, m),
                                 t.shape + (m,)))
    gaussian = _Gaussian.of(ctxs, k, member)
    width = max(1, measure.MAX_GH_NODES // level**m)  # lanes per chunk
    parts = []
    for i in range(0, len(t), width):
        chunk = slice(i, i + width)
        parts.append(_moments(
            gaussian.take(chunk), k, t[chunk], level,
            None if start is None else (start[0][chunk], start[1][chunk])))
    tm = _join(parts, m)
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


@dataclass(frozen=True)
class _Rule:
    """A block of a tensor Gauss-Hermite rule for N(0, I_M) as the kernel
    reads it.

    One array holds, one column per node x, the rows [1, x, x_i x_j
    (i <= j), ln w]; a lane's quantities at every node are one product of a
    small per-lane matrix with a block of them: ``place`` = [1, x] gives
    psi = c + L x, ``ratio`` = [x, x_i x_j, ln w] a quadratic in x plus the
    log-weight, and ``moments``, [x, x_i x_j] transposed, the moments.
    """

    place: np.ndarray
    ratio: np.ndarray
    moments: np.ndarray

    @classmethod
    def of(cls, nodes: np.ndarray, logw: np.ndarray) -> _Rule:
        dim = nodes.shape[-1]
        first, second = np.triu_indices(dim)
        rows = np.vstack([np.ones(len(nodes)), nodes.T,
                          nodes.T[first] * nodes.T[second], logw])
        rows.setflags(write=False)
        return cls(place=rows[:1 + dim], ratio=rows[1:], moments=rows[1:-1].T)


@lru_cache(maxsize=8)
def _pairs(dim: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The products x_i x_j (i <= j) of a rule's pair rows: their flat
    (M, M) indices, 1/2 on the squares and 1 elsewhere (x.Q x / 2 over the
    pairs), and the (M, M) map of (i, j) to the pair's column."""
    first, second = np.triu_indices(dim)
    column = np.empty((dim, dim), dtype=np.intp)
    column[first, second] = column[second, first] = np.arange(len(first))
    layout = (first * dim + second, np.where(first == second, 0.5, 1.0), column)
    for a in layout:
        a.setflags(write=False)
    return layout


@lru_cache(maxsize=8)
def _small_rule(level: int, dim: int) -> tuple[tuple[slice, _Rule]]:
    """A rule of at most ``RULE_BLOCK`` nodes as one block."""
    nodes, logw = gauss_hermite_nodes(level, dim)
    return ((slice(0, len(nodes)), _Rule.of(nodes, logw)),)


def _rule_blocks(level: int, dim: int):
    """The blocks of the level-``level`` tensor rule in ``dim`` dimensions,
    each with the slice of the nodes it holds.

    A rule of at most ``RULE_BLOCK`` nodes is one block, kept between calls;
    a larger one is built block by block as it is read, so its
    dim (dim + 3) / 2 + 2 rows never stand in memory whole.
    """
    nodes, logw = gauss_hermite_nodes(level, dim)  # refused above the node cap
    if len(nodes) <= RULE_BLOCK:
        return _small_rule(level, dim)
    return ((slice(i, i + RULE_BLOCK), _Rule.of(nodes[i:i + RULE_BLOCK], logw[i:i + RULE_BLOCK]))
            for i in range(0, len(nodes), RULE_BLOCK))


def _cholesky(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Lower Cholesky factors of a (B, M, M) batch of symmetric matrices and
    which lanes have one.

    A lane whose matrix is not positive definite, or not finite, is marked
    false; no error or warning is raised.
    """
    try:
        factor = np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        factor = np.full_like(a, np.nan)
        for i, lane in enumerate(a):
            try:
                factor[i] = np.linalg.cholesky(lane)
            except np.linalg.LinAlgError:
                pass
    return factor, np.isfinite(factor).all(axis=(-2, -1))


@dataclass(frozen=True)
class _Gaussian:
    """What the kernel's lanes read of their contexts at scale k.

    ``spec`` gives the interaction, which the contexts share.  The
    regularised Gaussian part N(Sigma T, Sigma), Sigma^-1 = C^-1 + F_k, is
    held as ``sigma``, the Cholesky factors ``root`` of Sigma^-1 and
    ``chol_s`` of Sigma, ``logdet_s`` = ln det Sigma and ``logdet_c`` =
    ln det C.  One context's part, kept in its scale record with ``ctxs``
    and ``member`` None, is its record's (M, M) matrices and floats, shared
    by every lane; lanes of several contexts hold one entry per lane, along
    a leading axis, their context's, which ``member`` indexes in ``ctxs``.
    """

    spec: ModelSpec
    ctxs: list | None
    member: np.ndarray | None
    sigma: np.ndarray
    root: np.ndarray
    chol_s: np.ndarray
    logdet_s: float | np.ndarray
    logdet_c: float | np.ndarray

    @classmethod
    def of(cls, ctxs: list, k: float, member) -> _Gaussian:
        """The parts of lanes of one context (``member`` None) or of the
        contexts ``member`` indexes in ``ctxs``."""
        if member is None:
            return ctxs[0].scale(k).gaussian
        parts = zip(*(c.scale(k).gaussian.parts() for c in ctxs))
        return cls(ctxs[0].spec, ctxs, member, *(np.stack(part)[member] for part in parts))

    def parts(self) -> tuple:
        return self.sigma, self.root, self.chol_s, self.logdet_s, self.logdet_c

    def take(self, lanes) -> _Gaussian:
        """The parts of the lanes ``lanes``; one context's are every lane's."""
        if self.member is None:
            return self
        return _Gaussian(self.spec, self.ctxs, self.member[lanes],
                         *(a[lanes] for a in self.parts()))

    def product(self, x: np.ndarray, mats: np.ndarray) -> np.ndarray:
        """x_l @ mats_l for each row of a (B, M) batch: one matrix product
        with one context's shared matrix."""
        return x @ mats if self.member is None else (x[:, None, :] @ mats)[:, 0, :]


def _moments(gaussian: _Gaussian, k, t, level, start) -> TiltedMoments:
    """The tilted moments of a (B, M) batch of sources, all lanes at once,
    each lane on its Gaussian part."""
    with _overflow_out_of_range(k):
        m = t.shape[-1]
        eye = np.eye(m)
        pairs, pair_scale, pair_of = _pairs(m)
        # a measured mean farther than half the outermost node from the
        # centre lies beyond what the rule resolves
        reach = 0.5 * float(gauss_hermite_nodes(level, m)[0][-1, 0])
        mu = gaussian.product(t, gaussian.sigma.mT)
        log_gauss = 0.5 * ((t * mu).sum(axis=-1) + gaussian.logdet_s - gaussian.logdet_c)
        if start is None:
            centre = mu.copy()
            factor = np.broadcast_to(gaussian.chol_s, t.shape + (m,)).copy()
        else:
            # a start covariance without a factor gives way to the Gaussian part's
            centre = np.array(start[0])
            factor, ok = _cholesky(start[1])
            factor[~ok] = gaussian.take(~ok).chol_s

        log_i0_out = np.empty(len(t))
        mean_out = np.empty_like(t)
        cov_out = np.empty(t.shape + (m,))
        lanes = np.arange(len(t))  # the lanes not yet settled
        for _ in range(RECENTRE_PASSES):
            c, chol, mu_c = centre[lanes], factor[lanes], mu[lanes]
            part = gaussian.take(lanes)
            root = part.root
            diag = chol.diagonal(axis1=1, axis2=2)
            # nodes c + L x are distinct only while L exceeds the rounding of c
            blurred = _EPS * np.abs(c) >= diag
            if blurred.any():
                lane = int(lanes[blurred.any(axis=-1).argmax()])
                raise RangeExceeded(
                    f"the quadrature rule is narrower than the rounding of its centre "
                    f"at {_naming(k, t, lane, gaussian.ctxs, gaussian.member)}; the source "
                    f"lies outside the resolvable range")
            # ln N(psi; mu, Sigma) - ln N(psi; c, L L^T) at psi = c + L x is
            # x.Q x / 2 - (A^T a).x - |a|^2 / 2 + ln det L + ln det R, with
            # A = R^T L, a = R^T (c - mu), Q = I - A^T A and R R^T = Sigma^-1.
            # The constant, which can be large, is added after the sum over the
            # nodes, so its rounding does not reach the weights.
            a_mat = root.mT @ chol
            a_vec = gaussian.product(c - mu_c, root)
            coef = np.empty((len(lanes), len(pair_scale) + m + 1))
            coef[:, :m] = -(a_vec[:, None, :] @ a_mat)[:, 0, :]
            coef[:, m:-1] = (eye - a_mat.mT @ a_mat).reshape(-1, m * m)[:, pairs]
            coef[:, m:-1] *= pair_scale
            coef[:, -1] = 1.0
            placing = np.concatenate([c[:, :, None], chol], axis=2)
            blocks = []
            for _, rule in _rule_blocks(level, m):
                block_terms = (coef[:, None, :] @ rule.ratio)[:, 0, :]
                block_terms -= gaussian.spec.interaction_batch((placing @ rule.place).mT)
                blocks.append(block_terms)
            log_terms = blocks[0] if len(blocks) == 1 else np.concatenate(blocks, axis=1)
            log_i0 = _log_sum_exp(log_terms)
            # a weight below 2^-1022 of its lane's total is dropped: it is
            # subnormal, slow to compute and too small to move the moments
            log_terms -= log_i0[:, None]
            omega = _exp_above(log_terms, _EXP_NORMAL_FROM)
            # mean and covariance in the rule's own coordinates x = L^-1 (psi - c)
            moments = None
            for block, rule in _rule_blocks(level, m):
                block_moments = (omega[:, None, block] @ rule.moments)[:, 0, :]
                moments = block_moments if moments is None else moments + block_moments
            mx = moments[:, :m]
            cov_x = moments[:, m:][:, pair_of] - mx[:, :, None] * mx[:, None, :]
            mean = c + (chol @ mx[:, :, None])[..., 0]
            # settled: the mean moved by at most SETTLED of the rule's width, and
            # the covariance is the rule's own to 2 SETTLED, its widths to SETTLED
            moved = (mx * mx).sum(axis=-1)
            settled = ((moved <= SETTLED**2)
                       & (np.abs(cov_x - eye).max(axis=(1, 2)) <= 2 * SETTLED))
            if settled.any():
                done = lanes[settled]
                constant = (np.log(diag).sum(axis=-1)
                            - 0.5 * (part.logdet_s + (a_vec * a_vec).sum(axis=-1)))
                log_i0_out[done] = (log_i0 + constant)[settled]
                mean_out[done] = mean[settled]
                cov_out[done] = (chol @ cov_x @ chol.mT)[settled]
            going = ~settled
            lanes = lanes[going]
            if lanes.size == 0:
                return TiltedMoments(log_gauss + log_i0_out, log_i0_out, mean_out, cov_out)
            # the next rule's width; a measure narrower than the rule's node
            # spacing is seen by few nodes and looks narrower still, so the rule
            # shrinks by at most 1/WIDTH_FLOOR per pass.  A measure beyond the
            # rule's reach piles the weights onto its edge nodes, where they
            # measure no width: the rule moves towards it and widens by the
            # distance it moved, in its own widths, to reach further
            moved, chol = moved[going], chol[going]
            step, ok = _cholesky(cov_x[going] + WIDTH_FLOOR**2 * eye)
            reached = (ok & (moved <= reach**2))[:, None, None]
            centre[lanes] = mean[going]
            factor[lanes] = np.where(reached, chol @ step,
                                     chol * np.sqrt(np.maximum(moved, 1.0))[:, None, None])
        raise RangeExceeded(
            f"tilted measure did not settle after {RECENTRE_PASSES} placements at "
            f"{_naming(k, t, lanes[0], gaussian.ctxs, gaussian.member)}; the source "
            f"lies outside the resolvable range")


def _kernel(ctxs: list, member, k, t, level=None, start=None) -> TiltedMoments:
    """``tilted_moments`` of lanes of one context (``member`` None) or of
    the contexts ``member`` indexes in ``ctxs``."""
    if member is None:
        return tilted_moments(ctxs[0], k, t, level, start)
    return tilted_moments(ctxs, k, t, level, start, member=member)


def _zero_sources(ctxs: list, k: float, certify: bool = False) -> list[TiltedMoments]:
    """Each context's zero-source tilted moments of scale k, computed once
    per scale record: one kernel call for the records that lack them.

    With ``certify`` their ln N_k (and ln I(0)) is certified as well, once
    per record and in one certificate for the records not yet certified,
    where the context self-checks: only the values built on ln N_k ask for
    it.  The mean and covariance are the kernel's either way, so what reads
    only those, the Newton start and d_k ln N_k, runs where no certificate
    can be had.
    """
    records = [c.scale(k) for c in ctxs]
    zero = np.zeros((len(ctxs), ctxs[0].measure.dim))
    lacking = [i for i, r in enumerate(records) if r.moments is None]
    if lacking:
        tm = _kernel(ctxs, _member(ctxs, lacking), k, zero[lacking])
        for lane, i in enumerate(lacking):
            records[i].moments = _lane(tm, lane)
    pending = [i for i, r in enumerate(records) if certify and not r.certified]
    if pending:
        tm = _certified(ctxs, k, zero[pending],
                        _join([records[i].moments for i in pending], zero.shape[1]),
                        _member(ctxs, pending))
        for lane, i in enumerate(pending):
            records[i].moments = _lane(tm, lane)
            records[i].certified = True
    return [_first_lane(r.moments) for r in records]


def _zero_source(ctx: FunctionalContext, k: float, certify: bool = False) -> TiltedMoments:
    """One context's zero-source tilted moments of scale k (``_zero_sources``)."""
    return _zero_sources([ctx], k, certify)[0]


def _start_terms(ctx: FunctionalContext, k: float) -> StartTerms:
    """The one-loop start's terms of scale k, computed once per scale record."""
    record = ctx.scale(k)
    if record.start is None:
        z = _zero_source(ctx, k).cov
        h, _ = ctx.spec._position_map
        jet, _ = ctx.spec.interaction_jet(np.zeros(ctx.measure.dim), [2, 4])
        d2, d4 = jet.T
        with _overflow_out_of_range(k):
            z_inv = np.linalg.inv(z)
            z_inv = 0.5 * (z_inv + z_inv.T)
            hessian = (h * d2) @ h.T
            slope = record.prec + hessian + 0.5 * (h * (d4 * _spread(h, z))) @ h.T
            record.start = StartTerms(z_inv, z_inv - hessian, z_inv - slope,
                                      float(np.linalg.eigvalsh(z)[-1]))
    return record.start


def _spread(h: np.ndarray, cov: np.ndarray) -> np.ndarray:
    """h_l . cov h_l for each column h_l of the position map: the variance of
    each position value under ``cov``, (M, M) or a batch (B, M, M)."""
    return ((h.T @ cov) * h.T).sum(axis=-1)


def _definite_inverse(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The inverse and smallest eigenvalue of each matrix of a symmetric
    (B, M, M) batch, and which matrices are finite and positive definite,
    from one eigendecomposition; a matrix that is not has the identity's."""
    finite = np.isfinite(a).all(axis=(1, 2))
    lam, vec = np.linalg.eigh(np.where(finite[:, None, None], a, 0.0))
    ok = finite & (lam[:, 0] > 0.0)
    lam = np.where(ok[:, None], lam, 1.0)
    return (vec / lam[:, None, :]) @ vec.mT, lam[:, 0], ok


def _one_loop_start(ctx: FunctionalContext, k: float, phis: np.ndarray):
    """Each lane's Newton start: its source J0 and the covariance G on which
    its first rule sits, for a (B, M) batch of fields.

    With G(phi) = (Z^-1 + D^2 S(phi) - D^2 S(0))^-1, Z the scale's
    zero-source tilted covariance, J0 is the one-loop source
    (C^-1 + F_k) phi + D S(phi) + D^3 S(phi):G / 2 (Jackiw 1974) plus
    (Z^-1 - L0) G Z^-1 phi, which makes J0 = Z^-1 phi + O(phi^2) near 0 (L0
    is the first terms' slope there) and fades where D^2 S grows.  A lane
    whose G^-1 is not positive definite starts from the Gaussian source
    (C^-1 + F_k) phi on Z.

    Raises :class:`RangeExceeded`, naming the first such field, where the
    rounding of S^int, eps sum_l w_l |c_n v_l^n| times the tilted width
    sqrt(lambda_max(G)), exceeds ``NEWTON_TOL``: no source there has a mean
    the kernel resolves to the tolerance.
    """
    record, terms = ctx.scale(k), _start_terms(ctx, k)
    h, _ = ctx.spec._position_map
    with _overflow_out_of_range(k):
        jet, size = ctx.spec.interaction_jet(phis, [1, 2, 3])
        d1, d2, d3 = jet[..., 0], jet[..., 1], jet[..., 2]
        g, smallest, ok = _definite_inverse(terms.curvature + (h * d2[:, None, :]) @ h.T)
        cov = np.where(ok[:, None, None], g, _zero_source(ctx, k).cov)
        j = phis @ record.prec.T
        one_loop = (d1 @ h.T + 0.5 * (d3 * _spread(h, cov)) @ h.T
                    + (cov @ (phis @ terms.z_inv)[:, :, None])[..., 0] @ terms.matching.T)
        j = np.where(ok[:, None], j + one_loop, j)
        floor = _EPS * size * np.sqrt(np.where(ok, 1.0 / smallest, terms.widest))
    beyond = floor > NEWTON_TOL
    if beyond.any():
        i = int(np.argmax(beyond))
        raise RangeExceeded(
            f"the interaction's rounding at phi={phis[i]}, k={k} moves the tilted "
            f"mean by {floor[i]:.1e}, more than the Newton tolerance "
            f"{NEWTON_TOL:.0e}; the field lies outside the resolvable range")
    return j, cov


def log_normalization(ctx: FunctionalContext, k: float) -> float:
    """ln N_k = ln E_nu[exp(-S^int - F_k/2 psi.psi)]."""
    return _zero_source(ctx, k, certify=True).log_value


def W(ctx, k: float, t_vec):
    """Log moment-generating function of the scale-k theory at one source
    (M,) or a batch (B, M); a float or (B,) values.

    W_k(T) = ln E[...] - ln N_k, each lane's value certified when its
    context self-checks.  Each lane's rule starts where the zero-source
    measure's linear response puts the tilted measure: at its mean moved by
    its covariance times the source, as wide as it.

    ``ctx`` may also be a sequence of G contexts that share a mode count
    and an interaction (else SpecValidationError): then W is one row per
    context, (G,) for one source and (G, B) for a batch, each row the bits
    of that context's own W at one mode.  The zero-source moments the
    contexts' scale records lack take one kernel call, and every (context,
    source) lane one more; an error of a lane names its member, by index
    and window.  An empty batch, or no context, evaluates nothing: with no
    context a 2-D ``t_vec`` is read as a batch and anything else as one
    source.
    """
    ctxs = _contexts(ctx)
    one = isinstance(ctx, FunctionalContext)
    if not ctxs:
        t = np.asarray(t_vec, dtype=float)
        return np.empty((0, len(t)) if t.ndim == 2 else 0)
    t, single = _lanes(ctxs[0], t_vec)
    if len(t) == 0:
        w = np.empty((len(ctxs), 0))
    else:
        zeros = _zero_sources(ctxs, k, certify=True)
        with _overflow_out_of_range(k):
            centre = np.concatenate([z.mean + t @ z.cov for z in zeros])
        cov = np.repeat(np.stack([z.cov for z in zeros]), len(t), axis=0)
        sources = np.tile(t, (len(ctxs), 1))
        member = _member(ctxs, np.repeat(np.arange(len(ctxs)), len(t)))
        moments = _certified(ctxs, k, sources,
                             _kernel(ctxs, member, k, sources, start=(centre, cov)), member)
        w = (moments.log_value.reshape(len(ctxs), len(t))
             - np.array([z.log_value for z in zeros])[:, None])
    if single:
        w = w[:, 0]
    if not one:
        return w
    return float(w[0]) if single else w[0]


def _certified(ctxs: list, k, t, moments: TiltedMoments, member=None) -> TiltedMoments:
    """``moments`` of a (B, M) batch of sources with the ln I of each lane
    whose context self-checks certified; ``member`` as for ``_kernel``.

    Each lane's ln I is taken again on the next rule of ``measure.ladder``,
    placed on the lane's mean and covariance, which stay; the finer value is
    kept, and a lane whose two values differ by more than ``BUDGET``
    (1 + |ln I|) climbs on.  The relative part spares a large ln I its own
    rounding.  Raises :class:`BudgetExceeded` naming k and the first source
    (and its member) still over at the top, or whose next rule exceeds
    ``MAX_GH_NODES``.
    """
    if member is None:
        lanes = np.arange(len(t) if ctxs[0].self_check else 0)
    else:
        lanes = np.flatnonzero(np.array([c.self_check for c in ctxs])[member])
    if lanes.size == 0:
        return moments
    log_value, log_i = moments.log_value.copy(), moments.log_interaction.copy()
    for level in ladder(ctxs[0].measure.dim)[1:]:
        lane_member = None if member is None else member[lanes]
        try:
            fine = _kernel(ctxs, lane_member, k, t[lanes], level,
                           start=(moments.mean[lanes], moments.cov[lanes]))
        except BudgetExceeded as exc:
            raise BudgetExceeded(
                f"{exc}, at {_naming(k, t, lanes[0], ctxs, member)}") from None
        # a NaN estimate certifies nothing
        over = ~(np.abs(fine.log_interaction - log_i[lanes])
                 <= BUDGET * (1.0 + np.abs(fine.log_interaction)))
        log_value[lanes], log_i[lanes] = fine.log_value, fine.log_interaction
        lanes = lanes[over]
        if lanes.size == 0:
            return TiltedMoments(log_value, log_i, moments.mean, moments.cov)
    raise BudgetExceeded(
        f"the level-{level} rule moved ln I by more than the budget {BUDGET:.0e} "
        f"at {_naming(k, t, lanes[0], ctxs, member)}: no rule on the ladder certifies it")


def mean_field(ctx: FunctionalContext, k: float, t_vec) -> np.ndarray:
    """Derivative of W_k at the source: the tilted-measure mean."""
    return tilted_moments(ctx, k, t_vec).mean


def connected_cov(ctx: FunctionalContext, k: float, t_vec) -> np.ndarray:
    """Second derivative of W_k at the source: the tilted covariance."""
    return tilted_moments(ctx, k, t_vec).cov


def invert_mean_field(ctx: FunctionalContext, k: float, phi) -> MeanFieldSolve:
    """Solve mean_field(J) = phi for one field (M,) or a batch (B, M).

    Newton with a backtracking line search on the residual, run on every
    lane at once: each lane starts from the one-loop source of
    :func:`_one_loop_start`, keeps its own step length and is masked out once
    its residual is within ``NEWTON_TOL``.  Every kernel call places a
    lane's rule on its field, as wide as the lane's tilted measure last was
    (at the start, the one-loop covariance G).  Errors name the first field
    that fails, except the kernel's refusals, which name its source.
    """
    phis, single = _lanes(ctx, phi)
    if not len(phis):
        return MeanFieldSolve(np.empty(phis.shape), np.empty(0), 0, _join([], phis.shape[1]))
    j, start_cov = _one_loop_start(ctx, k, phis)
    tm = tilted_moments(ctx, k, j, start=(phis, start_cov))
    finite = np.isfinite(tm.mean).all(axis=-1) & np.isfinite(tm.cov).all(axis=(-2, -1))
    if not finite.all():
        raise RangeExceeded(
            f"tilted moments overflowed inverting the mean field at "
            f"phi={phis[np.argmin(finite)]}, k={k}; the field lies outside "
            f"the resolvable range"
        )
    log_value, log_i0, mean, cov = tm.log_value, tm.log_interaction, tm.mean, tm.cov
    res_norm = np.linalg.norm(mean - phis, axis=-1)
    # a source far beyond the start diverged; the start itself grows like
    # k^2 |phi| and like S'(phi), and a bound past the float range is no bound
    with np.errstate(over="ignore"):
        far_bound = 1e8 * (1.0 + np.linalg.norm(j, axis=-1))
    iterations = 0
    for _ in range(NEWTON_MAX_ITER):
        lanes = np.flatnonzero(res_norm > NEWTON_TOL)
        if lanes.size == 0:
            break
        iterations += lanes.size
        step = _newton_step(k, phis, lanes, mean, cov)
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
            tm_try = tilted_moments(ctx, k, j_try, start=(phis[at], cov[at]))
            new_norm = np.linalg.norm(tm_try.mean - phis[at], axis=-1)
            ok = (new_norm < res_norm[at] * (1.0 - 1e-4 * alpha[trying])) | (
                new_norm <= NEWTON_TOL)
            took = at[ok]
            j[took] = j_try[ok]
            log_value[took] = tm_try.log_value[ok]
            log_i0[took] = tm_try.log_interaction[ok]
            mean[took] = tm_try.mean[ok]
            cov[took] = tm_try.cov[ok]
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
    tm = TiltedMoments(log_value, log_i0, mean, cov)
    if single:
        return MeanFieldSolve(j[0], float(res_norm[0]), iterations, _first_lane(tm))
    return MeanFieldSolve(j, res_norm, iterations, tm)


def _newton_step(k, phis, lanes, mean, cov) -> np.ndarray:
    """Newton steps -cov^-1 (mean - phi) of the given lanes."""
    cov = cov[lanes]
    try:
        return np.linalg.solve(cov, (phis[lanes] - mean[lanes])[:, :, None])[..., 0]
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
    M = 1); one (M,) field is a batch of one.  Returns ``(values, solve)``:
    the (B,) values gamma_k(phi) = J.phi - W_k(J) - F_k(phi, phi)/2 at the
    inverting sources J, and the one batched :class:`MeanFieldSolve` that
    found them, its moments certified when the context self-checks.

    With mu = Sigma J the value is formed as phi.C^-1 phi / 2 - (phi - mu).
    (C^-1 + F_k)(phi - mu) / 2 - ln I(J) + ln I(0), ln I being the tilted
    moments' ``log_interaction``: the terms of size k^2 |phi|^2 that J.phi,
    W_k(J) and F_k(phi, phi) cancel are never formed.  ln I(J) comes from the
    inversion's own tilted moments: its Newton iterates are not certified,
    only the moments at its final sources.
    """
    phis, _ = _lanes(ctx, fields)
    solve = invert_mean_field(ctx, k, phis)
    if not len(phis):
        return np.empty(0), solve
    solve = replace(solve, moments=_certified([ctx], k, solve.source, solve.moments))
    record = ctx.scale(k)
    with _overflow_out_of_range(k):
        gap = phis - solve.source @ record.sigma.T
        values = (0.5 * np.sum(phis * (phis @ ctx.measure.inv.T), axis=-1)
                  - 0.5 * np.sum(gap * (gap @ record.prec.T), axis=-1)
                  - solve.moments.log_interaction
                  + _zero_source(ctx, k, certify=True).log_interaction)
    return values, solve


def gamma(ctx: FunctionalContext, k: float, phi) -> float:
    """Effective average action: Legendre value minus the regulator term."""
    values, _ = legendre_transform(ctx, k, _lanes(ctx, phi, one=True)[0])
    return float(values[0])


def gamma_bar(ctx: FunctionalContext, k: float, phi) -> float:
    """Subtracted action: gamma(phi) - gamma(0), one transform of both fields."""
    phis, _ = _lanes(ctx, phi, one=True)
    values, _ = legendre_transform(ctx, k, np.vstack([phis, np.zeros_like(phis)]))
    return float(values[0] - values[1])


def grid_transform(ctx: FunctionalContext, k: float, grid):
    """One Legendre transform of a single-mode field grid and of the field 0.

    Returns (gamma, gamma_bar, source, residual, iterations): gamma_k,
    gamma_k - gamma_k(0), the inverting source J and its Newton residual at
    each node, and the Newton lane-iterations of the lanes solved.  An even
    theory (c3 = 0) on an odd mirror-symmetric grid transforms the nodes
    phi >= 0, the first the field 0, and mirrors them: J as an odd function,
    the rest as even ones, exactly.  Any other grid transforms its nodes and,
    in one extra lane, the field 0.
    """
    grid = np.asarray(grid, dtype=float)
    if ctx.spec.c3 == 0 and is_mirrored(grid):
        values, solve = legendre_transform(ctx, k, grid[grid.size // 2:])
        return (unfold(values), unfold(values - values[0]),
                unfold(solve.source[:, 0], odd=True), unfold(solve.residual),
                solve.iterations)
    values, solve = legendre_transform(ctx, k, np.append(grid, 0.0))
    return (values[:-1], values[:-1] - values[-1], solve.source[:-1, 0],
            solve.residual[:-1], solve.iterations)


def exact_grid_values(ctx: FunctionalContext, k: float, grid) -> np.ndarray:
    """Subtracted-action oracle values on the grid: grid_transform's gamma_bar."""
    return grid_transform(ctx, k, grid)[1]


def gamma_gradient(ctx: FunctionalContext, k: float, phi) -> np.ndarray:
    """D gamma at phi: the inverting source minus the regulator action."""
    phis, _ = _lanes(ctx, phi, one=True)
    solve = invert_mean_field(ctx, k, phis)
    return (solve.source - ctx.scale(k).f * phis)[0]


def gamma_hessian(ctx: FunctionalContext, k: float, phi) -> np.ndarray:
    """D^2 gamma at phi from the Legendre duality D^2 gamma + F_k = W''(J)^-1.

    W''(J) is the tilted covariance at the inverting source J, which the
    Newton solve returns: one solve, no differencing step.
    """
    phis, _ = _lanes(ctx, phi, one=True)
    solve = invert_mean_field(ctx, k, phis)
    out = np.linalg.inv(solve.moments.cov[0]) - np.diag(ctx.scale(k).f)
    return 0.5 * (out + out.T)


def dk_log_normalization(ctx: FunctionalContext, k: float) -> float:
    """d_k ln N_k = -1/2 tr[dF_k . second moment of the k-tilted measure]."""
    fdot = ctx.scale(k).f_dot
    if not np.any(fdot):
        return 0.0
    return -0.5 * float(fdot @ np.diag(_zero_source(ctx, k).second_moment))


def dirac_ratio(ctx: FunctionalContext, g, k: float) -> float:
    """E_nu[g exp(-F_k/2)] / E_nu[exp(-F_k/2)]; concentrates on g(0) as k grows.

    The rule sits on the regularised Gaussian's own, untilted width.
    """
    m = ctx.measure.dim
    nodes, logw = gauss_hermite_nodes(untilted_level(m), m)
    psi = nodes @ ctx.scale(k).chol_s.T
    vals = np.asarray(g(psi), dtype=float)
    w = np.exp(logw)
    return float((w @ vals) / w.sum())


# -- first-form consistency check --------------------------------------


FIRST_FORM_DK_STEP = 1e-3  # k-step of the Richardson difference of gamma


def frge_first_form_check(ctx: FunctionalContext, k: float, probes) -> list[dict]:
    """Compare d_k gamma against the unsubtracted trace form at probe fields.

    Single-mode only.  The left side is a Richardson finite difference of
    gamma in k; the right side is half the regulator derivative against the
    regulated inverse curvature (gamma'' + F_k)^-1 = W''(J), the tilted
    covariance at the inverting source, plus the normalization drift.  One
    batched inversion serves every probe.
    """
    if ctx.measure.dim != 1:
        raise SpecValidationError("first-form check is single-mode only")
    phis = np.asarray(probes, dtype=float).reshape(-1)
    if k < 0 or phis.size == 0:
        lhs = rhs = np.zeros(phis.size)
    else:

        def central(hh):  # one transform of every probe per shifted scale
            plus, _ = legendre_transform(ctx, k + hh, phis)
            minus, _ = legendre_transform(ctx, k - hh, phis)
            return (plus - minus) / (2.0 * hh)

        lhs = (4.0 * central(FIRST_FORM_DK_STEP / 2.0)
               - central(FIRST_FORM_DK_STEP)) / 3.0
        w2 = invert_mean_field(ctx, k, phis[:, None]).moments.cov[:, 0, 0]
        rhs = (0.5 * float(ctx.scale(k).f_dot[0]) * w2
               + dk_log_normalization(ctx, k))
    return [
        {"phi": float(phi), "k": k, "lhs": float(l), "rhs": float(r),
         "abs_diff": abs(float(l) - float(r))}
        for phi, l, r in zip(phis, lhs, rhs)
    ]
