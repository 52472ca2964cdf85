"""Scale flow of the subtracted effective average action.

Two representations are integrated in the scale variable k: a sampled
field grid for a single mode and a truncated vertex expansion (two- and
four-point tensors, six-point set to zero).  The right-hand sides are the
trace form of the exact flow with the zero-field subtraction; integration
uses an adaptive embedded Runge-Kutta 5(4) pair with steps clamped at the
kink loci of non-smooth regulators.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
import scipy.linalg as sla
from scipy.integrate import RK45

from . import functionals as fn
from .errors import ConvexityLoss, SpecValidationError, StepUnderflow
from .functionals import FunctionalContext
from .model import classical_asymptote, covariance


# -- finite differences ------------------------------------------------


@lru_cache(maxsize=64)
def _stencil(offsets: tuple, order: int) -> np.ndarray:
    """Finite-difference weights for the given derivative order (unit spacing)."""
    import math

    n = len(offsets)
    a = np.vander(np.asarray(offsets, dtype=float), n, increasing=True).T
    b = np.zeros(n)
    b[order] = math.factorial(order)
    return np.linalg.solve(a, b)


def second_derivative(values: np.ndarray, h: float) -> np.ndarray:
    """4th-order second derivative on a uniform grid.

    The two nodes on each edge fall back to second-order stencils: their
    small weights keep the semi-discrete flow stable, where high-order
    one-sided stencils would feed an anti-diffusive boundary mode.
    """
    v = np.asarray(values, dtype=float)
    n = v.size
    out = np.empty(n)
    central = _stencil((-2, -1, 0, 1, 2), 2)
    out[2 : n - 2] = np.convolve(v, central[::-1], mode="valid")
    out[1] = v[0] - 2.0 * v[1] + v[2]
    out[n - 2] = v[n - 3] - 2.0 * v[n - 2] + v[n - 1]
    out[0] = 2.0 * v[0] - 5.0 * v[1] + 4.0 * v[2] - v[3]
    out[n - 1] = 2.0 * v[n - 1] - 5.0 * v[n - 2] + 4.0 * v[n - 3] - v[n - 4]
    return out / h**2


# -- action representations --------------------------------------------


@dataclass(frozen=True)
class GridAction:
    """Subtracted action sampled on an odd uniform single-mode field grid."""

    k: float
    grid: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        if self.grid.size % 2 != 1:
            raise SpecValidationError(
                f"grid node count must be odd (0 must be a node), got {self.grid.size}"
            )

    @property
    def spacing(self) -> float:
        return float(self.grid[1] - self.grid[0])

    def pack(self) -> np.ndarray:
        return self.values.copy()

    def unpack(self, k: float, y: np.ndarray) -> "GridAction":
        return GridAction(k=k, grid=self.grid, values=np.asarray(y, dtype=float))


@dataclass(frozen=True)
class VertexAction:
    """Even-theory vertex truncation: symmetric 2- and 4-point tensors."""

    k: float
    gamma2: np.ndarray
    gamma4: np.ndarray

    def __post_init__(self):
        m = self.gamma2.shape[0]
        if self.gamma4.shape != (m, m, m, m):
            raise SpecValidationError(
                f"gamma4 has shape {self.gamma4.shape}, expected {(m, m, m, m)}"
            )

    @property
    def modes(self) -> int:
        return self.gamma2.shape[0]

    def pack(self) -> np.ndarray:
        return np.concatenate([self.gamma2.ravel(), self.gamma4.ravel()])

    def unpack(self, k: float, y: np.ndarray) -> "VertexAction":
        m = self.modes
        g2 = y[: m * m].reshape(m, m)
        g4 = y[m * m :].reshape(m, m, m, m)
        return VertexAction(k=k, gamma2=symmetrize2(g2), gamma4=symmetrize4(g4))


def symmetrize2(a: np.ndarray) -> np.ndarray:
    return 0.5 * (a + a.T)


def symmetrize4(a: np.ndarray) -> np.ndarray:
    from itertools import permutations

    out = np.zeros_like(a)
    for perm in permutations(range(4)):
        out += np.transpose(a, perm)
    return out / 24.0


@dataclass
class FlowTrajectory:
    checkpoints: list  # (k, action) pairs, k strictly decreasing
    stats: dict = field(default_factory=dict)


# -- right-hand sides --------------------------------------------------


def rhs_grid(state: GridAction, regulator, momentum: float = 0.0,
             weight: float = 1.0) -> np.ndarray:
    """Flow of the grid action: regulated-resolvent difference at each node."""
    k = state.k
    r_k = float(regulator.value(k, np.array([momentum]))[0]) * weight
    f_dot = float(regulator.dk(k, np.array([momentum]))[0]) * weight
    if f_dot == 0.0:
        return np.zeros_like(state.values)
    curv = second_derivative(state.values, state.spacing)
    denom = curv + r_k
    if np.any(denom <= 0.0):
        node = int(np.argmax(denom <= 0.0))
        raise ConvexityLoss(
            f"regularized curvature non-positive at node {node} "
            f"(phi={state.grid[node]:.4g}, k={k:.6g})",
            k=k,
            node=node,
        )
    centre = state.grid.size // 2
    dv = 0.5 * f_dot * (1.0 / denom - 1.0 / denom[centre])
    dv[centre] = 0.0
    return dv


def rhs_vertex(state: VertexAction, regulator, momenta, weights) -> "VertexAction":
    """Truncated vertex flow with the six-point function set to zero."""
    k = state.k
    momenta = np.asarray(momenta, dtype=float)
    f_diag = regulator.value(k, momenta) * weights
    f_dot = regulator.dk(k, momenta) * weights
    m = state.modes
    a = state.gamma2 + np.diag(f_diag)
    try:
        c = sla.cholesky(a, lower=True)
    except sla.LinAlgError as exc:
        raise ConvexityLoss(
            f"gamma2 + F_k lost positive definiteness at k={k:.6g}", k=k
        ) from exc
    g = sla.cho_solve((c, True), np.eye(m))
    if not np.any(f_dot):
        zero2 = np.zeros_like(state.gamma2)
        return VertexAction(k=k, gamma2=zero2, gamma4=np.zeros_like(state.gamma4))
    g4 = state.gamma4
    d_g2 = -0.5 * np.einsum("x,xl,ablm,mx->ab", f_dot, g, g4, g, optimize=True)
    t = np.einsum(
        "x,xi,abij,jl,cdlm,mx->abcd", f_dot, g, g4, g, g4, g, optimize=True
    )
    d_g4 = t + t.transpose(0, 2, 1, 3) + t.transpose(0, 3, 1, 2)
    return VertexAction(k=k, gamma2=symmetrize2(d_g2), gamma4=symmetrize4(d_g4))


# -- integration -------------------------------------------------------


def integrate(
    initial,
    k_from: float,
    k_to: float,
    regulator,
    momenta=None,
    weights=None,
    checkpoints=None,
    rtol: float = 1e-8,
    atol: float = 1e-10,
) -> FlowTrajectory:
    """Integrate the flow from k_from down to k_to with checkpoints.

    Segments are split at the regulator's kink scales inside the interval so
    the adaptive controller never steps across a derivative discontinuity.
    """
    if k_from < k_to:
        raise ValueError("flow runs downward: k_from must be >= k_to")
    if momenta is None:
        momenta = np.zeros(1)
    momenta = np.asarray(momenta, dtype=float)
    if weights is None:
        weights = np.ones_like(momenta)
    checkpoints = sorted(set(checkpoints or []) | {k_from, k_to}, reverse=True)
    for c in checkpoints:
        if not (k_to <= c <= k_from):
            raise ValueError(f"checkpoint {c} outside [{k_to}, {k_from}]")

    is_grid = isinstance(initial, GridAction)
    pending_loss = []

    def rhs(k, y):
        if not np.all(np.isfinite(y)):
            return np.full_like(np.asarray(y, dtype=float), np.nan)
        state = initial.unpack(k, y)
        try:
            if is_grid:
                return rhs_grid(
                    state, regulator, float(momenta[0]), float(weights[0])
                )
            return rhs_vertex(state, regulator, momenta, weights).pack()
        except ConvexityLoss as exc:
            # a trial stage of an oversized step may leave the convex cone;
            # poison the stage so the controller rejects and shrinks the step
            pending_loss.append(exc)
            return np.full_like(np.asarray(y, dtype=float), np.nan)

    if k_from == k_to:
        return FlowTrajectory(
            checkpoints=[(k_from, initial)], stats={"steps": 0, "nfev": 0}
        )

    kinks = [
        float(s) for s in regulator.kink_scales(momenta) if k_to < s < k_from
    ]
    breakpoints = sorted(set([k_from, k_to] + kinks), reverse=True)

    y = initial.pack()
    results = {}
    stats = {"steps": 0, "nfev": 0}
    last_good = (k_from, y.copy())
    remaining = list(checkpoints)

    # an adaptive controller grinding against the convex-cone boundary can
    # crawl with ever smaller accepted steps and never fail on its own; cap
    # the per-segment work and convert the stall into a diagnosable error
    max_segment_steps = 20_000

    def segment_failure(message):
        if pending_loss:
            exc = pending_loss[-1]
            exc.last_state = initial.unpack(*last_good)
            return exc
        return StepUnderflow(message)

    for seg_start, seg_end in zip(breakpoints[:-1], breakpoints[1:]):
        targets = sorted(
            (c for c in remaining if seg_end <= c <= seg_start), reverse=True
        )
        pending_loss.clear()
        results[float(seg_start)] = y.copy()
        solver = RK45(rhs, seg_start, y, seg_end, rtol=rtol, atol=atol)
        steps = 0
        while solver.status == "running":
            solver.step()
            if solver.status == "failed":
                break
            steps += 1
            last_good = (float(solver.t), solver.y.copy())
            if targets and targets[0] >= solver.t:
                dense = solver.dense_output()
                while targets and targets[0] >= solver.t:
                    c = targets.pop(0)
                    results[float(c)] = np.asarray(dense(c), dtype=float).copy()
            if steps > max_segment_steps:
                raise segment_failure(
                    f"integrator stalled near k = {solver.t:.6g}: "
                    f"{max_segment_steps} steps without completing the segment"
                )
        if solver.status == "failed":
            raise segment_failure(f"integrator failed near k = {solver.t:.6g}")
        stats["nfev"] += solver.nfev
        stats["steps"] += steps
        y = solver.y.copy()
        results[float(seg_end)] = y.copy()
        last_good = (seg_end, y.copy())
        remaining = [c for c in remaining if c < seg_end]

    snaps = [
        (c, initial.unpack(c, results[float(c)]))
        for c in checkpoints
        if float(c) in results
    ]
    return FlowTrajectory(checkpoints=snaps, stats=stats)


# -- initial conditions ------------------------------------------------


def exact_grid_values(ctx: FunctionalContext, k: float, grid: np.ndarray) -> np.ndarray:
    """Subtracted-action oracle values on the grid: two warm-started Legendre
    sweeps outward from the centre node."""
    grid = np.asarray(grid, dtype=float)
    centre = grid.size // 2
    gamma0 = fn.gamma(ctx, k, np.zeros(1))
    values = np.zeros_like(grid)
    for side in (np.arange(centre + 1, grid.size), np.arange(centre - 1, -1, -1)):
        sweep = fn.legendre_sweep(ctx, k, grid[side])
        values[side] = np.fromiter((g for g, _ in sweep), float, side.size) - gamma0
    return values


def classical_grid_values(ctx: FunctionalContext, grid: np.ndarray) -> np.ndarray:
    grid = np.asarray(grid, dtype=float)
    return classical_asymptote(ctx.spec, grid[:, None])


def initial_condition(
    ctx: FunctionalContext, mode: str, k_uv: float, rep: str = "grid"
):
    """Initial action at the start scale; returns (action, info).

    ``exact`` evaluates the functionals oracle at k_uv, ``classical`` samples
    the regularization-corrected classical asymptote.  The info dict records
    the maximum discrepancy between the two on the grid.
    """
    if k_uv <= 0:
        raise ValueError("k_uv must be positive")
    if rep == "grid":
        if ctx.measure.dim != 1:
            raise ValueError("the grid representation is single-mode only")
        grid = ctx.spec.field_grid
        classical = classical_grid_values(ctx, grid)
        if mode == "classical":
            values = classical
            info = {}
        elif mode == "exact":
            values = exact_grid_values(ctx, k_uv, grid)
            info = {"classical_discrepancy": float(np.abs(values - classical).max())}
        else:
            raise ValueError(f"unknown initial-condition mode {mode!r}")
        values = values - values[grid.size // 2]
        return GridAction(k=k_uv, grid=grid, values=values), info
    if rep == "vertex":
        if ctx.spec.c3 != 0:
            raise ValueError("the vertex representation requires an even theory")
        m = ctx.measure.dim
        if mode == "classical":
            c_inv = np.linalg.inv(covariance(ctx.spec))
            if ctx.spec.dimension == 0:
                g2 = c_inv + 2.0 * ctx.spec.c2 * np.eye(1)
                g4 = 24.0 * ctx.spec.c4 * np.ones((1, 1, 1, 1))
            else:
                h = ctx.spec.hartley_matrix() / np.sqrt(ctx.spec.position_spacing)
                w = ctx.spec.position_weights
                g2 = c_inv + 2.0 * ctx.spec.c2 * np.einsum("l,la,lb->ab", w, h, h)
                g4 = 24.0 * ctx.spec.c4 * np.einsum(
                    "l,la,lb,lc,ld->abcd", w, h, h, h, h
                )
            info = {}
        elif mode == "exact":
            if m != 1:
                raise ValueError("exact vertex initial conditions are single-mode only")
            g2 = fn.gamma_hessian(ctx, k_uv, np.zeros(1))
            g4 = np.full((1, 1, 1, 1), _fourth_derivative_at_zero(ctx, k_uv))
            info = {}
        else:
            raise ValueError(f"unknown initial-condition mode {mode!r}")
        return VertexAction(k=k_uv, gamma2=symmetrize2(g2), gamma4=symmetrize4(g4)), info
    raise ValueError(f"unknown representation {rep!r}")


def _fourth_derivative_at_zero(ctx, k, h=0.25):
    """Richardson 4th derivative of the subtracted action at the origin."""

    def stencil4(hh):
        vals = [
            fn.gamma_bar(ctx, k, np.array([x]))
            for x in (-2 * hh, -hh, 0.0, hh, 2 * hh)
        ]
        return (vals[0] - 4 * vals[1] + 6 * vals[2] - 4 * vals[3] + vals[4]) / hh**4

    d_h = stencil4(h)
    d_h2 = stencil4(h / 2.0)
    return (4.0 * d_h2 - d_h) / 3.0


# -- first-form consistency check --------------------------------------


def frge_first_form_check(
    ctx: FunctionalContext, k: float, probes, dk_step: float = 1e-3
) -> list[dict]:
    """Compare d_k gamma against the unsubtracted trace form at probe fields.

    Single-mode only.  The left side is a Richardson finite difference of
    gamma in k; the right side is half the regulator derivative against the
    regulated inverse curvature plus the normalization drift.
    """
    if ctx.measure.dim != 1:
        raise ValueError("first-form check is single-mode only")
    p1 = float(ctx.spec.momenta[0])
    w1 = float(ctx.spec.momentum_weights[0])
    report = []
    for phi in probes:
        phi_vec = np.atleast_1d(np.asarray(phi, dtype=float))
        if k < 0:
            lhs = rhs = 0.0
        else:

            def central(hh):
                return (
                    fn.gamma(ctx, k + hh, phi_vec) - fn.gamma(ctx, k - hh, phi_vec)
                ) / (2.0 * hh)

            lhs = (4.0 * central(dk_step / 2.0) - central(dk_step)) / 3.0
            curv = float(fn.gamma_hessian(ctx, k, phi_vec)[0, 0])
            record = ctx.scale(k)
            r_k = float(record.f[0])
            f_dot = float(record.f_dot[0])
            rhs = 0.5 * f_dot / (curv + r_k) + fn.dk_log_normalization(ctx, k)
        report.append(
            {
                "phi": float(phi_vec[0]),
                "k": k,
                "lhs": float(lhs),
                "rhs": float(rhs),
                "abs_diff": abs(float(lhs) - float(rhs)),
            }
        )
    return report
