"""Scale flow of the subtracted effective average action.

Two representations are integrated in the scale variable k: a sampled
field grid for a single mode and a truncated vertex expansion (two- and
four-point tensors, six-point set to zero).  Both right-hand sides are the
trace form of the exact flow, and segments are split at the kink loci of
non-smooth regulators.

On the grid the trace form u' = 1/2 d_kF_k / (D2 u + R_k) is a nonlinear
diffusion, stiff in the node count, so it is stepped with the implicit BDF
method and its analytic Jacobian diag(-1/2 d_kF_k / (D2 u + R_k)^2) D2,
where D2 is the sparse second-difference matrix.  D2 annihilates constants,
so the zero-field subtraction u - u(0) is taken at the checkpoints only.
The vertex flow is not stiff and uses the explicit Runge-Kutta 5(4) pair.
It steps only the independent components of the symmetric tensors, through
cached orbit index maps, and its right-hand side is a few matrix products.

After every accepted step the curvature margin min(Gamma_k'' + R_k) is
checked directly: convexity loss is raised where it reaches zero or where
its linear extrapolation over the last step reaches zero within
CONVEXITY_HORIZON * k, at the extrapolated crossing scale.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
import scipy.sparse as sp
from scipy.integrate import BDF, RK45

from . import functionals as fn
from .errors import ConvexityLoss, SpecValidationError, StepUnderflow
from .functionals import FunctionalContext
from .model import classical_asymptote, covariance
from .regulator import regulator_diagonals


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


@lru_cache(maxsize=16)
def second_difference_matrix(n: int) -> sp.csc_matrix:
    """Unit-spacing second-difference matrix D2 on n >= 4 uniform nodes.

    Interior rows carry the 4th-order central stencil.  The two nodes on
    each edge fall back to second-order stencils: their small weights keep
    the semi-discrete flow stable, where high-order one-sided stencils would
    feed an anti-diffusive boundary mode.  The cached matrix is read-only.
    """
    central = _stencil((-2, -1, 0, 1, 2), 2)
    inner = np.arange(2, n - 2)
    rows = [np.repeat(inner, 5), [1, 1, 1, n - 2, n - 2, n - 2],
            [0, 0, 0, 0, n - 1, n - 1, n - 1, n - 1]]
    cols = [(inner[:, None] + np.arange(-2, 3)).ravel(), [0, 1, 2, n - 3, n - 2, n - 1],
            [0, 1, 2, 3, n - 1, n - 2, n - 3, n - 4]]
    data = [np.tile(central, inner.size), [1.0, -2.0, 1.0] * 2,
            [2.0, -5.0, 4.0, -1.0] * 2]
    d2 = sp.csc_matrix(
        (np.concatenate(data), (np.concatenate(rows), np.concatenate(cols))),
        shape=(n, n),
    )
    for a in (d2.data, d2.indices, d2.indptr):
        a.flags.writeable = False
    return d2


def second_derivative(values: np.ndarray, h: float) -> np.ndarray:
    """Second derivative on a uniform grid: D2 @ values / h^2."""
    v = np.asarray(values, dtype=float)
    return second_difference_matrix(v.size) @ v / h**2


# -- action representations --------------------------------------------


@dataclass(frozen=True)
class GridAction:
    """Subtracted action sampled on an odd uniform single-mode field grid."""

    k: float
    grid: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        if self.grid.size % 2 != 1 or self.grid.size < 5:
            raise SpecValidationError(
                "grid node count must be odd (0 must be a node) and at least 5 "
                f"(the edge stencils), got {self.grid.size}"
            )

    @property
    def spacing(self) -> float:
        return float(self.grid[1] - self.grid[0])

    def pack(self) -> np.ndarray:
        return self.values.copy()

    def unpack(self, k: float, y: np.ndarray) -> "GridAction":
        return GridAction(k=k, grid=self.grid, values=np.asarray(y, dtype=float))


@lru_cache(maxsize=32)
def _orbit_map(m: int, rank: int) -> tuple[np.ndarray, np.ndarray]:
    """Orbits of the fully symmetric rank-``rank`` tensors on m modes.

    Returns (labels, sizes): ``labels[i]`` numbers the sorted multi-index of
    the flat index i, in lexicographic order, and ``sizes`` counts the full
    indices of each orbit.  There are C(m + rank - 1, rank) orbits.  The
    cached arrays are read-only.
    """
    shape = (m,) * rank
    sorted_index = np.sort(np.indices(shape).reshape(rank, -1), axis=0)
    _, labels = np.unique(np.ravel_multi_index(sorted_index, shape),
                          return_inverse=True)
    sizes = np.bincount(labels).astype(float)
    for a in (labels, sizes):
        a.flags.writeable = False
    return labels, sizes


def _pack_symmetric(a: np.ndarray) -> np.ndarray:
    """Orbit means of a tensor with equal axes: its independent symmetric
    components, so packing also symmetrises."""
    labels, sizes = _orbit_map(a.shape[0], a.ndim)
    return np.bincount(labels, weights=a.ravel(), minlength=sizes.size) / sizes


def _unpack_symmetric(y: np.ndarray, m: int, rank: int) -> np.ndarray:
    """The full symmetric tensor of packed components: one gather."""
    labels, _ = _orbit_map(m, rank)
    return y[labels].reshape((m,) * rank)


def symmetrize2(a: np.ndarray) -> np.ndarray:
    return _unpack_symmetric(_pack_symmetric(a), a.shape[0], 2)


def symmetrize4(a: np.ndarray) -> np.ndarray:
    return _unpack_symmetric(_pack_symmetric(a), a.shape[0], 4)


@dataclass(frozen=True)
class VertexAction:
    """Even-theory vertex truncation: symmetric 2- and 4-point tensors.

    The flow steps only the independent components, M(M+1)/2 of gamma2 and
    C(M+3, 4) of gamma4; ``pack`` symmetrises, ``unpack`` rebuilds the full
    tensors.
    """

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
        return np.concatenate([_pack_symmetric(self.gamma2),
                               _pack_symmetric(self.gamma4)])

    def unpack(self, k: float, y: np.ndarray) -> "VertexAction":
        m = self.modes
        n2 = m * (m + 1) // 2
        return VertexAction(k=k, gamma2=_unpack_symmetric(y[:n2], m, 2),
                            gamma4=_unpack_symmetric(y[n2:], m, 4))


@dataclass
class FlowTrajectory:
    checkpoints: list  # (k, action) pairs, k strictly decreasing
    stats: dict = field(default_factory=dict)


# -- right-hand sides --------------------------------------------------


def _grid_curvature(state: GridAction, regulator, momentum: float,
                    weight: float) -> tuple[float, np.ndarray]:
    """d_k F_k and the regularised curvature D2 u + R_k at every node."""
    r_k = float(regulator.value(state.k, momentum)) * weight
    f_dot = float(regulator.dk(state.k, momentum)) * weight
    return f_dot, second_derivative(state.values, state.spacing) + r_k


def rhs_grid(state: GridAction, regulator, momentum: float = 0.0,
             weight: float = 1.0) -> np.ndarray:
    """Trace-form flow 1/2 d_k F_k / (D2 u + R_k) of the grid action."""
    f_dot, denom = _grid_curvature(state, regulator, momentum, weight)
    if f_dot == 0.0:
        return np.zeros_like(state.values)
    if np.any(denom <= 0.0):
        node = int(np.argmax(denom <= 0.0))
        raise ConvexityLoss(
            f"regularized curvature non-positive at node {node} "
            f"(phi={state.grid[node]:.4g}, k={state.k:.6g})",
            k=state.k,
        )
    return 0.5 * f_dot / denom


def jacobian_grid(state: GridAction, regulator, momentum: float = 0.0,
                  weight: float = 1.0) -> sp.csc_matrix:
    """Jacobian of :func:`rhs_grid`: diag(-1/2 d_k F_k / (D2 u + R_k)^2) D2.

    The row scaling is applied to D2's stored entries, so the result shares
    D2's sparsity pattern and index arrays and needs no format conversion.
    """
    f_dot, denom = _grid_curvature(state, regulator, momentum, weight)
    d2 = second_difference_matrix(state.values.size)
    # denom^2 overflows from k ~ 1e77 on, where the entry rounds to 0 anyway
    with np.errstate(over="ignore"):
        row_scale = -0.5 * f_dot / (denom * denom * state.spacing**2)
    return sp.csc_matrix((row_scale[d2.indices] * d2.data, d2.indices, d2.indptr),
                         shape=d2.shape)


def rhs_vertex(state: VertexAction, regulator, momenta, weights) -> np.ndarray:
    """Truncated vertex flow with the six-point function set to zero.

    Returns the packed derivative, the vector the integrator steps.  With
    G = (gamma2 + F_k)^-1, P = G diag(d_k F_k) G and A = gamma4 as an
    (M^2, M^2) matrix, d_k gamma2 = -1/2 A vec(P) and d_k gamma4 is three
    times the symmetric part of t = A (P x G) A: the s, t and u channels
    only permute t's indices, and packing symmetrises.
    """
    k = state.k
    momenta = np.asarray(momenta, dtype=float)
    f_diag = regulator.value(k, momenta) * weights
    f_dot = regulator.dk(k, momenta) * weights
    m = state.modes
    a = state.gamma2 + np.diag(f_diag)
    try:
        np.linalg.cholesky(a)
    except np.linalg.LinAlgError as exc:
        raise ConvexityLoss(
            f"gamma2 + F_k lost positive definiteness at k={k:.6g}", k=k
        ) from exc
    g = np.linalg.inv(a)
    p = (g * f_dot) @ g
    a4 = state.gamma4.reshape(m * m, m * m)
    d_g2 = -0.5 * (a4 @ p.ravel())
    # the Kronecker product P x G, indexed [(i, j), (l, n)] = P_il G_jn
    t = a4 @ (p[:, None, :, None] * g[None, :, None, :]).reshape(m * m, m * m) @ a4
    return VertexAction(k=k, gamma2=d_g2.reshape(m, m),
                        gamma4=3.0 * t.reshape(m, m, m, m)).pack()


# -- integration -------------------------------------------------------


# A curvature margin whose linear extrapolation over the last accepted step
# reaches zero within this fraction of k counts as lost: the flow's resolvent
# diverges at the crossing, where an adaptive step would only crawl.
CONVEXITY_HORIZON = 1e-3


def _curvature_margin(state, regulator, momenta, weights) -> float:
    """Smallest eigenvalue of the regularised Hessian Gamma_k'' + R_k."""
    if isinstance(state, GridAction):
        _, denom = _grid_curvature(state, regulator, float(momenta[0]),
                                   float(weights[0]))
        return float(denom.min())
    f_diag = regulator.value(state.k, momenta) * weights
    return float(np.linalg.eigvalsh(state.gamma2 + np.diag(f_diag))[0])


def integrate(
    initial,
    k_from: float,
    k_to: float,
    regulator,
    momenta=None,
    weights=None,
    checkpoints=(),
    rtol: float = 1e-8,
    atol: float = 1e-10,
) -> FlowTrajectory:
    """Integrate the flow from k_from down to k_to with checkpoints.

    ``checkpoints`` is any iterable of scales in [k_to, k_from], kept as
    floats.  Segments are split at the regulator's kink scales inside the
    interval so no step crosses a derivative discontinuity, and each segment
    evaluates the regulator on its own side of a kink.  Grid actions
    are stepped with BDF and the analytic Jacobian, vertex actions with
    RK45.  Raises ConvexityLoss, carrying the last convex state, where the
    curvature margin reaches zero or is extrapolated to within
    CONVEXITY_HORIZON * k of it; ``k`` is the extrapolated crossing scale.
    """
    if not k_to <= k_from:
        raise SpecValidationError(
            f"flow runs downward: need k_to <= k_from, got {k_to} and {k_from}")
    if not (rtol > 0 and atol > 0):
        raise SpecValidationError("rtol and atol must be positive")
    if momenta is None:
        momenta = np.zeros(1)
    momenta = np.asarray(momenta, dtype=float)
    if weights is None:
        weights = np.ones_like(momenta)
    # R_k grows with k, so a regulator finite at k_from is finite on the flow
    regulator_diagonals(regulator, k_from, momenta, weights)
    checkpoints = sorted({float(c) for c in checkpoints} | {float(k_from), float(k_to)},
                         reverse=True)
    for c in checkpoints:
        if not (k_to <= c <= k_from):
            raise SpecValidationError(f"checkpoint {c} outside [{k_to}, {k_from}]")

    is_grid = isinstance(initial, GridAction)
    p0, w0 = float(momenta[0]), float(weights[0])  # the grid's single mode
    pending_loss = []

    def rhs(k, y):
        if not np.all(np.isfinite(y)):
            return np.full_like(np.asarray(y, dtype=float), np.nan)
        state = initial.unpack(k, y)
        try:
            if is_grid:
                return rhs_grid(state, regulator, p0, w0)
            return rhs_vertex(state, regulator, momenta, weights)
        except ConvexityLoss as exc:
            # a trial stage or Newton iterate may leave the convex cone; poison
            # it so the solver rejects the step and shrinks it
            pending_loss.append(exc)
            return np.full_like(np.asarray(y, dtype=float), np.nan)

    def jac(k, y):
        return jacobian_grid(initial.unpack(k, y), regulator, p0, w0)

    def make_solver(t0, y0, t1):
        # the regulator's value on a kink is the limit from one side only; a
        # segment bounded by a kink evaluates there one ulp inside itself
        hi = float(np.nextafter(t0, t1)) if t0 in kinks else t0
        lo = float(np.nextafter(t1, t0)) if t1 in kinks else t1

        def inside(k):
            return min(max(k, lo), hi)

        def segment_rhs(k, y):
            return rhs(inside(k), y)

        if is_grid:
            return BDF(segment_rhs, t0, y0, t1, rtol=rtol, atol=atol,
                       jac=lambda k, y: jac(inside(k), y))
        return RK45(segment_rhs, t0, y0, t1, rtol=rtol, atol=atol)

    def snapshot(k, y):
        """The action at k, with the grid's zero-field value subtracted."""
        if is_grid:
            y = y - y[y.size // 2]
        return initial.unpack(k, y)

    def margin(k, y):
        return _curvature_margin(initial.unpack(k, y), regulator, momenta, weights)

    stats = {"steps": 0, "nfev": 0, "njev": 0, "nlu": 0}
    if k_from == k_to:
        return FlowTrajectory(checkpoints=[(k_from, initial)], stats=stats)

    kinks = [
        float(s) for s in regulator.kink_scales(momenta) if k_to < s < k_from
    ]
    breakpoints = sorted(set([k_from, k_to] + kinks), reverse=True)

    y = initial.pack()
    results = {}
    last_good = (k_from, y.copy())
    last_margin = margin(k_from, y)
    if last_margin <= 0.0:
        raise ConvexityLoss(
            f"regularized curvature non-positive at the start scale k={k_from:.6g}",
            k=k_from, last_state=initial,
        )
    remaining = list(checkpoints)

    def segment_failure(message):
        if pending_loss:
            exc = pending_loss[-1]
            exc.last_state = snapshot(*last_good)
            return exc
        return StepUnderflow(message)

    for seg_start, seg_end in zip(breakpoints[:-1], breakpoints[1:]):
        targets = sorted(
            (c for c in remaining if seg_end <= c <= seg_start), reverse=True
        )
        pending_loss.clear()
        results[float(seg_start)] = y.copy()
        solver = make_solver(seg_start, y, seg_end)
        try:
            while solver.status == "running":
                solver.step()
                if solver.status == "failed":
                    break
                stats["steps"] += 1
                t, m = float(solver.t), margin(solver.t, solver.y)
                # slope of the margin in k; the flow runs towards smaller k
                slope = (last_margin - m) / (last_good[0] - t)
                if m <= 0.0 or (slope > 0.0 and m <= CONVEXITY_HORIZON * t * slope):
                    crossing = t - m / slope
                    if m > 0.0:
                        last_good = (t, solver.y.copy())
                    raise ConvexityLoss(
                        f"regularized curvature margin reaches zero at "
                        f"k={crossing:.6g} (margin {m:.3g} at k={t:.6g})",
                        k=crossing, last_state=snapshot(*last_good),
                    )
                last_good, last_margin = (t, solver.y.copy()), m
                if targets and targets[0] >= t:
                    dense = solver.dense_output()
                    while targets and targets[0] >= t:
                        c = targets.pop(0)
                        results[float(c)] = np.asarray(dense(c), dtype=float).copy()
            if solver.status == "failed":
                raise segment_failure(f"integrator failed near k = {solver.t:.6g}")
            stats["nfev"] += solver.nfev
            stats["njev"] += solver.njev
            stats["nlu"] += solver.nlu
            y = solver.y.copy()
            results[float(seg_end)] = y.copy()
        finally:
            # scipy's solvers hold closures over themselves; clearing the
            # state breaks that cycle, so BDF's sparse LU factorization is
            # freed now rather than at the next cyclic garbage collection
            solver.__dict__.clear()
        remaining = [c for c in remaining if c < seg_end]

    snaps = [
        (c, snapshot(c, results[float(c)]))
        for c in checkpoints
        if float(c) in results
    ]
    return FlowTrajectory(checkpoints=snaps, stats=stats)


# -- initial conditions ------------------------------------------------


def exact_grid_values(ctx: FunctionalContext, k: float, grid: np.ndarray) -> np.ndarray:
    """Subtracted-action oracle values on the grid: one Legendre transform of
    the grid nodes and, in one extra lane, of the field 0."""
    values, _ = fn.legendre_transform(ctx, k, np.append(grid, 0.0))
    return values[:-1] - values[-1]


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
    if not 0 < k_uv < np.inf:
        raise SpecValidationError("k_uv must be positive and finite")
    if rep == "grid":
        if ctx.measure.dim != 1:
            raise SpecValidationError("the grid representation is single-mode only")
        grid = ctx.spec.field_grid
        classical = classical_grid_values(ctx, grid)
        if mode == "classical":
            values = classical
            info = {}
        elif mode == "exact":
            values = exact_grid_values(ctx, k_uv, grid)
            info = {"classical_discrepancy": float(np.abs(values - classical).max())}
        else:
            raise SpecValidationError(f"unknown initial-condition mode {mode!r}")
        values = values - values[grid.size // 2]
        return GridAction(k=k_uv, grid=grid, values=values), info
    if rep == "vertex":
        if ctx.spec.c3 != 0:
            raise SpecValidationError("vertex flows need an even theory (c3 = 0)")
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
                raise SpecValidationError("the exact vertex start is single-mode only")
            g2 = fn.gamma_hessian(ctx, k_uv, np.zeros(1))
            g4 = np.full((1, 1, 1, 1), _fourth_derivative_at_zero(ctx, k_uv))
            info = {}
        else:
            raise SpecValidationError(f"unknown initial-condition mode {mode!r}")
        return VertexAction(k=k_uv, gamma2=symmetrize2(g2), gamma4=symmetrize4(g4)), info
    raise SpecValidationError(f"unknown representation {rep!r}")


def _fourth_derivative_at_zero(ctx, k, h=0.25):
    """Richardson 4th derivative of the action at the origin.

    The stencil weights sum to zero, so gamma_k(0) cancels and the action is
    differenced as it is: one Legendre transform of the seven distinct
    fields h * (-2, -1, -1/2, 0, 1/2, 1, 2) serves both step sizes.
    """
    fields = h * np.array([-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0])
    g, _ = fn.legendre_transform(ctx, k, fields)
    weights = np.array([1.0, -4.0, 6.0, -4.0, 1.0])
    d_h = g[[0, 1, 3, 5, 6]] @ weights / h**4
    d_h2 = g[[1, 2, 3, 4, 5]] @ weights / (h / 2.0) ** 4
    return (4.0 * d_h2 - d_h) / 3.0


# -- first-form consistency check --------------------------------------


FIRST_FORM_DK_STEP = 1e-3  # k-step of the Richardson difference of gamma


def frge_first_form_check(ctx: FunctionalContext, k: float, probes) -> list[dict]:
    """Compare d_k gamma against the unsubtracted trace form at probe fields.

    Single-mode only.  The left side is a Richardson finite difference of
    gamma in k; the right side is half the regulator derivative against the
    regulated inverse curvature plus the normalization drift.
    """
    if ctx.measure.dim != 1:
        raise SpecValidationError("first-form check is single-mode only")
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

            lhs = (4.0 * central(FIRST_FORM_DK_STEP / 2.0)
                   - central(FIRST_FORM_DK_STEP)) / 3.0
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
