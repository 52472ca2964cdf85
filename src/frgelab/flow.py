"""Scale flow of the subtracted effective average action.

Two representations are integrated in the scale variable k: a sampled
field grid for a single mode and a truncated vertex expansion (two- and
four-point tensors, six-point set to zero).  Both right-hand sides are the
trace form of the exact flow, and segments are split at the kink loci of
non-smooth regulators.

On the grid the trace form u' = 1/2 d_kF_k / (D2 u + R_k) is a nonlinear
diffusion, stiff in the node count, so it is stepped with the implicit BDF
method and its analytic Jacobian diag(-1/2 d_kF_k / (D2 u + R_k)^2) D2,
where D2 is the sparse second-difference matrix.  The stepper, _GridBDF, is
scipy's variable-order BDF ported operation for operation, so its steps and
states are scipy's bits; it evaluates the flow on the bare node vector.  J
shares D2's pattern, so BDF's Newton matrix I - cJ is a band of half-width 3
(the 4-point edge stencils), written straight into LAPACK's band layout and
factored with its band LU.  D2 annihilates constants up to rounding (its
solved central stencil sums to -6.9e-17), so the zero-field subtraction
u - u(0) is taken at the checkpoints only.
The vertex flow is not stiff and uses the explicit Runge-Kutta 5(4) pair.
It steps only the independent components of the symmetric tensors, through
cached orbit index maps, and its right-hand side is a few matrix products.

After every accepted step the curvature margin min(Gamma_k'' + R_k) is
checked directly: convexity loss is raised where it reaches zero or where
its linear extrapolation over the last step reaches zero within
CONVEXITY_HORIZON * k, at the extrapolated crossing scale.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
import scipy.sparse as sp
from scipy.integrate import RK45
from scipy.linalg.lapack import dgbtrf, dgbtrs

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


class _GridFlow:
    """The grid flow of one grid, regulator and mode, on bare node values:
    what the stepper evaluates, with no GridAction built per call."""

    def __init__(self, grid: np.ndarray, regulator, momentum: float, weight: float):
        self.grid = grid
        self.regulator, self.momentum, self.weight = regulator, momentum, weight
        self.d2 = second_difference_matrix(grid.size)
        self.h2 = float(grid[1] - grid[0]) ** 2

    def curvature(self, k, u: np.ndarray) -> tuple[float, np.ndarray]:
        """d_k F_k and the regularised curvature D2 u + R_k at every node."""
        r_k = float(self.regulator.value(k, self.momentum)) * self.weight
        f_dot = float(self.regulator.dk(k, self.momentum)) * self.weight
        return f_dot, self.d2 @ u / self.h2 + r_k

    def rhs(self, k, u: np.ndarray) -> np.ndarray:
        f_dot, denom = self.curvature(k, u)
        if f_dot == 0.0:
            return np.zeros_like(u)
        nonpositive = denom <= 0.0
        if nonpositive.any():
            node = int(np.argmax(nonpositive))
            raise ConvexityLoss(
                f"regularized curvature non-positive at node {node} "
                f"(phi={self.grid[node]:.4g}, k={k:.6g})",
                k=k,
            )
        return 0.5 * f_dot / denom

    def jacobian_data(self, k, u: np.ndarray) -> np.ndarray:
        """The entries of J = diag(-1/2 d_k F_k / (D2 u + R_k)^2) D2 in D2's
        stored (CSC) order."""
        f_dot, denom = self.curvature(k, u)
        # denom^2 overflows from k ~ 1e77 on, where the entry rounds to 0 anyway
        with np.errstate(over="ignore"):
            row_scale = -0.5 * f_dot / (denom * denom * self.h2)
        return row_scale[self.d2.indices] * self.d2.data


def rhs_grid(state: GridAction, regulator, momentum: float = 0.0,
             weight: float = 1.0) -> np.ndarray:
    """Trace-form flow 1/2 d_k F_k / (D2 u + R_k) of the grid action."""
    return _GridFlow(state.grid, regulator, momentum, weight).rhs(state.k, state.values)


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


def _vertex_margin(state: VertexAction, regulator, momenta, weights) -> float:
    """Smallest eigenvalue of the regularised Hessian gamma2 + F_k."""
    f_diag = regulator.value(state.k, momenta) * weights
    return float(np.linalg.eigvalsh(state.gamma2 + np.diag(f_diag))[0])


# -- the grid stepper --------------------------------------------------
#
# scipy 1.17's BDF (scipy/integrate/_ivp/bdf.py), ported operation for
# operation: variable order 1 to 5 with the NDF corrector on a quasi-constant
# step (Shampine & Reichelt, SIAM J. Sci. Comput. 18, 1997).  Every array
# expression is scipy's, in its order and on its dtypes, so the steps, the
# counters and the states are scipy's bits.  What the port leaves out is
# scipy's general machinery around them: J is held as its entries in D2's
# stored order, I - cJ is written straight into LAPACK's band layout, and
# the RMS norm is numpy's own formula sqrt(x.x) / sqrt(n) without
# np.linalg.norm's dispatch.

_MAX_ORDER = 5
_NEWTON_MAXITER = 4
_MIN_FACTOR = 0.2
_MAX_FACTOR = 10
_EPS = np.finfo(float).eps
_KAPPA = np.array([0, -0.1850, -1 / 9, -0.0823, -0.0415, 0])
_GAMMA = np.hstack((0, np.cumsum(1 / np.arange(1, _MAX_ORDER + 1))))
_ALPHA = (1 - _KAPPA) * _GAMMA
_ERROR_CONST = _KAPPA * _GAMMA + 1 / np.arange(1, _MAX_ORDER + 2)


def _compute_r(order, factor) -> np.ndarray:
    """The matrix that rescales the differences array by ``factor``."""
    i = np.arange(1, order + 1)[:, None]
    j = np.arange(1, order + 1)
    m = np.zeros((order + 1, order + 1))
    m[1:, 1:] = (i - 1 - factor * j) / i
    m[0] = 1
    return np.cumprod(m, axis=0)


def _change_d(d: np.ndarray, order, factor) -> None:
    """Rescale the differences array in place to a step ``factor`` times as long."""
    ru = _compute_r(order, factor).dot(_compute_r(order, 1))
    d[:order + 1] = np.dot(ru.T, d[:order + 1])


@lru_cache(maxsize=16)
def _band_pattern(n: int) -> tuple[int, np.ndarray, np.ndarray]:
    """D2's half-band b, and for each stored entry (i, j), in CSC order, its
    flat index in dgbtrf's Fortran-ordered (3b + 1, n) layout, row 2b + i - j
    of column j (b rows of fill on top), and whether it is diagonal (1.0) or
    not (0.0).  The cached arrays are read-only."""
    d2 = second_difference_matrix(n)
    rows = d2.indices
    cols = np.repeat(np.arange(n), np.diff(d2.indptr))
    b = int(np.abs(rows - cols).max())
    flat = 2 * b + rows - cols + (3 * b + 1) * cols
    unit = (rows == cols).astype(float)
    for a in (flat, unit):
        a.flags.writeable = False
    return b, flat, unit


class _GridBDF:
    """The BDF stepper of a grid flow.

    ``fun(k, u)`` is the flow's right-hand side and ``jac(k, u)`` the entries
    of its Jacobian J in D2's stored order (:meth:`_GridFlow.jacobian_data`).
    ``step``, ``status``, ``t``, ``y``, ``dense_output`` and the counters
    ``nfev``, ``njev`` and ``nlu`` are those of a scipy ODE solver.  The
    Newton matrix I - cJ has the entries 1 - c J_ii and 0 - c J_ij that
    scipy's sparse I - c*J holds; dgbtrf factors it as a band, and a singular
    factor raises StepUnderflow.
    """

    def __init__(self, fun, jac, t0: float, y0: np.ndarray, t_bound: float,
                 rtol: float, atol: float):
        self._fun, self._jac = fun, jac
        self.t, self.y, self.t_bound = t0, y0, t_bound
        self.direction = np.sign(t_bound - t0) if t_bound != t0 else 1
        self.n = y0.size
        self.status = "running"
        self.nfev = self.njev = self.nlu = 0
        self.rtol, self.atol = rtol, atol
        if rtol < 100 * _EPS:
            warnings.warn(f"rtol is too small; setting rtol = {100 * _EPS}",
                          stacklevel=3)
            self.rtol = np.maximum(rtol, 100 * _EPS)
        self._root_n = self.n ** 0.5
        self.half_band, self._band_flat, self._band_unit = _band_pattern(self.n)
        f = self._rhs(t0, y0)
        self.h_abs = self._initial_step(f)
        # as in scipy, from the rtol asked for, not the raised one
        self.newton_tol = max(10 * _EPS / rtol, min(0.03, rtol ** 0.5))
        self.J = jac(t0, y0)
        self.njev += 1
        self.D = np.empty((_MAX_ORDER + 3, self.n))
        self.D[0] = y0
        self.D[1] = f * self.h_abs * self.direction
        self.order = 1
        self.n_equal_steps = 0
        self.LU = None

    def _rhs(self, t, y) -> np.ndarray:
        self.nfev += 1
        return self._fun(t, y)

    def _norm(self, x: np.ndarray):
        """RMS norm: np.linalg.norm(x) / sqrt(n), with its arithmetic."""
        return np.sqrt(x.dot(x)) / self._root_n

    def _initial_step(self, f0: np.ndarray):
        """scipy's select_initial_step for order 1 (Hairer, Norsett & Wanner,
        Sec. II.4); the step is unbounded but by the interval."""
        t0, y0, direction = self.t, self.y, self.direction
        interval_length = abs(self.t_bound - t0)
        if interval_length == 0.0:
            return 0.0
        scale = self.atol + np.abs(y0) * self.rtol
        d0 = self._norm(y0 / scale)
        d1 = self._norm(f0 / scale)
        if d0 < 1e-5 or d1 < 1e-5:
            h0 = 1e-6
        else:
            h0 = 0.01 * d0 / d1
        h0 = min(h0, interval_length)
        y1 = y0 + h0 * direction * f0
        f1 = self._rhs(t0 + h0 * direction, y1)
        d2 = self._norm((f1 - f0) / scale) / h0
        if d1 <= 1e-15 and d2 <= 1e-15:
            h1 = max(1e-6, h0 * 1e-3)
        else:
            h1 = (0.01 / max(d1, d2)) ** (1 / 2)
        return min(100 * h0, h1, interval_length)

    def _factor(self, c, jac_data: np.ndarray):
        """dgbtrf's band LU of I - cJ."""
        self.nlu += 1
        b = self.half_band
        band = np.zeros((3 * b + 1) * self.n)
        band[self._band_flat] = self._band_unit - c * jac_data
        lu, piv, info = dgbtrf(band.reshape((3 * b + 1, self.n), order="F"), b, b,
                               overwrite_ab=True)
        if info > 0:
            raise StepUnderflow(
                f"BDF's Newton matrix is singular near k = {self.t:.6g}")
        return lu, piv

    def _solve_lu(self, factor, rhs: np.ndarray) -> np.ndarray:
        lu, piv = factor
        b = self.half_band
        return dgbtrs(lu, b, b, rhs, piv, overwrite_b=True)[0]

    def _solve_bdf_system(self, t_new, y_predict, c, psi, factor, scale):
        """The simplified Newton iteration of one step: (converged,
        iterations, y, d)."""
        d = 0
        y = y_predict.copy()
        dy_norm_old = None
        converged = False
        tol = self.newton_tol
        for k in range(_NEWTON_MAXITER):
            f = self._rhs(t_new, y)
            if not np.isfinite(f).all():
                break
            dy = self._solve_lu(factor, c * f - psi - d)
            dy_norm = self._norm(dy / scale)
            if dy_norm_old is None:
                rate = None
            else:
                rate = dy_norm / dy_norm_old
            if (rate is not None and (rate >= 1 or
                    rate ** (_NEWTON_MAXITER - k) / (1 - rate) * dy_norm > tol)):
                break
            y += dy
            d += dy
            if (dy_norm == 0 or
                    rate is not None and rate / (1 - rate) * dy_norm < tol):
                converged = True
                break
            dy_norm_old = dy_norm
        return converged, k + 1, y, d

    def step(self) -> None:
        if not self._step_impl():
            self.status = "failed"
        elif self.direction * (self.t - self.t_bound) >= 0:
            self.status = "finished"

    def _step_impl(self) -> bool:
        """One accepted step, or False where the step fell below ten ulps of t."""
        t = self.t
        D = self.D
        min_step = 10 * np.abs(np.nextafter(t, self.direction * np.inf) - t)
        if self.h_abs < min_step:
            h_abs = min_step
            _change_d(D, self.order, min_step / self.h_abs)
            self.n_equal_steps = 0
        else:
            h_abs = self.h_abs

        atol, rtol, order = self.atol, self.rtol, self.order
        J = self.J
        LU = self.LU
        current_jac = False

        step_accepted = False
        while not step_accepted:
            if h_abs < min_step:
                return False

            h = h_abs * self.direction
            t_new = t + h

            if self.direction * (t_new - self.t_bound) > 0:
                t_new = self.t_bound
                _change_d(D, order, np.abs(t_new - t) / h_abs)
                self.n_equal_steps = 0
                LU = None

            h = t_new - t
            h_abs = np.abs(h)

            y_predict = D[:order + 1].sum(axis=0)

            scale = atol + rtol * np.abs(y_predict)
            psi = np.dot(D[1: order + 1].T, _GAMMA[1: order + 1]) / _ALPHA[order]

            converged = False
            c = h / _ALPHA[order]
            while not converged:
                if LU is None:
                    LU = self._factor(c, J)

                converged, n_iter, y_new, d = self._solve_bdf_system(
                    t_new, y_predict, c, psi, LU, scale)

                if not converged:
                    if current_jac:
                        break
                    J = self._jac(t_new, y_predict)
                    self.njev += 1
                    LU = None
                    current_jac = True

            if not converged:
                factor = 0.5
                h_abs *= factor
                _change_d(D, order, factor)
                self.n_equal_steps = 0
                LU = None
                continue

            safety = 0.9 * (2 * _NEWTON_MAXITER + 1) / (2 * _NEWTON_MAXITER + n_iter)

            scale = atol + rtol * np.abs(y_new)
            error = _ERROR_CONST[order] * d
            error_norm = self._norm(error / scale)

            if error_norm > 1:
                factor = max(_MIN_FACTOR, safety * error_norm ** (-1 / (order + 1)))
                h_abs *= factor
                _change_d(D, order, factor)
                self.n_equal_steps = 0
                # the Newton iteration converged: the factor stays
            else:
                step_accepted = True

        self.n_equal_steps += 1

        self.t = t_new
        self.y = y_new

        self.h_abs = h_abs
        self.J = J
        self.LU = LU

        # d = D^{k+1} y_n and D^{j+1} y_n = D^j y_n - D^j y_{n-1}
        D[order + 2] = d - D[order + 1]
        D[order + 1] = d
        for i in reversed(range(order + 1)):
            D[i] += D[i + 1]

        if self.n_equal_steps < order + 1:
            return True

        if order > 1:
            error_m = _ERROR_CONST[order - 1] * D[order]
            error_m_norm = self._norm(error_m / scale)
        else:
            error_m_norm = np.inf

        if order < _MAX_ORDER:
            error_p = _ERROR_CONST[order + 1] * D[order + 2]
            error_p_norm = self._norm(error_p / scale)
        else:
            error_p_norm = np.inf

        error_norms = np.array([error_m_norm, error_norm, error_p_norm])
        with np.errstate(divide="ignore"):
            factors = error_norms ** (-1 / np.arange(order, order + 3))

        delta_order = np.argmax(factors) - 1
        order += delta_order
        self.order = order

        factor = min(_MAX_FACTOR, safety * np.max(factors))
        self.h_abs *= factor
        _change_d(D, order, factor)
        self.n_equal_steps = 0
        self.LU = None

        return True

    def dense_output(self):
        """The interpolant of the last accepted step, scipy's BdfDenseOutput."""
        h = self.h_abs * self.direction
        order = self.order
        t_shift = self.t - h * np.arange(order)
        denom = h * (1 + np.arange(order))
        D = self.D[:order + 1].copy()

        def dense(t):
            p = np.cumprod((t - t_shift) / denom)
            y = np.dot(D[1:].T, p)
            y += D[0]
            return y

        return dense


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
    floats; k_from and k_to are always among them.  They are taken in one
    descending pass: a scale the flow has reached takes the current state,
    one passed inside a step that step's dense output.  Segments end at the
    regulator's kink scales inside the interval, so no step crosses a
    derivative discontinuity, and each evaluates the regulator on its own
    side of a kink.  Grid actions are stepped with the ported BDF and the
    analytic Jacobian, its Newton matrix factored as a band of half-width 3;
    vertex actions with scipy's RK45.  Raises ConvexityLoss, carrying the
    last convex state, where the curvature margin reaches zero or is
    extrapolated to within CONVEXITY_HORIZON * k of it; ``k`` is the
    extrapolated crossing scale.  Raises StepUnderflow where the step
    underflows or the Newton matrix is singular, and SpecValidationError
    where the initial action is not finite.
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
    queue = sorted({float(c) for c in checkpoints} | {float(k_from), float(k_to)},
                   reverse=True)
    for c in queue:
        if not (k_to <= c <= k_from):
            raise SpecValidationError(f"checkpoint {c} outside [{k_to}, {k_from}]")

    is_grid = isinstance(initial, GridAction)
    if is_grid:  # the grid's single mode
        grid_flow = _GridFlow(initial.grid, regulator, float(momenta[0]),
                              float(weights[0]))
    pending_loss = []

    def clamp(k):
        """k within the current segment's [lo, hi], set below."""
        return min(max(k, lo), hi)

    def rhs(k, y):
        if not np.isfinite(y).all():
            return np.full_like(y, np.nan)
        try:
            if is_grid:
                return grid_flow.rhs(clamp(k), y)
            return rhs_vertex(initial.unpack(clamp(k), y), regulator, momenta, weights)
        except ConvexityLoss as exc:
            # a trial stage or Newton iterate may leave the convex cone; poison
            # it so the solver rejects the step and shrinks it
            pending_loss.append(exc)
            return np.full_like(y, np.nan)

    def snapshot(k, y):
        """The action at k, with the grid's zero-field value subtracted."""
        if is_grid:
            y = y - y[y.size // 2]
        return initial.unpack(k, y)

    def margin(k, y):
        if is_grid:
            return float(grid_flow.curvature(k, y)[1].min())
        return _vertex_margin(initial.unpack(k, y), regulator, momenta, weights)

    kinks = [float(s) for s in regulator.kink_scales(momenta) if k_to < s < k_from]
    breakpoints = sorted(set([k_from, k_to] + kinks), reverse=True)
    stats = {"steps": 0, "nfev": 0, "njev": 0, "nlu": 0}
    # the last accepted scale and state, and the curvature margin there
    t, y = float(k_from), np.asarray(initial.pack(), dtype=float)
    if not np.isfinite(y).all():
        raise SpecValidationError(f"the initial action at k={k_from} is not finite")
    last_margin = margin(t, y)
    if last_margin <= 0.0:
        raise ConvexityLoss(
            f"regularized curvature non-positive at the start scale k={k_from:.6g}",
            k=k_from, last_state=initial,
        )
    snaps = [(queue.pop(0), snapshot(t, y))]  # k_from heads the queue

    for seg_start, seg_end in zip(breakpoints[:-1], breakpoints[1:]):
        # the regulator's value on a kink is the limit from one side only; a
        # segment bounded by a kink evaluates there one ulp inside itself
        hi = float(np.nextafter(seg_start, seg_end)) if seg_start in kinks else seg_start
        lo = float(np.nextafter(seg_end, seg_start)) if seg_end in kinks else seg_end
        pending_loss.clear()
        if is_grid:
            solver = _GridBDF(rhs, lambda k, y: grid_flow.jacobian_data(clamp(k), y),
                              seg_start, y, seg_end, rtol, atol)
        else:
            solver = RK45(rhs, seg_start, y, seg_end, rtol=rtol, atol=atol)
        try:
            while solver.status == "running":
                solver.step()
                if solver.status == "failed":
                    if not pending_loss:
                        raise StepUnderflow(f"integrator failed near k = {solver.t:.6g}")
                    pending_loss[-1].last_state = snapshot(t, y)
                    raise pending_loss[-1]
                stats["steps"] += 1
                t_new, m = float(solver.t), margin(solver.t, solver.y)
                # slope of the margin in k; the flow runs towards smaller k
                slope = (last_margin - m) / (t - t_new)
                if m <= 0.0 or (slope > 0.0 and m <= CONVEXITY_HORIZON * t_new * slope):
                    crossing = t_new - m / slope
                    if m > 0.0:
                        t, y = t_new, solver.y
                    raise ConvexityLoss(
                        f"regularized curvature margin reaches zero at "
                        f"k={crossing:.6g} (margin {m:.3g} at k={t_new:.6g})",
                        k=crossing, last_state=snapshot(t, y),
                    )
                # both steppers assign a new array at each step: no copy needed
                t, y, last_margin = t_new, solver.y, m
                if queue and queue[0] >= t:
                    dense = solver.dense_output()
                    while queue and queue[0] >= t:
                        c = queue.pop(0)
                        snaps.append((c, snapshot(c, dense(c) if c > t else y)))
            stats["nfev"] += solver.nfev
            stats["njev"] += solver.njev
            stats["nlu"] += solver.nlu
        finally:
            # scipy's RK45 holds closures over itself; clearing the state
            # breaks that cycle, so the solver is freed now rather than at the
            # next cyclic garbage collection
            solver.__dict__.clear()
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
            h, w = ctx.spec._position_map
            h = h.T  # one row per position
            g2 = c_inv + 2.0 * ctx.spec.c2 * np.einsum("l,la,lb->ab", w, h, h)
            g4 = 24.0 * ctx.spec.c4 * np.einsum("l,la,lb,lc,ld->abcd", w, h, h, h, h)
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
            plus, _ = fn.legendre_transform(ctx, k + hh, phis)
            minus, _ = fn.legendre_transform(ctx, k - hh, phis)
            return (plus - minus) / (2.0 * hh)

        lhs = (4.0 * central(FIRST_FORM_DK_STEP / 2.0)
               - central(FIRST_FORM_DK_STEP)) / 3.0
        w2 = fn.invert_mean_field(ctx, k, phis[:, None]).moments.cov[:, 0, 0]
        rhs = (0.5 * float(ctx.scale(k).f_dot[0]) * w2
               + fn.dk_log_normalization(ctx, k))
    return [
        {"phi": float(phi), "k": k, "lhs": float(l), "rhs": float(r),
         "abs_diff": abs(float(l) - float(r))}
        for phi, l, r in zip(phis, lhs, rhs)
    ]
