"""Scale flow of the subtracted effective average action.

Two representations are integrated: a sampled field grid for a single mode
and a truncated vertex expansion (two- and four-point tensors, six-point set
to zero).  Both right-hand sides are the trace form of the exact flow, and
segments are split at the kink loci of non-smooth regulators.  Both are
stepped in RG time tau = asinh(k / RG_TIME_SCALE), logarithmic in k in the UV
and linear near k = 0, as dy/dtau = (dk/dtau) dy/dk; segment ends,
checkpoints and every reported scale are values of k.

On the grid the trace form u' = 1/2 d_kF_k / (D2 u + R_k) is a nonlinear
diffusion, stiff in the node count, so it is stepped with the implicit BDF
method and its analytic Jacobian diag(-1/2 d_kF_k / (D2 u + R_k)^2) D2,
where D2 is the sparse second-difference matrix.  The stepper, _GridBDF, is
scipy's variable-order BDF step ported operation for operation into one
class of its own, so its steps and states are scipy's bits and a grid flow
never imports scipy.integrate.  It evaluates the flow on the bare node
vector, whose F_k and d_kF_k are taken once per scale: the Newton iterates
of a step share its k, and so does the curvature margin after it.  J
shares D2's pattern, so BDF's Newton matrix I - cJ is a band of half-width
3 (the 4-point edge stencils), written straight into LAPACK's band layout
and factored with its band LU.
D2 annihilates constants up to rounding (its solved central stencil sums to
-6.9e-17), so the zero-field subtraction u - u(0) is taken at the
checkpoints only.

The regulator term 1/2 phi.R_k phi keeps the reflection phi -> -phi, and D2
is mirror-symmetric, edge stencils included (the solved central stencil to
two ulps), so the trace form maps even functions to even functions: an even
theory (c3 = 0) flows inside them, and its flow on the nodes phi >= 0 is the
full flow, exactly in exact arithmetic.  An action whose grid is
mirror-symmetric (grid == -grid[::-1]) and whose values are even (values ==
values[::-1]), both bit for bit, is stepped on its N + 1 nodes phi >= 0
alone, through the folded D2: D2's rows phi >= 0 with each column phi < 0
added onto its mirror.  Its band keeps half-width 3, and the stepper is
unchanged; checkpoints, dense output and errors unfold to the full grid, so
every checkpoint of an even flow is exactly even.  Any other action steps
all 2N + 1 nodes.  The oracle's grid values fold alike
(functionals.grid_transform, which `frgelab exact` shares).

The vertex flow is not stiff and uses scipy's explicit Runge-Kutta 5(4)
pair, RK45, which the first vertex flow imports (the module name RK45).  It
steps only the independent components of the symmetric tensors, through
cached orbit index maps, and its right-hand side contracts that packed
vector over the sorted index pairs alone: small matrix products and gathers.

Each representation has one flow object, _GridFlow or _VertexFlow, holding
the stepped start vector, the right-hand side, the curvature margin, the
stepper and the action at a scale; `integrate` knows no more of either.  Of
a stepper, RK45 or _GridBDF, it reads ``t``, ``y``, ``status``, ``step()``,
``dense_output()`` and the counters ``nfev``, ``njev`` and ``nlu``.

After every accepted step the curvature margin min(Gamma_k'' + R_k) is
checked directly: convexity loss is raised where it reaches zero or where
its extrapolation over the last step, linear in k^2, reaches zero within
CONVEXITY_HORIZON * k, at the extrapolated crossing scale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
import scipy.sparse as sp
from scipy.linalg.lapack import dgbtrf, dgbtrs

from . import functionals as fn
from .errors import ConvexityLoss, GridMismatch, SpecValidationError, StepUnderflow
from .functionals import FunctionalContext, exact_grid_values
from .model import classical_asymptote, covariance, is_even, unfold
from .regulator import regulator_diagonals


# -- finite differences ------------------------------------------------


@lru_cache(maxsize=64)
def _stencil(offsets: tuple, order: int) -> np.ndarray:
    """Finite-difference weights for the given derivative order (unit spacing)."""
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
    return _read_only(d2)


@lru_cache(maxsize=16)
def folded_second_difference_matrix(n: int) -> sp.csc_matrix:
    """D2 of n nodes (n odd) acting on even functions, on their nodes phi >= 0.

    Index i is the full grid's node n // 2 + i: the rows phi >= 0 of D2, each
    column phi < 0 added onto its mirror column.  For u even, D2 u on the
    nodes phi >= 0 is this matrix times u there.  Row 0 is the central
    stencil folded onto nodes 0, 1 and 2, still fourth order; the last row is
    D2's 4-point edge stencil, so the half-band stays 3.  The cached matrix
    is read-only.
    """
    d2 = second_difference_matrix(n).tocoo()
    centre = n // 2
    half = d2.row >= centre
    folded = sp.csc_matrix(
        (d2.data[half], (d2.row[half] - centre, np.abs(d2.col[half] - centre))),
        shape=(centre + 1, centre + 1),
    )
    return _read_only(folded)


def _read_only(m: sp.csc_matrix) -> sp.csc_matrix:
    for a in (m.data, m.indices, m.indptr):
        a.flags.writeable = False
    return m


# -- action representations --------------------------------------------


@dataclass(frozen=True)
class GridAction:
    """Subtracted action sampled on an odd uniform single-mode field grid."""

    k: float
    grid: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        if self.grid.ndim != 1 or self.grid.size % 2 != 1 or self.grid.size < 5:
            raise SpecValidationError(
                "grid node count must be odd (0 must be a node) and at least 5 "
                f"(the edge stencils), got {self.grid.size}"
            )
        if self.values.shape != self.grid.shape:
            raise SpecValidationError(
                f"{self.values.shape} values on a grid of {self.grid.size} nodes")
        # D2 takes one spacing h; rounding spreads field_grid's spacings (phi_max
        # 4.5) by 1.2e-13 h at 1 201 nodes and 9.9e-12 h at 100 001
        h = np.diff(self.grid)
        if not (h[0] > 0.0 and np.abs(h - h[0]).max() <= 1e-9 * h[0]):
            raise SpecValidationError(
                "the grid must be increasing and uniform: its spacings span "
                f"[{h.min():.6g}, {h.max():.6g}]")


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


def symmetrize(a: np.ndarray) -> np.ndarray:
    """The mean of a tensor with equal axes over all permutations of its axes."""
    return _unpack_symmetric(_pack_symmetric(a), a.shape[0], a.ndim)


@dataclass(frozen=True)
class VertexAction:
    """Even-theory vertex truncation: symmetric 2- and 4-point tensors.

    The flow steps only the independent components, M(M+1)/2 of gamma2 and
    C(M+3, 4) of gamma4 (see _VertexFlow).
    """

    k: float
    gamma2: np.ndarray
    gamma4: np.ndarray

    def __post_init__(self):
        if self.gamma2.ndim != 2 or self.gamma2.shape[0] != self.gamma2.shape[1]:
            raise SpecValidationError(
                f"gamma2 has shape {self.gamma2.shape}, expected a square matrix")
        m = self.gamma2.shape[0]
        if self.gamma4.shape != (m, m, m, m):
            raise SpecValidationError(
                f"gamma4 has shape {self.gamma4.shape}, expected {(m, m, m, m)}"
            )

    @property
    def modes(self) -> int:
        return self.gamma2.shape[0]


@dataclass
class FlowTrajectory:
    checkpoints: list  # (k, action) pairs, k strictly decreasing
    stats: dict = field(default_factory=dict)


# -- right-hand sides --------------------------------------------------


def _one_per_mode(modes: int, momenta, weights) -> tuple[np.ndarray, np.ndarray]:
    """momenta and weights as float arrays of one entry per mode."""
    momenta = np.asarray(momenta, dtype=float)
    weights = np.asarray(weights, dtype=float)
    if momenta.shape != (modes,) or weights.shape != (modes,):
        raise SpecValidationError(
            f"a flow of {modes} mode(s) needs one momentum and one weight per mode, "
            f"got {momenta.size} and {weights.size}")
    return momenta, weights


class _GridFlow:
    """The grid flow of one action, regulator and mode on its stepped node
    vector ``y0``; only ``action`` builds a GridAction.  An even action
    (mirror-symmetric grid, values == values[::-1], both bit for bit) is
    stepped on the nodes phi >= 0 alone, through the folded D2; ``action``
    and the errors still name the full grid.
    """

    def __init__(self, initial: GridAction, regulator, momenta, weights):
        grid, values = initial.grid, initial.values
        self.grid, self.regulator = grid, regulator
        self.momenta, self.weights = _one_per_mode(1, momenta, weights)
        self.momentum, self.weight = float(self.momenta[0]), float(self.weights[0])
        if is_even(grid, values):
            self.d2 = folded_second_difference_matrix(grid.size)
            self.first_node = grid.size // 2  # the full-grid index of node 0
        else:
            self.d2 = second_difference_matrix(grid.size)
            self.first_node = 0
        self.y0 = np.array(values[self.first_node:], dtype=float)
        self.h2 = float(grid[1] - grid[0]) ** 2
        self._k = None  # the scale whose (R_k, d_k F_k) _diagonals holds

    def _diagonals(self, k) -> tuple[float, float]:
        """R_k and d_k F_k of the mode, evaluated once per scale: the Newton
        iterates of a step share its k, and so does the margin after it."""
        # 0 and -0 compare equal, and d_k F_k keeps the sign of k: zero is
        # evaluated every time
        if k != self._k or k == 0.0:
            self._k = k
            self._r_k = float(self.regulator.value(k, self.momentum)) * self.weight
            self._f_dot = float(self.regulator.dk(k, self.momentum)) * self.weight
        return self._r_k, self._f_dot

    def curvature(self, k, u: np.ndarray) -> tuple[float, np.ndarray]:
        """d_k F_k and the regularised curvature D2 u + R_k at every node, a
        new array."""
        r_k, f_dot = self._diagonals(k)
        denom = self.d2 @ u
        denom /= self.h2
        denom += r_k
        return f_dot, denom

    def rhs(self, k, u: np.ndarray) -> np.ndarray:
        """The flow 1/2 d_k F_k / (D2 u + R_k), a new array."""
        f_dot, denom = self.curvature(k, u)
        if f_dot == 0.0:
            return np.zeros_like(u)
        nonpositive = denom <= 0.0
        if nonpositive.any():
            node = self.first_node + int(np.argmax(nonpositive))
            raise ConvexityLoss(
                f"regularized curvature non-positive at node {node} "
                f"(phi={self.grid[node]:.4g}, k={k:.6g})",
                k=k,
            )
        return np.divide(0.5 * f_dot, denom, out=denom)

    def jacobian_data(self, k, u: np.ndarray) -> np.ndarray:
        """The entries of J = diag(-1/2 d_k F_k / (D2 u + R_k)^2) D2 in D2's
        stored (CSC) order, a new array."""
        f_dot, row_scale = self.curvature(k, u)
        # denom^2 overflows from k ~ 1e77 on, where the entry rounds to 0 anyway
        with np.errstate(over="ignore"):
            row_scale *= row_scale
            row_scale *= self.h2
            np.divide(-0.5 * f_dot, row_scale, out=row_scale)
        return row_scale[self.d2.indices] * self.d2.data

    def margin(self, k, u: np.ndarray) -> float:
        """min(D2 u + R_k), taken as min(D2 u) / h^2 + R_k: dividing by
        h^2 > 0 and adding R_k both round monotonically, so it is the same
        float."""
        r_k, _ = self._diagonals(k)
        return float((self.d2 @ u).min()) / self.h2 + r_k

    def unfold(self, u: np.ndarray) -> np.ndarray:
        return unfold(u) if self.first_node else u

    def action(self, k, u: np.ndarray) -> GridAction:
        """The action at k on the full grid, its zero-field value subtracted."""
        u = self.unfold(u)
        return GridAction(k=k, grid=self.grid, values=u - u[u.size // 2])

    def solver(self, fun, jac, t0, y0, t_bound, rtol, atol) -> _GridBDF:
        return _GridBDF(fun, jac, self.d2, t0, y0, t_bound, rtol, atol)


def rhs_grid(state: GridAction, regulator, momentum: float = 0.0,
             weight: float = 1.0) -> np.ndarray:
    """Trace-form flow 1/2 d_k F_k / (D2 u + R_k) of the grid action, all nodes."""
    flow = _GridFlow(state, regulator, [momentum], [weight])
    return flow.unfold(flow.rhs(state.k, flow.y0))


@lru_cache(maxsize=32)
def _pair_maps(m: int) -> tuple[np.ndarray, np.ndarray]:
    """Index maps of the vertex flow's contraction over sorted index pairs.

    Returns (rows, channels), both read from _orbit_map's labels, so they
    follow the packed order.  ``rows[h, a m + b]`` indexes gamma4[i, j, a, b]
    in the packed state y, for the h-th sorted pair i <= j: y[rows] is A_h.
    ``channels`` is (3, C(m + 3, 4)): for the sorted representative
    i <= j <= k <= l of each packed four-index orbit, the flat indices into
    an (n2, n2) pair matrix of (ij, kl), (ik, jl) and (il, jk), all sorted
    pairs.  The cached arrays are read-only.
    """
    (pair_labels, _), (quad_labels, _) = _orbit_map(m, 2), _orbit_map(m, 4)
    _, pairs = np.unique(pair_labels, return_index=True)
    # an orbit's smallest flat index is its ascending, sorted multi-index
    _, first = np.unique(quad_labels, return_index=True)
    i, j, k, l = np.unravel_index(first, (m,) * 4)
    pair, n2 = pair_labels.reshape(m, m), pairs.size
    rows = n2 + quad_labels.reshape(m * m, m * m)[pairs]
    channels = np.stack([pair[i, j] * n2 + pair[k, l],
                         pair[i, k] * n2 + pair[j, l],
                         pair[i, l] * n2 + pair[j, k]])
    for a in (rows, channels):
        a.flags.writeable = False
    return rows, channels


def rhs_vertex(k, y: np.ndarray, regulator, momenta, weights) -> np.ndarray:
    """Truncated vertex flow with the six-point function set to zero.

    ``y`` is the packed state of M = len(momenta) modes that the integrator
    steps, and so is the result.  With G = (gamma2 + F_k)^-1,
    P = G diag(d_k F_k) G and A = gamma4 as an (M^2, M^2) matrix,
    d_k gamma2 = -1/2 A vec(P) and d_k gamma4 is the sum of the s, t and u
    channels of t = A (P x G) A.  t is unchanged under i <-> j, k <-> l and
    (ij) <-> (kl), so at a sorted index i <= j <= k <= l the packed
    d_k gamma4 is t[ij, kl] + t[ik, jl] + t[il, jk], and only the
    n2 = M(M+1)/2 rows A_h of A at sorted pairs are needed, one gather of y:
    d_k gamma2 is -1/2 A_h vec(P), Y = A_h (P x G) is two (n2 M, M) @ (M, M)
    products, and T = Y A_h^T is t on the sorted pairs, whose three channels
    are cached gathers.  That is about 0.7k multiply-adds at M = 3 and 230k
    at M = 9, against 1.5k and 1.06M for the full t.  Raises ConvexityLoss
    where gamma2 + F_k is not positive definite.
    """
    momenta = np.asarray(momenta, dtype=float)
    f_diag = regulator.value(k, momenta) * weights
    f_dot = regulator.dk(k, momenta) * weights
    m = momenta.size
    rows, channels = _pair_maps(m)
    n2 = rows.shape[0]
    a = _unpack_symmetric(y[:n2], m, 2) + np.diag(f_diag)
    # np.linalg, not scipy's dpotrf/dpotri, whose OpenBLAS runs a second thread
    # here: the vertex flow's CPU time would rise to twice its wall time
    try:
        np.linalg.cholesky(a)
    except np.linalg.LinAlgError as exc:
        raise ConvexityLoss(
            f"gamma2 + F_k lost positive definiteness at k={k:.6g}", k=k
        ) from exc
    g = np.linalg.inv(a)
    p = (g * f_dot) @ g
    a_h = y[rows]
    d_g2 = -0.5 * (a_h @ p.ravel())
    # Y[h, (l, n)] = sum_ab A_h[h, (a, b)] P_al G_bn: G over b, then P over a,
    # leaving w[h, n, l]; A_h's rows are symmetric in their index pair, so w
    # contracts with them as Y does
    z = (a_h.reshape(n2 * m, m) @ g).reshape(n2, m, m)
    w = z.transpose(0, 2, 1).reshape(n2 * m, m) @ p
    t = w.reshape(n2, m * m) @ a_h.T
    return np.concatenate([d_g2, t.ravel()[channels].sum(axis=0)])


# scipy.integrate.RK45, the vertex flows' stepper, bound by the first vertex
# flow (_VertexFlow.solver), so that a grid flow never imports scipy.integrate;
# read at every call, so another OdeSolver put here steps the vertex flows
RK45 = None


class _VertexFlow:
    """The vertex flow of one action and regulator on its packed state ``y0``:
    the independent components of gamma2, then of gamma4, in _orbit_map's
    order (packing symmetrises); only ``action`` builds a VertexAction."""

    def __init__(self, initial: VertexAction, regulator, momenta, weights):
        self.modes, self.regulator = initial.modes, regulator
        self.momenta, self.weights = _one_per_mode(initial.modes, momenta, weights)
        self.n2 = initial.modes * (initial.modes + 1) // 2
        self.y0 = np.concatenate([_pack_symmetric(initial.gamma2),
                                  _pack_symmetric(initial.gamma4)])

    def rhs(self, k, y: np.ndarray) -> np.ndarray:
        return rhs_vertex(k, y, self.regulator, self.momenta, self.weights)

    def margin(self, k, y: np.ndarray) -> float:
        """The least eigenvalue of gamma2 + F_k."""
        f_diag = self.regulator.value(k, self.momenta) * self.weights
        gamma2 = _unpack_symmetric(y[:self.n2], self.modes, 2)
        return float(np.linalg.eigvalsh(gamma2 + np.diag(f_diag))[0])

    def action(self, k, y: np.ndarray) -> VertexAction:
        return VertexAction(k=k, gamma2=_unpack_symmetric(y[:self.n2], self.modes, 2),
                            gamma4=_unpack_symmetric(y[self.n2:], self.modes, 4))

    def solver(self, fun, jac, t0, y0, t_bound, rtol, atol):
        global RK45
        if RK45 is None:  # scipy.integrate costs about 0.24 s of start-up
            from scipy.integrate import RK45
        return RK45(fun, t0, y0, t_bound, rtol=rtol, atol=atol)  # explicit: no jac


# -- integration -------------------------------------------------------


# A curvature margin whose linear extrapolation over the last accepted step
# reaches zero within this fraction of k counts as lost: the flow's resolvent
# diverges at the crossing, where an adaptive step would only crawl.
CONVEXITY_HORIZON = 1e-3

# kappa of the RG time tau = asinh(k / kappa) in which the flows are stepped.
# tau is logarithmic in k for k >> kappa, where the flow is close to
# logarithmic in k, and linear near k = 0, which ln k cannot reach.  kappa = 2
# took the fewest grid steps from the classical phi^4 start (mass 1 +- 1 %,
# c4 0.1, 1 201 nodes, litim, k 100 -> 0, rtol 1e-9, three seeds): 156-157,
# against 153-157 at 2.5, 170-173 at 1.5 and at 3, and 190-191 at 1.  Of the
# two, 2 is a power of two, so k / kappa and kappa sinh(tau) round only in
# asinh and sinh.
RG_TIME_SCALE = 2.0


# -- the grid stepper --------------------------------------------------
#
# scipy 1.17's BDF step (scipy/integrate/_ivp/bdf.py), ported operation for
# operation: variable order 1 to 5 with the NDF corrector on a quasi-constant
# step (Shampine & Reichelt, SIAM J. Sci. Comput. 18, 1997), as one class
# that holds BDF's state and what ``integrate`` reads of a stepper, and no
# base class of scipy's, so a grid flow never imports scipy.integrate.
# Every arithmetic operation is scipy's, on its operands in its order, so the
# steps, the counters and the states are scipy's bits.  Some are taken in
# place, in a work array, on Python floats where scipy has numpy scalars
# (the norm's square root, the step's nextafter) or with the unit step's
# rescaling matrix cached: the same IEEE operations on the same operands.
# What the port leaves out is scipy's general Jacobian machinery: J is held as
# its entries in D2's stored order, I - cJ is written straight into LAPACK's
# band layout, and the RMS norm is numpy's own formula sqrt(x.x) / sqrt(n)
# without np.linalg.norm's dispatch.

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


@lru_cache(maxsize=_MAX_ORDER + 1)
def _unit_r(order: int) -> np.ndarray:
    """_compute_r(order, 1), read-only."""
    r = _compute_r(order, 1)
    r.flags.writeable = False
    return r


def _change_d(d: np.ndarray, order, factor) -> None:
    """Rescale the differences array in place to a step ``factor`` times as long."""
    ru = _compute_r(order, factor).dot(_unit_r(order))
    d[:order + 1] = np.dot(ru.T, d[:order + 1])


def _band_pattern(pattern: sp.csc_matrix) -> tuple[int, np.ndarray, np.ndarray]:
    """A square CSC pattern's half-band b, and for each stored entry (i, j),
    in CSC order, its flat index in dgbtrf's Fortran-ordered (3b + 1, n)
    layout, row 2b + i - j of column j (b rows of fill on top), and whether
    it is diagonal (1.0) or not (0.0)."""
    n = pattern.shape[1]
    rows = pattern.indices
    cols = np.repeat(np.arange(n), np.diff(pattern.indptr))
    b = int(np.abs(rows - cols).max())
    flat = 2 * b + rows - cols + (3 * b + 1) * cols
    unit = (rows == cols).astype(float)
    return b, flat, unit


class _GridBDF:
    """The BDF stepper of a grid flow.

    ``integrate`` reads of it what it reads of RK45: ``t``, ``y``,
    ``status`` ("running", "finished" or "failed"), ``step()``,
    ``dense_output()`` and the counters ``nfev``, ``njev`` and ``nlu``.
    ``fun(t, u)`` is the flow's right-hand side in the stepped variable t
    (the RG time, in ``integrate``), a new array at each call, which the
    stepper may overwrite, and ``jac(t, u)`` the entries of its Jacobian J
    in the stored order of ``pattern``, the CSC matrix whose pattern J
    shares (:meth:`_GridFlow.jacobian_data`, times dk/dt, on the flow's D2).
    A pattern of another size than ``y0`` raises GridMismatch.  The Newton
    matrix I - cJ has the entries 1 - c J_ii and 0 - c J_ij that scipy's
    sparse I - c*J holds; dgbtrf factors it as a band, and a singular factor
    raises StepUnderflow.
    """

    def __init__(self, fun, jac, pattern: sp.csc_matrix, t0: float, y0: np.ndarray,
                 t_bound: float, rtol: float, atol: float):
        if not np.isfinite(y0).all():
            raise ValueError("All components of the initial state `y0` must be finite.")
        self.n = y0.size
        if pattern.shape != (self.n, self.n):
            raise GridMismatch(
                f"the Jacobian pattern is {pattern.shape[0]} x {pattern.shape[1]}, "
                f"the state has {self.n} nodes")
        self._fun, self._jac = fun, jac
        self.t, self.y, self.t_bound = t0, y0, t_bound
        self.direction = -1.0 if t_bound < t0 else 1.0
        self.status = "running"
        self.nfev = self.njev = self.nlu = 0
        self.rtol, self.atol = rtol, atol
        self._root_n = self.n ** 0.5
        self._work = np.empty(self.n)  # the norms' scaled vectors
        self.half_band, self._band_flat, self._band_unit = _band_pattern(pattern)
        f = self.fun(self.t, self.y)
        self.h_abs = self._initial_step(f)
        self.newton_tol = max(10 * _EPS / rtol, min(0.03, rtol ** 0.5))
        self.J = jac(self.t, self.y)
        self.njev += 1
        self.D = np.empty((_MAX_ORDER + 3, self.n))
        self.D[0] = self.y
        self.D[1] = f * self.h_abs * self.direction
        self.order = 1
        self.n_equal_steps = 0
        self.LU = None

    def fun(self, t, y: np.ndarray) -> np.ndarray:
        """The right-hand side, counted in ``nfev``."""
        self.nfev += 1
        return self._fun(t, y)

    def _norm(self, x: np.ndarray) -> float:
        """RMS norm: np.linalg.norm(x) / sqrt(n), with its arithmetic."""
        return math.sqrt(x.dot(x)) / self._root_n

    def _scaled_norm(self, x: np.ndarray, scale: np.ndarray, const=None) -> float:
        """The RMS norm of x / scale, or of (const x) / scale, formed in the
        work array."""
        if const is None:
            return self._norm(np.divide(x, scale, out=self._work))
        w = np.multiply(x, const, out=self._work)
        w /= scale
        return self._norm(w)

    def _scale(self, y: np.ndarray) -> np.ndarray:
        """The error test's scale atol + rtol |y|, a new array."""
        scale = np.abs(y)
        scale *= self.rtol
        scale += self.atol
        return scale

    def _initial_step(self, f0: np.ndarray):
        """scipy's select_initial_step for order 1 (Hairer, Norsett & Wanner,
        Sec. II.4); the step is unbounded but by the interval."""
        t0, y0, direction = self.t, self.y, self.direction
        interval_length = abs(self.t_bound - t0)
        if interval_length == 0.0:
            return 0.0
        scale = self._scale(y0)
        d0 = self._norm(y0 / scale)
        d1 = self._norm(f0 / scale)
        if d0 < 1e-5 or d1 < 1e-5:
            h0 = 1e-6
        else:
            h0 = 0.01 * d0 / d1
        h0 = min(h0, interval_length)
        y1 = y0 + h0 * direction * f0
        f1 = self.fun(t0 + h0 * direction, y1)
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
            f = self.fun(t_new, y)
            if not np.isfinite(f).all():
                break
            f *= c  # c f - psi - d, in f
            f -= psi
            f -= d
            dy = self._solve_lu(factor, f)
            dy_norm = self._scaled_norm(dy, scale)
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
        """One accepted step, and ``status`` "finished" once t reaches
        t_bound, or ``status`` "failed" where the step fell below ten ulps of
        t."""
        t = self.t
        if t == self.t_bound:  # a segment shorter than an ulp of tau
            self.status = "finished"
            return
        D = self.D
        min_step = 10 * abs(math.nextafter(t, self.direction * math.inf) - t)
        if self.h_abs < min_step:
            h_abs = min_step
            _change_d(D, self.order, min_step / self.h_abs)
            self.n_equal_steps = 0
        else:
            h_abs = self.h_abs

        order = self.order
        J = self.J
        LU = self.LU
        current_jac = False

        step_accepted = False
        while not step_accepted:
            if h_abs < min_step:
                self.status = "failed"
                return

            h = h_abs * self.direction
            t_new = t + h

            if self.direction * (t_new - self.t_bound) > 0:
                t_new = self.t_bound
                _change_d(D, order, abs(t_new - t) / h_abs)
                self.n_equal_steps = 0
                LU = None

            h = t_new - t
            h_abs = abs(h)

            y_predict = D[:order + 1].sum(axis=0)

            scale = self._scale(y_predict)
            psi = np.dot(D[1: order + 1].T, _GAMMA[1: order + 1])
            psi /= _ALPHA[order]

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

            scale = self._scale(y_new)
            error_norm = self._scaled_norm(d, scale, _ERROR_CONST[order])

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
        if self.direction * (t_new - self.t_bound) >= 0:
            self.status = "finished"

        self.h_abs = h_abs
        self.J = J
        self.LU = LU

        # d = D^{k+1} y_n and D^{j+1} y_n = D^j y_n - D^j y_{n-1}
        np.subtract(d, D[order + 1], out=D[order + 2])
        D[order + 1] = d
        for i in reversed(range(order + 1)):
            D[i] += D[i + 1]

        if self.n_equal_steps < order + 1:
            return

        if order > 1:
            error_m_norm = self._scaled_norm(D[order], scale, _ERROR_CONST[order - 1])
        else:
            error_m_norm = np.inf

        if order < _MAX_ORDER:
            error_p_norm = self._scaled_norm(D[order + 2], scale, _ERROR_CONST[order + 1])
        else:
            error_p_norm = np.inf

        error_norms = np.array([error_m_norm, error_norm, error_p_norm])
        with np.errstate(divide="ignore"):
            factors = error_norms ** (-1 / np.arange(order, order + 3))

        delta_order = int(np.argmax(factors)) - 1
        order += delta_order
        self.order = order

        factor = min(_MAX_FACTOR, safety * np.max(factors))
        self.h_abs *= factor
        _change_d(D, order, factor)
        self.n_equal_steps = 0
        self.LU = None

    def dense_output(self):
        """The interpolant of the last accepted step, scipy's BdfDenseOutput:
        a function of t.  A segment shorter than an ulp of tau takes no step
        (its initial step is 0), and its interpolant is its state."""
        if self.h_abs == 0.0:
            y = self.y
            return lambda t: y
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
    rtol: float = 1e-9,
    atol: float = 1e-11,
) -> FlowTrajectory:
    """Integrate the flow from k_from down to k_to with checkpoints.

    Both representations are stepped in RG time tau = asinh(k / kappa),
    kappa = RG_TIME_SCALE, as dy/dtau = kappa cosh(tau) f(k, y) at
    k = kappa sinh(tau); rtol and atol bound the error of that ODE.  Segment
    ends and checkpoints are scales k: a segment end is reached at exactly
    its k, and every reported scale, in the checkpoints and in the errors,
    is a k.
    ``checkpoints`` is any iterable of scales in [k_to, k_from], kept as
    floats; k_from and k_to are always among them.  They are taken in one
    descending pass: a scale the flow has reached takes the current state,
    one passed inside a step that step's dense output, read at tau(c).
    Segments end at the regulator's kink scales inside the interval, so no
    step crosses a derivative discontinuity, and each evaluates the
    regulator on its own side of a kink.  The action's flow object steps it:
    a grid action (_GridFlow) with the ported BDF and the analytic Jacobian,
    its Newton matrix factored as a band of half-width 3, an even one on its
    nodes phi >= 0 alone and reported on the full grid, with no import of
    scipy.integrate; a vertex action (_VertexFlow) with scipy's RK45 on its
    packed state, imported by the first vertex flow.  ``momenta`` and
    ``weights`` give one entry per mode, one for a grid action; they default
    to a single zero momentum and unit weights.  Raises ConvexityLoss,
    carrying the last convex state, where the curvature margin reaches zero
    or its extrapolation over the last step, linear in k^2, reaches zero
    within CONVEXITY_HORIZON * k of it; ``k`` is the extrapolated crossing
    scale.  Raises StepUnderflow where the step underflows or the Newton
    matrix is singular, and SpecValidationError where rtol is below 100 eps,
    the floor of scipy's solvers, the momenta or weights are not one per
    mode, or the initial action is not finite.
    """
    if not k_to <= k_from:
        raise SpecValidationError(
            f"flow runs downward: need k_to <= k_from, got {k_to} and {k_from}")
    if not (rtol > 0 and atol > 0):
        raise SpecValidationError("rtol and atol must be positive")
    if rtol < 100 * _EPS:
        raise SpecValidationError(
            f"rtol {rtol:g} is below 100 eps = {100 * _EPS:.3g}, the smallest "
            "relative tolerance scipy's solvers honour")
    if momenta is None:
        momenta = np.zeros(1)
    if weights is None:
        weights = np.ones(np.shape(momenta))
    flow = (_GridFlow if isinstance(initial, GridAction) else _VertexFlow)(
        initial, regulator, momenta, weights)
    # R_k grows with k, so a regulator finite at k_from is finite on the flow
    regulator_diagonals(regulator, k_from, flow.momenta, flow.weights)
    queue = sorted({float(c) for c in checkpoints} | {float(k_from), float(k_to)},
                   reverse=True)
    for c in queue:
        if not (k_to <= c <= k_from):
            raise SpecValidationError(f"checkpoint {c} outside [{k_to}, {k_from}]")

    pending_loss = []
    kappa = RG_TIME_SCALE

    def rg_time(k):
        return math.asinh(k / kappa)

    def scale(tau):
        """The k of RG time tau in the current segment (bounds set below):
        the segment's ends exactly, kappa sinh(tau) between them."""
        if tau == tau_end:
            return seg_end
        if tau == tau_start:
            return seg_start
        return kappa * math.sinh(tau)

    def clamp(k):
        """k within the current segment's [lo, hi], set below."""
        return min(max(k, lo), hi)

    def rhs(tau, y):
        if not np.isfinite(y).all():
            return np.full_like(y, np.nan)
        k = clamp(scale(tau))
        try:
            f = flow.rhs(k, y)
        except ConvexityLoss as exc:
            # a trial stage or Newton iterate may leave the convex cone; poison
            # it so the solver rejects the step and shrinks it
            pending_loss.append(exc)
            return np.full_like(y, np.nan)
        # dk/dtau = kappa cosh(tau), taken at the k the flow is evaluated at;
        # f is the flow's own new array
        f *= math.hypot(kappa, k)
        return f

    def jac(tau, y):
        k = clamp(scale(tau))
        j = flow.jacobian_data(k, y)
        j *= math.hypot(kappa, k)
        return j

    kinks = [float(s) for s in regulator.kink_scales(flow.momenta) if k_to < s < k_from]
    breakpoints = sorted(set([k_from, k_to] + kinks), reverse=True)
    stats = {"steps": 0, "nfev": 0, "njev": 0, "nlu": 0}
    # the last accepted scale and state, and the curvature margin there
    t, y = float(k_from), flow.y0
    if not np.isfinite(y).all():
        raise SpecValidationError(f"the initial action at k={k_from} is not finite")
    last_margin = flow.margin(t, y)
    if last_margin <= 0.0:
        raise ConvexityLoss(
            f"regularized curvature non-positive at the start scale k={k_from:.6g}",
            k=k_from, last_state=initial,
        )
    snaps = [(queue.pop(0), flow.action(t, y))]  # k_from heads the queue

    for seg_start, seg_end in zip(breakpoints[:-1], breakpoints[1:]):
        # the regulator's value on a kink is the limit from one side only; a
        # segment bounded by a kink evaluates there one ulp inside itself
        hi = float(np.nextafter(seg_start, seg_end)) if seg_start in kinks else seg_start
        lo = float(np.nextafter(seg_end, seg_start)) if seg_end in kinks else seg_end
        tau_start, tau_end = rg_time(seg_start), rg_time(seg_end)
        pending_loss.clear()
        solver = flow.solver(rhs, jac, tau_start, y, tau_end, rtol, atol)
        try:
            while solver.status == "running":
                try:
                    solver.step()
                except StepUnderflow:  # _GridBDF's message names tau
                    raise StepUnderflow(
                        f"BDF's Newton matrix is singular near k = {t:.6g}") from None
                if solver.status == "failed":
                    if not pending_loss:
                        raise StepUnderflow(f"integrator failed near k = {t:.6g}")
                    pending_loss[-1].last_state = flow.action(t, y)
                    raise pending_loss[-1]
                stats["steps"] += 1
                t_new = scale(solver.t)
                m = flow.margin(t_new, solver.y)
                # the margin's secant in k^2, exact for a margin k^2 + c such as
                # litim's in the UV, where one step spans decades of k and a
                # secant in k would overstate the tangent by that span
                slope = (last_margin - m) / (t - t_new) / (t + t_new)
                # the secant's zero is within CONVEXITY_HORIZON * t_new of t_new
                # where m / slope <= (1 - (1 - CONVEXITY_HORIZON)^2) t_new^2
                if m <= 0.0 or (slope > 0.0 and m / slope <= CONVEXITY_HORIZON
                                * (2.0 - CONVEXITY_HORIZON) * t_new * t_new):
                    crossing = math.sqrt(t_new * t_new - m / slope)
                    if m > 0.0:
                        t, y = t_new, solver.y
                    raise ConvexityLoss(
                        f"regularized curvature margin reaches zero at "
                        f"k={crossing:.6g} (margin {m:.3g} at k={t_new:.6g})",
                        k=crossing, last_state=flow.action(t, y),
                    )
                # both steppers assign a new array at each step: no copy needed
                t, y, last_margin = t_new, solver.y, m
                if queue and queue[0] >= t:
                    dense = solver.dense_output()
                    while queue and queue[0] >= t:
                        c = queue.pop(0)
                        snaps.append((c, flow.action(c, dense(rg_time(c)) if c > t else y)))
            stats["nfev"] += solver.nfev
            stats["njev"] += solver.njev
            stats["nlu"] += solver.nlu
        finally:
            # scipy's RK45 holds a closure over itself (its nfev-counting
            # ``fun``); clearing the state breaks that cycle, so the solver is
            # freed now rather than at the next cyclic garbage collection
            solver.__dict__.clear()
    return FlowTrajectory(checkpoints=snaps, stats=stats)


# -- initial conditions ------------------------------------------------


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
    if mode not in ("exact", "classical"):
        raise SpecValidationError(f"unknown initial-condition mode {mode!r}")
    info = {}
    if rep == "grid":
        if ctx.measure.dim != 1:
            raise SpecValidationError("the grid representation is single-mode only")
        grid = ctx.spec.field_grid
        values = classical = classical_grid_values(ctx, grid)
        if mode == "exact":
            values = exact_grid_values(ctx, k_uv, grid)
            info["classical_discrepancy"] = float(np.abs(values - classical).max())
        values = values - values[grid.size // 2]
        return GridAction(k=k_uv, grid=grid, values=values), info
    if rep == "vertex":
        if ctx.spec.c3 != 0:
            raise SpecValidationError("vertex flows need an even theory (c3 = 0)")
        m = ctx.measure.dim
        if mode == "classical":
            c_inv = np.linalg.inv(covariance(ctx.spec))
            h, w = ctx.spec.position_map
            h = h.T  # one row per position
            g2 = c_inv + 2.0 * ctx.spec.c2 * np.einsum("l,la,lb->ab", w, h, h)
            g4 = 24.0 * ctx.spec.c4 * np.einsum("l,la,lb,lc,ld->abcd", w, h, h, h, h)
        else:
            if m != 1:
                raise SpecValidationError("the exact vertex start is single-mode only")
            g2 = fn.gamma_hessian(ctx, k_uv, np.zeros(1))
            g4 = np.full((1, 1, 1, 1), _fourth_derivative_at_zero(ctx, k_uv))
        return VertexAction(k=k_uv, gamma2=symmetrize(g2), gamma4=symmetrize(g4)), info
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

