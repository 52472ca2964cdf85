"""Discrete convex-duality toolkit and convergence diagnostics.

Sampled convex functions on bounded boxes support Legendre-Fenchel
conjugation by a direct scan, biconjugation defects from the lower convex
hull, supercoercivity certificates and two distances for sequences of
theories: uniform distance on bounded sets and a Hausdorff distance between
box-truncated epigraphs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import functionals as fn
from .errors import EmptyEpigraphWindow, GridMismatch, NotProper
from .functionals import FunctionalContext
# build_measure is not called here but stays bound: perfbench's tracer wraps it by name
from .measure import build_measure, gauss_hermite_nodes, untilted_level  # noqa: F401


def _box_axes(lo, hi, nodes) -> tuple:
    """Uniform axes of the box [lo, hi] with ``nodes`` points along each."""
    lo = np.atleast_1d(np.asarray(lo, dtype=float))
    hi = np.atleast_1d(np.asarray(hi, dtype=float))
    nodes = np.atleast_1d(np.asarray(nodes, dtype=int))
    return tuple(np.linspace(a, b, n) for a, b, n in zip(lo, hi, nodes))


def _box_points(axes) -> np.ndarray:
    """Every node of the box spanned by ``axes``, one row each, in C order."""
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=-1)


@dataclass(frozen=True)
class GridFunction:
    """Extended-real function sampled on a bounded uniform box."""

    axes: tuple
    values: np.ndarray

    def __post_init__(self):
        shape = tuple(len(a) for a in self.axes)
        if self.values.shape != shape:
            raise GridMismatch(
                f"values have shape {self.values.shape}, the axes need {shape}"
            )
        if not np.isfinite(self.values).any():
            raise NotProper("grid function has no finite value")

    @property
    def ndim(self) -> int:
        return len(self.axes)

    def nodes(self) -> np.ndarray:
        return _box_points(self.axes)


def _lower_hull(x: np.ndarray, y: np.ndarray):
    """Indices of the lower convex hull vertices of the sampled graph."""
    hull = []
    for i in range(x.size):
        while len(hull) >= 2:
            a, b = hull[-2], hull[-1]
            # pop b if it lies on or above chord a -> i
            if (y[b] - y[a]) * (x[i] - x[a]) >= (y[i] - y[a]) * (x[b] - x[a]):
                hull.pop()
            else:
                break
        hull.append(i)
    return np.asarray(hull)


def conjugate(f: GridFunction, lo, hi, nodes) -> GridFunction:
    """Legendre-Fenchel transform f*(t) = max_x (t.x - f(x)) on the dual box,
    by a direct scan over the finite primal nodes for every dual node."""
    finite = np.isfinite(f.values).ravel()
    axes = _box_axes(lo, hi, nodes)
    primal = f.nodes()[finite]
    # one dual x primal matrix, reused in place: each fresh one of this size
    # is paged in anew
    scan = _box_points(axes) @ primal.T
    scan -= f.values.ravel()[finite]
    out = scan.max(axis=1)
    return GridFunction(axes=axes, values=out.reshape(tuple(len(a) for a in axes)))


def biconjugate_check(f: GridFunction) -> float:
    """Maximum defect f - f** over the nodes; zero for convex samples.

    The biconjugate of a finite sample is its lower convex hull, which is
    computed exactly, so no dual grid enters.
    """
    if f.ndim != 1:
        raise NotImplementedError("biconjugation defect is implemented in 1D")
    finite = np.isfinite(f.values)
    x = f.axes[0][finite]
    y = f.values[finite]
    hull = _lower_hull(x, y)
    hull_vals = np.interp(x, x[hull], y[hull])
    return float(np.max(y - hull_vals))


def supercoercivity_certificate(fstar: GridFunction, weights) -> dict:
    """Largest C with f*(T) >= p(T) + C for the weighted-l1 seminorm p."""
    weights = np.atleast_1d(np.asarray(weights, dtype=float))
    pts = fstar.nodes()
    p_vals = np.abs(pts) @ weights
    finite = np.isfinite(fstar.values.ravel())
    gap = fstar.values.ravel()[finite] - p_vals[finite]
    i = int(np.argmin(gap))
    return {
        "C": float(gap[i]),
        "binding_node": pts[finite][i].tolist(),
    }


def uniform_distance(f: GridFunction, g: GridFunction, radius: float) -> float:
    """Sup-distance over grid nodes within the given ball."""
    if len(f.axes) != len(g.axes) or any(
        a.shape != b.shape or not np.allclose(a, b) for a, b in zip(f.axes, g.axes)
    ):
        raise GridMismatch("uniform distance requires a shared grid")
    norms = np.linalg.norm(f.nodes(), axis=1).reshape(f.values.shape)
    mask = norms <= radius
    if not mask.any():
        raise GridMismatch(f"no grid node within radius {radius}")
    return float(np.max(np.abs(f.values[mask] - g.values[mask])))


def _refined(x, y):
    mid_x = 0.5 * (x[:-1] + x[1:])
    mid_y = 0.5 * (y[:-1] + y[1:])
    xr = np.empty(x.size + mid_x.size)
    yr = np.empty_like(xr)
    xr[0::2], xr[1::2] = x, mid_x
    yr[0::2], yr[1::2] = y, mid_y
    return xr, yr


def _clipped_graph(x, y, rho):
    inside = (np.abs(x) <= rho) & (y <= rho) & np.isfinite(y)
    return x[inside], np.maximum(y[inside], -rho)


def _directed_epi_distance(xa, ta, xb, tb):
    """max_a min_j max(|xa - xb_j|, (tb_j - ta)+) over graphs sorted in x.

    The distance from each graph point of A to the epigraph columns of B in
    the product metric; columns of B extend upward from tb.  On either side
    of a point, |dx| grows away from it while the running minimum of
    (tb - ta)+ falls, and min_j max(|dx_j|, dt_j) equals
    min_J max(|dx_J|, min_{j <= J} dt_j); the minimum sits where the two
    cross.  Binary lifting over a sparse table of range minima finds that
    crossing for every point at once, in O(n log n).  Rounding is monotone,
    so every candidate is a max of the same two floats as the n_a x n_b
    scan and the result is the same float.
    """
    nb = xb.size
    # columns right of a point as they are, then those left of it mirrored
    # (x -> -x), so both sides are searched rightward; each block ends in an
    # infinite sentinel column
    xc = np.concatenate([xb, [np.inf], -xb[::-1], [np.inf]])
    tc = np.concatenate([tb, [np.inf], tb[::-1], [np.inf]])
    split = np.searchsorted(xb, xa)
    p = np.concatenate([split, 2 * nb + 1 - split])
    end = np.repeat([nb, 2 * nb + 1], xa.size)
    xq = np.concatenate([xa, -xa])
    tq = np.concatenate([ta, ta])
    # table[k][i] = min tc[i : i + 2**k]
    table = [tc]
    for k in range(1, nb.bit_length()):
        prev, h = table[-1], 1 << (k - 1)
        row = prev.copy()
        np.minimum(prev[:-h], prev[h:], out=row[:-h])
        table.append(row)
    # advance p over the columns where |dx| < (running min of tb - ta)+;
    # m is the minimum of tc over the columns passed
    m = np.full(p.size, np.inf)
    for k in range(len(table) - 1, -1, -1):
        h = 1 << k
        mm = np.minimum(m, table[k][p])
        jump = xc[np.minimum(p + (h - 1), end)] - xq < np.maximum(mm - tq, 0.0)
        np.copyto(m, mm, where=jump)
        np.add(p, h, out=p, where=jump)
    # the best column is p, where |dx| wins, or the one before, where dt does
    side = np.minimum(xc[p] - xq, np.maximum(m - tq, 0.0))
    return float(np.max(np.minimum(side[: xa.size], side[xa.size :])))


def aw_distance(f: GridFunction, g: GridFunction, rho: float) -> float:
    """Hausdorff distance between the box-truncated epigraphs.

    Graph samples (with one midpoint refinement) represent each epigraph;
    the supremum of the point-to-epigraph distance is attained on the
    clipped graph because columns only widen upward.
    """
    if f.ndim != 1 or g.ndim != 1:
        raise NotImplementedError("epigraph distance is implemented in 1D")
    xf, yf = _refined(f.axes[0], f.values)
    xg, yg = _refined(g.axes[0], g.values)
    xa, ta = _clipped_graph(xf, yf, rho)
    xb, tb = _clipped_graph(xg, yg, rho)
    if xa.size == 0 and xb.size == 0:
        raise EmptyEpigraphWindow(f"neither epigraph meets the box of radius {rho}")
    if xa.size == 0 or xb.size == 0:
        return 2.0 * rho
    return max(
        _directed_epi_distance(xa, ta, xb, tb),
        _directed_epi_distance(xb, tb, xa, ta),
    )


# -- sequence diagnostics ----------------------------------------------


def _strictly_decreasing(seq) -> bool:
    return all(b < a for a, b in zip(seq, seq[1:]))


@dataclass
class ConvergenceReport:
    """Distances of sequence members 1..n to the limit theory."""

    uniform: list
    aw: list
    probe: list

    @property
    def indices(self) -> list:
        return list(range(1, len(self.uniform) + 1))

    @property
    def uniform_monotone(self) -> bool:
        return _strictly_decreasing(self.uniform)

    @property
    def aw_monotone(self) -> bool:
        return _strictly_decreasing(self.aw)

    @property
    def probe_monotone(self) -> bool:
        return _strictly_decreasing(self.probe)

    @property
    def all_monotone(self) -> bool:
        return self.uniform_monotone and self.aw_monotone and self.probe_monotone


def _w_grid(ctx: FunctionalContext, t_axis: np.ndarray) -> GridFunction:
    return GridFunction(axes=(t_axis,), values=fn.W(ctx, 0.0, t_axis[:, None]))


def _char_probe(ctx: FunctionalContext, t) -> np.ndarray:
    """E[cos(t psi_1)] under the context's interacting measure at every
    source in t, by a tensor Gauss-Hermite rule mapped through the measure's
    Cholesky factor."""
    spec = ctx.spec
    nodes, logw = gauss_hermite_nodes(untilted_level(spec.modes), spec.modes)
    psi = nodes @ ctx.measure.chol.T
    log_terms = logw - spec.interaction_batch(psi)
    w = np.exp(log_terms - log_terms.max())
    return np.cos(np.outer(t, psi[:, 0])) @ w / w.sum()


# W_0 on DUAL_NODES of [-DUAL_RADIUS, DUAL_RADIUS], Gamma_0 = W_0* on PRIMAL_NODES
# of [-aw_rho, aw_rho], and E[cos(t psi)] at PROBE_SOURCES by a Gauss-Hermite
# rule on the untilted measure's width (``measure.untilted_level``)
DUAL_RADIUS = 3.0
DUAL_NODES = 161
PRIMAL_NODES = 1201
PROBE_SOURCES = (0.5, 1.0, 2.0)


def convergence_suite(
    models,
    limit_model,
    regulator,
    uniform_radius: float = 2.0,
    aw_rho: float = 6.0,
) -> ConvergenceReport:
    """Distances of a regularization sequence to its limit theory at k = 0.

    The characteristic-function probe is a quadrature, so the report is
    deterministic.
    """
    for m in models:
        if m.modes != limit_model.modes:
            raise GridMismatch("sequence members must share the mode count")
    t_axis = np.linspace(-DUAL_RADIUS, DUAL_RADIUS, DUAL_NODES)

    def analyse(spec):
        """W_0 on the dual grid, its conjugate Gamma_0 and the probe values,
        all from one context and so one Gaussian measure."""
        ctx = FunctionalContext(spec=spec, regulator=regulator, self_check=False)
        w_grid = _w_grid(ctx, t_axis)
        gamma0 = conjugate(w_grid, -aw_rho, aw_rho, PRIMAL_NODES)
        return w_grid, gamma0, _char_probe(ctx, PROBE_SOURCES)

    w_lim, gamma_lim, probe_lim = analyse(limit_model)

    report = ConvergenceReport(uniform=[], aw=[], probe=[])
    for spec in models:
        w_n, gamma_n, probe_n = analyse(spec)
        report.uniform.append(uniform_distance(w_n, w_lim, uniform_radius))
        report.aw.append(aw_distance(gamma_n, gamma_lim, aw_rho))
        report.probe.append(float(np.max(np.abs(probe_n - probe_lim))))
    return report
