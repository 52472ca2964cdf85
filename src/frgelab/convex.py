"""Discrete convex-duality toolkit and convergence diagnostics.

Sampled convex functions on bounded boxes support Legendre-Fenchel
conjugation by a direct scan, biconjugation defects from the lower convex
hull, supercoercivity certificates and two distances for sequences of
theories: uniform distance on bounded sets and a Hausdorff distance between
box-truncated epigraphs.

Even functions fold.  A 1-D function is even when its axis is mirrored bit
for bit (``axis == -axis[::-1]``, odd length, as :func:`model.mirrored_axis`
builds it) and ``values == values[::-1]``.  The conjugate of an even
function onto a mirrored dual axis scans the dual nodes t >= 0 only, and
the epigraph distance between two even functions queries the graph points
x >= 0 only; both mirror the result back, the float the full computation
gives.  The convergence suite evaluates W_0 of an even theory (c3 = 0) on
the sources t >= 0 only and mirrors it, so it is exactly even where the
quadrature at -t would differ from that at t by rounding.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import functionals as fn
from .errors import EmptyEpigraphWindow, GridMismatch, NotProper
from .functionals import FunctionalContext
# build_measure is not called here but stays bound: perfbench's tracer wraps it by name
from .measure import build_measure, gauss_hermite_nodes, untilted_level  # noqa: F401
from .model import is_even, is_mirrored, mirrored_axis, unfold


def _box_axes(lo, hi, nodes, ndim: int) -> tuple:
    """Uniform axes of the box [lo, hi] with ``nodes`` points along each of
    its ``ndim`` axes, each given once for all or once per axis; an axis
    with lo = -hi and an odd node count is mirrored bit for bit."""
    try:
        lo, hi, nodes = (np.broadcast_to(np.asarray(v, dtype=t), (ndim,))
                         for v, t in ((lo, float), (hi, float), (nodes, int)))
    except ValueError:
        raise GridMismatch(f"a box of {ndim} axes takes one lo, hi and nodes "
                           f"or {ndim} of each") from None
    return tuple(mirrored_axis(b, n) if a == -b and n % 2 == 1 else np.linspace(a, b, n)
                 for a, b, n in zip(lo, hi, nodes))


def _box_points(axes) -> np.ndarray:
    """Every node of the box spanned by ``axes``, one row each, in C order."""
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=-1)


@dataclass(frozen=True)
class GridFunction:
    """Extended-real function sampled on a bounded box: finite, strictly
    increasing axes (not necessarily uniform) and one value in (-inf, +inf]
    per node, at least one finite; else GridMismatch or NotProper."""

    axes: tuple
    values: np.ndarray

    def __post_init__(self):
        for i, a in enumerate(self.axes):
            if not (np.ndim(a) == 1 and np.isfinite(a).all() and (np.diff(a) > 0).all()):
                raise GridMismatch(f"axis {i} is not finite and strictly increasing")
        shape = tuple(len(a) for a in self.axes)
        if self.values.shape != shape:
            raise GridMismatch(
                f"values have shape {self.values.shape}, the axes need {shape}"
            )
        # a proper function's samples lie in (-inf, +inf]
        bad = np.isnan(self.values) | (self.values == -np.inf)
        if bad.any():
            index = np.unravel_index(np.argmax(bad), shape)
            node = [float(a[i]) for a, i in zip(self.axes, index)]
            raise NotProper(
                f"grid function value {self.values[index]} at node {node} is not "
                "in (-inf, +inf]"
            )
        if not np.isfinite(self.values).any():
            raise NotProper("grid function has no finite value")

    @property
    def ndim(self) -> int:
        return len(self.axes)

    def nodes(self) -> np.ndarray:
        return _box_points(self.axes)


def _even(f: GridFunction) -> bool:
    """Whether f is 1-D and even (``model.is_even``), so it folds onto x >= 0."""
    return f.ndim == 1 and is_even(f.axes[0], f.values)


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
    by a direct scan over the finite primal nodes for every dual node.

    An even f (``_even``) onto a mirrored dual axis is scanned for the dual
    nodes t >= 0 only and mirrored back: t.(-x) = (-t).x in floating point,
    so the row of -t holds the floats of the row of t and has the same
    maximum (a zero maximum may change its sign).  Any other input is
    scanned on every dual node.
    """
    finite = np.isfinite(f.values).ravel()
    axes = _box_axes(lo, hi, nodes, f.ndim)
    dual = _box_points(axes)
    fold = _even(f) and is_mirrored(axes[0])
    if fold:
        dual = dual[dual.shape[0] // 2:]
    primal = f.nodes()[finite]
    # one primal x dual matrix, reused in place: each fresh one of this size
    # is paged in anew.  einsum forms the products directly, where a matrix
    # product of inner dimension 1 costs more than the products themselves.
    scan = np.einsum("jd,id->ji", primal, dual)
    scan -= f.values.ravel()[finite][:, None]
    out = scan.max(axis=0)
    if fold:
        out = unfold(out)
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
        not np.array_equal(a, b) for a, b in zip(f.axes, g.axes)
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
    clipped graph because columns only widen upward.  When f and g are both
    even (``_even``) both graphs are mirror images of themselves, so each
    direction queries its graph points x >= 0 only, against the columns of
    the whole other graph: the point at -x meets the floats the point at x
    does, mirrored.
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
    # the query points of each direction
    qa, qb = (xa >= 0, xb >= 0) if _even(f) and _even(g) else (slice(None),) * 2
    return max(
        _directed_epi_distance(xa[qa], ta[qa], xb, tb),
        _directed_epi_distance(xb[qb], tb[qb], xa, ta),
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


def _w_grid(ctxs, t_axis: np.ndarray) -> list[GridFunction]:
    """W_0 of each of a sequence of contexts that share a single-mode
    interaction on a source axis, from one ``W`` call, which refuses
    contexts of another interaction than the first (SpecValidationError);
    an even theory (c3 = 0) on a mirrored axis is evaluated at t >= 0 and
    mirrored, exactly even."""
    fold = ctxs[0].spec.c3 == 0 and is_mirrored(t_axis)
    rows = fn.W(ctxs, 0.0, (t_axis[t_axis.size // 2:] if fold else t_axis)[:, None])
    return [GridFunction(axes=(t_axis,), values=unfold(row) if fold else row)
            for row in rows]


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


# W_0 on DUAL_NODES of [-DUAL_RADIUS, DUAL_RADIUS], compared within UNIFORM_RADIUS;
# Gamma_0 = W_0* on PRIMAL_NODES of [-AW_RHO, AW_RHO], its epigraphs compared in that
# box; both mirrored axes.  E[cos(t psi)] at PROBE_SOURCES by a Gauss-Hermite rule on
# the untilted measure's width (``measure.untilted_level``)
DUAL_RADIUS = 3.0
DUAL_NODES = 161
PRIMAL_NODES = 1201
UNIFORM_RADIUS = 2.0
AW_RHO = 6.0
PROBE_SOURCES = (0.5, 1.0, 2.0)


def convergence_suite(models, limit_model, regulator) -> ConvergenceReport:
    """Distances of a regularization sequence to its limit theory at k = 0.

    The sequence regularises one theory: the limit and every member share
    one interaction (``ModelSpec.interaction_key``) and vary the window.
    W_0 of all of them comes from one batched ``W`` call, which refuses a
    member of another interaction with SpecValidationError naming it, member
    n being the n-th of ``models``, before any quadrature; the conjugate
    Gamma_0 = W_0*, the distances and the probe are taken per member.  The
    characteristic-function probe is a quadrature, so the report is
    deterministic.
    """
    for m in models:
        if m.modes != limit_model.modes:
            raise GridMismatch("sequence members must share the mode count")
    t_axis = mirrored_axis(DUAL_RADIUS, DUAL_NODES)
    # one context per theory, the limit first, and so one Gaussian measure each
    ctxs = [FunctionalContext(spec=spec, regulator=regulator, self_check=False)
            for spec in [limit_model, *models]]
    w_grids = _w_grid(ctxs, t_axis)
    gammas = [conjugate(w, -AW_RHO, AW_RHO, PRIMAL_NODES) for w in w_grids]
    probes = [_char_probe(ctx, PROBE_SOURCES) for ctx in ctxs]
    return ConvergenceReport(
        uniform=[uniform_distance(w, w_grids[0], UNIFORM_RADIUS) for w in w_grids[1:]],
        aw=[aw_distance(g, gammas[0], AW_RHO) for g in gammas[1:]],
        probe=[float(np.max(np.abs(p - probes[0]))) for p in probes[1:]],
    )
