import math
import warnings
from itertools import combinations_with_replacement, permutations
from math import comb

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.integrate import BDF, DOP853
from scipy.linalg.lapack import dgbtrf, dgbtrs
from scipy.sparse.linalg import splu

from frgelab.errors import ConvexityLoss, GridMismatch, SpecValidationError, StepUnderflow
from frgelab import flow as flow_module, functionals
from frgelab.flow import (
    GridAction,
    _GridBDF,
    _GridFlow,
    _VertexFlow,
    _band_pattern,
    _fourth_derivative_at_zero,
    VertexAction,
    classical_grid_values,
    exact_grid_values,
    folded_second_difference_matrix,
    initial_condition,
    integrate,
    rhs_grid,
    rhs_vertex,
    second_difference_matrix,
    symmetrize,
)
from frgelab.functionals import (
    BUDGET,
    FunctionalContext,
    frge_first_form_check,
    gamma_bar,
    gamma_hessian,
)
from frgelab.model import ModelSpec, WindowParams

RTOL_FLOOR = 100 * np.finfo(float).eps  # the smallest rtol scipy's solvers honour


def _permutation_mean(a: np.ndarray) -> np.ndarray:
    """Mean of a tensor over all permutations of its axes."""
    perms = list(permutations(range(a.ndim)))
    return sum(np.transpose(a, perm) for perm in perms) / len(perms)


def _dense_rhs_vertex(state, regulator, momenta, weights):
    """The vertex flow on full tensors: two einsum contractions and the
    permutation-mean symmetriser."""
    f_diag = regulator.value(state.k, momenta) * weights
    f_dot = regulator.dk(state.k, momenta) * weights
    g = np.linalg.inv(state.gamma2 + np.diag(f_diag))
    g4 = state.gamma4
    d_g2 = -0.5 * np.einsum("x,xl,ablm,mx->ab", f_dot, g, g4, g, optimize=True)
    t = np.einsum("x,xi,abij,jl,cdlm,mx->abcd", f_dot, g, g4, g, g4, g,
                  optimize=True)
    d_g4 = t + t.transpose(0, 2, 1, 3) + t.transpose(0, 3, 1, 2)
    return _permutation_mean(d_g2), _permutation_mean(d_g4)


class _ScipyBandBDF(BDF):
    """scipy's own BDF with its Newton matrix I - cJ, the CSC matrix scipy
    forms, copied into LAPACK band storage of half-band ``half_band`` and
    factored by dgbtrf: the stepper of grid flows before the port, and the
    reference the port reproduces bit for bit.  scipy binds ``lu`` and
    ``solve_lu`` per instance, so they are rebound here."""

    def __init__(self, fun, t0, y0, t_bound, half_band, **options):
        super().__init__(fun, t0, y0, t_bound, **options)
        self.half_band = half_band
        self.lu, self.solve_lu = self._band_lu, self._band_solve

    def _band_lu(self, a: sp.csc_matrix):
        self.nlu += 1
        b = self.half_band
        band = np.zeros((3 * b + 1, self.n), order="F")
        cols = np.repeat(np.arange(self.n), np.diff(a.indptr))
        band[2 * b + a.indices - cols, cols] = a.data
        lu, piv, info = dgbtrf(band, b, b, overwrite_ab=True)
        assert info == 0
        return lu, piv

    def _band_solve(self, factor, rhs: np.ndarray) -> np.ndarray:
        lu, piv = factor
        b = self.half_band
        return dgbtrs(lu, b, b, rhs, piv, overwrite_b=True)[0]


def _scipy_stepper(fun, jac, pattern, t0, y0, t_bound, rtol, atol):
    """:class:`_ScipyBandBDF` called as ``integrate`` calls ``_GridBDF``; the
    Jacobian's entries in the order of the stepped flow's own D2, folded or
    not, become the CSC matrix scipy expects."""
    coo = pattern.tocoo()
    return _ScipyBandBDF(
        fun, t0, y0, t_bound, int(np.abs(coo.row - coo.col).max()),
        rtol=rtol, atol=atol,
        jac=lambda t, y: sp.csc_matrix((jac(t, y), pattern.indices, pattern.indptr),
                                       shape=pattern.shape))


def _jacobian(state: GridAction, regulator, momentum: float = 0.0,
              weight: float = 1.0) -> sp.csc_matrix:
    """The grid flow's Jacobian at the state as a CSC matrix on its D2's
    pattern."""
    flow = _GridFlow(state, regulator, [momentum], [weight])
    data = flow.jacobian_data(state.k, flow.y0)
    return sp.csc_matrix((data, flow.d2.indices, flow.d2.indptr), shape=flow.d2.shape)


class TestStencils:
    def test_exact_on_quadratic(self):
        x = np.linspace(-2, 2, 41)
        d2 = second_difference_matrix(41) @ (3.0 * x**2 + x + 1) / (x[1] - x[0]) ** 2
        assert np.allclose(d2, 6.0, atol=1e-9)

    def test_fourth_order_convergence(self):
        errs = []
        for n in (41, 81):
            x = np.linspace(-1, 1, n)
            d2 = second_difference_matrix(n) @ np.sin(x) / (x[1] - x[0]) ** 2
            errs.append(np.abs(d2 + np.sin(x))[3:-3].max())
        assert errs[0] / errs[1] > 12  # ~16 for a 4th-order interior scheme

    def test_matrix_carries_the_stencils(self):
        x = np.linspace(-2, 2, 41)
        h = x[1] - x[0]
        d2 = second_difference_matrix(x.size)
        quartic = x**4 - 2.0 * x**3 + x
        interior = (d2 @ quartic / h**2)[2:-2]
        assert np.allclose(interior, (12.0 * x**2 - 12.0 * x)[2:-2], atol=1e-9)
        edges = [0, 1, -2, -1]
        cubic = x**3 - x**2
        assert np.allclose((d2 @ cubic / h**2)[edges], (6.0 * x - 2.0)[edges],
                           atol=1e-9)

    @pytest.mark.parametrize("n", [5, 41, 1201])
    def test_folded_matrix_is_d2_on_even_functions(self, n, rng):
        # on an even function the folded D2 gives D2's rows phi >= 0
        centre = n // 2
        x = 2.0 * np.abs(np.arange(n) - centre) / centre  # |phi| on [-2, 2]
        folded = folded_second_difference_matrix(n)
        assert folded.shape == (centre + 1, centre + 1)
        noise = rng.standard_normal(centre + 1)[np.abs(np.arange(n) - centre)]
        for f in (np.cos(x), x**4 - x**2 + 1.0, noise):
            full = second_difference_matrix(n) @ f
            half = folded @ f[centre:]
            # the two sum the same products in another order
            assert np.abs(half - full[centre:]).max() <= 1e-14 * np.abs(f).max()
        # the 4-point edge stencil sets the half-band, as on the full grid
        coo = folded.tocoo()
        assert np.abs(coo.row - coo.col).max() == min(3, centre)

    def test_folded_matrix_is_fourth_order_at_zero(self):
        errs = []
        for n in (41, 81):
            x = np.linspace(-1.0, 1.0, n)
            d2 = folded_second_difference_matrix(n) @ np.cos(x[n // 2:])
            errs.append(abs(d2[0] / (x[1] - x[0]) ** 2 + 1.0))
        assert errs[0] / errs[1] > 12  # ~16 for the central stencil


class TestStates:
    def test_grid_pack_roundtrip(self, litim):
        # the grid flow steps an even action on its nodes phi >= 0 and any
        # other on every node; its action at a scale is the full grid again
        half = np.linspace(0.0, 1.0, 6)
        grid = np.concatenate([-half[:0:-1], half])
        for values, stepped in ((grid**2, 6), (grid**2 + 0.1 * grid, 11)):
            flow = _GridFlow(GridAction(k=2.0, grid=grid, values=values), litim,
                             [0.0], [1.0])
            assert flow.y0.size == stepped
            s2 = flow.action(1.5, flow.y0)
            assert s2.k == 1.5 and s2.grid is grid
            assert s2.values.tobytes() == values.tobytes()

    def test_vertex_pack_roundtrip(self, rng, litim):
        g2 = np.array([[1.0, 0.2], [0.2, 2.0]])
        g4 = symmetrize(np.arange(16.0).reshape(2, 2, 2, 2))
        flow = _VertexFlow(VertexAction(k=3.0, gamma2=g2, gamma4=g4), litim,
                           np.zeros(2), np.ones(2))
        s2 = flow.action(2.0, flow.y0)
        assert s2.k == 2.0
        assert np.allclose(s2.gamma2, g2)
        assert np.allclose(s2.gamma4, g4)
        for m in range(1, 10):
            g2 = symmetrize(rng.standard_normal((m, m)))
            g4 = symmetrize(rng.standard_normal((m,) * 4))
            flow = _VertexFlow(VertexAction(k=1.0, gamma2=g2, gamma4=g4), litim,
                               np.zeros(m), np.ones(m))
            y = flow.y0
            # the independent components only
            assert y.size == m * (m + 1) // 2 + comb(m + 3, 4)
            s2 = flow.action(0.5, y)
            assert np.allclose(s2.gamma2, g2, rtol=0, atol=1e-15)
            assert np.allclose(s2.gamma4, g4, rtol=0, atol=1e-15)

    @pytest.mark.parametrize("m", range(1, 10))
    def test_pair_maps_follow_the_packed_order(self, m):
        # the packed order is the lexicographic order of the sorted
        # multi-indices, which combinations_with_replacement enumerates
        rows, channels = flow_module._pair_maps(m)
        pairs = list(combinations_with_replacement(range(m), 2))
        quads = list(combinations_with_replacement(range(m), 4))
        n2, h = len(pairs), {pair: h for h, pair in enumerate(pairs)}
        # rows[h] gathers gamma4's row (i, j) from the packed state, whose
        # n2 components of gamma2 come first
        packed = {quad: n2 + q for q, quad in enumerate(quads)}
        assert rows.tolist() == [
            [packed[tuple(sorted((i, j, a, b)))] for a in range(m) for b in range(m)]
            for i, j in pairs
        ]
        # the s, t and u channels (ij, kl), (ik, jl) and (il, jk) of an
        # (n2, n2) pair matrix, flat
        assert channels.tolist() == [
            [h[i, j] * n2 + h[k, l] for i, j, k, l in quads],
            [h[i, k] * n2 + h[j, l] for i, j, k, l in quads],
            [h[i, l] * n2 + h[j, k] for i, j, k, l in quads],
        ]
        quad_labels, _ = flow_module._orbit_map(m, 4)
        flat = np.ravel_multi_index(np.array(quads).T, (m,) * 4)
        assert quad_labels[flat].tolist() == list(range(len(quads)))
        assert not rows.flags.writeable and not channels.flags.writeable

    def test_grid_even_node_count_rejected(self):
        grid = np.linspace(-1, 1, 10)
        with pytest.raises(SpecValidationError):
            GridAction(k=1.0, grid=grid, values=grid**2)

    def test_grid_below_stencil_width_rejected(self):
        grid = np.linspace(-1, 1, 3)
        with pytest.raises(SpecValidationError):
            GridAction(k=1.0, grid=grid, values=grid**2)

    @pytest.mark.parametrize("grid, values, message", [
        (np.linspace(-1, 1, 21), np.zeros(19), r"\(19,\) values on a grid of 21 nodes"),
        # 10 nodes at spacing 0.3 on [-3, 0), 21 at 0.15 on [0, 3]
        (np.concatenate([np.linspace(-3.0, -0.3, 10), np.linspace(0.0, 3.0, 21)]),
         np.zeros(31), r"increasing and uniform: its spacings span \[0.15, 0.3\]"),
        (np.linspace(1, -1, 5), np.zeros(5), "increasing and uniform"),
        (np.zeros(5), np.zeros(5), "increasing and uniform"),
    ], ids=["values", "non-uniform", "decreasing", "one-point"])
    def test_unsteppable_grid_rejected(self, grid, values, message):
        # each would fail inside D2 u or step on a wrong spacing
        with pytest.raises(SpecValidationError, match=message):
            GridAction(k=1.0, grid=grid, values=values)

    @pytest.mark.parametrize("nodes, phi_max", [(101, 3.0), (201, 3.0), (301, 4.5),
                                                (1201, 4.5), (100_001, 4.5)])
    def test_field_grids_are_uniform(self, nodes, phi_max):
        # the README's, the default, the benchmark's and a fine grid: linspace's
        # rounding stays far below the uniformity bound
        spec = ModelSpec(dimension=0, modes=1, mass=1.0,
                         window=WindowParams(kind="scalar", r=1.0), c4=0.1,
                         phi_max=phi_max, phi_nodes=nodes)
        grid = spec.field_grid
        GridAction(k=1.0, grid=grid, values=grid**2)

    def test_vertex_gamma4_shape_rejected(self):
        with pytest.raises(SpecValidationError):
            VertexAction(k=1.0, gamma2=np.eye(2), gamma4=np.zeros((1, 1, 1, 1)))

    @pytest.mark.parametrize("gamma2", [np.zeros((2, 3)), np.ones(2)])
    def test_vertex_gamma2_must_be_square(self, gamma2):
        with pytest.raises(SpecValidationError, match="expected a square matrix"):
            VertexAction(k=1.0, gamma2=gamma2, gamma4=np.zeros((2, 2, 2, 2)))

    def test_symmetrizers(self, rng):
        a = rng.standard_normal((3, 3))
        s = symmetrize(a)
        assert np.allclose(s, s.T)
        b = rng.standard_normal((2, 2, 2, 2))
        t = symmetrize(b)
        for perm in [(1, 0, 2, 3), (2, 1, 0, 3), (0, 3, 2, 1)]:
            assert np.array_equal(t, t.transpose(perm))
        # the orbit means are the means over all axis permutations
        for m in (1, 2, 3, 5):
            a = rng.standard_normal((m, m))
            assert np.allclose(symmetrize(a), _permutation_mean(a), rtol=0,
                               atol=1e-15)
            b = rng.standard_normal((m,) * 4)
            assert np.allclose(symmetrize(b), _permutation_mean(b), rtol=0,
                               atol=1e-15)


class TestRhs:
    def test_grid_free_theory_stationary(self, litim):
        grid = np.linspace(-3, 3, 101)
        cinv = (1.0 / 0.7) ** 2
        s = GridAction(k=2.0, grid=grid, values=0.5 * cinv * grid**2)
        r = rhs_grid(s, litim, 0.0, 1.0)
        # the trace form shifts every node alike, which the subtraction removes
        assert r.max() - r.min() <= 1e-10

    @pytest.mark.parametrize("name", ["litim", "exponential"])
    @pytest.mark.parametrize("k", [0.3, 3.0, 50.0])
    def test_grid_jacobian_matches_finite_difference(self, name, k, request):
        regulator = request.getfixturevalue(name)
        grid = np.linspace(-3, 3, 41)
        s = GridAction(k=k, grid=grid, values=0.5 * grid**2 + 0.1 * grid**4)
        # at p = 0 both regulators are k^2; p = 0.25 tells them apart
        p, w = 0.25, 1.5
        jac = _jacobian(s, regulator, p, w).toarray()
        eps = 1e-6
        fd = np.empty_like(jac)
        for j in range(grid.size):
            e = np.zeros(grid.size)
            e[j] = eps
            plus, minus = (rhs_grid(GridAction(k=k, grid=grid, values=s.values + d),
                                    regulator, p, w) for d in (e, -e))
            fd[:, j] = (plus - minus) / (2.0 * eps)
        assert np.abs(jac - fd).max() <= 1e-6 * np.abs(jac).max()

    def test_grid_convexity_loss(self, litim):
        grid = np.linspace(-1, 1, 21)
        s = GridAction(k=0.1, grid=grid, values=-(grid**2))
        with pytest.raises(ConvexityLoss):
            rhs_grid(s, litim, 0.0, 1.0)

    def test_folded_convexity_loss_names_a_full_grid_node(self, litim, monkeypatch):
        # a bump at |phi| = 0.4 on an even convex function: the folded flow
        # evaluates nodes 10 to 20 of 21 and names the full grid's node 14 and
        # its phi, where the full flow finds the mirror node 6 first
        half = np.linspace(0.0, 1.0, 11)
        grid = np.concatenate([-half[:0:-1], half])
        s = GridAction(k=0.1, grid=grid,
                       values=grid**2 + np.where(np.abs(grid) == 0.4, 0.1, 0.0))
        flow = _GridFlow(s, litim, [0.0], [1.0])
        assert flow.y0.size == 11
        with pytest.raises(ConvexityLoss, match=r"node 14 \(phi=0.4, k=0.1\)"):
            flow.rhs(0.1, flow.y0)
        with pytest.raises(ConvexityLoss, match=r"node 14 \(phi=0.4, k=0.1\)"):
            rhs_grid(s, litim)
        monkeypatch.setattr(flow_module, "is_even", lambda axis, values: False)
        flow = _GridFlow(s, litim, [0.0], [1.0])
        assert flow.y0.size == 21
        with pytest.raises(ConvexityLoss, match=r"node 6 \(phi=-0.4, k=0.1\)"):
            flow.rhs(0.1, flow.y0)

    def test_vertex_single_mode_series(self, litim):
        # d_k g2 = -Fdot g4 / (2 (g2+R)^2); d_k g4 = 3 Fdot g4^2 / (g2+R)^3
        k = 1.5
        g2 = np.array([[2.0]])
        g4 = np.full((1, 1, 1, 1), 0.6)
        flow = _VertexFlow(VertexAction(k=k, gamma2=g2, gamma4=g4), litim,
                           np.zeros(1), np.ones(1))
        d = flow.action(k, rhs_vertex(k, flow.y0, litim, np.zeros(1), np.ones(1)))
        r = k * k
        fdot = 2 * k
        g = 1.0 / (2.0 + r)
        assert d.gamma2[0, 0] == pytest.approx(-0.5 * fdot * 0.6 * g**2, rel=1e-12)
        assert d.gamma4[0, 0, 0, 0] == pytest.approx(3 * fdot * 0.36 * g**3, rel=1e-12)

    @pytest.mark.parametrize("name", ["litim", "exponential"])
    @pytest.mark.parametrize("k", [0.4, 1.5, 6.0])
    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 9])
    def test_vertex_matches_dense_contraction(self, m, k, name, rng, request):
        regulator = request.getfixturevalue(name)
        x = rng.standard_normal((m, m))
        g2 = x @ x.T + 0.5 * np.eye(m)
        g4 = 0.2 * symmetrize(rng.standard_normal((m,) * 4))
        momenta = np.sort(rng.uniform(0.0, 2.0, m))
        weights = rng.uniform(0.5, 1.5, m)
        s = VertexAction(k=k, gamma2=g2, gamma4=g4)
        flow = _VertexFlow(s, regulator, momenta, weights)
        d = flow.action(k, rhs_vertex(k, flow.y0, regulator, momenta, weights))
        d_g2, d_g4 = _dense_rhs_vertex(s, regulator, momenta, weights)
        assert np.abs(d.gamma2 - d_g2).max() <= 1e-12 * np.abs(d_g2).max()
        assert np.abs(d.gamma4 - d_g4).max() <= 1e-12 * np.abs(d_g4).max()

    def test_vertex_convexity_loss(self, litim):
        s = VertexAction(k=0.1, gamma2=np.array([[-1.0]]),
                         gamma4=np.zeros((1, 1, 1, 1)))
        y = _VertexFlow(s, litim, np.zeros(1), np.ones(1)).y0
        with pytest.raises(ConvexityLoss):
            rhs_vertex(0.1, y, litim, np.zeros(1), np.ones(1))


def _bits(x) -> bytes:
    return np.asarray(x, dtype=float).tobytes()


class TestGridFlowScaleCache:
    """_GridFlow evaluates R_k and d_kF_k once per scale and forms its
    arrays in place: every value keeps the bits of a fresh flow's."""

    @staticmethod
    def _state(nodes=41, c3=0.0):
        grid = np.linspace(-3.0, 3.0, nodes)
        return GridAction(k=1.0, grid=grid, values=0.5 * grid**2 + c3 * grid**3
                          + 0.1 * grid**4)

    @staticmethod
    def _values(flow, k, u):
        """rhs, jacobian_data, curvature and margin at (k, u), as bytes."""
        f_dot, denom = flow.curvature(k, u)
        return [_bits(flow.rhs(k, u)), _bits(flow.jacobian_data(k, u)),
                _bits(f_dot), _bits(denom), _bits(flow.margin(k, u))]

    @pytest.mark.parametrize("momentum", [0.0, 0.25])
    @pytest.mark.parametrize("c3", [0.0, 0.05])
    @pytest.mark.parametrize("name", ["litim", "exponential"])
    def test_a_revisited_scale_reads_a_fresh_flows_bits(self, name, c3, momentum,
                                                        request):
        # k1, k2, k1 again; one ulp above and below a kink at |p| (litim's
        # d_kF_k jumps there) and above again; 0 and -0, which compare equal
        # while d_kF_k keeps the sign of k (p = 0)
        regulator = request.getfixturevalue(name)
        state = self._state(c3=c3)
        kink = momentum or 0.5
        above, below = np.nextafter(kink, 1.0), np.nextafter(kink, 0.0)
        scales = [2.0, 0.7, 2.0, above, below, above, below, 0.0, -0.0, 0.0, 2.0]
        flow = _GridFlow(state, regulator, [momentum], [1.5])
        u = flow.y0 + 0.01 * np.cos(np.arange(flow.y0.size))
        for k in scales:
            fresh = _GridFlow(state, regulator, [momentum], [1.5])
            assert self._values(flow, k, u) == self._values(fresh, k, u), k
        if name == "litim" and momentum == 0.0:
            # litim's d_kF_k = 2k, so the jacobian's zeros carry the sign of k
            assert _bits(flow.jacobian_data(0.0, u)) != _bits(flow.jacobian_data(-0.0, u))

    @pytest.mark.parametrize("name", ["litim", "exponential"])
    def test_the_values_are_the_unfused_formulas(self, name, request):
        regulator = request.getfixturevalue(name)
        p, w = 0.25, 1.5
        flow = _GridFlow(self._state(c3=0.05), regulator, [p], [w])
        d2, h2 = flow.d2, flow.h2
        for k in (3.0, 0.7, 0.1):
            u = flow.y0
            r_k = float(regulator.value(k, p)) * w
            f_dot = float(regulator.dk(k, p)) * w
            denom = d2 @ u / h2 + r_k
            assert _bits(flow.curvature(k, u)[1]) == _bits(denom)
            assert _bits(flow.rhs(k, u)) == _bits(0.5 * f_dot / denom)
            row_scale = -0.5 * f_dot / (denom * denom * h2)
            assert _bits(flow.jacobian_data(k, u)) == _bits(row_scale[d2.indices] * d2.data)
            assert _bits(flow.margin(k, u)) == _bits(denom.min())

    def test_one_regulator_evaluation_per_scale(self, litim, monkeypatch):
        calls = []
        value, dk = litim.value, litim.dk
        monkeypatch.setattr(litim, "value", lambda k, p: calls.append(k) or value(k, p))
        monkeypatch.setattr(litim, "dk", lambda k, p: calls.append(k) or dk(k, p))
        flow = _GridFlow(self._state(), litim, [0.0], [1.0])
        for k in (2.0, 2.0, 1.0, 2.0):
            flow.rhs(k, flow.y0)
            flow.jacobian_data(k, flow.y0)
            flow.margin(k, flow.y0)
        assert calls == [2.0, 2.0, 1.0, 1.0, 2.0, 2.0]

    @pytest.mark.parametrize("case", ["convex", "nan", "nonpositive"])
    @pytest.mark.parametrize("c3", [0.0, 0.05])
    def test_margin_is_the_least_curvature_bit_for_bit(self, litim, case, c3):
        # min(D2 u) / h^2 + R_k is min(D2 u / h^2 + R_k): both steps round
        # monotonically; a NaN node propagates through either
        flow = _GridFlow(self._state(c3=c3), litim, [0.0], [1.0])
        u = flow.y0.copy()
        if case == "nan":
            u[3] = np.nan
        elif case == "nonpositive":
            u[5] += 0.1  # D2 u at phi = -2.25, about 7, falls by 2.5 * 0.1 / h^2 = 11
        for k in (3.0, 1.0, 0.1, 0.0):
            least = flow.curvature(k, u)[1].min()
            assert _bits(flow.margin(k, u)) == _bits(least)
            assert np.isnan(least) == (case == "nan")
            assert (least <= 0.0) == (case == "nonpositive" and k < 3.0)


class TestIntegrate:
    def test_direction_validation(self, litim):
        s = GridAction(k=1.0, grid=np.linspace(-1, 1, 11),
                       values=np.linspace(-1, 1, 11) ** 2)
        with pytest.raises(ValueError):
            integrate(s, 1.0, 2.0, litim)

    def test_checkpoint_bounds(self, litim):
        s = GridAction(k=1.0, grid=np.linspace(-1, 1, 11),
                       values=np.linspace(-1, 1, 11) ** 2)
        with pytest.raises(ValueError):
            integrate(s, 1.0, 0.0, litim, checkpoints=[2.0])

    def test_checkpoints_from_an_array(self, free_spec, litim):
        ctx = FunctionalContext(spec=free_spec, regulator=litim)
        init, _ = initial_condition(ctx, "classical", 2.0)
        for scales in (np.array([1.0, 0.5]), np.array([0.5])):
            traj = integrate(init, 2.0, 0.0, litim, checkpoints=scales)
            ks = [k for k, _ in traj.checkpoints]
            assert ks == [2.0, *scales.tolist(), 0.0]
            assert all(type(k) is float for k in ks)

    @pytest.mark.parametrize("rep", ["grid", "vertex"])
    @pytest.mark.parametrize("name", ["litim", "exponential"])
    def test_overflowing_start_scale_rejected(self, phi4_spec, name, rep, request):
        # a classical start never builds the oracle's scale record, so the
        # integrator itself must reject k_from where R_k overflows
        reg = request.getfixturevalue(name)
        ctx = FunctionalContext(spec=phi4_spec, regulator=reg)
        init, _ = initial_condition(ctx, "classical", 1e200, rep=rep)
        with pytest.raises(SpecValidationError, match="not finite"):
            integrate(init, 1e200, 0.0, reg)

    @pytest.mark.parametrize("rep, kwargs, got", [
        # 3 modes: an omitted momenta is one zero momentum, whose 1 x 1 F_k
        # would broadcast onto every entry of gamma2
        ("vertex", {}, "got 1 and 1"),
        ("vertex", {"momenta": [0.0, 1.0]}, "got 2 and 2"),
        ("vertex", {"momenta": [-1.0, 0.0, 1.0], "weights": [1.0]}, "got 3 and 1"),
        ("grid", {"momenta": [0.0, 1.0]}, "got 2 and 2"),
        ("grid", {"weights": [1.0, 1.0]}, "got 1 and 2"),
    ], ids=["vertex-omitted", "vertex-momenta", "vertex-weights", "grid-momenta",
            "grid-weights"])
    def test_one_momentum_and_weight_per_mode(self, phi4_spec, line_spec, litim,
                                              rep, kwargs, got):
        spec = phi4_spec if rep == "grid" else line_spec
        ctx = FunctionalContext(spec=spec, regulator=litim, self_check=False)
        init, _ = initial_condition(ctx, "classical", 10.0, rep=rep)
        with pytest.raises(SpecValidationError,
                           match=f"needs one momentum and one weight per mode, {got}"):
            integrate(init, 10.0, 0.0, litim, **kwargs)

    @pytest.mark.parametrize("rep", ["grid", "vertex"])
    def test_actions_are_built_only_at_checkpoints(self, phi4_spec, line_spec, litim,
                                                   rep, monkeypatch):
        # the flow objects step bare vectors: an M = 3 vertex flow and an even
        # grid flow, stepped on its nodes phi >= 0, build one action per
        # checkpoint and none per right-hand side
        spec = phi4_spec if rep == "grid" else line_spec
        ctx = FunctionalContext(spec=spec, regulator=litim, self_check=False)
        init, _ = initial_condition(ctx, "classical", 10.0, rep=rep)
        if rep == "grid":
            cls = GridAction
            assert _GridFlow(init, litim, [0.0], [1.0]).y0.size == init.grid.size // 2 + 1
        else:
            cls = VertexAction
        built, original = [], cls.__post_init__

        def counted(self):
            built.append(self.k)
            original(self)

        monkeypatch.setattr(cls, "__post_init__", counted)
        traj = integrate(init, 10.0, 0.0, litim, momenta=spec.momenta,
                         weights=spec.momentum_weights, checkpoints=[5.0, 0.5])
        assert built == [k for k, _ in traj.checkpoints] == [10.0, 5.0, 0.5, 0.0]
        assert traj.stats["nfev"] > 100

    def test_non_finite_initial_action_rejected(self, litim):
        grid = np.linspace(-1, 1, 11)
        s = GridAction(k=1.0, grid=grid, values=np.where(grid > 0.5, np.nan, grid**2))
        with pytest.raises(SpecValidationError, match="initial action at k=1.0"):
            integrate(s, 1.0, 0.0, litim)

    def test_huge_start_scale_flows_without_overflow(self, phi4_spec, litim):
        # (D2 u + R_k)^2 in the Jacobian overflows here; the entries round to 0
        ctx = FunctionalContext(spec=phi4_spec, regulator=litim)
        init, _ = initial_condition(ctx, "classical", 1e100)
        _, state = integrate(init, 1e100, 0.0, litim).checkpoints[-1]
        assert np.all(np.isfinite(state.values))

    def test_free_theory_flow_is_stationary(self, free_spec, litim):
        ctx = FunctionalContext(spec=free_spec, regulator=litim)
        init, _ = initial_condition(ctx, "exact", 10.0)
        traj = integrate(init, 10.0, 0.0, litim,
                         checkpoints=[5.0, 0.0], rtol=1e-10, atol=1e-12)
        cinv = (1.0 / 0.7) ** 2
        for k, state in traj.checkpoints:
            dev = np.abs(state.values - 0.5 * cinv * state.grid**2).max()
            assert dev <= 1e-8, (k, dev)

    def test_interacting_flow_matches_oracle(self, phi4_spec, litim):
        ctx = FunctionalContext(spec=phi4_spec, regulator=litim,
                                self_check=False)
        init, _ = initial_condition(ctx, "exact", 20.0)
        traj = integrate(init, 20.0, 0.0, litim, checkpoints=[0.0])
        k, state = traj.checkpoints[-1]
        oracle = exact_grid_values(ctx, 0.0, state.grid)
        mask = np.abs(state.grid) <= 2.0
        assert np.abs(state.values - oracle)[mask].max() < 5e-6

    def test_convexity_loss_carries_last_state(self, litim):
        grid = np.linspace(-1, 1, 21)
        # uniform curvature -0.8: the regularised Hessian crosses zero at
        # k ~ 0.894 and the integrator grinds against the convex-cone boundary
        s = GridAction(k=1.0, grid=grid, values=-0.4 * grid**2)
        with pytest.raises(ConvexityLoss) as exc_info:
            integrate(s, 1.0, 0.0, litim)
        state = exc_info.value.last_state
        assert 0.894 < state.k <= 1.0

    def test_convexity_loss_is_reported_at_the_crossing(self, litim, monkeypatch):
        calls = []
        original = _GridFlow.rhs

        def counted(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(_GridFlow, "rhs", counted)
        grid = np.linspace(-1, 1, 21)
        # D2 u stays -0.8 along the flow, so the margin is k^2 - 0.8
        s = GridAction(k=1.0, grid=grid, values=-0.4 * grid**2)
        with pytest.raises(ConvexityLoss) as exc_info:
            integrate(s, 1.0, 0.0, litim)
        assert abs(exc_info.value.k - np.sqrt(0.8)) <= 1e-3
        assert 0 < len(calls) < 2000

    @pytest.mark.parametrize("nodes", [151, 1201])
    def test_grid_error_is_the_integrators(self, litim, nodes, monkeypatch):
        # classical start, k 100 -> 0 at default tolerances, stepped on
        # phi >= 0: the largest error on |phi| <= 2 against a tight-tolerance
        # run of the same grid ODE on every node is 1.4e-8 at 151 nodes, at
        # k = 1 (1.7e-8 at 301 nodes, 1.5e-8 at the benchmark's 1 201; the
        # tight runs, folded and not, agree to 2e-12).  Stepped on every node
        # it was 1.6e-8, 1.9e-8 and 1.6e-8; stepped in k at rtol 1e-8, atol
        # 1e-10, 1.4e-7; and rtol 1e-6 read 7.8e-6 at k = 0
        spec = ModelSpec(dimension=0, modes=1, mass=1.0,
                         window=WindowParams(kind="scalar", r=1.0), c4=0.1,
                         phi_max=4.5, phi_nodes=nodes)
        ctx = FunctionalContext(spec=spec, regulator=litim, self_check=False)
        init, _ = initial_condition(ctx, "classical", 100.0)
        scales = [10.0, 1.0, 0.0]
        traj = integrate(init, 100.0, 0.0, litim, checkpoints=scales)
        shapes = []

        def counting(*args, **kwargs):
            shapes.append(args[0].shape)
            return dgbtrf(*args, **kwargs)

        monkeypatch.setattr(flow_module, "is_even", lambda axis, values: False)
        monkeypatch.setattr(flow_module, "dgbtrf", counting)
        ref = integrate(init, 100.0, 0.0, litim, checkpoints=scales,
                        rtol=1e-12, atol=1e-14)
        # the patch reaches the name integrate reads: the reference steps
        # every node, each band LU (3b + 1, n) with b = 3
        assert set(shapes) == {(10, nodes)}
        mask = np.abs(init.grid) <= 2.0
        for (k, state), (_, exact) in zip(traj.checkpoints, ref.checkpoints):
            assert np.abs(state.values - exact.values)[mask].max() <= 4e-8, k

    def test_even_checkpoints_are_exactly_even(self, phi4_spec, litim):
        # the exact and the classical start of an even theory are even bit for
        # bit, and so is every checkpoint, dense output and segment end alike
        ctx = FunctionalContext(spec=phi4_spec, regulator=litim, self_check=False)
        for mode in ("exact", "classical"):
            init, _ = initial_condition(ctx, mode, 20.0)
            traj = integrate(init, 20.0, 0.0, litim, momenta=[0.5],
                             checkpoints=[7.3, 0.5, 0.2])
            assert len(traj.checkpoints) == 5
            for _, state in traj.checkpoints:
                assert np.array_equal(state.grid, -state.grid[::-1])
                assert state.values.tobytes() == state.values[::-1].tobytes()
                assert state.values[state.grid.size // 2] == 0.0

    def test_grid_newton_matrix_is_band_factored(self, phi4_spec, litim,
                                                  monkeypatch):
        # every factorisation the stepper counts is one dgbtrf call on the
        # (3b + 1, n) band layout, b = 3: n = N + 1, the nodes phi >= 0, for
        # an even start and n = 2N + 1 for a non-even one (c3 != 0)
        calls = []

        def counting(*args, **kwargs):
            calls.append(args[0].shape)
            return dgbtrf(*args, **kwargs)

        monkeypatch.setattr(flow_module, "dgbtrf", counting)
        odd = ModelSpec(dimension=0, modes=1, mass=1.0,
                        window=WindowParams(kind="scalar", r=1.0), c3=0.05, c4=0.1,
                        allow_unbounded=True)
        for spec, stepped in ((phi4_spec, 101), (odd, 201)):
            calls.clear()
            ctx = FunctionalContext(spec=spec, regulator=litim, self_check=False)
            init, _ = initial_condition(ctx, "classical", 20.0)
            assert init.grid.size == 201
            traj = integrate(init, 20.0, 0.0, litim)
            assert 0 < len(calls) == traj.stats["nlu"]
            assert set(calls) == {(10, stepped)}

    def test_checkpoints_are_one_ordered_pass(self, line_spec, litim):
        # litim's kinks sit at k = |p| = 1, 2, ...: the checkpoint at 1 is a
        # segment end, given twice; 10 and 0 are the ends of the flow
        ctx = FunctionalContext(spec=line_spec, regulator=litim, self_check=False)
        init, _ = initial_condition(ctx, "classical", 10.0, rep="vertex")
        kwargs = dict(momenta=line_spec.momenta, weights=line_spec.momentum_weights)
        traj = integrate(init, 10.0, 0.0, litim,
                         checkpoints=[1.0, 1.0, 0.5, 10.0, 0.0], **kwargs)
        assert [k for k, _ in traj.checkpoints] == [10.0, 1.0, 0.5, 0.0]
        assert [state.k for _, state in traj.checkpoints] == [10.0, 1.0, 0.5, 0.0]
        traj = integrate(init, 10.0, 10.0, litim, checkpoints=[10.0], **kwargs)
        assert [k for k, _ in traj.checkpoints] == [10.0]
        assert traj.stats["steps"] == 0

    @pytest.mark.parametrize("rep", ["grid", "vertex"])
    def test_scales_land_exactly_in_rg_time(self, phi4_spec, line_spec, litim, rep):
        # the flow steps in tau = asinh(k / kappa), and kappa sinh(tau) need
        # not give a scale back (here 7.3, 3.1 and 0.25); every checkpoint, the
        # segment end at litim's kink k = |p| = 1 and the end k_to = 0.25 are
        # still the scales asked for, bit for bit
        kappa = flow_module.RG_TIME_SCALE
        scales = [7.3, 3.1, 1.0, 0.7]
        assert any(kappa * math.sinh(math.asinh(c / kappa)) != c
                   for c in scales + [0.25])
        spec = phi4_spec if rep == "grid" else line_spec
        ctx = FunctionalContext(spec=spec, regulator=litim, self_check=False)
        init, _ = initial_condition(ctx, "classical", 20.0, rep=rep)
        momenta = [1.0] if rep == "grid" else spec.momenta
        weights = [1.0] if rep == "grid" else spec.momentum_weights
        traj = integrate(init, 20.0, 0.25, litim, momenta=momenta, weights=weights,
                         checkpoints=scales)
        expected = [20.0, *scales, 0.25]
        assert [k for k, _ in traj.checkpoints] == expected
        assert [state.k for _, state in traj.checkpoints] == expected

    def test_start_checkpoint_is_the_initial_state(self, phi4_spec, litim):
        ctx = FunctionalContext(spec=phi4_spec, regulator=litim, self_check=False)
        init, _ = initial_condition(ctx, "classical", 20.0)
        k, state = integrate(init, 20.0, 0.0, litim).checkpoints[0]
        assert k == 20.0
        assert state.values.tobytes() == init.values.tobytes()

    def test_grid_steps_do_not_grow_with_nodes(self, litim):
        steps = {}
        for nodes in (151, 301, 601, 1201):
            spec = ModelSpec(dimension=0, modes=1, mass=1.0,
                             window=WindowParams(kind="scalar", r=1.0), c4=0.1,
                             phi_max=4.5, phi_nodes=nodes)
            ctx = FunctionalContext(spec=spec, regulator=litim, self_check=False)
            init, _ = initial_condition(ctx, "classical", 100.0)
            steps[nodes] = integrate(init, 100.0, 0.0, litim).stats["steps"]
        # an explicit scheme on this diffusion takes ~n^2 steps (158 -> 9 870)
        assert steps[1201] <= 2 * steps[151], steps

    def test_stats_reported(self, free_spec, litim):
        ctx = FunctionalContext(spec=free_spec, regulator=litim)
        init, _ = initial_condition(ctx, "classical", 5.0)
        traj = integrate(init, 5.0, 1.0, litim)
        assert traj.stats["nfev"] > 0
        assert traj.stats["steps"] > 0
        assert traj.stats["njev"] > 0 and traj.stats["nlu"] > 0
        vertex, _ = initial_condition(ctx, "classical", 5.0, rep="vertex")
        traj = integrate(vertex, 5.0, 1.0, litim)
        assert traj.stats["steps"] > 0
        assert traj.stats["njev"] == traj.stats["nlu"] == 0  # explicit RK45

    def test_vertex_error_is_the_integrators(self, line_spec, litim, monkeypatch):
        # d = 1, identity window, c4 = 0.05, k 10 -> 0 at default tolerances:
        # the error is 1.2e-11 of max|gamma2| (2.6e-11 stepped in k at rtol
        # 1e-8, atol 1e-10).  A segment that steps the other side's regulator
        # value on the kink at k = 1 read 8e-8
        ctx = FunctionalContext(spec=line_spec, regulator=litim, self_check=False)
        init, _ = initial_condition(ctx, "classical", 10.0, rep="vertex")
        kwargs = dict(momenta=line_spec.momenta, weights=line_spec.momentum_weights,
                      checkpoints=[0.0])
        g2 = integrate(init, 10.0, 0.0, litim, **kwargs).checkpoints[-1][1].gamma2
        monkeypatch.setattr(flow_module, "RK45", DOP853)
        ref = integrate(init, 10.0, 0.0, litim, rtol=1e-12, atol=1e-14,
                        **kwargs).checkpoints[-1][1].gamma2
        assert np.abs(g2 - ref).max() <= 2.5e-11 * np.abs(ref).max()

    def test_segments_step_their_own_side_of_a_kink(self, line_spec, litim,
                                                     monkeypatch):
        scales = []
        original = flow_module.rhs_vertex

        def recorded(k, *args):
            scales.append(k)
            return original(k, *args)

        monkeypatch.setattr(flow_module, "rhs_vertex", recorded)
        ctx = FunctionalContext(spec=line_spec, regulator=litim, self_check=False)
        init, _ = initial_condition(ctx, "classical", 10.0, rep="vertex")
        integrate(init, 10.0, 0.0, litim, momenta=line_spec.momenta,
                  weights=line_spec.momentum_weights)
        # litim's kink at k = |p| = 1: both sides are stepped up to one ulp of it
        assert 1.0 not in scales
        assert np.nextafter(1.0, 0.0) in scales and np.nextafter(1.0, 2.0) in scales


class TestFailureRoutes:
    """How ``integrate`` meets a right-hand side that leaves the convex cone
    or stops being finite, on the grid (the BDF port) and the vertex (RK45)
    representations."""

    @staticmethod
    def _start(c2, litim, rep="grid", nodes=201):
        spec = ModelSpec(dimension=0, modes=1, mass=1.0,
                         window=WindowParams(kind="scalar", r=1.0), c2=c2, c4=0.1,
                         phi_max=4.5, phi_nodes=nodes)
        ctx = FunctionalContext(spec=spec, regulator=litim, self_check=False)
        init, _ = initial_condition(ctx, "classical", 100.0, rep=rep)
        return init

    @staticmethod
    def _count_losses(monkeypatch, owner, name):
        """Record every ConvexityLoss that ``owner.name`` raises."""
        losses = []
        original = getattr(owner, name)

        def recorded(*args):
            try:
                return original(*args)
            except ConvexityLoss as exc:
                losses.append(exc)
                raise

        monkeypatch.setattr(owner, name, recorded)
        return losses

    def test_vertex_flow_outlives_a_poisoned_stage(self, litim, monkeypatch):
        # c2 = -0.6: one RK45 stage leaves the cone (one loss at scipy 1.17),
        # the step is rejected and retried, and the flow reaches k = 0
        losses = self._count_losses(monkeypatch, flow_module, "rhs_vertex")
        init = self._start(-0.6, litim, rep="vertex")
        traj = integrate(init, 100.0, 0.0, litim)
        assert losses
        k, state = traj.checkpoints[-1]
        assert k == 0.0 and state.gamma2[0, 0] > 0.0

    def test_grid_flow_loses_convexity_after_poisoned_iterates(self, litim,
                                                                 monkeypatch):
        # a uniform curvature -200 flows unchanged (the trace form shifts every
        # node alike), so the margin is k^2 - 200 and the loss is real, at
        # k = sqrt(200).  At this loose tolerance the steps overshoot it:
        # Newton iterates leave the cone (10-13 at scipy 1.17) before the
        # margin's extrapolation reaches zero.  Even (stepped on phi >= 0) and
        # tilted by a linear term (stepped on the full grid), and with the
        # values perturbed by 1e-15 relative, the loss lands within 4e-8 of
        # sqrt(200), relative (151 nodes; within 6e-8 at 101 and 201)
        losses = self._count_losses(monkeypatch, _GridFlow, "rhs")
        half = np.linspace(0.0, 4.5, 76)
        grid = np.concatenate([-half[:0:-1], half])
        for tilt in (0.0, 0.3):
            losses.clear()
            init = GridAction(k=30.0, grid=grid, values=-100.0 * grid**2 + tilt * grid)
            with pytest.raises(ConvexityLoss, match="margin reaches zero") as exc_info:
                integrate(init, 30.0, 0.0, litim, rtol=2e-3, atol=2e-5)
            assert losses
            assert abs(exc_info.value.k - math.sqrt(200.0)) <= 8e-4 * exc_info.value.k
            last = exc_info.value.last_state
            assert exc_info.value.k < last.k and np.isfinite(last.values).all()
            assert last.values.size == grid.size

    def test_non_convex_start_is_refused(self, litim):
        # D2 u = -1 against R_1 = 1: the margin is zero at the start scale
        grid = np.linspace(-1, 1, 21)
        s = GridAction(k=1.0, grid=grid, values=-0.5 * grid**2)
        with pytest.raises(ConvexityLoss, match="start scale") as exc_info:
            integrate(s, 1.0, 0.0, litim)
        assert exc_info.value.k == 1.0
        assert exc_info.value.last_state is s

    @pytest.mark.parametrize("rep", ["grid", "vertex"])
    def test_every_trial_poisoned_raises_the_pending_loss(self, litim, rep,
                                                          monkeypatch):
        # every evaluation below the start scale leaves the cone: the step
        # shrinks below ten ulps of k, the solver fails, and the last loss
        # comes out with the last accepted state, the start
        def poisoned(*args):
            k = args[1] if rep == "grid" else args[0]
            if k < 100.0:
                raise ConvexityLoss(f"trial at k={k}", k=k)
            return original(*args)

        owner, name = (_GridFlow, "rhs") if rep == "grid" else (flow_module, "rhs_vertex")
        original = getattr(owner, name)
        monkeypatch.setattr(owner, name, poisoned)
        init = self._start(0.0, litim, rep=rep)
        with pytest.raises(ConvexityLoss, match="trial at k=") as exc_info:
            integrate(init, 100.0, 0.0, litim)
        last = exc_info.value.last_state
        assert last.k == 100.0
        for name in ("values",) if rep == "grid" else ("gamma2", "gamma4"):
            assert getattr(last, name).tobytes() == getattr(init, name).tobytes()

    @pytest.mark.parametrize("rep", ["grid", "vertex"])
    def test_non_finite_rhs_without_a_loss_underflows(self, litim, rep,
                                                      monkeypatch):
        def not_finite(*args):
            k = args[1] if rep == "grid" else args[0]
            y = original(*args)
            return np.full_like(y, np.nan) if k < 100.0 else y

        owner, name = (_GridFlow, "rhs") if rep == "grid" else (flow_module, "rhs_vertex")
        original = getattr(owner, name)
        monkeypatch.setattr(owner, name, not_finite)
        init = self._start(0.0, litim, rep=rep)
        with pytest.raises(StepUnderflow, match="integrator failed near k = 100"):
            integrate(init, 100.0, 0.0, litim)


    def test_singular_newton_matrix_names_the_scale(self, litim, monkeypatch):
        # the stepper steps the RG time; the failure names k, not tau
        def singular(band, *args, **kwargs):
            lu, piv, _ = dgbtrf(band, *args, **kwargs)
            return lu, piv, 1

        monkeypatch.setattr(flow_module, "dgbtrf", singular)
        init = self._start(0.0, litim)
        with pytest.raises(StepUnderflow, match="singular near k = 100$"):
            integrate(init, 100.0, 0.0, litim)


class TestGridStepper:
    @staticmethod
    def _flow(nodes, regulator, c3=0.0, **kwargs):
        """The classical start's flow: even, and so stepped on the nodes
        phi >= 0, where c3 = 0, and on the full grid otherwise."""
        spec = ModelSpec(dimension=0, modes=1, mass=1.0,
                         window=WindowParams(kind="scalar", r=1.0), c3=c3, c4=0.1,
                         phi_max=4.5, phi_nodes=nodes, allow_unbounded=c3 != 0)
        ctx = FunctionalContext(spec=spec, regulator=regulator, self_check=False)
        init, _ = initial_condition(ctx, "classical", 100.0)
        # p = 0.25 tells the regulators apart (at p = 0 both are k^2), and
        # litim's kink there splits the flow in two segments
        return integrate(init, 100.0, 0.0, regulator, momenta=[0.25], weights=[1.5],
                         checkpoints=[10.0, 1.0, 0.5, 0.1, 0.0], **kwargs)

    @staticmethod
    def _assert_same_bits(ported, reference):
        assert ported.stats == reference.stats
        assert [k for k, _ in ported.checkpoints] == [k for k, _ in reference.checkpoints]
        for (_, state), (_, expected) in zip(ported.checkpoints, reference.checkpoints):
            assert state.values.tobytes() == expected.values.tobytes()

    @pytest.mark.parametrize("nodes", [151, 1201])
    @pytest.mark.parametrize("name", ["litim", "exponential"])
    def test_steps_are_scipys_bdf(self, name, nodes, request, monkeypatch):
        regulator = request.getfixturevalue(name)
        ported = self._flow(nodes, regulator)
        monkeypatch.setattr(flow_module, "_GridBDF", _scipy_stepper)
        self._assert_same_bits(ported, self._flow(nodes, regulator))

    @pytest.mark.parametrize("name", ["litim", "exponential"])
    def test_full_grid_steps_are_scipys_bdf(self, name, request, monkeypatch):
        # c3 = 0.05: a start that is not even steps every node
        regulator = request.getfixturevalue(name)
        ported = self._flow(151, regulator, c3=0.05)
        monkeypatch.setattr(flow_module, "_GridBDF", _scipy_stepper)
        self._assert_same_bits(ported, self._flow(151, regulator, c3=0.05))

    @pytest.mark.parametrize("rep", ["grid", "vertex"])
    def test_rtol_below_scipys_floor_is_refused(self, litim, rep):
        # scipy raises such an rtol to 100 eps with a warning, but takes BDF's
        # Newton tolerance from the rtol asked for: 2.2 at rtol 1e-15
        spec = ModelSpec(dimension=0, modes=1, mass=1.0,
                         window=WindowParams(kind="scalar", r=1.0), c4=0.1)
        ctx = FunctionalContext(spec=spec, regulator=litim, self_check=False)
        init, _ = initial_condition(ctx, "classical", 100.0, rep=rep)
        for rtol in (np.nextafter(RTOL_FLOOR, 0.0), 1e-15):
            with pytest.raises(SpecValidationError, match="rtol .* below 100 eps"):
                integrate(init, 100.0, 0.0, litim, rtol=rtol)

    @pytest.mark.parametrize("name", ["litim", "exponential"])
    def test_floor_rtol_is_scipys_bdf(self, name, request, monkeypatch):
        regulator = request.getfixturevalue(name)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ported = self._flow(151, regulator, rtol=RTOL_FLOOR)
            monkeypatch.setattr(flow_module, "_GridBDF", _scipy_stepper)
            reference = self._flow(151, regulator, rtol=RTOL_FLOOR)
        self._assert_same_bits(ported, reference)

    def test_floor_rtol_reaches_k_zero(self, exponential):
        # at rtol 1e-15 this flow raised a false ConvexityLoss
        traj = self._flow(1201, exponential, rtol=RTOL_FLOOR)
        assert [k for k, _ in traj.checkpoints] == [100.0, 10.0, 1.0, 0.5, 0.1, 0.0]
        assert np.isfinite(traj.checkpoints[-1][1].values).all()


class TestBandNewtonMatrix:
    @staticmethod
    def _solver(nodes, k, regulator, monkeypatch):
        """The grid stepper on a convex grid action at scale k, and its Jacobian,
        both on every node: linspace(-2, 2, 5) is mirror-symmetric to the bit,
        and the even action's flow would step only its nodes phi >= 0."""
        monkeypatch.setattr(flow_module, "is_even", lambda axis, values: False)
        grid = np.linspace(-2.0, 2.0, nodes)
        state = GridAction(k=k, grid=grid, values=0.5 * grid**2 + 0.1 * grid**4)
        jac = _jacobian(state, regulator)
        solver = _GridBDF(lambda t, y: np.zeros_like(y), lambda t, y: jac.data,
                          second_difference_matrix(nodes), k, state.values, 0.0,
                          1e-8, 1e-10)
        return solver, jac

    @pytest.mark.parametrize("nodes", [5, 301, 1201])
    @pytest.mark.parametrize("k", [1.0, 0.0])
    @pytest.mark.parametrize("step", [1e-3, 10.0])
    def test_solve_matches_superlu(self, litim, nodes, k, step, monkeypatch):
        # BDF's c = h / alpha is negative on a downward flow.  c scales with
        # the largest Jacobian entry, so cond(I - cJ) stays below 60 and the
        # two factorisations agree to rounding.  At k = 0 litim's d_kF_k
        # vanishes, so J = 0 and I - cJ = I
        solver, jac = self._solver(nodes, k, litim, monkeypatch)
        assert solver.half_band == 3
        c = -step / (abs(jac).max() or 1.0)
        factor = solver._factor(c, jac.data)
        reference = splu(sp.eye(nodes, format="csc") - c * jac)
        assert solver.nlu == 1
        rng = np.random.default_rng(nodes)
        # right-hand sides on the edge nodes, whose rows are the 4-point stencils
        rhs = np.eye(nodes)[[0, 1, nodes - 2, nodes - 1]]
        for b in [*rhs, rng.standard_normal(nodes)]:
            expected = reference.solve(b)
            x = solver._solve_lu(factor, b.copy())
            assert np.abs(x - expected).max() <= 1e-13 * np.abs(expected).max()
            if k == 0.0:
                assert np.array_equal(x, b)

    @pytest.mark.parametrize("k", [1.0, 0.0])
    def test_band_holds_scipys_sparse_newton_matrix(self, litim, k, monkeypatch):
        # 1 - cJ_ii on the diagonal and 0 - cJ_ij off it: the bits of scipy's
        # CSC I - c*J in dgbtrf's layout, signed zeros included
        bands = []

        def captured(band, *args, **kwargs):
            bands.append(band.copy(order="F"))
            return dgbtrf(band, *args, **kwargs)

        monkeypatch.setattr(flow_module, "dgbtrf", captured)
        solver, jac = self._solver(301, k, litim, monkeypatch)
        c = np.float64(-0.37) / (abs(jac).max() or 1.0)
        solver._factor(c, jac.data)
        a = sp.eye(301, format="csc") - c * jac
        expected = np.zeros((10, 301), order="F")
        cols = np.repeat(np.arange(301), np.diff(a.indptr))
        expected[6 + a.indices - cols, cols] = a.data
        assert bands[0].tobytes(order="F") == expected.tobytes(order="F")

    def test_singular_newton_matrix_raises(self, litim, monkeypatch):
        solver, _ = self._solver(301, 2.5, litim, monkeypatch)
        _, _, unit = _band_pattern(second_difference_matrix(301))
        with pytest.raises(StepUnderflow, match="k = 2.5"):
            solver._factor(1.0, unit)  # I - I = 0

    def test_a_segment_shorter_than_an_ulp_takes_no_step(self):
        # tau_start == tau_end: the stepper finishes without a step, and the
        # interpolant of the segment is its state
        y0 = np.linspace(0.0, 1.0, 5) ** 2
        solver = _GridBDF(lambda t, y: np.ones_like(y), lambda t, y: None,
                          second_difference_matrix(5), 0.5, y0, 0.5, 1e-8, 1e-10)
        solver.step()
        assert (solver.status, solver.t, solver.nfev) == ("finished", 0.5, 1)
        assert solver.dense_output()(0.5) is y0

    def test_pattern_of_another_size_is_refused(self):
        # the band layout is read off the pattern: the full D2 of 151 nodes
        # for the 76 nodes phi >= 0 of a folded state is refused with a typed
        # error, not factored as a wrong band
        y0 = np.linspace(0.0, 1.0, 76) ** 2
        with pytest.raises(GridMismatch, match="151 x 151, the state has 76 nodes"):
            _GridBDF(lambda t, y: np.zeros_like(y), lambda t, y: None,
                     second_difference_matrix(151), 1.0, y0, 0.0, 1e-8, 1e-10)


class TestInitialConditions:
    def test_classical_grid_values(self, phi4_ctx):
        grid = np.linspace(-2, 2, 5)
        vals = classical_grid_values(phi4_ctx, grid)
        assert vals[2] == 0.0
        assert vals[-1] == pytest.approx(0.5 * 4.0 + 0.1 * 16.0)

    @pytest.mark.parametrize("k", [0.0, 1.0, 20.0])
    def test_exact_grid_values_fold_an_even_theory(self, phi4_spec, litim, k,
                                                   monkeypatch):
        # c3 = 0 on a mirror-symmetric grid: one transform of the N + 1 nodes
        # phi >= 0, phi = 0 among them, mirrored, so the values are exactly
        # even and within BUDGET of a transform of every node (3.6e-14 at most)
        ctx = FunctionalContext(spec=phi4_spec, regulator=litim, self_check=False)
        grid = phi4_spec.field_grid
        original = functionals.legendre_transform
        full, _ = original(ctx, k, np.append(grid, 0.0))
        full = full[:-1] - full[-1]
        batches = []

        def counted(ctx, k, fields):
            batches.append(len(fields))
            return original(ctx, k, fields)

        monkeypatch.setattr(functionals, "legendre_transform", counted)
        folded = exact_grid_values(ctx, k, grid)
        assert batches == [grid.size // 2 + 1]
        assert folded.tobytes() == folded[::-1].tobytes()
        assert np.abs(folded - full).max() <= BUDGET * np.abs(full).max()
        # an odd theory, or a grid that is not mirror-symmetric, keeps every
        # node and the extra lane of the field 0
        odd = FunctionalContext(spec=ModelSpec(
            dimension=0, modes=1, mass=1.0, window=WindowParams(kind="scalar", r=1.0),
            c3=0.05, c4=0.1, allow_unbounded=True), regulator=litim, self_check=False)
        exact_grid_values(odd, k, grid)
        exact_grid_values(ctx, k, grid + 0.01)
        assert batches[1:] == [grid.size + 1] * 2
        # the benchmark's tracer wraps the oracle under this module's name
        assert exact_grid_values is functionals.exact_grid_values

    def test_exact_approaches_classical(self, phi4_spec, litim):
        ctx = FunctionalContext(spec=phi4_spec, regulator=litim,
                                self_check=False)
        _, info_small = initial_condition(ctx, "exact", 10.0)
        _, info_large = initial_condition(ctx, "exact", 100.0)
        assert info_large["classical_discrepancy"] \
            < info_small["classical_discrepancy"]

    def test_vertex_exact_matches_hessian(self, phi4_spec, litim):
        ctx = FunctionalContext(spec=phi4_spec, regulator=litim,
                                self_check=False)
        action, _ = initial_condition(ctx, "exact", 5.0, rep="vertex")
        h = gamma_hessian(ctx, 5.0, np.zeros(1))
        assert action.gamma2[0, 0] == pytest.approx(h[0, 0], rel=1e-8)

    def test_vertex_fourth_derivative_is_one_sweep(self, phi4_spec, litim,
                                                   monkeypatch):
        ctx = FunctionalContext(spec=phi4_spec, regulator=litim,
                                self_check=False)
        h = 0.25

        def stencil4(hh):  # subtracted action, one gamma_bar per node
            vals = [gamma_bar(ctx, 10.0, np.array([x]))
                    for x in (-2 * hh, -hh, 0.0, hh, 2 * hh)]
            return (vals[0] - 4 * vals[1] + 6 * vals[2] - 4 * vals[3]
                    + vals[4]) / hh**4

        reference = (4.0 * stencil4(h / 2.0) - stencil4(h)) / 3.0
        batches = []
        original = functionals.invert_mean_field

        def counted(ctx, k, phi):
            batches.append(np.asarray(phi)[:, 0].tolist())
            return original(ctx, k, phi)

        monkeypatch.setattr(functionals, "invert_mean_field", counted)
        g4 = _fourth_derivative_at_zero(ctx, 10.0, h)
        # one inversion call, one lane per distinct stencil field
        assert batches == [[h * x for x in (-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0)]]
        assert g4 == pytest.approx(reference, rel=1e-9)

    def test_vertex_classical_coefficients(self, litim):
        spec = ModelSpec(dimension=0, modes=1, mass=1.0,
                         window=WindowParams(kind="scalar", r=0.5),
                         c2=0.3, c4=0.2)
        ctx = FunctionalContext(spec=spec, regulator=litim, self_check=False)
        action, _ = initial_condition(ctx, "classical", 5.0, rep="vertex")
        assert action.gamma2[0, 0] == pytest.approx(4.0 + 0.6)
        assert action.gamma4[0, 0, 0, 0] == pytest.approx(24 * 0.2)

    def test_bad_mode_rejected(self, phi4_ctx):
        with pytest.raises(ValueError):
            initial_condition(phi4_ctx, "interpolated", 5.0)

    @pytest.mark.parametrize("model, mode, rep, message", [
        ({}, "classical", "spectral", "unknown representation 'spectral'"),
        ({}, "interpolated", "vertex", "unknown initial-condition mode 'interpolated'"),
        ({"c3": 0.2, "allow_unbounded": True}, "classical", "vertex", "even theory"),
        ({"dimension": 1, "modes": 3, "momentum_spacing": 1.0,
          "window": WindowParams(kind="identity")}, "exact", "vertex",
         "exact vertex start is single-mode only"),
    ], ids=["rep", "vertex-mode", "vertex-c3", "exact-vertex-modes"])
    def test_refused_start(self, litim, model, mode, rep, message):
        spec = ModelSpec(**{"dimension": 0, "modes": 1, "mass": 1.0, "c4": 0.1,
                            "window": WindowParams(kind="scalar", r=1.0), **model})
        ctx = FunctionalContext(spec=spec, regulator=litim, self_check=False)
        with pytest.raises(SpecValidationError, match=message):
            initial_condition(ctx, mode, 5.0, rep=rep)


class TestFirstForm:
    def test_probes_agree(self, phi4_spec, litim):
        ctx = FunctionalContext(spec=phi4_spec, regulator=litim,
                                self_check=False)
        report = frge_first_form_check(ctx, 1.0, [0.0, 0.5, 1.0])
        assert max(r["abs_diff"] for r in report) < 1e-6

    def test_lhs_is_one_transform_of_four_shifted_scales(self, phi4_spec, litim,
                                                         monkeypatch):
        ctx = FunctionalContext(spec=phi4_spec, regulator=litim,
                                self_check=False)
        probes, k, h = [0.0, 0.5, 1.0, 2.0], 1.0, functionals.FIRST_FORM_DK_STEP

        def central(phi, hh):  # one gamma per probe and shifted scale
            return (functionals.gamma(ctx, k + hh, [phi])
                    - functionals.gamma(ctx, k - hh, [phi])) / (2.0 * hh)

        reference = [(4.0 * central(phi, h / 2.0) - central(phi, h)) / 3.0
                     for phi in probes]
        calls = []
        original = functionals.legendre_transform

        def counted(ctx, k, fields):
            calls.append((k, np.asarray(fields).tolist()))
            return original(ctx, k, fields)

        monkeypatch.setattr(functionals, "legendre_transform", counted)
        inverted = []
        invert = functionals.invert_mean_field

        def counted_inversion(ctx, k, phi):
            inverted.append(k)
            return invert(ctx, k, phi)

        monkeypatch.setattr(functionals, "invert_mean_field", counted_inversion)
        report = frge_first_form_check(ctx, k, probes)
        # one transform of every probe at the four shifted scales and at k,
        # whose inversion gives the trace side: no other inversion
        assert calls == [([k + h / 2.0, k - h / 2.0, k + h, k - h, k], probes)]
        assert inverted == [calls[0][0]]
        assert [r["lhs"] for r in report] == reference

    def test_negative_scale_trivial(self, phi4_spec, litim):
        ctx = FunctionalContext(spec=phi4_spec, regulator=litim,
                                self_check=False)
        report = frge_first_form_check(ctx, -1.0, [0.5])
        assert report[0]["lhs"] == 0.0 and report[0]["rhs"] == 0.0


class TestVertexGridCrossValidation:
    def test_weak_coupling_agreement(self, litim):
        spec = ModelSpec(dimension=0, modes=1, mass=1.0,
                         window=WindowParams(kind="scalar", r=1.0), c4=0.01)
        ctx = FunctionalContext(spec=spec, regulator=litim, self_check=False)
        init, _ = initial_condition(ctx, "exact", 10.0, rep="vertex")
        traj = integrate(init, 10.0, 0.0, litim, momenta=spec.momenta,
                         weights=spec.momentum_weights, checkpoints=[0.0])
        _, state = traj.checkpoints[-1]
        oracle = gamma_hessian(ctx, 0.0, np.zeros(1))[0, 0]
        assert abs(state.gamma2[0, 0] - oracle) / oracle < 0.01
