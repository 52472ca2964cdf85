from itertools import permutations
from math import comb

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.integrate import BDF, DOP853
from scipy.linalg.lapack import dgbtrf, dgbtrs
from scipy.sparse.linalg import splu

from frgelab.errors import ConvexityLoss, SpecValidationError, StepUnderflow
from frgelab import flow as flow_module, functionals
from frgelab.flow import (
    GridAction,
    _GridBDF,
    _GridFlow,
    _band_pattern,
    _fourth_derivative_at_zero,
    VertexAction,
    classical_grid_values,
    exact_grid_values,
    frge_first_form_check,
    initial_condition,
    integrate,
    rhs_grid,
    rhs_vertex,
    second_difference_matrix,
    symmetrize,
)
from frgelab.functionals import FunctionalContext, gamma_bar, gamma_hessian
from frgelab.model import ModelSpec, WindowParams


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
    forms, copied into LAPACK band storage and factored by dgbtrf: the
    stepper of grid flows before the port, and the reference the port
    reproduces bit for bit.  scipy binds ``lu`` and ``solve_lu`` per
    instance, so they are rebound here."""

    def __init__(self, fun, t0, y0, t_bound, **options):
        super().__init__(fun, t0, y0, t_bound, **options)
        d2 = second_difference_matrix(self.n).tocoo()
        self.half_band = int(np.abs(d2.row - d2.col).max())
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


def _scipy_stepper(fun, jac, t0, y0, t_bound, rtol, atol):
    """:class:`_ScipyBandBDF` called as ``integrate`` calls ``_GridBDF``; the
    Jacobian's entries in D2's order become the CSC matrix scipy expects."""
    d2 = second_difference_matrix(y0.size)
    return _ScipyBandBDF(
        fun, t0, y0, t_bound, rtol=rtol, atol=atol,
        jac=lambda t, y: sp.csc_matrix((jac(t, y), d2.indices, d2.indptr),
                                       shape=d2.shape))


def _jacobian(state: GridAction, regulator, momentum: float = 0.0,
              weight: float = 1.0) -> sp.csc_matrix:
    """The grid flow's Jacobian as a CSC matrix on D2's pattern."""
    d2 = second_difference_matrix(state.grid.size)
    data = _GridFlow(state.grid, regulator, momentum, weight).jacobian_data(
        state.k, state.values)
    return sp.csc_matrix((data, d2.indices, d2.indptr), shape=d2.shape)


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


class TestStates:
    def test_grid_pack_roundtrip(self):
        grid = np.linspace(-1, 1, 11)
        values = grid**2
        s = GridAction(k=2.0, grid=grid, values=values)
        s2 = s.unpack(1.5, s.pack())
        assert s2.k == 1.5
        assert np.array_equal(s2.values, values)

    def test_vertex_pack_roundtrip(self, rng):
        g2 = np.array([[1.0, 0.2], [0.2, 2.0]])
        g4 = symmetrize(np.arange(16.0).reshape(2, 2, 2, 2))
        s = VertexAction(k=3.0, gamma2=g2, gamma4=g4)
        s2 = s.unpack(2.0, s.pack())
        assert np.allclose(s2.gamma2, g2)
        assert np.allclose(s2.gamma4, g4)
        for m in range(1, 10):
            g2 = symmetrize(rng.standard_normal((m, m)))
            g4 = symmetrize(rng.standard_normal((m,) * 4))
            s = VertexAction(k=1.0, gamma2=g2, gamma4=g4)
            y = s.pack()
            # the independent components only
            assert y.size == m * (m + 1) // 2 + comb(m + 3, 4)
            s2 = s.unpack(0.5, y)
            assert np.allclose(s2.gamma2, g2, rtol=0, atol=1e-15)
            assert np.allclose(s2.gamma4, g4, rtol=0, atol=1e-15)

    def test_grid_even_node_count_rejected(self):
        grid = np.linspace(-1, 1, 10)
        with pytest.raises(SpecValidationError):
            GridAction(k=1.0, grid=grid, values=grid**2)

    def test_grid_below_stencil_width_rejected(self):
        grid = np.linspace(-1, 1, 3)
        with pytest.raises(SpecValidationError):
            GridAction(k=1.0, grid=grid, values=grid**2)

    def test_vertex_gamma4_shape_rejected(self):
        with pytest.raises(SpecValidationError):
            VertexAction(k=1.0, gamma2=np.eye(2), gamma4=np.zeros((1, 1, 1, 1)))

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
            plus = rhs_grid(s.unpack(k, s.values + e), regulator, p, w)
            minus = rhs_grid(s.unpack(k, s.values - e), regulator, p, w)
            fd[:, j] = (plus - minus) / (2.0 * eps)
        assert np.abs(jac - fd).max() <= 1e-6 * np.abs(jac).max()

    def test_grid_convexity_loss(self, litim):
        grid = np.linspace(-1, 1, 21)
        s = GridAction(k=0.1, grid=grid, values=-(grid**2))
        with pytest.raises(ConvexityLoss):
            rhs_grid(s, litim, 0.0, 1.0)

    def test_vertex_single_mode_series(self, litim):
        # d_k g2 = -Fdot g4 / (2 (g2+R)^2); d_k g4 = 3 Fdot g4^2 / (g2+R)^3
        k = 1.5
        g2 = np.array([[2.0]])
        g4 = np.full((1, 1, 1, 1), 0.6)
        s = VertexAction(k=k, gamma2=g2, gamma4=g4)
        d = s.unpack(k, rhs_vertex(s, litim, np.zeros(1), np.ones(1)))
        r = k * k
        fdot = 2 * k
        g = 1.0 / (2.0 + r)
        assert d.gamma2[0, 0] == pytest.approx(-0.5 * fdot * 0.6 * g**2, rel=1e-12)
        assert d.gamma4[0, 0, 0, 0] == pytest.approx(3 * fdot * 0.36 * g**3, rel=1e-12)

    @pytest.mark.parametrize("name", ["litim", "exponential"])
    @pytest.mark.parametrize("k", [0.4, 1.5, 6.0])
    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_vertex_matches_dense_contraction(self, m, k, name, rng, request):
        regulator = request.getfixturevalue(name)
        x = rng.standard_normal((m, m))
        g2 = x @ x.T + 0.5 * np.eye(m)
        g4 = 0.2 * symmetrize(rng.standard_normal((m,) * 4))
        momenta = np.sort(rng.uniform(0.0, 2.0, m))
        weights = rng.uniform(0.5, 1.5, m)
        s = VertexAction(k=k, gamma2=g2, gamma4=g4)
        d = s.unpack(k, rhs_vertex(s, regulator, momenta, weights))
        d_g2, d_g4 = _dense_rhs_vertex(s, regulator, momenta, weights)
        assert np.abs(d.gamma2 - d_g2).max() <= 1e-12 * np.abs(d_g2).max()
        assert np.abs(d.gamma4 - d_g4).max() <= 1e-12 * np.abs(d_g4).max()

    def test_vertex_convexity_loss(self, litim):
        s = VertexAction(k=0.1, gamma2=np.array([[-1.0]]),
                         gamma4=np.zeros((1, 1, 1, 1)))
        with pytest.raises(ConvexityLoss):
            rhs_vertex(s, litim, np.zeros(1), np.ones(1))


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
    def test_grid_error_is_the_integrators(self, litim, nodes):
        # classical start, k 100 -> 0 at default tolerances: the largest error
        # on |phi| <= 2 against a tight-tolerance run of the same grid ODE is
        # 1.4e-7 at 151 nodes, at k = 1 (1.5e-7 at 301 nodes, 7.8e-8 at the
        # benchmark's 1 201); rtol 1e-6 reads 7.8e-6 at k = 0
        spec = ModelSpec(dimension=0, modes=1, mass=1.0,
                         window=WindowParams(kind="scalar", r=1.0), c4=0.1,
                         phi_max=4.5, phi_nodes=nodes)
        ctx = FunctionalContext(spec=spec, regulator=litim, self_check=False)
        init, _ = initial_condition(ctx, "classical", 100.0)
        scales = [10.0, 1.0, 0.0]
        traj = integrate(init, 100.0, 0.0, litim, checkpoints=scales)
        ref = integrate(init, 100.0, 0.0, litim, checkpoints=scales,
                        rtol=1e-12, atol=1e-14)
        mask = np.abs(init.grid) <= 2.0
        for (k, state), (_, exact) in zip(traj.checkpoints, ref.checkpoints):
            assert np.abs(state.values - exact.values)[mask].max() <= 5e-7, k

    def test_grid_newton_matrix_is_band_factored(self, phi4_spec, litim,
                                                  monkeypatch):
        # every factorisation the stepper counts is one dgbtrf call on the
        # (3b + 1, n) band layout, b = 3
        calls = []

        def counting(*args, **kwargs):
            calls.append(args[0].shape)
            return dgbtrf(*args, **kwargs)

        monkeypatch.setattr(flow_module, "dgbtrf", counting)
        ctx = FunctionalContext(spec=phi4_spec, regulator=litim, self_check=False)
        init, _ = initial_condition(ctx, "classical", 20.0)
        traj = integrate(init, 20.0, 0.0, litim)
        assert 0 < len(calls) == traj.stats["nlu"]
        assert set(calls) == {(10, init.grid.size)}

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
        # the error is 2.6e-11 of max|gamma2|.  A segment that steps the other
        # side's regulator value on the kink at k = 1 reads 8e-8
        ctx = FunctionalContext(spec=line_spec, regulator=litim, self_check=False)
        init, _ = initial_condition(ctx, "classical", 10.0, rep="vertex")
        kwargs = dict(momenta=line_spec.momenta, weights=line_spec.momentum_weights,
                      checkpoints=[0.0])
        g2 = integrate(init, 10.0, 0.0, litim, **kwargs).checkpoints[-1][1].gamma2
        monkeypatch.setattr(flow_module, "RK45", DOP853)
        ref = integrate(init, 10.0, 0.0, litim, rtol=1e-12, atol=1e-14,
                        **kwargs).checkpoints[-1][1].gamma2
        assert np.abs(g2 - ref).max() <= 1e-9 * np.abs(ref).max()

    def test_segments_step_their_own_side_of_a_kink(self, line_spec, litim,
                                                     monkeypatch):
        scales = []
        original = flow_module.rhs_vertex

        def recorded(state, *args):
            scales.append(state.k)
            return original(state, *args)

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
        # c2 = -1.0 at loose tolerances: Newton iterates leave the cone (12 at
        # scipy 1.17) before the margin's extrapolation reaches zero at k ~ 1.228
        losses = self._count_losses(monkeypatch, _GridFlow, "rhs")
        init = self._start(-1.0, litim, nodes=151)
        with pytest.raises(ConvexityLoss, match="margin reaches zero") as exc_info:
            integrate(init, 100.0, 0.0, litim, rtol=1e-3, atol=1e-5)
        assert losses
        assert abs(exc_info.value.k - 1.228) <= 1e-3
        last = exc_info.value.last_state
        assert exc_info.value.k < last.k and np.isfinite(last.values).all()

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
            k = args[1] if rep == "grid" else args[0].k
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
        assert last.pack().tobytes() == init.pack().tobytes()

    @pytest.mark.parametrize("rep", ["grid", "vertex"])
    def test_non_finite_rhs_without_a_loss_underflows(self, litim, rep,
                                                      monkeypatch):
        def not_finite(*args):
            k = args[1] if rep == "grid" else args[0].k
            y = original(*args)
            return np.full_like(y, np.nan) if k < 100.0 else y

        owner, name = (_GridFlow, "rhs") if rep == "grid" else (flow_module, "rhs_vertex")
        original = getattr(owner, name)
        monkeypatch.setattr(owner, name, not_finite)
        init = self._start(0.0, litim, rep=rep)
        with pytest.raises(StepUnderflow, match="integrator failed near k = 100"):
            integrate(init, 100.0, 0.0, litim)


class TestGridStepper:
    @staticmethod
    def _flow(nodes, regulator, **kwargs):
        spec = ModelSpec(dimension=0, modes=1, mass=1.0,
                         window=WindowParams(kind="scalar", r=1.0), c4=0.1,
                         phi_max=4.5, phi_nodes=nodes)
        ctx = FunctionalContext(spec=spec, regulator=regulator, self_check=False)
        init, _ = initial_condition(ctx, "classical", 100.0)
        # p = 0.25 tells the regulators apart (at p = 0 both are k^2), and
        # litim's kink there splits the flow in two segments
        return integrate(init, 100.0, 0.0, regulator, momenta=[0.25], weights=[1.5],
                         checkpoints=[10.0, 1.0, 0.5, 0.1, 0.0], **kwargs)

    @pytest.mark.parametrize("nodes", [151, 1201])
    @pytest.mark.parametrize("name", ["litim", "exponential"])
    def test_steps_are_scipys_bdf(self, name, nodes, request, monkeypatch):
        regulator = request.getfixturevalue(name)
        ported = self._flow(nodes, regulator)
        monkeypatch.setattr(flow_module, "_GridBDF", _scipy_stepper)
        reference = self._flow(nodes, regulator)
        assert ported.stats == reference.stats
        assert [k for k, _ in ported.checkpoints] == [k for k, _ in reference.checkpoints]
        for (_, state), (_, expected) in zip(ported.checkpoints, reference.checkpoints):
            assert state.values.tobytes() == expected.values.tobytes()

    def test_tiny_rtol_is_raised_as_scipy_raises_it(self, litim, monkeypatch):
        with pytest.warns(UserWarning, match="rtol"):
            ported = self._flow(151, litim, rtol=1e-15)
        monkeypatch.setattr(flow_module, "_GridBDF", _scipy_stepper)
        with pytest.warns(UserWarning, match="rtol"):
            reference = self._flow(151, litim, rtol=1e-15)
        assert ported.stats == reference.stats
        final, expected = ported.checkpoints[-1][1], reference.checkpoints[-1][1]
        assert final.values.tobytes() == expected.values.tobytes()


class TestBandNewtonMatrix:
    @staticmethod
    def _solver(nodes, k, regulator):
        """The grid stepper on a convex grid action at scale k, and its Jacobian."""
        grid = np.linspace(-2.0, 2.0, nodes)
        state = GridAction(k=k, grid=grid, values=0.5 * grid**2 + 0.1 * grid**4)
        jac = _jacobian(state, regulator)
        solver = _GridBDF(lambda t, y: np.zeros_like(y), lambda t, y: jac.data, k,
                          state.values, 0.0, 1e-8, 1e-10)
        return solver, jac

    @pytest.mark.parametrize("nodes", [5, 301, 1201])
    @pytest.mark.parametrize("k", [1.0, 0.0])
    @pytest.mark.parametrize("step", [1e-3, 10.0])
    def test_solve_matches_superlu(self, litim, nodes, k, step):
        # BDF's c = h / alpha is negative on a downward flow.  c scales with
        # the largest Jacobian entry, so cond(I - cJ) stays below 60 and the
        # two factorisations agree to rounding.  At k = 0 litim's d_kF_k
        # vanishes, so J = 0 and I - cJ = I
        solver, jac = self._solver(nodes, k, litim)
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
        solver, jac = self._solver(301, k, litim)
        c = np.float64(-0.37) / (abs(jac).max() or 1.0)
        solver._factor(c, jac.data)
        a = sp.eye(301, format="csc") - c * jac
        expected = np.zeros((10, 301), order="F")
        cols = np.repeat(np.arange(301), np.diff(a.indptr))
        expected[6 + a.indices - cols, cols] = a.data
        assert bands[0].tobytes(order="F") == expected.tobytes(order="F")

    def test_singular_newton_matrix_raises(self, litim):
        solver, _ = self._solver(301, 2.5, litim)
        _, _, unit = _band_pattern(301)
        with pytest.raises(StepUnderflow, match="k = 2.5"):
            solver._factor(1.0, unit)  # I - I = 0


class TestInitialConditions:
    def test_classical_grid_values(self, phi4_ctx):
        grid = np.linspace(-2, 2, 5)
        vals = classical_grid_values(phi4_ctx, grid)
        assert vals[2] == 0.0
        assert vals[-1] == pytest.approx(0.5 * 4.0 + 0.1 * 16.0)

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


class TestFirstForm:
    def test_probes_agree(self, phi4_spec, litim):
        ctx = FunctionalContext(spec=phi4_spec, regulator=litim,
                                self_check=False)
        report = frge_first_form_check(ctx, 1.0, [0.0, 0.5, 1.0])
        assert max(r["abs_diff"] for r in report) < 1e-6

    def test_lhs_is_four_transforms(self, phi4_spec, litim, monkeypatch):
        ctx = FunctionalContext(spec=phi4_spec, regulator=litim,
                                self_check=False)
        probes, k, h = [0.0, 0.5, 1.0, 2.0], 1.0, flow_module.FIRST_FORM_DK_STEP

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
        report = frge_first_form_check(ctx, k, probes)
        # one transform of every probe at each of the four shifted scales
        assert sorted(c[0] for c in calls) == [k - h, k - h / 2.0, k + h / 2.0, k + h]
        assert all(fields == probes for _, fields in calls)
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
