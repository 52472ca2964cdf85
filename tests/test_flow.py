import numpy as np
import pytest

from frgelab.errors import ConvexityLoss, SpecValidationError
from frgelab.flow import (
    GridAction,
    VertexAction,
    classical_grid_values,
    exact_grid_values,
    frge_first_form_check,
    initial_condition,
    integrate,
    rhs_grid,
    rhs_vertex,
    second_derivative,
    symmetrize2,
    symmetrize4,
)
from frgelab.functionals import FunctionalContext, gamma_bar, gamma_hessian
from frgelab.model import ModelSpec, WindowParams


class TestStencils:
    def test_exact_on_quadratic(self):
        x = np.linspace(-2, 2, 41)
        d2 = second_derivative(3.0 * x**2 + x + 1, x[1] - x[0])
        assert np.allclose(d2, 6.0, atol=1e-9)

    def test_fourth_order_convergence(self):
        errs = []
        for n in (41, 81):
            x = np.linspace(-1, 1, n)
            d2 = second_derivative(np.sin(x), x[1] - x[0])
            errs.append(np.abs(d2 + np.sin(x))[3:-3].max())
        assert errs[0] / errs[1] > 12  # ~16 for a 4th-order interior scheme


class TestStates:
    def test_grid_pack_roundtrip(self):
        grid = np.linspace(-1, 1, 11)
        values = grid**2
        s = GridAction(k=2.0, grid=grid, values=values)
        s2 = s.unpack(1.5, s.pack())
        assert s2.k == 1.5
        assert np.array_equal(s2.values, values)

    def test_vertex_pack_roundtrip(self):
        g2 = np.array([[1.0, 0.2], [0.2, 2.0]])
        g4 = symmetrize4(np.arange(16.0).reshape(2, 2, 2, 2))
        s = VertexAction(k=3.0, gamma2=g2, gamma4=g4)
        s2 = s.unpack(2.0, s.pack())
        assert np.allclose(s2.gamma2, g2)
        assert np.allclose(s2.gamma4, g4)

    def test_grid_even_node_count_rejected(self):
        grid = np.linspace(-1, 1, 10)
        with pytest.raises(SpecValidationError):
            GridAction(k=1.0, grid=grid, values=grid**2)

    def test_vertex_gamma4_shape_rejected(self):
        with pytest.raises(SpecValidationError):
            VertexAction(k=1.0, gamma2=np.eye(2), gamma4=np.zeros((1, 1, 1, 1)))

    def test_symmetrizers(self, rng):
        a = rng.standard_normal((3, 3))
        s = symmetrize2(a)
        assert np.allclose(s, s.T)
        b = rng.standard_normal((2, 2, 2, 2))
        t = symmetrize4(b)
        for perm in [(1, 0, 2, 3), (2, 1, 0, 3), (0, 3, 2, 1)]:
            assert np.allclose(t, t.transpose(perm))


class TestRhs:
    def test_grid_free_theory_stationary(self, litim):
        grid = np.linspace(-3, 3, 101)
        cinv = (1.0 / 0.7) ** 2
        s = GridAction(k=2.0, grid=grid, values=0.5 * cinv * grid**2)
        r = rhs_grid(s, litim, 0.0, 1.0)
        assert np.abs(r).max() < 1e-10

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
        d = rhs_vertex(s, litim, np.zeros(1), np.ones(1))
        r = k * k
        fdot = 2 * k
        g = 1.0 / (2.0 + r)
        assert d.gamma2[0, 0] == pytest.approx(-0.5 * fdot * 0.6 * g**2, rel=1e-12)
        assert d.gamma4[0, 0, 0, 0] == pytest.approx(3 * fdot * 0.36 * g**3, rel=1e-12)

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

    def test_stats_reported(self, free_spec, litim):
        ctx = FunctionalContext(spec=free_spec, regulator=litim)
        init, _ = initial_condition(ctx, "classical", 5.0)
        traj = integrate(init, 5.0, 1.0, litim)
        assert traj.stats["nfev"] > 0
        assert traj.stats["steps"] > 0


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
