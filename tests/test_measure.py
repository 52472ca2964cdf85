import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frgelab.errors import NotSPD
from frgelab.functionals import W, FunctionalContext
from frgelab.measure import build_measure, gauss_hermite_nodes, r_nu
from frgelab.model import ModelSpec, WindowParams


class TestBuild:
    def test_from_spec(self, phi4_spec):
        m = build_measure(phi4_spec)
        assert m.cov[0, 0] == pytest.approx(1.0)
        assert m.logdet == pytest.approx(0.0)

    def test_from_matrix(self):
        c = np.array([[2.0, 0.5], [0.5, 1.0]])
        m = build_measure(c)
        assert np.allclose(m.chol @ m.chol.T, c)
        assert np.allclose(m.inv @ c, np.eye(2), atol=1e-12)

    def test_not_spd(self):
        with pytest.raises(NotSPD):
            build_measure(np.array([[1.0, 2.0], [2.0, 1.0]]))


class TestCameronMartin:
    def test_r_nu_roundtrip(self):
        m = build_measure(np.array([[2.0, 0.3], [0.3, 1.5]]))
        t = np.array([0.7, -1.1])
        assert np.allclose(np.linalg.solve(m.cov, r_nu(m, t)), t, atol=1e-12)

    @settings(max_examples=30, deadline=None)
    @given(t=st.floats(-3, 3), s=st.floats(-3, 3))
    def test_shift_identity_matches_gaussian_mgf(self, litim, t, s):
        # free theory, C = 0.8: W_0(T) = ln E[exp(<T, psi>)] = <T, C T>/2
        spec = ModelSpec(dimension=0, modes=1, mass=1.25**0.5,
                         window=WindowParams(kind="scalar", r=1.0), c4=0.0)
        ctx = FunctionalContext(spec=spec, regulator=litim)
        tv = np.array([t + 0.1 * s])
        assert W(ctx, 0.0, tv) == pytest.approx(
            0.5 * (tv @ ctx.measure.cov @ tv), abs=1e-13
        )


class TestQuadrature:
    def test_nodes_weights_normalized(self):
        _, logw = gauss_hermite_nodes(32, 1)
        assert np.exp(logw).sum() == pytest.approx(1.0)
        nodes, logw2 = gauss_hermite_nodes(8, 2)
        assert nodes.shape == (64, 2)
        assert np.exp(logw2).sum() == pytest.approx(1.0)

    def test_tensor_rule_dim3(self):
        nodes, logw = gauss_hermite_nodes(6, 3)
        assert nodes.shape == (216, 3)
        assert np.exp(logw).sum() == pytest.approx(1.0)
        # second moments of N(0, I): E[x_a x_b] = delta_ab
        second = (np.exp(logw)[:, None] * nodes).T @ nodes
        assert np.allclose(second, np.eye(3), atol=1e-12)

    def test_rule_is_cached_and_read_only(self):
        nodes, logw = gauss_hermite_nodes(8, 2)
        assert gauss_hermite_nodes(8, 2)[0] is nodes
        with pytest.raises(ValueError):
            logw[0] = 0.0
