import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import given, settings
from hypothesis import strategies as st

from frgelab.errors import NotSPD
from frgelab.functionals import W, FunctionalContext
from frgelab.measure import build_measure, gauss_hermite_nodes
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

    @pytest.mark.parametrize("cov", [[[np.nan]], [[np.inf]],
                                     [[1.0, np.nan], [np.nan, 1.0]]])
    def test_not_finite(self, cov):
        # numpy's Cholesky factor passes NaN and inf through without raising
        with pytest.raises(NotSPD, match="not finite"):
            build_measure(np.array(cov))


def _scipy_factor(a):
    """The reference: scipy's Cholesky factor and its cho_solve inverse."""
    chol = sla.cholesky(a, lower=True)
    return chol, sla.cho_solve((chol, True), np.eye(len(a)))


class TestFactorMatchesScipy:
    """The numpy factor and inverse keep scipy's bits at one mode, where every
    benchmark output is computed; np.linalg.inv of the matrix itself would
    change the last bit of most of them."""

    def test_one_mode_measure_bits(self):
        for a in np.exp(np.linspace(-20.0, 20.0, 401)):
            m = build_measure([[a]])
            chol, inv = _scipy_factor(np.array([[a]]))
            assert m.chol[0, 0] == chol[0, 0] and m.inv[0, 0] == inv[0, 0], a

    def test_one_mode_scale_bits(self, litim):
        for mass in np.exp(np.linspace(-10.0, 10.0, 21)):
            spec = ModelSpec(dimension=0, modes=1, mass=mass,
                             window=WindowParams(kind="scalar", r=1.0), c4=0.1)
            ctx = FunctionalContext(spec=spec, regulator=litim)
            for k in [0.0, *np.exp(np.linspace(-10.0, 10.0, 21))]:
                record = ctx.scale(k)
                _, sigma = _scipy_factor(record.prec)
                chol_s, _ = _scipy_factor(sigma)
                assert record.sigma[0, 0] == sigma[0, 0], (mass, k)
                assert record.chol_s[0, 0] == chol_s[0, 0], (mass, k)

    def test_three_modes_near_scipy(self, litim):
        # the Gaussian window of acceptance test 13, whose C^-1 reaches 262;
        # measured: at most 1.1e-15 of the largest entry (chol_s at k = 0), and
        # 0 for the Cholesky factors of C and of each C^-1 + F_k
        spec = ModelSpec(dimension=1, modes=3, mass=1.0, momentum_spacing=1.0,
                         window=WindowParams(kind="gaussian", K=1.0, Lambda=1.0, n=1),
                         c4=0.05)
        ctx = FunctionalContext(spec=spec, regulator=litim)

        def rel(a, b):
            return np.abs(a - b).max() / np.abs(b).max()

        chol, inv = _scipy_factor(ctx.measure.cov)
        assert rel(ctx.measure.chol, chol) <= 1e-14
        assert rel(ctx.measure.inv, inv) <= 1e-14
        for k in (0.0, 10.0, 100.0):
            record = ctx.scale(k)
            chol_p, sigma = _scipy_factor(record.prec)
            assert rel(record.chol_p, chol_p) <= 1e-14
            assert rel(record.sigma, sigma) <= 1e-14
            assert rel(record.chol_s, _scipy_factor(sigma)[0]) <= 1e-14


class TestCameronMartin:
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
