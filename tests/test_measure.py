import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frgelab.errors import BudgetExceeded, NotSPD
from frgelab.measure import (
    build_measure,
    expectation,
    gauss_hermite_nodes,
    r_nu,
    sample,
)

# frozen against an independent adaptive-quadrature computation
QUARTIC_TILT_MEAN = 0.8576085853444118  # E[exp(-0.1 psi^4)], C = 1


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


class TestSampling:
    def test_deterministic(self, phi4_spec):
        m = build_measure(phi4_spec)
        a = sample(m, 100, seed=3)
        b = sample(m, 100, seed=3)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, sample(m, 100, seed=4))

    def test_sample_covariance_converges(self):
        c = np.array([[2.0, 0.7], [0.7, 1.0]])
        m = build_measure(c)
        psi = sample(m, 200_000, seed=11)
        emp = psi.T @ psi / psi.shape[0]
        assert np.allclose(emp, c, atol=0.02)

    def test_count_validation(self, phi4_spec):
        with pytest.raises(ValueError):
            sample(build_measure(phi4_spec), 0, seed=1)


class TestCameronMartin:
    def test_r_nu_roundtrip(self):
        m = build_measure(np.array([[2.0, 0.3], [0.3, 1.5]]))
        t = np.array([0.7, -1.1])
        assert np.allclose(np.linalg.solve(m.cov, r_nu(m, t)), t, atol=1e-12)

    @settings(max_examples=30, deadline=None)
    @given(t=st.floats(-3, 3), s=st.floats(-3, 3))
    def test_shift_identity_matches_gaussian_mgf(self, t, s):
        # E[exp(<T, psi>)] = exp(<T, C T>/2): quadrature against closed form
        m = build_measure(np.array([[0.8]]))
        tv = np.array([t + 0.1 * s])
        res = expectation(m, lambda psi: np.exp(psi @ tv), target_error=1e-9)
        assert res.value == pytest.approx(np.exp(0.5 * (tv @ m.cov @ tv)), rel=1e-7)


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

    def test_quartic_tilt_frozen_value(self, phi4_spec):
        m = build_measure(phi4_spec)
        res = expectation(
            m, lambda psi: np.exp(-0.1 * psi[:, 0] ** 4), target_error=1e-12
        )
        assert res.method == "quadrature"
        assert res.value == pytest.approx(QUARTIC_TILT_MEAN, abs=1e-11)

    def test_second_moment_exact(self):
        m = build_measure(np.array([[1.7]]))
        res = expectation(m, lambda psi: psi[:, 0] ** 2, target_error=1e-11)
        assert res.value == pytest.approx(1.7, abs=1e-9)

    def test_dimension_cap(self):
        m = build_measure(np.eye(5))
        with pytest.raises(BudgetExceeded):
            expectation(m, lambda psi: np.ones(psi.shape[0]))

    def test_monte_carlo_path(self, phi4_spec):
        m = build_measure(phi4_spec)
        res = expectation(
            m, lambda psi: np.exp(-0.1 * psi[:, 0] ** 4),
            method="monte-carlo", target_error=5e-3, samples=20_000, seed=5,
        )
        assert res.method == "monte-carlo"
        assert abs(res.value - QUARTIC_TILT_MEAN) < 3 * 5e-3 + 3e-3

    def test_monte_carlo_budget(self, phi4_spec):
        m = build_measure(phi4_spec)
        with pytest.raises(BudgetExceeded):
            expectation(m, lambda psi: psi[:, 0] ** 2,
                        method="monte-carlo", target_error=1e-12, samples=1000)

    def test_unknown_method(self, phi4_spec):
        with pytest.raises(ValueError):
            expectation(build_measure(phi4_spec), lambda p: p[:, 0], method="bogus")
