import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frgelab import functionals
from frgelab.errors import RangeExceeded, SelfCheckFailed
from frgelab.functionals import (
    SCALE_CACHE_SIZE,
    W,
    FunctionalContext,
    connected_cov,
    dirac_ratio,
    dk_log_normalization,
    gamma,
    gamma_bar,
    gamma_gradient,
    gamma_hessian,
    invert_mean_field,
    legendre_sweep,
    log_normalization,
    mean_field,
)
from frgelab.model import ModelSpec, WindowParams
from frgelab.regulator import make_regulator

# frozen against independent adaptive-quadrature oracles of the single-mode
# anharmonic benchmark (unit covariance, c4 = 0.1, Litim shape)
LN_NORM_K0 = -0.15360747781970568
W_K0_T1 = 0.300885242604902
MEAN_FIELD_K0_T1 = 0.58881448617613
CONNECTED_COV_K0_T1 = 0.5399629285651172
SOURCE_K0_PHI1 = 1.8543774982382661
GAMMA_K0_PHI1 = 0.8675575383752943
DK_LN_NORM_K1 = -0.4087807019337469


class TestGeneratingFunctionals:
    def test_log_normalization_frozen(self, phi4_ctx):
        assert log_normalization(phi4_ctx, 0.0) == pytest.approx(
            LN_NORM_K0, abs=1e-12
        )

    def test_w_frozen(self, phi4_ctx):
        assert W(phi4_ctx, 0.0, np.array([1.0])) == pytest.approx(
            W_K0_T1, abs=1e-11
        )

    def test_w_even_in_source(self, phi4_ctx):
        assert W(phi4_ctx, 0.0, np.array([-1.3])) == pytest.approx(
            W(phi4_ctx, 0.0, np.array([1.3])), abs=1e-11
        )

    def test_w_zero_source(self, phi4_ctx):
        assert W(phi4_ctx, 0.0, np.zeros(1)) == pytest.approx(0.0, abs=1e-12)

    def test_w_convex_along_line(self, phi4_ctx):
        ts = np.linspace(-2, 2, 9)
        vals = [W(phi4_ctx, 1.0, np.array([t])) for t in ts]
        second = np.diff(vals, 2)
        assert np.all(second > 0)

    def test_self_check_tolerates_large_scale(self, phi4_spec, litim):
        ctx = FunctionalContext(spec=phi4_spec, regulator=litim)
        W(ctx, 100.0, np.array([1.0]))  # must not raise

    def test_self_check_detects_broken_covariance(self, phi4_spec, litim):
        ctx = FunctionalContext(spec=phi4_spec, regulator=litim)
        # corrupt the cached covariance used by the direct route only
        object.__setattr__(ctx.measure, "cov", ctx.measure.cov * 1.1)
        with pytest.raises(SelfCheckFailed):
            W(ctx, 0.0, np.array([2.0]))


class TestMeanField:
    def test_mean_field_frozen(self, phi4_ctx):
        assert mean_field(phi4_ctx, 0.0, np.array([1.0]))[0] == pytest.approx(
            MEAN_FIELD_K0_T1, abs=1e-9
        )

    def test_connected_cov_frozen(self, phi4_ctx):
        cc = connected_cov(phi4_ctx, 0.0, np.array([1.0]))
        assert cc[0, 0] == pytest.approx(CONNECTED_COV_K0_T1, abs=1e-9)

    def test_connected_cov_spd(self, phi4_ctx, rng):
        for _ in range(5):
            t = rng.uniform(-2, 2, size=1)
            cc = connected_cov(phi4_ctx, 0.5, t)
            assert np.linalg.eigvalsh(cc).min() > 0

    def test_inversion_frozen_source(self, phi4_ctx):
        solve = invert_mean_field(phi4_ctx, 0.0, np.array([1.0]))
        assert solve.source[0] == pytest.approx(SOURCE_K0_PHI1, abs=1e-8)
        assert solve.residual < 1e-10

    def test_inversion_roundtrip(self, phi4_ctx, rng):
        for _ in range(5):
            phi = rng.uniform(-2, 2, size=1)
            solve = invert_mean_field(phi4_ctx, 0.7, phi)
            assert np.allclose(
                mean_field(phi4_ctx, 0.7, solve.source), phi, atol=1e-9
            )

    def test_range_guard(self, phi4_ctx):
        with pytest.raises(RangeExceeded):
            invert_mean_field(phi4_ctx, 0.0, np.array([900.0]))


class TestEffectiveAction:
    def test_gamma_frozen(self, phi4_ctx):
        assert gamma(phi4_ctx, 0.0, np.array([1.0])) == pytest.approx(
            GAMMA_K0_PHI1, abs=1e-10
        )

    def test_gamma_is_first_value_of_sweep(self, phi4_ctx):
        phi = np.array([1.3])
        first, solve = next(legendre_sweep(phi4_ctx, 0.6, [phi, np.array([1.4])]))
        assert gamma(phi4_ctx, 0.6, phi) == first
        assert np.array_equal(solve.source, invert_mean_field(phi4_ctx, 0.6, phi).source)

    def test_sweep_warm_starts_from_previous_source(self, phi4_ctx):
        fields = np.linspace(0.2, 1.8, 5)
        swept = list(legendre_sweep(phi4_ctx, 0.6, fields))
        cold = [gamma(phi4_ctx, 0.6, p) for p in fields]
        assert [v for v, _ in swept] == pytest.approx(cold, abs=1e-10)
        # each inversion starts from the previous field's source
        for (_, prev), (_, solve), phi in zip(swept, swept[1:], fields[1:]):
            again = invert_mean_field(phi4_ctx, 0.6, phi, j0=prev.source)
            assert np.array_equal(solve.source, again.source)

    def test_gamma_zero_at_origin_even_theory(self, phi4_ctx):
        assert gamma(phi4_ctx, 1.0, np.zeros(1)) == pytest.approx(0.0, abs=1e-10)

    def test_gamma_bar_minimal_at_origin(self, phi4_ctx):
        vals = [gamma_bar(phi4_ctx, 1.0, np.array([p]))
                for p in np.linspace(-2, 2, 11)]
        assert min(vals) == pytest.approx(0.0, abs=1e-10)
        assert vals[5] == pytest.approx(0.0, abs=1e-10)

    def test_gradient_matches_finite_difference(self, phi4_ctx):
        phi = np.array([0.8])
        h = 1e-5
        fd = (gamma(phi4_ctx, 0.5, phi + h) - gamma(phi4_ctx, 0.5, phi - h)) / (2 * h)
        assert gamma_gradient(phi4_ctx, 0.5, phi)[0] == pytest.approx(fd, abs=1e-7)

    def test_hessian_inverse_identity(self, phi4_ctx, rng):
        # (D^2 Gamma + F_k) is the inverse of the connected covariance
        for _ in range(3):
            k = rng.uniform(0, 3)
            phi = rng.uniform(-1.5, 1.5, size=1)
            h = gamma_hessian(phi4_ctx, k, phi)
            solve = invert_mean_field(phi4_ctx, k, phi)
            cc = connected_cov(phi4_ctx, k, solve.source)
            f = phi4_ctx.scale(k).f
            assert (h[0, 0] + f[0]) * cc[0, 0] == pytest.approx(1.0, abs=1e-6)

    def test_legendre_duality(self, phi4_ctx):
        # Gamma(phi) + W(J) = J.phi - F(phi,phi)/2 at the inverting source
        phi = np.array([1.2])
        k = 0.8
        solve = invert_mean_field(phi4_ctx, k, phi)
        w_val = W(phi4_ctx, k, solve.source)
        f = phi4_ctx.scale(k).f
        lhs = gamma(phi4_ctx, k, phi) + w_val
        rhs = float(solve.source @ phi) - 0.5 * float(phi @ (f * phi))
        assert lhs == pytest.approx(rhs, abs=1e-10)


class TestScaleStructure:
    def test_dk_log_normalization_frozen(self, phi4_ctx):
        assert dk_log_normalization(phi4_ctx, 1.0) == pytest.approx(
            DK_LN_NORM_K1, abs=1e-10
        )

    def test_dk_log_normalization_zero_without_regulator_motion(self, phi4_ctx):
        assert dk_log_normalization(phi4_ctx, -1.0) == 0.0

    def test_dirac_ratio_concentrates(self, phi4_ctx):
        g = lambda psi: np.cos(psi[..., 0])
        ratios = [abs(dirac_ratio(phi4_ctx, g, k) - 1.0) for k in (5.0, 10.0, 50.0)]
        assert ratios[0] > ratios[1] > ratios[2]
        assert ratios[2] <= 1e-2


class TestScaleRecord:
    def test_one_zero_source_kernel_call_per_scale(self, phi4_spec, litim, monkeypatch):
        ctx = FunctionalContext(spec=phi4_spec, regulator=litim)
        kernel = functionals.tilted_moments
        zero_source = []

        def counting(ctx_, k, t_vec=None, shift=None):
            if t_vec is None:
                zero_source.append(k)
            return kernel(ctx_, k, t_vec, shift)

        monkeypatch.setattr(functionals, "tilted_moments", counting)
        for _ in range(3):
            W(ctx, 0.7, np.array([0.4]))
            log_normalization(ctx, 0.7)
            dk_log_normalization(ctx, 0.7)
        assert zero_source == [0.7]

    def test_cache_is_bounded_and_recomputes_the_same_bits(self, phi4_spec, litim):
        ctx = FunctionalContext(spec=phi4_spec, regulator=litim)
        first = ctx.scale(0.005)
        ln_n = log_normalization(ctx, 0.005)
        for k in np.linspace(0.01, 2.0, 200):
            log_normalization(ctx, k)
            assert len(ctx._scales) <= SCALE_CACHE_SIZE
        again = ctx.scale(0.005)
        assert again is not first  # evicted and rebuilt
        for name in ("f", "f_dot", "prec", "sigma", "chol_s"):
            assert np.array_equal(getattr(again, name), getattr(first, name))
        assert again.logdet_s == first.logdet_s
        assert log_normalization(ctx, 0.005) == ln_n

    def test_record_holds_the_regulator_diagonals(self, line_spec, exponential):
        ctx = FunctionalContext(spec=line_spec, regulator=exponential)
        record = ctx.scale(1.5)
        p, w = line_spec.momenta, line_spec.momentum_weights
        assert np.array_equal(record.f, exponential.value(1.5, p) * w)
        assert np.array_equal(record.f_dot, exponential.dk(1.5, p) * w)
        assert np.allclose(record.prec @ record.sigma, np.eye(3), atol=1e-12)
        with pytest.raises(ValueError):
            record.f[0] = 0.0  # shared by every caller of the scale


def scalar_ctx(mass, r, c4, regulator):
    spec = ModelSpec(dimension=0, modes=1, mass=mass,
                     window=WindowParams(kind="scalar", r=r), c4=c4)
    return FunctionalContext(spec=spec, regulator=make_regulator(regulator))


theories = dict(
    mass=st.floats(0.7, 1.5),
    r=st.floats(0.5, 1.0),
    c4=st.floats(0.0, 0.2),
    regulator=st.sampled_from(["litim", "exponential"]),
    k=st.floats(0.0, 3.0),
    phi=st.floats(-1.5, 1.5),
)


class TestOracleProperties:
    @settings(max_examples=40, deadline=None)
    @given(**theories)
    def test_legendre_duality(self, mass, r, c4, regulator, k, phi):
        # Gamma(phi) + W(J) = J.phi - F(phi,phi)/2 at the inverting source
        ctx = scalar_ctx(mass, r, c4, regulator)
        value, solve = next(legendre_sweep(ctx, k, [np.array([phi])]))
        f = ctx.scale(k).f[0]
        rhs = solve.source[0] * phi - 0.5 * f * phi**2
        assert value + W(ctx, k, solve.source) == pytest.approx(rhs, abs=1e-10)

    @settings(max_examples=40, deadline=None)
    @given(**theories)
    def test_hessian_inverse_identity(self, mass, r, c4, regulator, k, phi):
        # (D^2 Gamma + F_k) is the inverse of the connected covariance
        ctx = scalar_ctx(mass, r, c4, regulator)
        phi = np.array([phi])
        h = gamma_hessian(ctx, k, phi)
        cc = connected_cov(ctx, k, invert_mean_field(ctx, k, phi).source)
        f = ctx.scale(k).f[0]
        assert (h[0, 0] + f) * cc[0, 0] == pytest.approx(1.0, abs=1e-6)

    @settings(max_examples=40, deadline=None)
    @given(**{name: s for name, s in theories.items() if name != "c4"})
    def test_free_theory_is_the_inverse_covariance(self, mass, r, regulator, k, phi):
        # without interaction Gamma_k is the quadratic form of C^-1 = m^2/r^2
        ctx = scalar_ctx(mass, r, 0.0, regulator)
        expected = 0.5 * mass**2 * phi**2 / r**2
        assert gamma_bar(ctx, k, np.array([phi])) == pytest.approx(expected, abs=1e-10)
