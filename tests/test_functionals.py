import re
import warnings

import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st

from frgelab import functionals, measure
from frgelab.errors import (
    BudgetExceeded,
    NewtonStalled,
    RangeExceeded,
    SelfCheckFailed,
    SpecValidationError,
)
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
    legendre_transform,
    log_normalization,
    mean_field,
    tilted_moments,
)
from frgelab.model import ModelSpec, WindowParams, classical_asymptote
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

    @pytest.mark.parametrize("name", ["litim", "exponential"])
    def test_large_scale_reaches_the_classical_action(self, phi4_spec, name,
                                                      request):
        # the cold start J0 = (C^-1 + F_k) phi is 3e8 here, so a source bound
        # that does not grow with J0 refused every scale from k = 1e4 on
        ctx = FunctionalContext(spec=phi4_spec, regulator=request.getfixturevalue(name))
        classical = float(classical_asymptote(phi4_spec, np.array([3.0])))
        assert abs(gamma_bar(ctx, 1e4, [3.0]) - classical) <= 1e-6

    def test_huge_cold_start_bounds_without_overflow(self, phi4_spec, litim):
        # the cold start is 5e199 here, whose norm overflows; warnings are
        # errors here, so only the typed error of a later stage passes
        ctx = FunctionalContext(spec=phi4_spec, regulator=litim)
        with pytest.raises(RangeExceeded, match=r"k=1e\+100"):
            gamma_bar(ctx, 1e100, [0.5])

    def test_diverging_source_raises(self, phi4_ctx, monkeypatch):
        monkeypatch.setattr(functionals, "_newton_step",
                            lambda k, phis, lanes, mean, second:
                            np.full((lanes.size, 1), 1e12))
        with pytest.raises(RangeExceeded, match="source magnitude diverged"):
            invert_mean_field(phi4_ctx, 0.0, np.array([1.0]))

    def test_unsettled_recentring_raises(self, phi4_ctx):
        # the tilted mean at a huge source is out of the rule's reach
        with pytest.raises(RangeExceeded, match=r"k=0\.0, source=\[10000\.\]"):
            tilted_moments(phi4_ctx, 0.0, np.array([1e4]))

    def test_overflow_at_huge_scale_raises(self, phi4_spec, litim):
        # at k = 1e153 the importance ratio's product with C^-1 + F_k
        # overflows; warnings are errors here, so only the typed error passes
        ctx = FunctionalContext(spec=phi4_spec, regulator=litim)
        with pytest.raises(RangeExceeded, match=r"k=1e\+153"):
            gamma_bar(ctx, 1e153, [3.0])

    def test_overflow_of_the_gaussian_shift_raises(self, phi4_spec, litim):
        # at phi = 30 the cold-start source T is so large that the Gaussian
        # exponent T.sigma T overflows before any importance ratio is formed
        ctx = FunctionalContext(spec=phi4_spec, regulator=litim)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(RangeExceeded, match=r"k=1e\+153"):
                gamma_bar(ctx, 1e153, [30.0])


class TestEffectiveAction:
    def test_gamma_frozen(self, phi4_ctx):
        assert gamma(phi4_ctx, 0.0, np.array([1.0])) == pytest.approx(
            GAMMA_K0_PHI1, abs=1e-10
        )

    def test_gamma_is_first_value_of_sweep(self, phi4_ctx):
        # gamma is a one-lane transform: the lane's value and source are the
        # same bits in any batch
        phi = np.array([1.3])
        values, solve = legendre_transform(phi4_ctx, 0.6, [phi, np.array([1.4])])
        assert gamma(phi4_ctx, 0.6, phi) == values[0]
        assert np.array_equal(solve.source[0], invert_mean_field(phi4_ctx, 0.6, phi).source)

    def test_every_lane_equals_a_single_field_call(self, phi4_ctx, line_spec, litim):
        fields = np.linspace(-2.0, 2.0, 9)
        values, solve = legendre_transform(phi4_ctx, 0.6, fields)
        single = [gamma(phi4_ctx, 0.6, p) for p in fields]
        assert np.abs(values - single).max() <= 1e-13
        assert solve.iterations == sum(
            invert_mean_field(phi4_ctx, 0.6, p).iterations for p in fields)
        assert np.abs(W(phi4_ctx, 0.6, fields[:, None])
                      - [W(phi4_ctx, 0.6, [t]) for t in fields]).max() <= 1e-13
        # three modes: a batch of sources against one source at a time
        ctx = FunctionalContext(spec=line_spec, regulator=litim)
        sources = np.random.default_rng(5).uniform(-1.0, 1.0, (4, 3))
        batch = tilted_moments(ctx, 0.8, sources)
        for t, lv, mean, cov in zip(sources, batch.log_value, batch.mean, batch.cov):
            one = tilted_moments(ctx, 0.8, t)
            assert abs(lv - one.log_value) <= 1e-13
            assert np.abs(mean - one.mean).max() <= 1e-13
            assert np.abs(cov - one.cov).max() <= 1e-13
        fields3 = sources[:3] * 0.5
        batch_solve = invert_mean_field(ctx, 0.8, fields3)
        for phi, j in zip(fields3, batch_solve.source):
            assert np.abs(j - invert_mean_field(ctx, 0.8, phi).source).max() <= 1e-13

    @pytest.mark.parametrize("k", [0.0, 1.0, 10.0, 100.0])
    def test_cold_start_inverts_every_field(self, phi4_ctx, k):
        # the range a warm-started sweep from the centre reached
        fields = np.arange(-22, 23) * 0.25
        values, solve = legendre_transform(phi4_ctx, k, fields)
        assert np.all(np.isfinite(values))
        assert solve.residual.max() <= functionals.NEWTON_TOL
        assert np.abs(mean_field(phi4_ctx, k, solve.source)[:, 0] - fields).max() <= 1e-9
        # converged lanes are masked out: no lane takes more than 10 steps
        # here, where an unmasked lane would step NEWTON_MAX_ITER times
        assert solve.iterations <= 10 * fields.size

    def test_inversion_errors_name_the_failing_field(self, phi4_ctx):
        # phi = 7 lies beyond the resolvable range (the line search stalls)
        with pytest.raises(NewtonStalled, match=r"phi=\[7\.\]"):
            invert_mean_field(phi4_ctx, 0.0, np.array([[1.0], [7.0], [2.0]]))

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


class TestKernel:
    @staticmethod
    def same(ours, theirs):
        return np.float64(ours).tobytes() == np.float64(theirs).tobytes()

    def test_log_sum_exp_is_scipys_bit_for_bit(self, rng):
        for size in [1, 2, 3, 7, 128, 129, 1000, 4096] * 25:
            a = rng.normal(0.0, rng.uniform(0.1, 300.0), size)
            if size > 1 and rng.uniform() < 0.5:
                # ties at the maximum and elsewhere
                a = np.round(a, 1)
                a[rng.integers(0, size, size // 2 + 1)] = a.max()
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                ours = functionals._log_sum_exp(a)
            assert self.same(ours, scipy.special.logsumexp(a))

    def test_log_sum_exp_rows_are_scipys_bit_for_bit(self, rng):
        for size in (1, 7, 128, 129):
            a = rng.normal(0.0, 30.0, (301, size))
            a[::3] = np.round(a[::3], 0)  # ties at the maximum
            a[1, :] = -np.inf
            a[2, -1] = np.inf
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                rows = functionals._log_sum_exp(a)
            assert rows.tobytes() == np.array(
                [scipy.special.logsumexp(r) for r in a]).tobytes()

    @pytest.mark.parametrize("a", [
        [-np.inf], [-np.inf, -np.inf], [np.inf], [np.inf, 1.0], [np.inf, np.inf],
        [np.inf, -np.inf], [np.nan, 1.0], [np.nan, np.inf], [-np.inf, 0.5, -np.inf],
        [1e308, 1e308, -1.0], [0.0, 0.0, 0.0],
    ])
    def test_log_sum_exp_edge_cases_match_scipy_silently(self, a):
        a = np.array(a)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ours = functionals._log_sum_exp(a)
        assert self.same(ours, scipy.special.logsumexp(a))

    def test_tensor_rule_over_the_node_cap_is_never_built(self, monkeypatch):
        spec = ModelSpec(dimension=1, modes=9, mass=1.0, momentum_spacing=1.0,
                         window=WindowParams(kind="identity"), c4=0.05)
        ctx = FunctionalContext(spec=spec, regulator=make_regulator("litim"))

        def no_meshgrid(*args, **kwargs):
            raise AssertionError("a 16^9-node rule was being built")

        monkeypatch.setattr(measure.np, "meshgrid", no_meshgrid)
        with pytest.raises(BudgetExceeded, match="16\\^9"):
            tilted_moments(ctx, 1.0, np.zeros(9))

    def test_node_cap_boundary(self, monkeypatch):
        assert 16**5 <= measure.MAX_GH_NODES < 16**6  # M <= 5 keeps level 16
        build = measure.gauss_hermite_nodes.__wrapped__  # past the cache
        monkeypatch.setattr(measure, "MAX_GH_NODES", 64)
        assert build(8, 2)[0].shape == (64, 2)
        with pytest.raises(BudgetExceeded):
            build(5, 3)


class TestSweepReusesNewtonMoments:
    def test_one_kernel_call_fewer_per_field(self, phi4_spec, litim, monkeypatch):
        fields = np.linspace(-1.5, 2.0, 6)[:, None]
        k = 0.6
        swept_ctx = FunctionalContext(spec=phi4_spec, regulator=litim)
        direct_ctx = FunctionalContext(spec=phi4_spec, regulator=litim)
        for ctx in (swept_ctx, direct_ctx):
            log_normalization(ctx, k)
        kernel = functionals.tilted_moments
        lanes = []

        def counting(ctx_, k_, t_vec=None, shift=None):
            lanes.append(np.asarray(t_vec).reshape(-1, 1).shape[0])
            return kernel(ctx_, k_, t_vec, shift)

        monkeypatch.setattr(functionals, "tilted_moments", counting)

        values, _ = legendre_transform(swept_ctx, k, fields)
        swept_lanes = sum(lanes)
        lanes.clear()
        f = direct_ctx.scale(k).f
        solve = invert_mean_field(direct_ctx, k, fields)
        direct = (np.sum(solve.source * fields, axis=-1) - W(direct_ctx, k, solve.source)
                  - 0.5 * np.sum(fields * (f * fields), axis=-1))
        # the transform reads W_k(J) from the inversion's moments: no kernel
        # lane is evaluated at J again
        assert swept_lanes == sum(lanes) - len(fields)
        assert np.array_equal(values, direct)  # bit for bit

    def test_solve_carries_the_moments_at_its_source(self, phi4_ctx):
        solve = invert_mean_field(phi4_ctx, 0.4, np.array([1.1]))
        again = tilted_moments(phi4_ctx, 0.4, solve.source)
        assert solve.moments.log_value == again.log_value
        assert np.array_equal(solve.moments.mean, again.mean)
        assert np.array_equal(solve.moments.second_moment, again.second_moment)
        batch = invert_mean_field(phi4_ctx, 0.4, np.array([[-0.3], [1.1], [2.5]]))
        again = tilted_moments(phi4_ctx, 0.4, batch.source)
        assert np.array_equal(batch.moments.log_value, again.log_value)
        assert np.array_equal(batch.moments.mean, again.mean)
        assert np.array_equal(batch.moments.second_moment, again.second_moment)

    def test_sweep_still_self_checks(self, phi4_spec, litim, monkeypatch):
        # one lane of the batch disagrees: the batched self-check names it
        ctx = FunctionalContext(spec=phi4_spec, regulator=litim)
        shifted_form = functionals._w_shifted_form

        def disagreeing(*args):
            value, scale = shifted_form(*args)
            return value + np.array([0.0, 1e-6, 0.0]), scale

        monkeypatch.setattr(functionals, "_w_shifted_form", disagreeing)
        source = invert_mean_field(ctx, 0.5, np.array([1.0])).source
        with pytest.raises(SelfCheckFailed, match=re.escape(f"k=0.5, source={source}")):
            legendre_transform(ctx, 0.5, [-1.0, 1.0, 2.0])


class TestChunks:
    def test_batch_over_the_node_cap_is_chunked_with_the_same_bits(
        self, phi4_spec, litim, monkeypatch
    ):
        ctx = FunctionalContext(spec=phi4_spec, regulator=litim)
        fields = np.linspace(-3.0, 3.0, 11)
        whole, whole_solve = legendre_transform(ctx, 0.9, fields)
        blocks = []
        moments = functionals._moments

        def counted(ctx_, k, t, shift):
            blocks.append(len(t))
            return moments(ctx_, k, t, shift)

        monkeypatch.setattr(functionals, "_moments", counted)
        monkeypatch.setattr(measure, "MAX_GH_NODES", 3 * ctx.gh_level)
        chunked, chunked_solve = legendre_transform(ctx, 0.9, fields)
        assert max(blocks) == 3 and len(blocks) > 2
        assert np.array_equal(chunked, whole)
        assert np.array_equal(chunked_solve.source, whole_solve.source)
        assert np.array_equal(chunked_solve.residual, whole_solve.residual)


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

    @pytest.mark.parametrize("name", ["litim", "exponential"])
    @pytest.mark.parametrize("k", [1.4e154, 1e200, 1e300])
    def test_overflowing_regulator_is_a_validation_error(self, phi4_spec, name, k):
        # R_k ~ k^2 is not finite past k ~ 1.34e154; no overflow warning escapes
        ctx = FunctionalContext(spec=phi4_spec, regulator=make_regulator(name))
        with pytest.raises(SpecValidationError, match="not finite"):
            ctx.scale(k)


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
        values, solve = legendre_transform(ctx, k, [phi])
        value = values[0]
        f = ctx.scale(k).f[0]
        rhs = solve.source[0, 0] * phi - 0.5 * f * phi**2
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
