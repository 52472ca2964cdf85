import re
import warnings

import numpy as np
import pytest
import scipy.special
from hypothesis import example, given, settings
from hypothesis import strategies as st

from frgelab import functionals, measure
from frgelab.errors import (
    BudgetExceeded,
    NewtonStalled,
    RangeExceeded,
    SpecValidationError,
)
from frgelab.functionals import (
    SCALE_CACHE_SIZE,
    W,
    FunctionalContext,
    connected_cov,
    dirac_ratio,
    dk_log_normalization,
    exact_grid_values,
    gamma,
    gamma_bar,
    gamma_gradient,
    gamma_hessian,
    grid_transform,
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


class TestCertificate:
    def test_lane_whose_rules_disagree_is_refused_by_name(self, phi4_spec, litim,
                                                          monkeypatch):
        # the rules of one lane of three disagree at every rung: it alone
        # climbs the ladder, and its refusal names it
        ctx = FunctionalContext(spec=phi4_spec, regulator=litim)
        source = invert_mean_field(ctx, 0.5, np.array([1.0])).source
        kernel = functionals.tilted_moments
        climbed = []

        def disagreeing(ctx_, k_, t_vec=None, level=None, start=None, **kwargs):
            tm = kernel(ctx_, k_, t_vec, level, start, **kwargs)
            if level is None:
                return tm
            t = np.reshape(t_vec, (-1, 1))
            climbed.append((level, len(t)))
            drift = np.where(t[:, 0] == source[0], 1e-8 * level, 0.0)
            return functionals.TiltedMoments(tm.log_value + drift,
                                             tm.log_interaction + drift, tm.mean, tm.cov)

        monkeypatch.setattr(functionals, "tilted_moments", disagreeing)
        with pytest.raises(BudgetExceeded, match=re.escape(f"k=0.5, source={source}")):
            legendre_transform(ctx, 0.5, [-1.0, 1.0, 2.0])
        assert climbed == [(80, 3), (96, 1), (128, 1)]

    def test_rule_over_the_node_cap_is_refused(self, line_spec, litim, monkeypatch):
        # the 24^3-node rung exceeds a cap of 16^3 nodes: the certified
        # transform is refused, the unchecked one keeps its 16^3-node value.
        # The rung is built under the default cap first: the lowered cap
        # refuses it all the same
        measure.gauss_hermite_nodes(24, 3)
        monkeypatch.setattr(measure, "MAX_GH_NODES", 16**3)
        phi = np.array([0.3, -0.2, 0.1])
        ctx = FunctionalContext(spec=line_spec, regulator=litim)
        with pytest.raises(BudgetExceeded, match=r"24\^3.*k=0\.5, source="):
            gamma(ctx, 0.5, phi)
        unchecked = FunctionalContext(spec=line_spec, regulator=litim, self_check=False)
        assert np.isfinite(gamma(unchecked, 0.5, phi))

    def test_gradient_certifies_nothing_and_runs_over_the_node_cap(
        self, line_spec, litim, monkeypatch
    ):
        # with the 24^3-node rung over the cap no value built on ln N_k can
        # be certified, but the gradient is the inverting source, which the
        # certificate never changes: a self-checking context returns it, and
        # the unchecked context's bits
        monkeypatch.setattr(measure, "MAX_GH_NODES", 16**3)
        phi = np.array([0.3, -0.2, 0.1])
        ctx = FunctionalContext(spec=line_spec, regulator=litim)
        unchecked = FunctionalContext(spec=line_spec, regulator=litim, self_check=False)
        gradient = gamma_gradient(ctx, 0.5, phi)
        assert gradient.tobytes() == gamma_gradient(unchecked, 0.5, phi).tobytes()
        for refused in (lambda: gamma(ctx, 0.5, phi), lambda: log_normalization(ctx, 0.5),
                        lambda: W(ctx, 0.5, phi)):
            with pytest.raises(BudgetExceeded, match=r"24\^3"):
                refused()

    def test_one_finer_pass_per_lane_and_none_unchecked(self, phi4_spec, litim,
                                                        monkeypatch):
        # rows (lanes times nodes) of the transform beyond its Newton solve:
        # one level-80 pass per field and one for ln I(0), or none.  The
        # solve's start reads only the zero source's covariance, which the
        # certificate leaves as it is, so the solve certifies nothing
        fields = np.linspace(-2.0, 2.0, 7)
        rows = []
        batch = ModelSpec.interaction_batch

        def counting(self, psi):
            rows.append(psi.shape[0] * psi.shape[1])
            return batch(self, psi)

        monkeypatch.setattr(ModelSpec, "interaction_batch", counting)
        for self_check, extra in ((True, 80 * (fields.size + 1)), (False, 0)):
            rows.clear()
            invert_mean_field(FunctionalContext(phi4_spec, litim, self_check), 0.6, fields)
            solve_rows = sum(rows)
            rows.clear()
            legendre_transform(FunctionalContext(phi4_spec, litim, self_check), 0.6, fields)
            assert sum(rows) - solve_rows == extra


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

    @pytest.mark.parametrize("k", [1.0, [1.0, 0.5, 1.0]], ids=["scale", "scales"])
    @pytest.mark.parametrize("fields", ["field", "batch", "empty"])
    def test_layouts_hold_the_one_scale_batch_bits(self, phi4_ctx, fields, k):
        # one field (M,) or a batch (B, M), at one scale or a sequence of S
        # scales: the lanes are laid out (), (B,), (S,) or (S, B), and each
        # holds the bits of its lane of the one-scale batch call
        batch = np.array([[0.3], [-1.2], [2.0]])[:{"field": 1, "batch": 3, "empty": 0}[fields]]
        ks = [k] if np.ndim(k) == 0 else k
        shape = (() if np.ndim(k) == 0 else (len(ks),)) + (() if fields == "field" else
                                                         (len(batch),))
        solve = invert_mean_field(phi4_ctx, k, batch[0] if fields == "field" else batch)
        tm = solve.moments
        assert solve.source.shape == tm.mean.shape == shape + (1,)
        assert tm.cov.shape == shape + (1, 1)
        for a in (solve.residual, tm.log_value, tm.log_interaction):
            assert np.shape(a) == shape
            assert isinstance(a, float) == (shape == ())
        references = [invert_mean_field(phi4_ctx, s, batch) for s in ks]
        for index in np.ndindex(shape):
            s = 0 if np.ndim(k) == 0 else index[0]
            b = 0 if fields == "field" else index[-1]
            ref = references[s]
            for got, want in [(solve.source, ref.source), (solve.residual, ref.residual),
                              (tm.log_value, ref.moments.log_value),
                              (tm.log_interaction, ref.moments.log_interaction),
                              (tm.mean, ref.moments.mean), (tm.cov, ref.moments.cov)]:
                assert np.asarray(got)[index].tobytes() == want[b].tobytes()

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
        # the start J0 ~ (C^-1 + F_k) phi is 3e8 here, so a source bound
        # that does not grow with J0 refused every scale from k = 1e4 on
        ctx = FunctionalContext(spec=phi4_spec, regulator=request.getfixturevalue(name))
        classical = float(classical_asymptote(phi4_spec, np.array([3.0])))
        assert abs(gamma_bar(ctx, 1e4, [3.0]) - classical) <= 1e-6

    def test_huge_cold_start_bounds_without_overflow(self, phi4_spec, litim):
        # the start is 5e199 here, whose norm overflows; warnings are
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

    def test_newton_iteration_cap_raises_naming_the_field(self, phi4_ctx, monkeypatch):
        # phi = 1 takes three Newton iterations at k = 0 and phi = 0.1 two;
        # with a cap of one both are unconverged and the first is named
        monkeypatch.setattr(functionals, "NEWTON_MAX_ITER", 1)
        with pytest.raises(NewtonStalled, match=r"did not reach tolerance .* phi=\[1\.\]"):
            invert_mean_field(phi4_ctx, 0.0, np.array([[1.0], [0.1]]))

    def test_large_scale_is_resolved_or_refused(self, phi4_spec, litim):
        # the transform never forms J.phi, W_k(J) or F_k(phi, phi), which
        # grow like k^2 phi^2 and cancel: at k = 1e5 their rounding put the
        # value 9e-6 off; Gamma_k - classical is S''(3)/2k^2 = 5e-10 there
        classical = float(classical_asymptote(phi4_spec, np.array([3.0])))
        ctx = FunctionalContext(spec=phi4_spec, regulator=litim)
        assert abs(gamma_bar(ctx, 1e5, [3.0]) - classical) <= 1e-9
        # at k = 1e8 the rule is 1e-8 wide; the certificate's finer rule sits
        # where the lane's own did, well above its centre's rounding
        classical = float(classical_asymptote(phi4_spec, np.array([0.5])))
        assert abs(gamma_bar(ctx, 1e8, [0.5]) - classical) <= 1e-12

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
        # at phi = 30 the start's source T is so large that the Gaussian
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

    def test_inversion_errors_name_the_failing_field(self, phi4_ctx, monkeypatch):
        # phi = 1e4 lies beyond the resolvable range: the rounding of S^int
        # there moves the tilted mean by more than the Newton tolerance, and
        # the start's refusal names the middle lane's field
        with pytest.raises(RangeExceeded, match=r"phi=\[10000\.\]"):
            invert_mean_field(phi4_ctx, 1.0, np.array([[1.0], [1e4], [2.0]]))
        # a lane whose steps only climb stalls its line search
        step = functionals._newton_step

        def climbing_at_7(k, phis, lanes, mean, cov):
            s = step(k, phis, lanes, mean, cov)
            return np.where(phis[lanes] == 7.0, -s, s)

        monkeypatch.setattr(functionals, "_newton_step", climbing_at_7)
        with pytest.raises(NewtonStalled, match=r"phi=\[7\.\]"):
            invert_mean_field(phi4_ctx, 0.0, np.array([[1.0], [7.0], [2.0]]))

    def test_single_mode_vector_is_a_batch_of_fields(self, phi4_ctx):
        # at M = 1 a (B,) array is B fields: W and the inversion returned the
        # first lane's value alone, as if it were one field
        fields = np.array([0.1, 0.2])
        w = W(phi4_ctx, 1.0, fields)
        assert w.shape == (2,)
        assert np.array_equal(w, W(phi4_ctx, 1.0, fields[:, None]))
        solve = invert_mean_field(phi4_ctx, 1.0, fields)
        assert solve.source.shape == (2, 1)
        assert np.array_equal(solve.source,
                              invert_mean_field(phi4_ctx, 1.0, fields[:, None]).source)
        # a float and a (1,) vector are one field
        assert W(phi4_ctx, 1.0, 0.1) == W(phi4_ctx, 1.0, [0.1]) == w[0]
        assert gamma_bar(phi4_ctx, 1.0, 0.1) == gamma_bar(phi4_ctx, 1.0, [0.1])
        assert gamma_bar(phi4_ctx, 1.0, 0.1) == pytest.approx(0.007238247, abs=1e-9)

    @pytest.mark.parametrize("name", ["gamma", "gamma_bar", "gamma_gradient",
                                      "gamma_hessian"])
    def test_gamma_functions_take_exactly_one_field(self, phi4_ctx, name):
        # gamma_bar(0.1, 0.2) returned gamma(0.1) - gamma(0.2) = -0.0218 and
        # gamma_gradient lane 0's source for both fields
        function = getattr(functionals, name)
        for fields in ([0.1, 0.2], [[0.1]], [[0.1], [0.2]]):
            with pytest.raises(SpecValidationError, match="not one field"):
                function(phi4_ctx, 1.0, fields)

    @pytest.mark.parametrize("shape", [(6,), (2,), (1,), (), (2, 2), (1, 2, 3)])
    def test_other_shapes_are_refused(self, line_spec, litim, shape):
        # three modes: a flat (6,) vector was read as two sources and gave
        # the first one's W; a (2,) vector raised numpy's ValueError
        ctx = FunctionalContext(spec=line_spec, regulator=litim)
        with pytest.raises(SpecValidationError, match=re.escape(f"shape {shape}")):
            W(ctx, 1.0, np.full(shape, 0.1))
        with pytest.raises(SpecValidationError, match=re.escape(f"shape {shape}")):
            invert_mean_field(ctx, 1.0, np.full(shape, 0.1))

    # Gamma_0(phi) = J phi - W_0(J) of the c4 = 0.1, m = r = 1 model (F_0 = 0
    # for litim), made with scipy.integrate.quad: ln of each integral of
    # exp(J psi - psi^2/2 - psi^4/10), and of exp(-psi^2/2 - psi^4/10) for
    # W_0(0) = 0, over the integrand's mode +-40 after taking out its
    # maximum (epsrel 2e-14), and J from scipy.optimize.brentq on the quad
    # mean (xtol 1e-13).  mpmath at 40 digits agrees to 2e-13.
    QUAD_GAMMA_K0 = {3.0: 13.679975784717328, 4.5: 52.592913374253385,
                     5.5: 108.28707504386733, 6.0: 149.34070837373355,
                     7.0: 266.49186926174843, 8.0: 443.62344756668836,
                     10.0: 1052.2442811907072}

    def test_gamma_matches_the_quadrature_reference(self, phi4_ctx):
        values, _ = legendre_transform(phi4_ctx, 0.0, list(self.QUAD_GAMMA_K0))
        assert np.abs(values - list(self.QUAD_GAMMA_K0.values())).max() <= 1e-9

    # the same for the skewed model m = r = 1, c3 = 0.4, c4 = 0.1, with
    # S^int = 0.4 psi^3 + 0.1 psi^4; mpmath at 40 digits agrees to 4e-17.
    # Its level-64 rule alone is 4.3e-8 and 2.0e-8 off
    QUAD_GAMMA_SKEWED_K0 = {-1.0: 0.0242633405068364, 1.0: 1.9474762569028095}

    def test_skewed_gamma_matches_the_quadrature_reference(self, litim):
        spec = ModelSpec(dimension=0, modes=1, mass=1.0, c3=0.4, c4=0.1,
                         allow_unbounded=True, window=WindowParams(kind="scalar", r=1.0))
        ctx = FunctionalContext(spec=spec, regulator=litim)
        values, _ = legendre_transform(ctx, 0.0, list(self.QUAD_GAMMA_SKEWED_K0))
        reference = list(self.QUAD_GAMMA_SKEWED_K0.values())
        assert np.abs(values - reference).max() <= functionals.BUDGET

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

    @pytest.mark.parametrize("name", ["_EXP_ZERO_BELOW", "_EXP_NORMAL_FROM"])
    def test_exp_above_is_exp_above_its_floor_and_zero_below(self, name):
        floor = getattr(functionals, name)
        # normal results, the subnormal band (-745.13, -708.40) and exact
        # zeros, with the special values
        x = np.concatenate([np.linspace(-760.0, 5.0, 3061),
                            [np.nan, -np.inf, np.inf, 0.0, -0.0, floor]])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            ours = functionals._exp_above(x.copy(), floor)
        above, below = x >= floor, x < floor
        assert ours[above].tobytes() == np.exp(x[above]).tobytes()
        assert ours[below].tobytes() == np.zeros(np.count_nonzero(below)).tobytes()
        assert np.isnan(ours[np.isnan(x)]).all()
        # the log-sum-exp floor drops only exact zeros; the weight floor
        # drops only subnormals
        assert not np.exp(x[x < functionals._EXP_ZERO_BELOW]).any()
        assert (np.exp(x[below]) < np.finfo(float).tiny).all()

    def test_indefinite_start_covariance_falls_back_per_lane(self, line_spec):
        # one lane's start covariance has no Cholesky factor, so the batch's
        # factorisation fails: that lane alone starts from the Gaussian part's
        # factor chol_s, and every lane keeps the bits of a batch whose
        # covariances all factor, that lane's being the one chol_s factors
        ctx = FunctionalContext(spec=line_spec, regulator=make_regulator("litim"))
        record = ctx.scale(1.0)
        t = np.array([[0.3, -0.2, 0.1], [0.1, 0.0, -0.4], [-0.5, 0.2, 0.0]])
        centre = t @ record.sigma.T
        covs = np.repeat(0.9 * record.sigma[None], 3, axis=0)
        gaussian, indefinite = covs.copy(), covs.copy()
        gaussian[1] = 0.5 * (record.sigma + record.sigma.T)
        indefinite[1] = np.diag([1.0, -1.0, 1.0])
        assert np.linalg.cholesky(gaussian[1]).tobytes() == record.chol_s.tobytes()
        ours = tilted_moments(ctx, 1.0, t, start=(centre, indefinite))
        ref = tilted_moments(ctx, 1.0, t, start=(centre, gaussian))
        for name in ("log_value", "log_interaction", "mean", "cov"):
            assert getattr(ours, name).tobytes() == getattr(ref, name).tobytes()

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
        build = measure.gauss_hermite_nodes
        build(5, 3)  # cached under the default cap
        monkeypatch.setattr(measure, "MAX_GH_NODES", 64)
        assert build(8, 2)[0].shape == (64, 2)
        with pytest.raises(BudgetExceeded):
            build(5, 3)  # the lowered cap refuses it all the same


class TestFrozenOracleBits:
    """The acceptance phi^4 oracle's bytes, which a faster kernel must keep.

    Frozen from the adaptive kernel, whose rules sit on each tilted
    measure, the one-loop Newton start and the certificate's level-80
    values; ``test_gamma_matches_the_quadrature_reference`` pins their
    accuracy.
    """

    FIELDS = [-4.5, -2.0, 0.0, 0.03, 3.0, 4.5]
    # k -> (gamma_k values, inverting sources) at FIELDS
    TRANSFORMS = {
        10.0: ([51.23902993540345, 3.623210773899056, 0.0,
                0.00045542645834776733, 12.650787026271525, 51.23902993540345],
               [-490.99309235646047, -205.222680479039, 0.0, 3.0303671619837784,
                313.83219580394973, 490.99309235646047]),
        1.0: ([52.362262879742715, 4.155352699273568, 0.0,
               0.0006508893908834454, 13.47083188360238, 52.362262879742715],
              [-45.65538718524771, -7.550044855467256, 0.0, 0.07339626925510544,
               17.081267292949963, 45.65538718524771]),
        0.0: ([52.59291337425351, 4.324686555149024, -2.7755575615628914e-16,
               0.000731121877429991, 13.679975784717326, 52.59291337425351],
              [-41.16354009584396, -5.612449195107674, 0.0, 0.0487442088236884,
               14.105490394502134, 41.16354009584396]),
    }

    @pytest.mark.parametrize("k", sorted(TRANSFORMS))
    def test_acceptance_transform_bytes_frozen(self, phi4_ctx, k):
        values, solve = legendre_transform(phi4_ctx, k, self.FIELDS)
        frozen_values, frozen_sources = self.TRANSFORMS[k]
        assert values.tobytes() == np.array(frozen_values).tobytes()
        assert solve.source[:, 0].tobytes() == np.array(frozen_sources).tobytes()

    def test_three_mode_kernel_bytes_frozen(self, line_spec, litim):
        # a 16^3-node rule, each lane placed with its own centre and factor
        ctx = FunctionalContext(spec=line_spec, regulator=litim)
        tm = tilted_moments(ctx, 1.0, [[0.5, -1.0, 2.0], [3.0, 0.2, -0.7],
                                       [-6.0, 4.0, 1.0]])
        assert tm.log_value.tobytes() == np.array(
            [0.8732741617080946, 1.884910339899555, 11.267278727320907]).tobytes()
        assert tm.mean.tobytes() == np.array([
            [0.2371097646825397, -0.48063297366702, 0.9434694215994286],
            [1.4073157167447283, 0.09311697677721974, -0.34627927889935395],
            [-2.4564744402526353, 1.6173825224513003, 0.3708493328890439],
        ]).tobytes()
        assert tm.cov.tobytes() == np.array([
            [[0.4734641246175392, -0.00994281221519445, -0.002640700979122304],
             [-0.00994281221519445, 0.4661620133805075, 0.004661410257597815],
             [-0.002640700979122304, 0.004661410257597816, 0.45885990214308464]],
            [[0.4480649776845196, 0.002821623750362665, -0.0043265119650634475],
             [0.002821623750362665, 0.4552131134037838, -0.011474647680492753],
             [-0.004326511965063448, -0.011474647680492755, 0.4623612491191589]],
            [[0.3677287242922821, 0.07438283289338629, 0.023528726796240344],
             [0.07438283289338629, 0.41858283039178756, -0.02732537930120312],
             [0.02352872679624035, -0.027325379301203115, 0.469436936489644]],
        ]).tobytes()


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

        def counting(ctx_, k_, t_vec=None, level=None, start=None, **kwargs):
            lanes.append(np.asarray(t_vec).reshape(-1, 1).shape[0])
            return kernel(ctx_, k_, t_vec, level, start, **kwargs)

        monkeypatch.setattr(functionals, "tilted_moments", counting)

        values, swept = legendre_transform(swept_ctx, k, fields)
        swept_lanes = sum(lanes)
        lanes.clear()
        solve = invert_mean_field(direct_ctx, k, fields)
        w_direct = W(direct_ctx, k, solve.source)
        # the transform reads W_k(J) from the inversion's moments: no kernel
        # lane is evaluated at J again on the kernel's own rule, and both
        # certify W_k(J) on the same finer rules
        assert swept_lanes == sum(lanes) - len(fields)
        assert np.array_equal(swept.source, solve.source)  # bit for bit
        # its values are J.phi - W_k(J) - F_k(phi, phi)/2 of its certified
        # moments' W_k(J), formed without the terms that cancel: the two
        # forms agree to the rounding of the terms the textbook form adds
        f = direct_ctx.scale(k).f
        terms = np.stack([np.sum(swept.source * fields, axis=-1),
                          swept.moments.log_value - log_normalization(swept_ctx, k),
                          0.5 * np.sum(fields * (f * fields), axis=-1)])
        textbook = terms[0] - terms[1] - terms[2]
        rounding = 8 * np.finfo(float).eps * np.abs(terms).sum(axis=0)
        assert (np.abs(values - textbook) <= rounding).all()
        # and with W_k(J) from a W call of its own, whose rules start from the
        # zero-source measure's response rather than the Newton solve, they
        # agree within ten times the budget each certified W value keeps
        direct = terms[0] - w_direct - terms[2]
        margin = 10 * functionals.BUDGET * (1.0 + np.abs(w_direct))
        assert (np.abs(values - direct) <= margin).all()

    def test_solve_carries_the_moments_at_its_source(self, phi4_ctx, monkeypatch):
        # each lane's moments are the kernel's at the lane's final source, bit
        # for bit: a one-lane call at that source with the warm start it had
        # in the inversion gives them again
        kernel = functionals.tilted_moments
        calls = []  # (sources, warm start) of each kernel call

        def recording(ctx_, k_, t_vec=None, level=None, start=None, **kwargs):
            calls.append((t_vec, start))
            return kernel(ctx_, k_, t_vec, level, start, **kwargs)

        monkeypatch.setattr(functionals, "tilted_moments", recording)
        for phi in (np.array([1.1]), np.array([[-0.3], [1.1], [2.5]])):
            calls.clear()
            solve = invert_mean_field(phi4_ctx, 0.4, phi)
            log_value = np.atleast_1d(solve.moments.log_value)
            log_interaction = np.atleast_1d(solve.moments.log_interaction)
            mean = np.reshape(solve.moments.mean, (-1, 1))
            cov = np.reshape(solve.moments.cov, (-1, 1, 1))
            for i, source in enumerate(np.reshape(solve.source, (-1, 1))):
                # the last kernel call that evaluated this source
                t, start = next((np.reshape(t, (-1, 1)), start)
                                for t, start in reversed(calls)
                                if start is not None and (np.ravel(t) == source[0]).any())
                row = np.flatnonzero(t[:, 0] == source[0])[-1]
                again = kernel(phi4_ctx, 0.4, source,
                               start=(np.broadcast_to(start[0], t.shape)[row],
                                      np.broadcast_to(start[1], t.shape + (1,))[row]))
                assert again.log_value == log_value[i]
                assert again.log_interaction == log_interaction[i]
                assert np.array_equal(again.mean, mean[i])
                assert np.array_equal(again.cov, cov[i])



class TestChunks:
    def test_batch_over_the_node_cap_is_chunked_with_the_same_bits(
        self, phi4_spec, litim, monkeypatch
    ):
        ctx = FunctionalContext(spec=phi4_spec, regulator=litim)
        fields = np.linspace(-3.0, 3.0, 11)
        whole, whole_solve = legendre_transform(ctx, 0.9, fields)
        blocks = []
        moments = functionals._moments

        def counted(ctx_, k, t, level, start):
            blocks.append(len(t))
            return moments(ctx_, k, t, level, start)

        monkeypatch.setattr(functionals, "_moments", counted)
        monkeypatch.setattr(measure, "MAX_GH_NODES", 3 * ctx.gh_level)
        chunked, chunked_solve = legendre_transform(ctx, 0.9, fields)
        assert max(blocks) == 3 and len(blocks) > 2
        assert np.array_equal(chunked, whole)
        assert np.array_equal(chunked_solve.source, whole_solve.source)
        assert np.array_equal(chunked_solve.residual, whole_solve.residual)

    def test_rule_over_the_block_size_is_read_in_blocks(self, line_spec, litim,
                                                        monkeypatch):
        # a rule of more than RULE_BLOCK nodes is built block by block as the
        # kernel reads it, none kept: its moments are the whole rule's but for
        # the order of the sums over the nodes
        ctx = FunctionalContext(spec=line_spec, regulator=litim)
        sources = [[0.5, -1.0, 2.0], [3.0, 0.2, -0.7], [-6.0, 4.0, 1.0]]
        whole = tilted_moments(ctx, 1.0, sources)
        built = []
        build = functionals._Rule.of

        def counted(nodes, logw):
            built.append(len(nodes))
            return build(nodes, logw)

        monkeypatch.setattr(functionals._Rule, "of", staticmethod(counted))
        monkeypatch.setattr(functionals, "RULE_BLOCK", 1000)
        blocked = tilted_moments(ctx, 1.0, sources)
        # two reads of five blocks per pass, the last block of 96 nodes
        assert len(built) % 10 == 0 and built[:5] == [1000] * 4 + [96]
        assert np.abs(blocked.log_value - whole.log_value).max() <= 1e-13
        assert np.abs(blocked.mean - whole.mean).max() <= 1e-13
        assert np.abs(blocked.cov - whole.cov).max() <= 1e-13


class TestScaleRecord:
    def test_one_zero_source_kernel_call_per_scale(self, phi4_spec, litim, monkeypatch):
        ctx = FunctionalContext(spec=phi4_spec, regulator=litim)
        kernel = functionals.tilted_moments
        zero_source = []

        def counting(ctx_, k, t_vec=None, level=None, start=None, **kwargs):
            if not np.any(t_vec):
                zero_source.append((k, level))
            return kernel(ctx_, k, t_vec, level, start, **kwargs)

        monkeypatch.setattr(functionals, "tilted_moments", counting)
        for _ in range(3):
            W(ctx, 0.7, np.array([0.4]))
            log_normalization(ctx, 0.7)
            dk_log_normalization(ctx, 0.7)
        # one evaluation on the kernel's rule and one on the rule that certifies it
        assert zero_source == [(0.7, None), (0.7, 80)]

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

    @pytest.mark.parametrize("k", [np.nan, np.inf, -np.inf])
    def test_scale_must_be_finite(self, phi4_spec, litim, k):
        ctx = FunctionalContext(spec=phi4_spec, regulator=litim)
        with pytest.raises(SpecValidationError, match=f"must be finite, got {k}"):
            ctx.scale(k)
        assert not ctx._scales

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
    # W's level-64 value, on its own rule, was 1.0e-10 off the quadrature
    # reference: the identity read 1.3e-10
    @example(mass=0.703125, r=1.0, c4=0.1875, regulator="litim", k=0.0, phi=0.4375)
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
    # a rule kept at the Gaussian part's width put its covariance 1.7e-7 off
    @example(mass=0.703125, r=1.0, c4=0.1875, regulator="litim", k=0.0, phi=0.0)
    # a Hessian step of 1e-4 passed on the Newton tolerance as 1.9e-6
    @example(mass=1.0, r=1.0, c4=1.192092896e-07, regulator="litim", k=0.0, phi=0.0)
    def test_hessian_inverse_identity(self, mass, r, c4, regulator, k, phi,
                                      fd_hessian):
        # (D^2 Gamma + F_k) is the inverse of the connected covariance: checked
        # on the finite-difference Hessian, with which gamma_hessian agrees
        ctx = scalar_ctx(mass, r, c4, regulator)
        phi = np.array([phi])
        h_fd = fd_hessian(ctx, k, phi)
        cc = connected_cov(ctx, k, invert_mean_field(ctx, k, phi).source)
        f = ctx.scale(k).f[0]
        assert (h_fd[0, 0] + f) * cc[0, 0] == pytest.approx(1.0, abs=1e-6)
        h = gamma_hessian(ctx, k, phi)
        assert abs(h[0, 0] - h_fd[0, 0]) <= 1e-6 * (1.0 + abs(h[0, 0]))

    @settings(max_examples=40, deadline=None)
    @given(**{name: s for name, s in theories.items() if name != "c4"})
    def test_free_theory_is_the_inverse_covariance(self, mass, r, regulator, k, phi):
        # without interaction Gamma_k is the quadratic form of C^-1 = m^2/r^2
        ctx = scalar_ctx(mass, r, 0.0, regulator)
        expected = 0.5 * mass**2 * phi**2 / r**2
        assert gamma_bar(ctx, k, np.array([phi])) == pytest.approx(expected, abs=1e-10)


class TestWork:
    def test_transform_rows_stay_below_a_fifth_of_the_fixed_rule(self, litim,
                                                                 monkeypatch):
        # the acceptance model's 301 grid fields plus phi = 0 at k = 10, 1
        # and 0: a level-128 rule kept at the Gaussian part's width took
        # 1 352 320 interaction rows; rules placed on each tilted measure
        # take 234 560 at level 64 from the one-loop start, in 1 686 Newton
        # iterations (443 456 rows and 3 418 from the Gaussian source
        # (C^-1 + F_k) phi).  One more pass per kernel call breaks this
        spec = ModelSpec(dimension=0, modes=1, mass=1.0, c4=0.1, phi_max=4.5,
                         phi_nodes=301, window=WindowParams(kind="scalar", r=1.0))
        ctx = FunctionalContext(spec=spec, regulator=litim)
        rows = []
        batch = ModelSpec.interaction_batch

        def counting(self, psi):
            values = batch(self, psi)
            rows.append(values.size)
            return values

        monkeypatch.setattr(ModelSpec, "interaction_batch", counting)
        iterations = 0
        for k in (10.0, 1.0, 0.0):
            _, solve = legendre_transform(ctx, k, np.append(spec.field_grid, 0.0))
            iterations += solve.iterations
        assert sum(rows) <= 0.2 * 1_352_320
        assert iterations <= 2_000

    @staticmethod
    def _kernel_calls(monkeypatch) -> list:
        """One entry per interaction_batch call from now on (its len(psi))."""
        calls = []
        batch = ModelSpec.interaction_batch

        def counting(self, psi):
            calls.append(len(psi))
            return batch(self, psi)

        monkeypatch.setattr(ModelSpec, "interaction_batch", counting)
        return calls

    def test_three_mode_gradients_take_one_kernel_pass_each(
        self, line_spec, litim, monkeypatch
    ):
        # each of the 12 gradients at phi = +-h e_a, +-h/2 e_a (h = 1e-3)
        # starts within the Newton tolerance of its source: one kernel call
        # of one pass, where the Gaussian source (C^-1 + F_k) phi took a
        # Newton step and 24 passes
        ctx = FunctionalContext(spec=line_spec, regulator=litim)
        log_normalization(ctx, 0.0)
        calls = self._kernel_calls(monkeypatch)
        for a in range(3):
            for step in (1e-3, -1e-3, 5e-4, -5e-4):
                gamma_gradient(ctx, 0.0, step * np.eye(3)[a])
        assert len(calls) <= 12

    def test_warm_three_mode_hessian_takes_one_kernel_call(
        self, line_spec, litim, monkeypatch
    ):
        ctx = FunctionalContext(spec=line_spec, regulator=litim)
        log_normalization(ctx, 0.0)
        calls = self._kernel_calls(monkeypatch)
        gamma_hessian(ctx, 0.0, np.zeros(3))
        assert len(calls) == 1


class TestGridTransform:
    @pytest.mark.parametrize("k", [0.0, 1.0, 10.0])
    def test_even_theory_mirrors_its_nodes_phi_ge_0(self, phi4_spec, litim, k):
        # c3 = 0 on field_grid: the half phi >= 0 is the transform of those
        # nodes bit for bit, mirrored with J odd and the rest even, and the
        # Newton count is that of the lanes solved
        ctx = FunctionalContext(spec=phi4_spec, regulator=litim, self_check=False)
        grid = phi4_spec.field_grid
        centre = grid.size // 2
        g, g_bar, j, residual, iterations = grid_transform(ctx, k, grid)
        values, solve = legendre_transform(ctx, k, grid[centre:])
        assert g[centre:].tobytes() == values.tobytes()
        assert g_bar[centre:].tobytes() == (values - values[0]).tobytes()
        assert j[centre:].tobytes() == solve.source[:, 0].tobytes()
        assert residual[centre:].tobytes() == solve.residual.tobytes()
        assert iterations == solve.iterations > 0
        for even in (g, g_bar, residual):
            assert even.tobytes() == even[::-1].tobytes()
        assert j[:centre].tobytes() == (-j[:centre:-1]).tobytes()
        assert g_bar[centre] == 0.0
        assert exact_grid_values(ctx, k, grid).tobytes() == g_bar.tobytes()

    def test_odd_theory_transforms_every_node_and_the_field_0(self, litim):
        spec = ModelSpec(dimension=0, modes=1, mass=1.0, c3=0.05, c4=0.1,
                         allow_unbounded=True, phi_nodes=21,
                         window=WindowParams(kind="scalar", r=1.0))
        ctx = FunctionalContext(spec=spec, regulator=litim, self_check=False)
        g, g_bar, j, residual, iterations = grid_transform(ctx, 1.0, spec.field_grid)
        values, solve = legendre_transform(ctx, 1.0, np.append(spec.field_grid, 0.0))
        assert g.tobytes() == values[:-1].tobytes()
        assert g_bar.tobytes() == (values[:-1] - values[-1]).tobytes()
        assert j.tobytes() == solve.source[:-1, 0].tobytes()
        assert residual.tobytes() == solve.residual[:-1].tobytes()
        assert iterations == solve.iterations

    @pytest.mark.parametrize("c3, scales", [
        (0.0, [10.0, 1.0, 0.0]), (0.05, [10.0, 1.0, 0.0]), (0.0, [1.0, 0.5, 1.0, 1.0]),
        (0.0, list(np.linspace(0.0, 4.0, SCALE_CACHE_SIZE + 6))),
    ], ids=["even", "odd", "repeated", "past_the_scale_cache"])
    def test_rows_of_a_scale_sequence_are_its_scales_own_bits(self, litim, c3, scales,
                                                              monkeypatch):
        # an even theory folds its grid, c3 != 0 takes every node and the
        # field 0; each row is its scale's own transform bit for bit, from
        # one inversion call, also where the scales outnumber the records a
        # context keeps and a scale's record is rebuilt within the call
        spec = ModelSpec(dimension=0, modes=1, mass=1.0, c3=c3, c4=0.1,
                         allow_unbounded=True, phi_max=2.0, phi_nodes=5,
                         window=WindowParams(kind="scalar", r=1.0))
        own = [grid_transform(FunctionalContext(spec=spec, regulator=litim), k,
                              spec.field_grid) for k in scales]
        calls = []
        invert = functionals.invert_mean_field

        def counted(ctx, k, phi):
            calls.append(k)
            return invert(ctx, k, phi)

        monkeypatch.setattr(functionals, "invert_mean_field", counted)
        ctx = FunctionalContext(spec=spec, regulator=litim)
        *rows, iterations = grid_transform(ctx, scales, spec.field_grid)
        assert calls == [scales]
        for i, column in enumerate(rows):
            assert column.shape == (len(scales), spec.phi_nodes)
            for row, one in zip(column, own):
                assert row.tobytes() == one[i].tobytes()
        assert iterations == sum(one[-1] for one in own)
        assert exact_grid_values(ctx, scales, spec.field_grid).tobytes() == rows[1].tobytes()

    @pytest.mark.parametrize("c3", [0.0, 0.05])
    def test_a_call_past_the_scale_cache_builds_each_record_once(self, litim, c3,
                                                                 monkeypatch):
        # the records of 70 scales outnumber the cache's 64, but one call
        # holds them all: every pass of the transform finds its scales' records
        spec = ModelSpec(dimension=0, modes=1, mass=1.0, c3=c3, c4=0.1,
                         allow_unbounded=True, phi_max=2.0, phi_nodes=5,
                         window=WindowParams(kind="scalar", r=1.0))
        scales = list(np.linspace(0.0, 4.0, SCALE_CACHE_SIZE + 6))
        built = []
        diagonals = functionals.regulator_diagonals

        def counted(regulator, k, *args):
            built.append(k)
            return diagonals(regulator, k, *args)

        monkeypatch.setattr(functionals, "regulator_diagonals", counted)
        ctx = FunctionalContext(spec=spec, regulator=litim)
        grid_transform(ctx, scales, spec.field_grid)
        assert built == scales
        # a later one-scale lookup trims the cache back to its bound
        ctx.scale(5.0)
        assert len(ctx._scales) == SCALE_CACHE_SIZE
        assert built == scales + [5.0]

    @pytest.mark.parametrize("scales, failing, error", [
        ([1.0, 0.0], 0.0, BudgetExceeded), ([10.0, 0.0], 0.0, NewtonStalled),
    ], ids=["certificate", "newton"])
    def test_a_failing_scale_raises_its_own_error(self, litim, scales, failing, error):
        # double wells the oracle refuses at k = 0 (c2 -0.75: no rule certifies
        # ln I; c2 -1.5: the line search stalls) and answers at the other scale
        c2 = -0.75 if error is BudgetExceeded else -1.5
        spec = ModelSpec(dimension=0, modes=1, mass=1.0, c2=c2, c4=0.1,
                         allow_unbounded=True, phi_max=3.0, phi_nodes=101,
                         window=WindowParams(kind="scalar", r=1.0))
        ctx = FunctionalContext(spec=spec, regulator=litim)
        with pytest.raises(error) as alone:
            grid_transform(ctx, failing, spec.field_grid)
        ctx = FunctionalContext(spec=spec, regulator=litim)
        with pytest.raises(error, match=f"k={failing}") as batched:
            grid_transform(ctx, scales, spec.field_grid)
        assert str(batched.value) == str(alone.value)


class TestNewtonStart:
    @pytest.mark.parametrize("k", [0.0, 100.0])
    def test_fields_invert_until_the_interaction_rounds_past_the_tolerance(
        self, phi4_ctx, k
    ):
        solve = invert_mean_field(phi4_ctx, k, [[100.0], [120.0], [150.0], [165.0]])
        assert solve.residual.max() <= functionals.NEWTON_TOL
        # from |phi| ~ 170 the rounding of S^int moves the tilted mean by
        # more than the tolerance: the start refuses the field by name,
        # where a line search from it would stall
        for phi in (180.0, 260.0, 900.0):
            with pytest.raises(RangeExceeded, match=re.escape(f"phi=[{phi:.0f}.], k={k}")):
                invert_mean_field(phi4_ctx, k, np.array([phi]))

    def test_indefinite_curvature_starts_from_the_gaussian_source(
        self, phi4_ctx, monkeypatch
    ):
        # a unimodal cubic model whose S'' dips by more than Z^-1 at phi = -1
        spec = ModelSpec(dimension=0, modes=1, mass=1.0, c3=0.4, c4=0.1,
                         allow_unbounded=True, window=WindowParams(kind="scalar", r=1.0))
        ctx = FunctionalContext(spec=spec, regulator=phi4_ctx.regulator)
        j, cov = functionals._one_loop_start(ctx, 0.0, np.array([[-1.0], [1.0]]), np.zeros(2, int))
        prec, zero_cov = ctx.scale(0.0).prec[0, 0], ctx.scale(0.0).moments.cov[0]
        assert j[0, 0] == -prec and np.array_equal(cov[0], zero_cov)
        assert j[1, 0] != prec
        assert invert_mean_field(ctx, 0.0, [-1.0]).residual <= functionals.NEWTON_TOL
        # forced on the even model's lane phi = 3, whose quadrature value is known
        definite_inverse = functionals._definite_inverse

        def first_indefinite(a):
            g, smallest, ok = definite_inverse(a)
            return g, smallest, ok & (np.arange(len(ok)) > 0)

        monkeypatch.setattr(functionals, "_definite_inverse", first_indefinite)
        fields = [3.0, 4.5]
        j, _ = functionals._one_loop_start(phi4_ctx, 0.0, np.array(fields)[:, None],
                                          np.zeros(2, int))
        assert j[0, 0] == 3.0 * phi4_ctx.scale(0.0).prec[0, 0]
        values, solve = legendre_transform(phi4_ctx, 0.0, fields)
        assert solve.residual.max() <= functionals.NEWTON_TOL
        reference = [TestEffectiveAction.QUAD_GAMMA_K0[phi] for phi in fields]
        assert np.abs(values - reference).max() <= 1e-9


@pytest.fixture
def no_kernel(monkeypatch):
    """Fails the test if the kernel evaluates any lane."""
    def refused(*args):
        raise AssertionError("the kernel ran")

    monkeypatch.setattr(functionals, "_moments", refused)


class TestEmptyBatches:
    def test_tilted_moments(self, phi4_ctx, line_spec, litim, no_kernel):
        tm = tilted_moments(phi4_ctx, 1.0, np.zeros((0, 1)))
        assert (tm.log_value.shape, tm.log_interaction.shape) == ((0,), (0,))
        assert (tm.mean.shape, tm.cov.shape) == ((0, 1), (0, 1, 1))
        ctx = FunctionalContext(spec=line_spec, regulator=litim)
        tm = tilted_moments(ctx, 1.0, np.zeros((0, 3)))
        assert (tm.mean.shape, tm.cov.shape) == ((0, 3), (0, 3, 3))

    def test_w(self, phi4_spec, litim, no_kernel):
        ctxs = [FunctionalContext(spec=phi4_spec, regulator=litim) for _ in range(2)]
        assert W(ctxs[0], 1.0, np.zeros((0, 1))).shape == (0,)
        assert W(ctxs, 1.0, np.zeros((0, 1))).shape == (2, 0)
        # no context: no row, for a batch and for one source
        assert W([], 1.0, np.zeros((4, 1))).shape == (0, 4)
        assert W([], 1.0, [0.5]).shape == (0,)

    def test_invert_mean_field(self, phi4_ctx, no_kernel):
        solve = invert_mean_field(phi4_ctx, 1.0, np.zeros((0, 1)))
        assert (solve.source.shape, solve.residual.shape) == ((0, 1), (0,))
        assert solve.iterations == 0
        assert solve.moments.cov.shape == (0, 1, 1)

    def test_legendre_transform(self, phi4_ctx, no_kernel):
        values, solve = legendre_transform(phi4_ctx, 1.0, [])
        assert values.shape == (0,)
        assert solve.source.shape == (0, 1)


class TestWOverContexts:
    # r = 1 and 0.75 settle their zero source in two passes, 0.25 and 0.1 in one
    WINDOWS = (1.0, 0.75, 0.25, 0.1)

    @staticmethod
    def contexts(litim, c3=0.0, self_check=True, windows=WINDOWS):
        """One context per window; ``self_check`` is one flag for all or one each."""
        checks = np.broadcast_to(self_check, len(windows))
        return [FunctionalContext(
            spec=ModelSpec(dimension=0, modes=1, mass=1.0, c3=c3, c4=0.1,
                           allow_unbounded=c3 != 0,
                           window=WindowParams(kind="scalar", r=r)),
            regulator=litim, self_check=bool(check)) for r, check in zip(windows, checks)]

    def test_zero_sources_settle_in_one_pass_and_in_two(self, litim, monkeypatch):
        passes = []
        batch = ModelSpec.interaction_batch

        def counting(self, psi):
            passes[-1] += 1
            return batch(self, psi)

        monkeypatch.setattr(ModelSpec, "interaction_batch", counting)
        for c3 in (0.0, 0.3):
            found = []
            for ctx in self.contexts(litim, c3, self_check=False):
                passes.append(0)
                functionals.log_normalization(ctx, 0.0)
                found.append(passes[-1])
            assert found == [2, 2, 1, 1], c3

    @pytest.mark.parametrize("c3", [0.0, 0.3], ids=["even", "odd"])
    @pytest.mark.parametrize("k", [0.0, 1.0])
    @pytest.mark.parametrize("self_check", [True, False, (True, False, False, True)],
                             ids=["checked", "unchecked", "mixed"])
    def test_each_row_is_the_contexts_own_w_bit_for_bit(self, litim, c3, k, self_check):
        t = np.linspace(-2.0, 2.0, 9)[:, None]
        rows = W(self.contexts(litim, c3, self_check), k, t)
        own = [W(ctx, k, t) for ctx in self.contexts(litim, c3, self_check)]
        assert rows.shape == (len(self.WINDOWS), len(t))
        assert np.array_equal(rows, own)
        # one source gives one value per context
        one = W(self.contexts(litim, c3, self_check), k, [1.5])
        assert np.array_equal(one, [W(ctx, k, [1.5]) for ctx in
                                    self.contexts(litim, c3, self_check)])

    def test_one_kernel_call_for_the_zero_sources_and_one_for_the_lanes(
        self, litim, monkeypatch
    ):
        kernel = functionals.tilted_moments
        lanes = []

        def counting(ctx_, k, t_vec=None, level=None, start=None, **kwargs):
            lanes.append(len(np.reshape(t_vec, (-1, 1))))
            return kernel(ctx_, k, t_vec, level, start, **kwargs)

        monkeypatch.setattr(functionals, "tilted_moments", counting)
        ctxs = self.contexts(litim, self_check=False)
        log_normalization(ctxs[1], 0.0)  # this record has its moments already
        lanes.clear()
        W(ctxs, 0.0, np.linspace(0.0, 2.0, 5))
        assert lanes == [3, 4 * 5]
        lanes.clear()
        W(ctxs, 0.0, np.linspace(0.0, 2.0, 5))
        assert lanes == [4 * 5]

    def test_contexts_must_share_modes_and_interaction(self, phi4_spec, line_spec, litim):
        ctx = FunctionalContext(spec=phi4_spec, regulator=litim)
        lines = FunctionalContext(spec=line_spec, regulator=litim)
        with pytest.raises(SpecValidationError, match="share the mode count"):
            W([ctx, lines], 0.0, [0.5])
        other = FunctionalContext(spec=ModelSpec(
            dimension=0, modes=1, mass=1.0, c4=0.2,
            window=WindowParams(kind="scalar", r=1.0)), regulator=litim)
        with pytest.raises(SpecValidationError, match="interaction"):
            W([ctx, other], 0.0, [0.5])

    def test_refused_lane_names_its_member(self, litim):
        # at t = 1e4 the narrow window r = 0.1 settles and r = 1 does not
        ctxs = self.contexts(litim, self_check=False, windows=(0.1, 1.0))
        with pytest.raises(RangeExceeded, match=re.escape(
                "k=0.0, source=[10000.], member 1 (window scalar r=1.0)")):
            W(ctxs, 0.0, [[1.0], [1e4]])


class TestOneContextInASequence:
    def test_tilted_moments_are_the_contexts_own_bits(self, phi4_ctx, line_spec, litim):
        t = np.linspace(-2.0, 2.0, 7)[:, None]
        cov = np.full((len(t), 1, 1), 0.5)
        lines = FunctionalContext(spec=line_spec, regulator=litim, self_check=False)
        cases = [(phi4_ctx, t, None, None), (phi4_ctx, t, 80, (t, cov)),
                 (lines, [[0.5, -1.0, 2.0], [3.0, 0.2, -0.7]], None, None)]
        for ctx, sources, level, start in cases:
            own = tilted_moments(ctx, 0.5, sources, level, start)
            zero = np.zeros(len(sources), dtype=int)
            listed = tilted_moments([ctx], 0.5, sources, level, start, member=zero)
            for name in ("log_value", "log_interaction", "mean", "cov"):
                assert np.array_equal(getattr(listed, name), getattr(own, name)), name

    def test_w_is_the_contexts_own_bits(self, phi4_ctx):
        t = np.linspace(-2.0, 2.0, 7)[:, None]
        assert np.array_equal(W([phi4_ctx], 0.5, t)[0], W(phi4_ctx, 0.5, t))
        assert W([phi4_ctx], 0.5, [1.0])[0] == W(phi4_ctx, 0.5, [1.0])

    def test_lanes_of_one_context_share_its_record(self, phi4_ctx):
        # one context's part is its record's own matrices: no gather per lane
        part = functionals._Gaussian.of([phi4_ctx], 0.5, np.zeros(5, dtype=int))
        record = phi4_ctx.scale(0.5)
        assert part.sigma is record.sigma and part.root is record.chol_p
        assert part.chol_s is record.chol_s and part.logdet_s == record.logdet_s
        assert part.take(np.arange(2)) is part


class TestRefusedInputs:
    @pytest.mark.parametrize("member, lane", [([0, 2], 1), ([-1, 0], 0), ([0, 0.7], 1)],
                             ids=["out_of_range", "negative", "fractional"])
    def test_member_that_is_no_index_names_its_lane(self, phi4_spec, litim, no_kernel,
                                                      member, lane):
        ctxs = [FunctionalContext(spec=phi4_spec, regulator=litim) for _ in range(2)]
        with pytest.raises(SpecValidationError, match=re.escape(
                f"member {member[lane]} of lane {lane} is not an index into the 2")):
            tilted_moments(ctxs, 0.0, [[1.0], [0.5]], member=member)

    @pytest.mark.parametrize("member", [[True, False], ["0", "1"]], ids=["boolean", "text"])
    def test_member_that_holds_no_numbers_is_refused(self, phi4_spec, litim, no_kernel,
                                                       member):
        ctxs = [FunctionalContext(spec=phi4_spec, regulator=litim) for _ in range(2)]
        with pytest.raises(SpecValidationError, match="not indices"):
            tilted_moments(ctxs, 0.0, [[1.0], [0.5]], member=member)

    def test_empty_batch_with_empty_member(self, phi4_spec, litim, no_kernel):
        ctxs = [FunctionalContext(spec=phi4_spec, regulator=litim) for _ in range(2)]
        tm = tilted_moments(ctxs, 0.0, np.zeros((0, 1)), member=[])
        assert (tm.log_value.shape, tm.mean.shape, tm.cov.shape) == ((0,), (0, 1), (0, 1, 1))

    ENTRY_POINTS = {
        "W": lambda ctx, x: W(ctx, 0.0, [[0.5], [x]]),
        "tilted_moments": lambda ctx, x: tilted_moments(ctx, 0.0, [[0.5], [x]]),
        "invert_mean_field": lambda ctx, x: invert_mean_field(ctx, 0.0, [[0.5], [x]]),
        "legendre_transform": lambda ctx, x: legendre_transform(ctx, 0.0, [0.5, x]),
        "gamma": lambda ctx, x: gamma(ctx, 0.0, [x]),
        "gamma_bar": lambda ctx, x: gamma_bar(ctx, 0.0, [x]),
    }

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "+inf", "-inf"])
    @pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
    def test_non_finite_field_or_source_is_refused_unevaluated(self, phi4_spec, litim,
                                                                 no_kernel, entry, bad):
        ctx = FunctionalContext(spec=phi4_spec, regulator=litim)
        lane = 0 if entry.startswith("gamma") else 1
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SpecValidationError, match=re.escape(
                    f"lane {lane} of the fields or sources, [{bad}], is not finite")):
                self.ENTRY_POINTS[entry](ctx, bad)

    def test_non_finite_newton_iterate_is_out_of_range(self, phi4_ctx, monkeypatch):
        def poisoned(k, phis, lanes, mean, cov):
            return np.full((lanes.size, phis.shape[1]), np.nan)

        monkeypatch.setattr(functionals, "_newton_step", poisoned)
        with pytest.raises(RangeExceeded, match="source magnitude diverged"):
            invert_mean_field(phi4_ctx, 0.5, [[1.0]])
