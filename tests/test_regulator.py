import numpy as np
import pytest

from frgelab.errors import ConditionViolated
from frgelab.regulator import (
    SamplePlan,
    check_conditions,
    make_regulator,
)

# frozen against an independent evaluation of the closed-form derivative
EXPONENTIAL_DK_11 = 1.8413471884155845  # d_k R at k = 1, p = 1


def at(method, k, p):
    """A regulator method evaluated at a single momentum."""
    return float(method(k, np.array([p]))[0])


class TestLitim:
    def test_values(self, litim):
        assert at(litim.value, 2.0, 1.0) == pytest.approx(3.0)
        assert at(litim.value, 2.0, 3.0) == 0.0
        assert at(litim.value, 2.0, 2.0) == 0.0  # closed support edge

    def test_negative_scale_vanishes(self, litim):
        assert at(litim.value, -1.0, 0.5) == 0.0

    def test_dk_step_profile(self, litim):
        assert at(litim.dk, 2.0, 1.0) == pytest.approx(4.0)
        assert at(litim.dk, 2.0, 3.0) == 0.0

    def test_kink_scales(self):
        reg = make_regulator("litim")
        assert np.allclose(reg.kink_scales([-1.0, 0.0, 1.0]), [0.0, 1.0])


class TestExponential:
    def test_zero_momentum_limit(self, exponential):
        # p^2/(e^{p^2/k^2}-1) -> k^2 as p -> 0
        assert at(exponential.value, 3.0, 1e-7) == pytest.approx(9.0, rel=1e-9)

    def test_generic_value(self, exponential):
        assert at(exponential.value, 1.0, 1.0) == pytest.approx(1.0 / np.expm1(1.0))

    def test_dk_frozen_value(self, exponential):
        assert at(exponential.dk, 1.0, 1.0) == pytest.approx(
            EXPONENTIAL_DK_11, abs=1e-13
        )

    def test_dk_matches_finite_difference(self, exponential):
        h = 1e-6
        fd = (exponential.value(2.0 + h, np.array([1.3]))[0]
              - exponential.value(2.0 - h, np.array([1.3]))[0]) / (2 * h)
        assert at(exponential.dk, 2.0, 1.3) == pytest.approx(fd, rel=1e-8)

    def test_extreme_momentum_underflows_to_zero(self, exponential):
        assert exponential.value(0.01, np.array([50.0]))[0] == 0.0
        assert exponential.dk(0.01, np.array([50.0]))[0] == 0.0


class TestMatrix:
    def test_diagonal_weighted(self, litim):
        momenta = np.array([-1.0, 0.0, 1.0])
        weights = np.array([0.5, 1.0, 0.5])
        assert np.allclose(litim.value(2.0, momenta) * weights, [1.5, 4.0, 1.5])
        assert np.allclose(litim.dk(2.0, momenta) * weights, [2.0, 4.0, 2.0])


class TestConditions:
    def test_litim_all_pass(self, litim):
        report = check_conditions(litim)
        assert report.all_passed, report.passed

    def test_exponential_all_pass(self, exponential):
        report = check_conditions(exponential)
        assert report.all_passed, report.passed

    def test_table_counterexample_flagged(self, tmp_path):
        # tabulated shape decreasing in k: monotonicity must fail
        path = tmp_path / "bad.csv"
        rows = ["k,p,R,dR"]
        for k in np.linspace(0.1, 15.0, 40):
            for p in np.linspace(0.0, 15.0, 40):
                r = max(k * k - p * p, 0.0)
                rows.append(f"{k},{p},{r},{-2.0 * k}")
        path.write_text("\n".join(rows) + "\n")
        reg = make_regulator(f"table:{path}")
        report = check_conditions(reg)
        assert not report.passed["dk_nonnegative"]
        with pytest.raises(ConditionViolated):
            check_conditions(reg, raise_on_failure=True)

    def test_table_roundtrips_litim(self, tmp_path, litim):
        path = tmp_path / "litim.csv"
        rows = ["k,p,R,dR"]
        ks = np.linspace(0.0, 12.0, 241)
        ps = np.linspace(0.0, 12.0, 241)
        for k in ks:
            for p in ps:
                rows.append(f"{k},{p},{max(k*k-p*p,0.0)},{2*k*(k>=p)}")
        path.write_text("\n".join(rows) + "\n")
        reg = make_regulator(f"table:{path}")
        assert reg.value(2.0, np.array([1.0]))[0] == pytest.approx(3.0, abs=0.01)

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            make_regulator("sharp")

    def test_sample_plan_is_frozen(self):
        plan = SamplePlan(count=100)
        with pytest.raises(Exception):
            plan.count = 5
