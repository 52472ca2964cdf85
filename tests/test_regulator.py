import warnings

import numpy as np
import pytest

from frgelab.cli import build_parser, main
from frgelab.errors import ConditionViolated
from frgelab.regulator import (
    ExponentialRegulator,
    LitimRegulator,
    SamplePlan,
    TableRegulator,
    check_conditions,
    make_regulator,
)

# frozen against an independent evaluation of the closed-form derivative
EXPONENTIAL_DK_11 = 1.8413471884155845  # d_k R at k = 1, p = 1


def at(method, k, p):
    """A regulator method evaluated at a single momentum."""
    return float(method(k, np.array([p]))[0])


def decreasing_table(tmp_path):
    """Path of a tabulated Litim shape whose stated k-derivative is -2k."""
    path = tmp_path / "bad.csv"
    rows = ["k,p,R,dR"]
    for k in np.linspace(0.1, 15.0, 40):
        for p in np.linspace(0.0, 15.0, 40):
            r = max(k * k - p * p, 0.0)
            rows.append(f"{k},{p},{r},{-2.0 * k}")
    path.write_text("\n".join(rows) + "\n")
    return str(path)


def small_table():
    """The Litim shape tabulated on a coarse 13 x 13 grid over [0, 12]^2."""
    grid = np.linspace(0.0, 12.0, 13)
    k, p = np.meshgrid(grid, grid, indexing="ij")
    return TableRegulator(grid, grid, np.maximum(k * k - p * p, 0.0),
                          2.0 * k * (k >= p))


REGULATORS = {
    "litim": LitimRegulator(),
    "exponential": ExponentialRegulator(),
    "table": small_table(),
}


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

    def test_tiny_scale_does_not_underflow(self, exponential):
        # p^2/k^2 would be 0/0 at p = 0: k^2 underflows below k ~ 1.5e-162
        k, p = 1e-170, np.array([0.0, 1.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            value = exponential.value(k, p)
            dk = exponential.dk(k, p)
        assert list(dk) == [2.0 * k, 0.0]
        assert list(value) == [k * k, 0.0]


class TestArrayCalls:
    @pytest.mark.parametrize("name", sorted(REGULATORS))
    @pytest.mark.parametrize("method", ["value", "dk"])
    def test_array_call_is_the_scalar_calls(self, name, method):
        rng = np.random.default_rng(20240)
        # k = 0, -0, k < 0 and a tiny k first, then random scales and momenta
        ks = np.r_[0.0, -0.0, -1.0, 1e-170, rng.uniform(-3.0, 14.0, 300)]
        ps = np.r_[0.0, 1.0, 0.5, 0.0, rng.uniform(-14.0, 14.0, 300)]
        fn = getattr(REGULATORS[name], method)
        scalar = np.array([fn(float(k), float(p)) for k, p in zip(ks, ps)])
        assert fn(ks, ps).tobytes() == scalar.tobytes()
        assert not np.any(scalar[ks < 0])
        # an outer (k, p) grid broadcasts to the same numbers
        grid = fn(ks[:, None], ps[None, :40])
        assert grid.shape == (ks.size, 40)
        assert grid[:, 3].tobytes() == np.array(
            [fn(float(k), float(ps[3])) for k in ks]).tobytes()


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
        reg = make_regulator(f"table:{decreasing_table(tmp_path)}")
        report = check_conditions(reg)
        assert report.passed == {
            "bound": False, "divergence": True, "dk_nonnegative": False,
            "negative_k": True, "dk_consistency": False,
        }
        # frozen: the first failing sample of each failed condition
        k, p = 9.766997667981421, 7.741676954904167
        assert report.witnesses == {
            "bound": (8.235205517449387, 0.003820115083202819, 67.84740669115548),
            "dk_nonnegative": (k, p, -19.533995335962842),
            "dk_consistency": (k, p, 39.21861070657046),
        }

    def test_cli_raises_with_the_witness(self, tmp_path, capsys):
        path = decreasing_table(tmp_path)
        argv = ["validate-regulator", "--regulator", f"table:{path}"]
        assert main(argv) == 3
        assert "condition 'bound' failed" in capsys.readouterr().err
        args = build_parser().parse_args(argv)
        with pytest.raises(ConditionViolated) as info:
            args.handler(args)
        assert (info.value.k, info.value.p) == (8.235205517449387,
                                                0.003820115083202819)

    @pytest.mark.parametrize("name", sorted(REGULATORS))
    def test_one_array_call_per_condition(self, name, monkeypatch):
        reg = REGULATORS[name]
        calls = {"value": 0, "dk": 0}
        for method in calls:
            original = getattr(type(reg), method)

            def counted(self, k, p, method=method, original=original):
                calls[method] += 1
                return original(self, k, p)

            monkeypatch.setattr(type(reg), method, counted)
        check_conditions(reg)
        assert calls["value"] <= 5 and calls["dk"] <= 2

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

    def test_table_loads_onto_its_grid(self, tmp_path):
        # rows in any order, columns found by name, extra columns ignored
        ks, ps = np.array([0.0, 0.5, 2.0]), np.array([0.0, 0.25, 1.0, 3.0])
        values = np.add.outer(ks**2, -0.1 * ps)
        dvalues = np.add.outer(2.0 * ks, ps)
        rows = [",".join(["x"] + [repr(float(x)) for x in
                                  (dvalues[i, j], values[i, j], ps[j], ks[i])])
                for j in (3, 0, 2, 1) for i in (1, 2, 0)]
        path = tmp_path / "table.csv"
        path.write_text("note,dR,R,p,k\n" + "\n".join(rows) + "\n")
        reg = TableRegulator.from_csv(path)
        assert np.array_equal(reg.k_grid, ks)
        assert np.array_equal(reg.p_grid, ps)
        assert np.array_equal(reg.values, values)
        assert np.array_equal(reg.dvalues, dvalues)
        # one missing (k, p) pair is not a grid
        path.write_text("note,dR,R,p,k\n" + "\n".join(rows[1:]) + "\n")
        with pytest.raises(ValueError, match="full"):
            TableRegulator.from_csv(path)
        path.write_text("k,p,R\n0.0,0.0,0.0\n")
        with pytest.raises(ValueError, match="dR"):
            TableRegulator.from_csv(path)
        # a single node is no grid to interpolate on
        path.write_text("k,p,R,dR\n0.0,0.0,0.0,0.0\n")
        with pytest.raises(ValueError, match="full"):
            TableRegulator.from_csv(path)

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            make_regulator("sharp")

    def test_sample_plan_is_frozen(self):
        plan = SamplePlan(count=100)
        with pytest.raises(Exception):
            plan.count = 5
