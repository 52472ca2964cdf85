import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from frgelab import functionals as fn
from frgelab.convex import (
    PROBE_SOURCES,
    GridFunction,
    _char_probe,
    _directed_epi_distance,
    _lower_hull,
    _w_grid,
    aw_distance,
    biconjugate_check,
    conjugate,
    convergence_suite,
    supercoercivity_certificate,
    uniform_distance,
)
from frgelab.errors import EmptyEpigraphWindow, GridMismatch, NotProper
from frgelab.functionals import FunctionalContext
from frgelab.model import ModelSpec, WindowParams
from frgelab.regulator import make_regulator


def grid_fn(f, lo=-5.0, hi=5.0, nodes=201):
    x = np.linspace(lo, hi, nodes)
    return GridFunction(axes=(x,), values=np.array([f(t) for t in x], dtype=float))


class TestGridFunction:
    def test_properness_enforced(self):
        with pytest.raises(NotProper):
            GridFunction(axes=(np.linspace(0, 1, 5),), values=np.full(5, np.inf))

    def test_value_shape_must_match_axes(self):
        with pytest.raises(GridMismatch):
            GridFunction(axes=(np.linspace(0, 1, 5),), values=np.zeros(4))

    def test_infinite_markers_allowed(self):
        v = np.array([np.inf, 1.0, 0.0, 1.0, np.inf])
        g = GridFunction(axes=(np.linspace(-2, 2, 5),), values=v)
        assert g.ndim == 1


class TestConjugate:
    def test_half_square_self_conjugate(self):
        f = grid_fn(lambda x: 0.5 * x * x)
        fs = conjugate(f, -3, 3, 121)
        t = fs.axes[0]
        step = 10.0 / 200
        assert np.abs(fs.values - 0.5 * t * t).max() <= step**2

    def test_quartic_closed_form(self):
        f = grid_fn(lambda x: 0.25 * x**4, nodes=2001)
        fs = conjugate(f, -2, 2, 81)
        t = fs.axes[0]
        exact = 0.75 * np.abs(t) ** (4.0 / 3.0)
        assert np.abs(fs.values - exact).max() < 1e-3

    def test_zero_function_support_function(self):
        f = grid_fn(lambda x: 0.0, lo=-4.0, hi=4.0)
        fs = conjugate(f, -2, 2, 41)
        assert np.allclose(fs.values, 4.0 * np.abs(fs.axes[0]), atol=1e-12)

    def test_respects_infinite_markers(self):
        x = np.linspace(-2, 2, 41)
        v = np.where(np.abs(x) <= 1, 0.0, np.inf)  # indicator of [-1, 1]
        fs = conjugate(GridFunction(axes=(x,), values=v), -3, 3, 31)
        assert np.allclose(fs.values, np.abs(fs.axes[0]), atol=1e-9)

    def test_order_reversal_random_pairs(self, rng):
        x = np.linspace(-3, 3, 101)
        for _ in range(100):
            a, b = sorted(rng.uniform(0.3, 3.0, size=2))
            f = GridFunction(axes=(x,), values=0.5 * a * x * x)
            g = GridFunction(axes=(x,), values=0.5 * b * x * x + rng.uniform(0, 1))
            # f <= g pointwise, so f* >= g* pointwise
            fs = conjugate(f, -2, 2, 41)
            gs = conjugate(g, -2, 2, 41)
            assert np.all(fs.values >= gs.values - 1e-12)

    def test_biconjugate_below_original(self):
        x = np.linspace(-2, 2, 201)
        f = GridFunction(axes=(x,), values=(x**2 - 1.0) ** 2)
        fs = conjugate(f, -15, 15, 1501)
        fss = conjugate(fs, -2, 2, 201)
        assert np.all(fss.values <= f.values + 1e-9)

    def test_double_well_conjugates_as_its_convex_hull(self):
        # f* = (co f)*: the nodes off the hull never attain the maximum
        x = np.linspace(-2, 2, 401)
        y = x**4 - x**2
        hull = _lower_hull(x, y)
        envelope = np.interp(x, x[hull], y[hull])
        assert (y - envelope).max() > 0.2  # the double well is not convex
        fs = conjugate(GridFunction(axes=(x,), values=y), -6, 6, 241)
        hs = conjugate(GridFunction(axes=(x,), values=envelope), -6, 6, 241)
        assert np.abs(fs.values - hs.values).max() <= 1e-12

    def test_two_dimensional_scan(self):
        axes = (np.linspace(-2, 2, 41), np.linspace(-2, 2, 41))
        xx, yy = np.meshgrid(*axes, indexing="ij")
        f = GridFunction(axes=axes, values=0.5 * (xx**2 + yy**2))
        fs = conjugate(f, [-1, -1], [1, 1], [21, 21])
        tt, ss = np.meshgrid(*fs.axes, indexing="ij")
        assert np.abs(fs.values - 0.5 * (tt**2 + ss**2)).max() < 0.01


class TestBiconjugate:
    def test_convex_quadratic_defect(self):
        f = grid_fn(lambda x: 0.5 * x * x, nodes=512 + 1)
        assert biconjugate_check(f) <= 1e-6

    def test_double_well_defect_is_hull_gap(self):
        f = grid_fn(lambda x: (x * x - 1.0) ** 2, lo=-2.0, hi=2.0, nodes=401)
        assert biconjugate_check(f) == pytest.approx(1.0, abs=1e-9)

    def test_affine_defect_zero(self):
        f = grid_fn(lambda x: 2.0 * x + 1.0)
        assert biconjugate_check(f) == pytest.approx(0.0, abs=1e-12)


class TestSupercoercivity:
    def test_half_square_certificate(self):
        fs = grid_fn(lambda t: 0.5 * t * t, lo=-4.0, hi=4.0, nodes=801)
        cert = supercoercivity_certificate(fs, [1.0])
        assert cert["C"] == pytest.approx(-0.5, abs=1e-4)
        assert abs(abs(cert["binding_node"][0]) - 1.0) < 0.01

    def test_affine_slope_below_one_degrades_with_box(self):
        certs = []
        for box in (3.0, 6.0, 12.0):
            fs = grid_fn(lambda t: 0.5 * t, lo=-box, hi=box, nodes=401)
            certs.append(supercoercivity_certificate(fs, [1.0])["C"])
        assert certs[0] > certs[1] > certs[2]


class TestUniformDistance:
    def test_identical(self):
        f = grid_fn(lambda x: x * x)
        assert uniform_distance(f, f, 2.0) == 0.0

    def test_vertical_shift(self):
        f = grid_fn(lambda x: 0.5 * x * x)
        g = GridFunction(axes=f.axes, values=f.values + 0.25)
        assert uniform_distance(f, g, 2.0) == pytest.approx(0.25)

    def test_grid_mismatch(self):
        f = grid_fn(lambda x: x, nodes=101)
        g = grid_fn(lambda x: x, nodes=103)
        with pytest.raises(GridMismatch):
            uniform_distance(f, g, 1.0)


class TestAwDistance:
    def test_identical(self):
        f = grid_fn(lambda x: 0.5 * x * x)
        assert aw_distance(f, f, 6.0) == 0.0

    def test_vertical_shift(self):
        f = grid_fn(lambda x: 0.5 * x * x, nodes=801)
        g = GridFunction(axes=f.axes, values=f.values + 0.2)
        assert aw_distance(f, g, 10.0) == pytest.approx(0.2, abs=0.01)

    def test_horizontal_shift_bound(self):
        delta, rho = 0.1, 4.0
        f = grid_fn(lambda x: 0.5 * x * x, nodes=1601)
        g = grid_fn(lambda x: 0.5 * (x - delta) ** 2, nodes=1601)
        d = aw_distance(f, g, rho)
        assert 0 < d <= delta * (1 + rho)

    def test_symmetry(self):
        f = grid_fn(lambda x: 0.5 * x * x)
        g = grid_fn(lambda x: x * x + 0.3)
        assert aw_distance(f, g, 5.0) == pytest.approx(aw_distance(g, f, 5.0))

    def test_triangle_inequality_within_resolution(self, rng):
        x = np.linspace(-3, 3, 301)
        res = 2.0 * (x[1] - x[0])
        for _ in range(10):
            a, b, c = rng.uniform(0.3, 2.0, size=3)
            fs = [GridFunction(axes=(x,), values=0.5 * q * x * x + s)
                  for q, s in ((a, 0.0), (b, 0.5), (c, -0.3))]
            dab = aw_distance(fs[0], fs[1], 4.0)
            dbc = aw_distance(fs[1], fs[2], 4.0)
            dac = aw_distance(fs[0], fs[2], 4.0)
            assert dac <= dab + dbc + 2 * res

    def test_empty_window(self):
        f = grid_fn(lambda x: 10.0, lo=-1.0, hi=1.0, nodes=21)
        with pytest.raises(EmptyEpigraphWindow):
            aw_distance(f, f, 0.5)

    def test_one_epigraph_in_the_box_is_two_rho_away(self):
        # the box-truncated epigraph of f is empty, that of g is not
        f = grid_fn(lambda x: 10.0, lo=-1.0, hi=1.0, nodes=21)
        g = grid_fn(lambda x: 0.0, lo=-1.0, hi=1.0, nodes=21)
        assert aw_distance(f, g, 0.5) == 1.0
        assert aw_distance(g, f, 0.5) == 1.0


def dense_epi_distance(xa, ta, xb, tb):
    """Reference: the n_a x n_b scan of max(|dx|, (tb - ta)+)."""
    dx = np.abs(xa[:, None] - xb[None, :])
    dt = np.maximum(tb[None, :] - ta[:, None], 0.0)
    return float(np.max(np.min(np.maximum(dx, dt), axis=1)))


# quarter-integer lattice values tie and land on each other's columns;
# bounded floats do not
_coords = st.one_of(st.integers(-8, 8).map(lambda i: 0.25 * i), st.floats(-4.0, 4.0))
_graphs = st.lists(st.tuples(_coords, _coords), min_size=1, max_size=40).map(
    lambda pts: tuple(np.array(c, dtype=float)
                      for c in zip(*sorted(pts, key=lambda p: p[0]))))


@st.composite
def _graph_pairs(draw):
    a = draw(_graphs)
    kind = draw(st.sampled_from(["independent", "identical", "apart"]))
    if kind == "identical":
        return a, a
    xb, tb = draw(_graphs)
    if kind == "apart":  # x ranges that do not overlap
        xb = xb + draw(st.sampled_from([-10.0, 10.0]))
    return a, (xb, tb)


def _pair(xa, ta, xb, tb):
    xa, ta, xb, tb = (np.array(v, dtype=float) for v in (xa, ta, xb, tb))
    return (xa, ta), (xb, tb)


class TestDirectedEpiDistance:
    @settings(max_examples=300, deadline=None)
    @given(_graph_pairs())
    @example(_pair([0.0], [1.0], [0.0], [0.5]))  # one point each, same column
    @example(_pair([0.0], [0.0], [2.0], [0.0]))
    @example(_pair([1.0, 1.0, 2.0], [0.0, -1.0, 3.0], [1.0, 1.0], [2.0, -2.0]))
    @example(_pair([-1.0, 0.0, 1.0], [1.0, 0.0, 1.0], [-1.0, 0.0, 1.0], [1.0, 0.0, 1.0]))
    @example(_pair([-3.0, -2.0], [0.0, 0.0], [2.0, 3.0], [0.0, 0.0]))
    def test_matches_the_dense_scan_bit_for_bit(self, pair):
        (xa, ta), (xb, tb) = pair
        assert _directed_epi_distance(xa, ta, xb, tb) == dense_epi_distance(xa, ta, xb, tb)
        assert _directed_epi_distance(xb, tb, xa, ta) == dense_epi_distance(xb, tb, xa, ta)

    def test_matches_the_dense_scan_on_benchmark_sized_graphs(self):
        # 2401 refined points of Gamma_0-like parabolas, as in the convergence suite
        x = np.linspace(-6.0, 6.0, 2401)
        ya, yb = 0.5 * x * x, 0.45 * x * x + 0.01
        assert _directed_epi_distance(x, ya, x, yb) == dense_epi_distance(x, ya, x, yb)
        assert _directed_epi_distance(x, yb, x, ya) == dense_epi_distance(x, yb, x, ya)


class TestConvergenceSuite:
    @staticmethod
    def specs(rs, c4=0.1):
        return [
            ModelSpec(dimension=0, modes=1, mass=1.0,
                      window=WindowParams(kind="scalar", r=r), c4=c4)
            for r in rs
        ]

    def test_constant_sequence_all_zero(self):
        reg = make_regulator("litim")
        (limit,) = self.specs([1.0])
        models = self.specs([1.0, 1.0, 1.0])
        rep = convergence_suite(models, limit, reg)
        assert max(rep.uniform) == 0.0
        assert max(rep.aw) == 0.0
        assert max(rep.probe) == 0.0

    def test_shrinking_windows_monotone(self):
        reg = make_regulator("litim")
        (limit,) = self.specs([1.0])
        models = self.specs([1.0 - 2.0 ** (-n) for n in (1, 2, 3, 4)])
        rep = convergence_suite(models, limit, reg)
        assert rep.uniform_monotone and rep.aw_monotone and rep.probe_monotone
        assert rep.all_monotone

    @staticmethod
    def benchmark_seed_zero():
        # the convergence workload's seed-0 config
        reg = make_regulator("litim")
        limit, *models = [
            ModelSpec(dimension=0, modes=1, mass=0.9935392973450001,
                      window=WindowParams(kind="scalar", r=r), c4=0.10154541573207883)
            for r in [1.0] + [1.0 - 2.0 ** (-n) for n in range(1, 7)]
        ]
        return convergence_suite(models, limit, reg)

    def test_benchmark_seed_zero_aw_distances_frozen(self):
        # the floats the n_a x n_b scan gave, which the sparse-table route
        # must keep bit for bit
        assert self.benchmark_seed_zero().aw == [
            0.4450000000000012, 0.1750000000000007, 0.07500000000000018,
            0.03500000000000103, 0.015000000000001457, 0.010000000000001563,
        ]

    def test_benchmark_seed_zero_probe_distances_frozen(self):
        # the quadrature probe's floats; the bound leaves room only for the
        # summation order of the BLAS product
        assert self.benchmark_seed_zero().probe == pytest.approx([
            0.3731390573120345, 0.14369082071105116, 0.0623276675903201,
            0.029059842963705285, 0.014038545177422812, 0.006900654217020685,
        ], rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("r", [0.5, 0.75, 1.0 - 2.0 ** (-6), 1.0])
    def test_probe_matches_adaptive_quadrature(self, r):
        (spec,) = self.specs([r])
        ctx = FunctionalContext(spec=spec, regulator=make_regulator("litim"))
        var = float(ctx.measure.cov[0, 0])

        def density(x):
            return np.exp(-0.5 * x * x / var - spec.interaction_batch(np.array([x])))

        def integral(f):
            return quad(f, -np.inf, np.inf, epsabs=1e-15, epsrel=1e-13, limit=200)[0]

        z = integral(density)
        expected = [integral(lambda x, t=t: np.cos(t * x) * density(x)) / z
                    for t in PROBE_SOURCES]
        assert np.abs(_char_probe(ctx, PROBE_SOURCES) - expected).max() <= 1e-12

    def test_alternating_sequence_flagged_non_cauchy(self):
        reg = make_regulator("litim")
        (limit,) = self.specs([1.0])
        models = self.specs([0.5, 0.9, 0.5, 0.9])
        rep = convergence_suite(models, limit, reg)
        assert not rep.aw_monotone
        assert rep.aw[-1] > 0.01  # does not approach zero

    def test_w_grid_is_w_on_the_dual_axis(self, phi4_spec, litim, monkeypatch):
        ctx = FunctionalContext(spec=phi4_spec, regulator=litim, self_check=False)
        t_axis = np.linspace(-3.0, 3.0, 13)
        expected = [fn.W(ctx, 0.0, [t]) for t in t_axis]
        calls = []
        original = fn.W

        def counted(ctx_, k, t_vec):
            calls.append(np.asarray(t_vec).shape)
            return original(ctx_, k, t_vec)

        monkeypatch.setattr(fn, "W", counted)
        grid = _w_grid(ctx, t_axis)
        # one batched W call: the one formula for W lives in W
        assert calls == [(13, 1)]
        assert np.abs(grid.values - expected).max() <= 1e-13
