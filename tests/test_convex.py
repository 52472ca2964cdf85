import dataclasses

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from frgelab import convex
from frgelab import functionals as fn
from frgelab.convex import (
    PROBE_SOURCES,
    GridFunction,
    _char_probe,
    _clipped_graph,
    _directed_epi_distance,
    _lower_hull,
    _refined,
    _w_grid,
    aw_distance,
    biconjugate_check,
    conjugate,
    convergence_suite,
    supercoercivity_certificate,
    uniform_distance,
)
from frgelab.errors import EmptyEpigraphWindow, GridMismatch, NotProper, SpecValidationError
from frgelab.functionals import FunctionalContext
from frgelab.model import ModelSpec, WindowParams, mirrored_axis, unfold
from frgelab.regulator import make_regulator


def grid_fn(f, lo=-5.0, hi=5.0, nodes=201):
    x = np.linspace(lo, hi, nodes)
    return GridFunction(axes=(x,), values=np.array([f(t) for t in x], dtype=float))


def _plane():
    x = np.linspace(-1.0, 1.0, 3)
    return GridFunction(axes=(x, x), values=np.zeros((3, 3)))


@pytest.mark.parametrize("refused, error, message", [
    (lambda: biconjugate_check(_plane()), NotImplementedError, "in 1D"),
    (lambda: aw_distance(_plane(), _plane(), 1.0), NotImplementedError, "in 1D"),
    (lambda: uniform_distance(grid_fn(abs, 1.0, 2.0), grid_fn(abs, 1.0, 2.0), 0.5),
     GridMismatch, "no grid node within radius 0.5"),
    (lambda: convergence_suite(
        [ModelSpec(dimension=1, modes=3, mass=1.0, momentum_spacing=1.0,
                   window=WindowParams(kind="identity"))],
        ModelSpec(dimension=0, modes=1, mass=1.0, window=WindowParams(kind="scalar", r=1.0)),
        make_regulator("litim")),
     GridMismatch, "share the mode count"),
], ids=["biconjugate-2d", "aw-2d", "uniform-empty-ball", "suite-modes"])
def test_refusals(refused, error, message):
    with pytest.raises(error, match=message):
        refused()


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

    @pytest.mark.parametrize("bad, node", [
        ([1.0, -np.inf, 0.0, 1.0, 4.0], r"\[-1\.0\]"),
        ([1.0, 2.0, 0.0, np.nan, -np.inf], r"\[1\.0\]"),
    ], ids=["minus-inf", "nan-first"])
    def test_improper_samples_refused(self, bad, node):
        # a NaN or -inf sample was dropped as if it were +inf: the first
        # case conjugated to [1, 0, 0] with biconjugate defect 0.0
        with pytest.raises(NotProper, match=f"at node {node}"):
            GridFunction(axes=(np.linspace(-2, 2, 5),), values=np.array(bad))

    @pytest.mark.parametrize("axis", [
        [2.0, 1.0, 0.0, -1.0, -2.0],
        [-2.0, -1.0, -1.0, 1.0, 2.0],
        [-2.0, -1.0, np.nan, 1.0, 2.0],
        [-2.0, -1.0, 0.0, 1.0, np.inf],
    ], ids=["decreasing", "repeated", "nan", "infinite"])
    def test_axis_must_be_finite_and_increasing(self, axis):
        with pytest.raises(GridMismatch, match="axis 0 is not finite and strictly increasing"):
            GridFunction(axes=(np.array(axis),), values=np.zeros(5))
        with pytest.raises(GridMismatch, match="axis 1"):
            GridFunction(axes=(np.linspace(-2, 2, 5), np.array(axis)),
                         values=np.zeros((5, 5)))

    def test_reversed_axis_no_longer_misreads_the_distance(self):
        # the epigraph distance assumes graphs sorted in x: these samples
        # read 0.4 on the increasing axis and 4.0 reversed
        x = np.linspace(-2.0, 2.0, 41)
        f, g = x * x, 0.5 * x * x + 0.3
        assert aw_distance(GridFunction(axes=(x,), values=f),
                           GridFunction(axes=(x,), values=g), 6.0) == pytest.approx(0.4)
        with pytest.raises(GridMismatch):
            GridFunction(axes=(x[::-1],), values=f[::-1])

    def test_uneven_axis_accepted(self):
        x = np.array([-2.0, -0.5, 0.0, 0.1, 3.0])
        fs = conjugate(GridFunction(axes=(x,), values=np.zeros(5)), -1.0, 1.0, 5)
        # the support function of [-2, 3]
        assert np.array_equal(fs.values, np.where(fs.axes[0] < 0, -2.0, 3.0) * fs.axes[0])

    def test_improper_sample_named_on_a_box(self):
        values = np.zeros((3, 3))
        values[2, 1] = np.nan
        with pytest.raises(NotProper, match=r"nan at node \[1\.0, 0\.0\]"):
            GridFunction(axes=(np.linspace(-1, 1, 3),) * 2, values=values)


class TestConjugate:
    @pytest.mark.parametrize("lo, hi, nodes", [
        (-1.0, 1.0, 5), ([-1.0, -1.0], [1.0, 1.0], 5), ([-1.0], 1.0, [5, 5]),
    ], ids=["scalars", "node-scalar", "one-bound"])
    def test_box_values_broadcast_to_every_axis(self, lo, hi, nodes):
        # a 2-D f onto (-1, 1, 5) gave a (5,) array, and (lo, hi) of two
        # axes with one node count dropped an axis
        fs = conjugate(_plane(), lo, hi, nodes)
        assert fs.values.shape == (5, 5)
        t = fs.nodes()
        # the support function of [-1, 1]^2
        assert np.array_equal(fs.values.ravel(), np.abs(t).sum(axis=1))

    @pytest.mark.parametrize("f, lo, hi, nodes", [
        (grid_fn(abs, -1.0, 1.0, 3), [-1.0, -1.0], [1.0, 1.0], [5, 5]),
        (grid_fn(abs, -1.0, 1.0, 3), -1.0, 1.0, [5, 5]),
        (_plane(), [-1.0, -1.0, -1.0], [1.0, 1.0, 1.0], 5),
        (_plane(), [[-1.0, -1.0]], 1.0, 5),
    ], ids=["1d-onto-2d", "1d-two-node-counts", "2d-onto-3d", "nested-bound"])
    def test_box_of_another_dimension_refused(self, f, lo, hi, nodes):
        # the 1-D f onto a 2-D box returned a (5, 5) array
        with pytest.raises(GridMismatch, match=f"a box of {f.ndim} axes"):
            conjugate(f, lo, hi, nodes)

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

    @settings(max_examples=100, deadline=None)
    @given(half=st.lists(st.one_of(st.floats(-5.0, 5.0), st.just(np.inf)),
                         min_size=1, max_size=30),
           primal_radius=st.floats(0.5, 4.0), dual_radius=st.floats(0.5, 4.0),
           dual_half=st.integers(0, 40))
    @example(half=[np.inf, 0.0, np.inf], primal_radius=2.0, dual_radius=3.0, dual_half=15)
    def test_folded_scan_is_the_full_scan(self, half, primal_radius, dual_radius,
                                          dual_half):
        half = np.array(half)
        assume(np.isfinite(half).any())
        x = mirrored_axis(primal_radius, 2 * half.size - 1)
        f = GridFunction(axes=(x,), values=np.concatenate([half[:0:-1], half]))
        fs = conjugate(f, -dual_radius, dual_radius, 2 * dual_half + 1)
        # the scan over every dual node, by broadcasting
        t, finite = fs.axes[0], np.isfinite(f.values)
        full = (t[:, None] * x[None, finite] - f.values[None, finite]).max(axis=1)
        # equal floats; a zero maximum may differ in its sign only
        assert np.array_equal(fs.values, full)

    def test_odd_or_unmirrored_inputs_scan_every_dual_node(self, monkeypatch):
        unfolds = []

        def counted(half):
            unfolds.append(half.size)
            return unfold(half)

        monkeypatch.setattr(convex, "unfold", counted)
        x = mirrored_axis(2.0, 41)
        even = GridFunction(axes=(x,), values=x * x)
        for f, lo, hi, nodes in [
            (GridFunction(axes=(x,), values=x * x + x), -3.0, 3.0, 31),  # odd values
            (GridFunction(axes=(np.linspace(-2.0, 2.0, 161),),  # unmirrored by rounding
                          values=np.linspace(-2.0, 2.0, 161) ** 2), -3.0, 3.0, 31),
            (even, -3.0, 2.0, 31),  # lo != -hi
            (even, -3.0, 3.0, 30),  # no centre node
        ]:
            conjugate(f, lo, hi, nodes)
        assert unfolds == []
        conjugate(even, -3.0, 3.0, 31)
        assert unfolds == [16]

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

    def test_scaled_axis_is_a_mismatch(self):
        # within allclose's rtol 1e-5, and at points that differ
        f = grid_fn(lambda x: x * x)
        g = GridFunction(axes=(f.axes[0] * (1.0 + 5e-6),), values=f.values)
        with pytest.raises(GridMismatch, match="shared grid"):
            uniform_distance(f, g, 2.0)


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


# even functions on mirrored axes: a half-graph of values in a band that the
# box of radius 2 cuts, +inf markers included, mirrored onto x < 0
_halves = st.lists(st.one_of(st.integers(-8, 8).map(lambda i: 0.25 * i),
                             st.floats(-3.0, 3.0), st.just(np.inf)),
                   min_size=1, max_size=25)


def _even_function(half, radius):
    half = np.array(half)
    x = mirrored_axis(radius, 2 * half.size - 1)
    return GridFunction(axes=(x,), values=np.concatenate([half[:0:-1], half]))


class TestFoldedAwDistance:
    @settings(max_examples=200, deadline=None)
    @given(half_f=_halves, half_g=_halves, radius_f=st.sampled_from([1.0, 2.0, 2.5]),
           radius_g=st.sampled_from([1.0, 2.0, 2.5]), same=st.booleans())
    def test_matches_the_dense_scan_of_the_full_graphs(self, half_f, half_g, radius_f,
                                                       radius_g, same):
        rho = 2.0
        assume(np.isfinite(half_f).any() and np.isfinite(half_g).any())
        f = _even_function(half_f, radius_f)
        g = f if same else _even_function(half_g, radius_g)
        a = _clipped_graph(*_refined(f.axes[0], f.values), rho)
        b = _clipped_graph(*_refined(g.axes[0], g.values), rho)
        assume(a[0].size and b[0].size)
        assert convex._even(f) and convex._even(g)
        assert aw_distance(f, g, rho) == max(dense_epi_distance(*a, *b),
                                             dense_epi_distance(*b, *a))

    def test_only_two_even_functions_fold(self, monkeypatch):
        queries = []

        def counted(xa, ta, xb, tb):
            queries.append((xa.size, xb.size))
            return _directed_epi_distance(xa, ta, xb, tb)

        monkeypatch.setattr(convex, "_directed_epi_distance", counted)
        x = mirrored_axis(2.0, 21)  # 41 refined points, 21 of them at x >= 0
        even = GridFunction(axes=(x,), values=x * x)
        odd = GridFunction(axes=(x,), values=x * x + 0.1 * x)
        unmirrored = grid_fn(lambda t: t * t, lo=-2.0, hi=2.0, nodes=161)
        aw_distance(even, even, 10.0)
        assert queries == [(21, 41), (21, 41)]
        queries.clear()
        aw_distance(even, odd, 10.0)
        aw_distance(unmirrored, unmirrored, 10.0)
        assert queries == [(41, 41), (41, 41), (321, 321), (321, 321)]


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
        # the floats of the n_a x n_b scan (dense_epi_distance) over the full
        # refined graphs of Gamma_0 = W_0*, W_0 evaluated on every dual node
        # and conjugated by a full broadcast scan; the folds and the
        # sparse-table route must keep them bit for bit
        assert self.benchmark_seed_zero().aw == [
            0.4450000000000003, 0.17499999999999982, 0.07500000000000018,
            0.03500000000000014, 0.015000000000000124, 0.010000000000000231,
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

    @pytest.mark.parametrize("members", [6, 1])
    def test_one_w_call_and_two_kernel_calls(self, monkeypatch, members):
        # the limit and every member in one batched W: one kernel call for the
        # zero sources and one for every (member, source) lane
        calls = []

        def counted(name, original):
            def wrapper(*args, **kwargs):
                calls.append(name)
                return original(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(fn, "W", counted("W", fn.W))
        monkeypatch.setattr(fn, "tilted_moments", counted("kernel", fn.tilted_moments))
        limit, *models = self.specs([1.0] + [1.0 - 2.0 ** (-n) for n in range(1, members + 1)])
        convergence_suite(models, limit, make_regulator("litim"))
        assert calls == ["W", "kernel", "kernel"]

    def test_a_member_of_another_interaction_is_refused(self, monkeypatch):
        # the sequence regularises one theory: the member at another c4, third
        # in the sequence, is named and refused before any quadrature
        def no_kernel(*args, **kwargs):
            raise AssertionError("the kernel was called")

        monkeypatch.setattr(fn, "tilted_moments", no_kernel)
        (limit,) = self.specs([1.0])
        models = self.specs([0.5, 0.75]) + self.specs([0.875], c4=0.2)
        with pytest.raises(SpecValidationError, match="member 3 has another interaction"):
            convergence_suite(models, limit, make_regulator("litim"))

    def test_w_grid_is_w_on_the_dual_axis(self, phi4_spec, litim, monkeypatch):
        calls = []
        original = fn.W

        def counted(ctx_, k, t_vec):
            calls.append(np.asarray(t_vec).shape)
            return original(ctx_, k, t_vec)

        for c3, t_axis, lanes in [
            (0.0, mirrored_axis(3.0, 13), 7),  # even: the sources t >= 0, mirrored
            (0.0, np.linspace(-3.0, 3.1, 13), 13),  # an unmirrored axis
            (0.02, mirrored_axis(3.0, 13), 13),  # an odd theory
        ]:
            # three windows of one interaction
            ctxs = [FunctionalContext(
                spec=dataclasses.replace(phi4_spec, c3=c3, allow_unbounded=c3 != 0,
                                         window=WindowParams(kind="scalar", r=r)),
                regulator=litim, self_check=False) for r in (1.0, 0.75, 0.5)]
            expected = [[original(ctx, 0.0, [t]) for t in t_axis] for ctx in ctxs]
            calls.clear()
            with monkeypatch.context() as m:
                m.setattr(fn, "W", counted)
                grids = _w_grid(ctxs, t_axis)
            # one batched W call for every context: the one formula for W lives in W
            assert calls == [(lanes, 1)], c3
            assert len(grids) == len(ctxs)
            for grid, want in zip(grids, expected):
                assert np.abs(grid.values - want).max() <= 1e-13
