import json

import numpy as np
import pytest

from frgelab.errors import SingularWindow, SpecValidationError
from frgelab.model import (
    ModelSpec,
    WindowParams,
    classical_asymptote,
    covariance,
    spec_from_dict,
)


def make_spec(**kw):
    base = dict(
        dimension=0, modes=1, mass=1.0,
        window=WindowParams(kind="scalar", r=1.0),
    )
    base.update(kw)
    return ModelSpec(**base)


class TestValidation:
    D1 = {"dimension": 1, "modes": 3, "momentum_spacing": 1.0,
          "window": WindowParams(kind="identity")}

    def test_dimension_rejected(self):
        with pytest.raises(SpecValidationError):
            make_spec(dimension=2, modes=3, momentum_spacing=1.0,
                      window=WindowParams(kind="identity"))

    def test_even_mode_count_rejected_in_d1(self):
        with pytest.raises(SpecValidationError):
            make_spec(dimension=1, modes=4, momentum_spacing=1.0,
                      window=WindowParams(kind="identity"))

    def test_negative_quartic_rejected(self):
        with pytest.raises(SpecValidationError):
            make_spec(c4=-0.1)

    def test_cubic_requires_acknowledgment(self):
        with pytest.raises(SpecValidationError):
            make_spec(c3=0.2)
        make_spec(c3=0.2, allow_unbounded=True)

    def test_scalar_window_range(self):
        with pytest.raises(SpecValidationError):
            make_spec(window=WindowParams(kind="scalar", r=1.5))
        with pytest.raises(SpecValidationError):
            make_spec(window=WindowParams(kind="scalar", r=0.0))

    def test_nonpositive_mass_rejected(self):
        with pytest.raises(SpecValidationError):
            make_spec(mass=0.0)

    @pytest.mark.parametrize("grid", [dict(phi_nodes=-3), dict(phi_max=np.inf),
                                      dict(phi_max=np.nan)])
    def test_field_grid_range(self, grid):
        with pytest.raises(SpecValidationError):
            make_spec(**grid)


    @pytest.mark.parametrize("change, message", [
        ({"modes": 0}, "mode count must be >= 1"),
        ({"modes": 3}, "exactly one mode"),
        ({**D1, "momentum_spacing": None}, "momentum_spacing"),
        ({**D1, "momentum_spacing": np.inf}, "momentum_spacing"),
        ({"c2": np.nan}, "c2 is not finite"),
        ({**D1, "window": WindowParams(kind="scalar", r=0.5)}, "only defined for d=0"),
        ({**D1, "window": WindowParams(kind="gaussian", K=1.0, Lambda=1.0)},
         "requires K, Lambda and n"),
        ({**D1, "window": WindowParams(kind="gaussian", K=1.0, Lambda=0.0, n=1)},
         "K, Lambda > 0"),
        ({"window": WindowParams(kind="triangle")}, "unknown window kind 'triangle'"),
    ], ids=["no-modes", "d0-modes", "no-spacing", "infinite-spacing", "c2-nan",
            "scalar-window-d1", "gaussian-incomplete", "gaussian-zero-lambda",
            "unknown-window"])
    def test_bad_spec_rejected(self, change, message):
        with pytest.raises(SpecValidationError, match=message):
            make_spec(**change)


class TestJsonIngestion:
    DOC = {
        "dimension": 0, "modes": 1, "mass": 1.0,
        "window": {"r": 0.5}, "interaction": {"c4": 0.1},
    }

    def test_roundtrip(self):
        spec = spec_from_dict(self.DOC)
        assert spec.window.r == 0.5
        assert spec.c4 == 0.1

    def test_unknown_key_rejected_with_name(self):
        doc = dict(self.DOC, beta=2)
        with pytest.raises(SpecValidationError, match="beta"):
            spec_from_dict(doc)

    def test_unknown_interaction_key_rejected(self):
        doc = dict(self.DOC, interaction={"c5": 1.0})
        with pytest.raises(SpecValidationError, match="c5"):
            spec_from_dict(doc)

    def test_missing_required_key(self):
        doc = {k: v for k, v in self.DOC.items() if k != "mass"}
        with pytest.raises(SpecValidationError, match="mass"):
            spec_from_dict(doc)

    def test_identity_window_string(self):
        doc = dict(self.DOC, dimension=1, modes=3, momentum_spacing=1.0,
                   window="identity")
        assert spec_from_dict(doc).window.kind == "identity"

    def test_gaussian_window_object(self):
        doc = dict(self.DOC, dimension=1, modes=3, momentum_spacing=1.0,
                   window={"K": 2.0, "Lambda": 3.0, "n": 2})
        spec = spec_from_dict(doc)
        assert spec.window.kind == "gaussian"
        assert spec.window.n == 2

    @pytest.mark.parametrize("change", [
        {"modes": 1.9},
        {"modes": True},
        {"dimension": 0.0},
        {"mass": "1.5"},
        {"mass": True},
        {"interaction": {"c4": "0.1"}},
        {"window": {"r": False}},
        {"field_grid": {"nodes": 301.7}},
        {"field_grid": {"phi_max": "3"}},
        {"dimension": 1, "modes": 3, "momentum_spacing": 1.0,
         "window": {"K": 2.0, "Lambda": 3.0, "n": 1.5}},
        {"allow_unbounded": "no", "interaction": {"c3": 0.2, "c4": 0.1}},
        {"allow_unbounded": 1},
    ], ids=["modes-fraction", "modes-bool", "dimension-float", "mass-string",
            "mass-bool", "c4-string", "r-bool", "nodes-fraction",
            "phi_max-string", "n-fraction", "allow_unbounded-string",
            "allow_unbounded-int"])
    def test_malformed_value_is_rejected_not_coerced(self, change):
        with pytest.raises(SpecValidationError, match="is not"):
            spec_from_dict(dict(self.DOC, **change))

    @pytest.mark.parametrize("doc, message", [
        ([DOC], "must be a JSON object"),
        (dict(DOC, interaction=[0.1]), "interaction must be an object"),
        (dict(DOC, window={"r": 0.5, "K": 1.0}), "window must be 'identity', {K"),
        (dict(DOC, window=0.5), "window must be 'identity' or an object"),
        (dict(DOC, field_grid=[3.0]), "field_grid must be an object"),
        (dict(DOC, field_grid={"spacing": 0.1}), r"unknown field_grid keys: \['spacing'\]"),
    ], ids=["not-object", "interaction-list", "window-keys", "window-number",
            "field_grid-list", "field_grid-key"])
    def test_malformed_document_is_rejected(self, doc, message):
        with pytest.raises(SpecValidationError, match=message):
            spec_from_dict(doc)

    def test_json_integers_are_numbers(self):
        spec = spec_from_dict(dict(self.DOC, mass=2, window={"r": 1},
                                   interaction={"c3": 0, "c4": 1},
                                   allow_unbounded=False))
        assert (spec.mass, spec.window.r, spec.c4) == (2.0, 1.0, 1.0)
        assert all(type(v) is float for v in (spec.mass, spec.window.r, spec.c4))

    def test_from_json_file(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(self.DOC))
        from frgelab.model import spec_from_json

        assert spec_from_json(path).mass == 1.0


class TestGrids:
    def test_momentum_grid_symmetric(self, line_spec):
        assert np.allclose(line_spec.momenta, [-1.0, 0.0, 1.0])

    def test_position_momentum_duality(self, line_spec):
        assert line_spec.position_spacing * line_spec.momentum_spacing \
            == pytest.approx(2 * np.pi / line_spec.modes)

    def test_hartley_matrix_orthogonal(self, line_spec):
        h = line_spec.hartley_matrix()
        assert np.allclose(h @ h.T, np.eye(line_spec.modes), atol=1e-12)
        assert np.allclose(h, h.T, atol=1e-12)

    def test_field_grid_contains_origin(self, phi4_spec):
        grid = phi4_spec.field_grid
        assert grid[grid.size // 2] == 0.0

    @pytest.mark.parametrize("phi_max", [0.1, 2.0, 3.0, 4.5, 123.456])
    @pytest.mark.parametrize("nodes", [5, 41, 101, 201, 301, 1201])
    def test_field_grid_is_exactly_symmetric(self, phi_max, nodes):
        # the nodes phi >= 0 of linspace(0, phi_max) and their mirror images:
        # grid == -grid[::-1] bit for bit and the centre is 0.0.  On these
        # grids linspace(-phi_max, phi_max) is up to 3e-16 phi_max off
        # symmetric (1.3e-15 at 4.5 and 1 201 nodes) and its centre up to
        # 1.4e-16 phi_max off 0
        grid = make_spec(phi_max=phi_max, phi_nodes=nodes).field_grid
        centre = nodes // 2
        assert grid.size == nodes
        assert np.array_equal(grid, -grid[::-1])
        assert grid[centre] == 0.0 and grid[0] == -phi_max and grid[-1] == phi_max
        assert np.all(np.diff(grid) > 0)
        # flow.csv's %.12g phi cells are linspace's, but for a centre that now
        # reads 0 wherever linspace's was off it
        cells = [f"{phi:.12g}" for phi in grid.tolist()]
        old = [f"{phi:.12g}" for phi in np.linspace(-phi_max, phi_max, nodes).tolist()]
        assert cells[:centre] + cells[centre + 1:] == old[:centre] + old[centre + 1:]
        assert cells[centre] == "0"

    def test_interaction_batch_matches_scalar(self, line_spec, rng):
        psi = rng.standard_normal((7, line_spec.modes))
        batch = line_spec.interaction_batch(psi)
        single = np.array([line_spec.interaction(row) for row in psi])
        assert np.allclose(batch, single, atol=1e-12)

    @pytest.mark.parametrize("coefficients", [
        (0.0, 0.0, 0.1), (0.3, 0.0, 0.1), (0.0, 0.2, 0.1), (0.3, -0.2, 0.1),
        (0.3, 0.0, 0.0), (0.0, 0.0, 0.0),
    ])
    @pytest.mark.parametrize("dimension", [0, 1])
    def test_interaction_is_the_full_polynomial_bit_for_bit(
        self, dimension, coefficients, rng
    ):
        c2, c3, c4 = coefficients
        geometry = (dict(modes=1, window=WindowParams(kind="scalar", r=1.0))
                    if dimension == 0 else
                    dict(modes=5, momentum_spacing=0.5,
                         window=WindowParams(kind="identity")))
        spec = ModelSpec(dimension=dimension, mass=1.0, c2=c2, c3=c3, c4=c4,
                         allow_unbounded=True, **geometry)
        psi = rng.normal(0.0, 3.0, (128, spec.modes))

        def full(v):  # every term, powers as products
            v2 = v * v
            return c2 * v2 + c3 * (v2 * v) + c4 * (v2 * v2)

        def reference(rows):  # the position-space sum, as the batch forms it
            if dimension == 0:
                return full(rows[..., 0])
            v = rows @ (spec.hartley_matrix() / np.sqrt(spec.position_spacing)).T
            return full(v) @ spec.position_weights

        assert spec.interaction_batch(psi).tobytes() == reference(psi).tobytes()
        for row in psi[:8]:
            assert spec.interaction(row) == float(reference(row[None])[0])


    @pytest.mark.parametrize("dimension", [0, 1])
    def test_interaction_jet_differentiates_the_batch(self, dimension, rng):
        c2, c3, c4 = 0.3, -0.2, 0.1
        geometry = (dict(modes=1, window=WindowParams(kind="scalar", r=1.0))
                    if dimension == 0 else
                    dict(modes=5, momentum_spacing=0.5,
                         window=WindowParams(kind="identity")))
        spec = ModelSpec(dimension=dimension, mass=1.0, c2=c2, c3=c3, c4=c4,
                         allow_unbounded=True, **geometry)
        h, w = spec.position_map
        psi = rng.normal(0.0, 1.5, (4, spec.modes))
        jet, size = spec.interaction_jet(psi, [1, 2, 3])

        def tensor(d, *fixed):  # sum_l d_l h_l (x) h_l (x) ..., the axes in fixed taken
            return (d * np.prod([h[a] for a in fixed], axis=0)) @ h.T

        def jet_of(p, order):
            return spec.interaction_jet(p, [order])[0][..., 0]

        # each order is the central difference of the one below it
        step = 1e-5 * np.eye(spec.modes)
        for a in range(spec.modes):
            def diff(f):
                return (f(psi + step[a]) - f(psi - step[a])) / 2e-5

            assert np.allclose(diff(spec.interaction_batch), tensor(jet[..., 0])[:, a],
                               rtol=1e-8, atol=1e-8)
            assert np.allclose(diff(lambda p: tensor(jet_of(p, 1))), tensor(jet[..., 1], a),
                               rtol=1e-7, atol=1e-7)
            for b in range(spec.modes):
                assert np.allclose(diff(lambda p: tensor(jet_of(p, 2), b)),
                                   tensor(jet[..., 2], a, b), rtol=1e-7, atol=1e-7)
        v = psi @ h
        assert np.allclose(size, (abs(c2) * v**2 + abs(c3 * v**3) + c4 * v**4) @ w,
                           rtol=1e-15, atol=0)


class TestOperators:
    def test_scalar_window_covariance(self):
        # C = r^2 / m^2 for the d=0 scalar window
        spec = make_spec(window=WindowParams(kind="scalar", r=0.5), mass=2.0)
        assert covariance(spec)[0, 0] == pytest.approx(0.0625)

    def test_identity_window_covariance_diagonal(self, line_spec):
        c = covariance(line_spec)
        assert np.allclose(c, np.diag([0.5, 1.0, 0.5]), atol=1e-12)

    def test_gaussian_window_spd(self):
        spec = ModelSpec(
            dimension=1, modes=5, mass=1.0, momentum_spacing=0.8,
            window=WindowParams(kind="gaussian", K=3.0, Lambda=2.0, n=2),
        )
        c = covariance(spec)
        assert np.all(np.linalg.eigvalsh(c) > 0)

    def test_singular_window_raises(self):
        spec = ModelSpec(
            dimension=1, modes=9, mass=1.0, momentum_spacing=1.0,
            window=WindowParams(kind="gaussian", K=3.0, Lambda=0.05, n=1),
        )
        with pytest.raises(SingularWindow):
            covariance(spec)


class TestClassicalAsymptote:
    def test_carries_inverse_covariance(self):
        # r = 0.5, m = 1: the quadratic coefficient is C^-1/2 = 2, not m^2/2
        spec = make_spec(window=WindowParams(kind="scalar", r=0.5), c4=0.1)
        phi = np.array([1.5])
        expected = 2.0 * 1.5**2 + 0.1 * 1.5**4
        assert classical_asymptote(spec, phi) == pytest.approx(expected)

    def test_vanishes_at_origin(self, phi4_spec):
        assert classical_asymptote(phi4_spec, np.zeros(1)) == 0.0

    def test_batch_matches_single_fields(self, line_spec):
        spec = make_spec(mass=1.3, window=WindowParams(kind="scalar", r=0.7), c4=0.1)
        grid = np.linspace(-4.5, 4.5, 1201)
        batch = classical_asymptote(spec, grid[:, None])
        single = [classical_asymptote(spec, np.array([p])) for p in grid]
        assert isinstance(single[0], float)
        assert np.array_equal(batch, single)  # d = 0: same arithmetic per node
        fields = np.random.default_rng(3).uniform(-1, 1, size=(4, 2, 3))
        batch = classical_asymptote(line_spec, fields)
        assert batch.shape == (4, 2)
        c = covariance(line_spec)
        ref = [[0.5 * f @ np.linalg.solve(c, f) + line_spec.interaction(f)
                - line_spec.interaction(np.zeros(3)) for f in row] for row in fields]
        assert np.allclose(batch, ref, rtol=1e-12, atol=0)
