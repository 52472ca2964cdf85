import json

import numpy as np
import pytest

from frgelab.errors import SingularWindow, SpecValidationError
from frgelab.model import (
    ModelSpec,
    WindowParams,
    build_free_operator,
    build_regularization,
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

    def test_interaction_batch_matches_scalar(self, line_spec, rng):
        psi = rng.standard_normal((7, line_spec.modes))
        batch = line_spec.interaction_batch(psi)
        single = np.array([line_spec.interaction(row) for row in psi])
        assert np.allclose(batch, single, atol=1e-12)


class TestOperators:
    def test_free_operator_diagonal(self, line_spec):
        free = build_free_operator(line_spec)
        assert np.allclose(free.diagonal, [2.0, 1.0, 2.0])

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
            build_regularization(spec)

    def test_condition_number_reported(self, line_spec):
        reg = build_regularization(line_spec)
        assert reg.condition_number == pytest.approx(1.0)


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
