import numpy as np
import pytest

from frgelab.functionals import FunctionalContext, gamma_gradient
from frgelab.model import ModelSpec, WindowParams
from frgelab.regulator import make_regulator


def _richardson_hessian(ctx, k, phi):
    """D^2 gamma by Richardson-extrapolated central differences of
    ``gamma_gradient``: 4M Newton solves, independent of the duality form
    ``gamma_hessian`` takes.

    Each gradient is exact only to the Newton tolerance in the mean field,
    which the differences divide by the step; a step of 1e-3 keeps that below
    1e-6 of the curvature, and Richardson leaves an error of order step^4.
    """
    phi = np.atleast_1d(np.asarray(phi, dtype=float))
    m = phi.size
    h = 1e-3 * (1.0 + float(np.linalg.norm(phi)))
    out = np.empty((m, m))
    for a in range(m):
        e = np.zeros(m)
        e[a] = 1.0

        def central(hh):
            gp = gamma_gradient(ctx, k, phi + hh * e)
            gm = gamma_gradient(ctx, k, phi - hh * e)
            return (gp - gm) / (2.0 * hh)

        out[:, a] = (4.0 * central(h / 2.0) - central(h)) / 3.0
    return 0.5 * (out + out.T)


@pytest.fixture(scope="session")
def fd_hessian():
    """The finite-difference reference Hessian, (ctx, k, phi) -> (M, M)."""
    return _richardson_hessian


@pytest.fixture(scope="session")
def litim():
    return make_regulator("litim")


@pytest.fixture(scope="session")
def exponential():
    return make_regulator("exponential")


@pytest.fixture(scope="session")
def phi4_spec():
    """Single-mode anharmonic benchmark: unit mass, full window, c4 = 0.1."""
    return ModelSpec(
        dimension=0, modes=1, mass=1.0,
        window=WindowParams(kind="scalar", r=1.0), c4=0.1,
    )


@pytest.fixture(scope="session")
def phi4_ctx(phi4_spec, litim):
    return FunctionalContext(spec=phi4_spec, regulator=litim)


@pytest.fixture(scope="session")
def free_spec():
    return ModelSpec(
        dimension=0, modes=1, mass=1.0,
        window=WindowParams(kind="scalar", r=0.7), c4=0.0,
    )


@pytest.fixture(scope="session")
def line_spec():
    """Three-mode d=1 theory with an identity window."""
    return ModelSpec(
        dimension=1, modes=3, mass=1.0, momentum_spacing=1.0,
        window=WindowParams(kind="identity"), c4=0.05,
    )


@pytest.fixture
def rng():
    return np.random.default_rng(987654321)
