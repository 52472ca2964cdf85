"""Finite-mode truncations of a regularized scalar theory.

A model is declared by a :class:`ModelSpec` and turned into concrete
finite-dimensional objects: the diagonal free operator, the window
(regularization) operator in the mode basis and the covariance of the
regularized Gaussian measure.  Fields are represented by their real
coefficients on a symmetric momentum grid; the discrete Hartley transform
provides the unitary change of basis to position values.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

from .errors import NotSPD, SingularWindow, SpecValidationError

_TOP_LEVEL_KEYS = {
    "dimension",
    "modes",
    "mass",
    "momentum_spacing",
    "interaction",
    "window",
    "field_grid",
    "allow_unbounded",
}
_INTERACTION_KEYS = {"c2", "c3", "c4"}
_FIELD_GRID_KEYS = {"phi_max", "nodes"}

DEFAULT_CONDITION_BOUND = 1e8


@dataclass(frozen=True)
class WindowParams:
    """Regularization window: identity, a d=0 scalar, or a Gaussian pair."""

    kind: str  # "identity" | "scalar" | "gaussian"
    r: float | None = None
    K: float | None = None
    Lambda: float | None = None
    n: int | None = None


@dataclass(frozen=True)
class ModelSpec:
    dimension: int
    modes: int
    mass: float
    window: WindowParams
    c2: float = 0.0
    c3: float = 0.0
    c4: float = 0.0
    momentum_spacing: float | None = None
    phi_max: float = 3.0
    phi_nodes: int = 201
    allow_unbounded: bool = False

    def __post_init__(self):
        validate_spec(self)

    # -- grids ---------------------------------------------------------

    @property
    def momenta(self) -> np.ndarray:
        if self.dimension == 0:
            return np.zeros(1)
        half = (self.modes - 1) // 2
        return self.momentum_spacing * np.arange(-half, half + 1, dtype=float)

    @property
    def position_spacing(self) -> float:
        return 2.0 * np.pi / (self.modes * self.momentum_spacing)

    @property
    def positions(self) -> np.ndarray:
        if self.dimension == 0:
            return np.zeros(1)
        half = (self.modes - 1) // 2
        return self.position_spacing * np.arange(-half, half + 1, dtype=float)

    @property
    def position_weights(self) -> np.ndarray:
        """Trapezoid quadrature weights on the position grid."""
        if self.dimension == 0:
            return np.ones(1)
        w = np.full(self.modes, self.position_spacing)
        w[0] *= 0.5
        w[-1] *= 0.5
        return w

    @property
    def momentum_weights(self) -> np.ndarray:
        """Quadrature weights folding the momentum integral into mode sums."""
        if self.dimension == 0:
            return np.ones(1)
        return np.full(self.modes, self.momentum_spacing)

    @property
    def field_grid(self) -> np.ndarray:
        return np.linspace(-self.phi_max, self.phi_max, self.phi_nodes)

    def hartley_matrix(self) -> np.ndarray:
        """Real orthogonal position<->momentum map on the symmetric grid."""
        if self.dimension == 0:
            return np.ones((1, 1))
        arg = np.outer(self.momenta, self.positions)
        return (np.cos(arg) + np.sin(arg)) / np.sqrt(self.modes)

    # -- interaction ---------------------------------------------------

    def position_values(self, psi: np.ndarray) -> np.ndarray:
        """Field values at the position nodes from mode coefficients."""
        if self.dimension == 0:
            return np.atleast_1d(psi)
        return self.hartley_matrix() @ psi / np.sqrt(self.position_spacing)

    def interaction(self, psi: np.ndarray) -> float:
        """S^int evaluated at the mode coefficients ``psi``."""
        v = self.position_values(np.asarray(psi, dtype=float))
        w = self.position_weights
        return float(np.sum(w * (self.c2 * v**2 + self.c3 * v**3 + self.c4 * v**4)))

    def interaction_batch(self, psi: np.ndarray) -> np.ndarray:
        """Vectorized S^int over an array of shape (..., M)."""
        psi = np.asarray(psi, dtype=float)
        if self.dimension == 0:
            v = psi[..., 0]
            return self.c2 * v**2 + self.c3 * v**3 + self.c4 * v**4
        h = self.hartley_matrix() / np.sqrt(self.position_spacing)
        v = psi @ h.T
        w = self.position_weights
        return np.sum(w * (self.c2 * v**2 + self.c3 * v**3 + self.c4 * v**4), axis=-1)


def validate_spec(spec: ModelSpec) -> None:
    if spec.dimension not in (0, 1):
        raise SpecValidationError(f"dimension must be 0 or 1, got {spec.dimension}")
    if spec.modes < 1:
        raise SpecValidationError("mode count must be >= 1")
    if spec.dimension == 0 and spec.modes != 1:
        raise SpecValidationError("d=0 requires exactly one mode")
    if spec.dimension == 1:
        if spec.modes % 2 == 0:
            raise SpecValidationError("d=1 requires an odd mode count (symmetric grid)")
        if spec.momentum_spacing is None or spec.momentum_spacing <= 0:
            raise SpecValidationError("d=1 requires a positive momentum_spacing")
    if not (spec.mass > 0 and np.isfinite(spec.mass)):
        raise SpecValidationError("mass must be positive and finite")
    for name in ("c2", "c3", "c4"):
        if not np.isfinite(getattr(spec, name)):
            raise SpecValidationError(f"interaction coefficient {name} is not finite")
    if spec.c4 < 0:
        raise SpecValidationError("c4 < 0 gives a non-integrable interaction")
    if spec.c3 != 0 and not spec.allow_unbounded:
        raise SpecValidationError(
            "odd c3 interactions require the allow_unbounded acknowledgment"
        )
    if spec.phi_nodes % 2 == 0:
        raise SpecValidationError("field grid node count must be odd (0 must be a node)")
    if spec.phi_max <= 0:
        raise SpecValidationError("phi_max must be positive")
    w = spec.window
    if w.kind == "identity":
        pass
    elif w.kind == "scalar":
        if spec.dimension != 0:
            raise SpecValidationError("scalar windows are only defined for d=0")
        if w.r is None or not (0 < w.r <= 1):
            raise SpecValidationError("scalar window requires r in (0, 1]")
    elif w.kind == "gaussian":
        if w.K is None or w.Lambda is None or w.n is None:
            raise SpecValidationError("gaussian window requires K, Lambda and n")
        if w.K <= 0 or w.Lambda <= 0 or w.n < 1:
            raise SpecValidationError("gaussian window requires K, Lambda > 0 and n >= 1")
    else:
        raise SpecValidationError(f"unknown window kind {w.kind!r}")


# -- JSON ingestion ----------------------------------------------------


def spec_from_dict(doc: dict) -> ModelSpec:
    """Build a :class:`ModelSpec` from a JSON document, rejecting unknown keys."""
    if not isinstance(doc, dict):
        raise SpecValidationError("model config must be a JSON object")
    unknown = set(doc) - _TOP_LEVEL_KEYS
    if unknown:
        raise SpecValidationError(f"unknown config keys: {sorted(unknown)}")
    for required in ("dimension", "modes", "mass", "window"):
        if required not in doc:
            raise SpecValidationError(f"missing config key: {required!r}")

    interaction = doc.get("interaction", {})
    if not isinstance(interaction, dict):
        raise SpecValidationError("interaction must be an object with keys c2, c3, c4")
    unknown = set(interaction) - _INTERACTION_KEYS
    if unknown:
        raise SpecValidationError(f"unknown interaction keys: {sorted(unknown)}")

    window = doc["window"]
    if window == "identity":
        wp = WindowParams(kind="identity")
    elif isinstance(window, dict):
        if set(window) == {"r"}:
            wp = WindowParams(kind="scalar", r=float(window["r"]))
        elif set(window) == {"K", "Lambda", "n"}:
            wp = WindowParams(
                kind="gaussian",
                K=float(window["K"]),
                Lambda=float(window["Lambda"]),
                n=int(window["n"]),
            )
        else:
            raise SpecValidationError(
                "window must be 'identity', {K, Lambda, n} or {r}"
            )
    else:
        raise SpecValidationError("window must be 'identity' or an object")

    fg = doc.get("field_grid", {})
    if not isinstance(fg, dict):
        raise SpecValidationError("field_grid must be an object")
    unknown = set(fg) - _FIELD_GRID_KEYS
    if unknown:
        raise SpecValidationError(f"unknown field_grid keys: {sorted(unknown)}")

    return ModelSpec(
        dimension=int(doc["dimension"]),
        modes=int(doc["modes"]),
        mass=float(doc["mass"]),
        momentum_spacing=(
            float(doc["momentum_spacing"]) if "momentum_spacing" in doc else None
        ),
        c2=float(interaction.get("c2", 0.0)),
        c3=float(interaction.get("c3", 0.0)),
        c4=float(interaction.get("c4", 0.0)),
        window=wp,
        phi_max=float(fg.get("phi_max", 3.0)),
        phi_nodes=int(fg.get("nodes", 201)),
        allow_unbounded=bool(doc.get("allow_unbounded", False)),
    )


def spec_from_json(path) -> ModelSpec:
    with open(path) as fh:
        return spec_from_dict(json.load(fh))


# -- operators ---------------------------------------------------------


@dataclass(frozen=True)
class FreeOperator:
    """Diagonal free operator b_j = m^2 + p_j^2."""

    diagonal: np.ndarray


@dataclass(frozen=True)
class RegularizationOperator:
    """Window operator in the mode basis, with its condition number."""

    matrix: np.ndarray
    condition_number: float


def build_free_operator(spec: ModelSpec) -> FreeOperator:
    b = spec.mass**2 + spec.momenta**2
    return FreeOperator(diagonal=b)


def build_regularization(
    spec: ModelSpec, condition_bound: float = DEFAULT_CONDITION_BOUND
) -> RegularizationOperator:
    w = spec.window
    if w.kind == "identity":
        r_mat = np.eye(spec.modes)
    elif w.kind == "scalar":
        r_mat = np.array([[w.r]])
    else:
        nl = w.n * w.Lambda
        xi = np.exp(-spec.momenta**2 / (2.0 * nl**2))
        chi = np.exp(-spec.positions**2 / (2.0 * (w.n * w.K) ** 2))
        h = spec.hartley_matrix()
        x_mat = h @ np.diag(chi) @ h
        r_mat = x_mat @ np.diag(xi)
    cond = float(np.linalg.cond(r_mat))
    if not np.isfinite(cond) or cond > condition_bound:
        raise SingularWindow(
            f"window operator condition number {cond:.3e} exceeds {condition_bound:.1e}"
        )
    return RegularizationOperator(matrix=r_mat, condition_number=cond)


def covariance(spec: ModelSpec) -> np.ndarray:
    """Covariance C = R B^{-1} R^T of the regularized Gaussian measure."""
    free = build_free_operator(spec)
    reg = build_regularization(spec)
    c = reg.matrix @ np.diag(1.0 / free.diagonal) @ reg.matrix.T
    c = 0.5 * (c + c.T)
    try:
        sla.cholesky(c, lower=True)
    except sla.LinAlgError as exc:
        raise NotSPD("covariance factorization failed") from exc
    return c


def classical_asymptote(spec: ModelSpec, phi: np.ndarray) -> float | np.ndarray:
    """Large-scale limit of the subtracted effective action at ``phi``.

    The quadratic term carries the inverse covariance of the regularized
    measure, not the bare free operator.  ``phi`` is one field of shape (M,)
    (a float is returned) or a batch of shape (..., M) (an array of shape
    (...) is returned); the covariance is factorized once per call.
    """
    phi = np.atleast_1d(np.asarray(phi, dtype=float))
    c = covariance(spec)
    # one right-hand side per solve, as for a single field, so batched and
    # single-field values agree bit for bit (a multi-column solve rounds
    # differently)
    quad = 0.5 * np.sum(phi * np.linalg.solve(c, phi[..., None])[..., 0], axis=-1)
    out = (
        quad
        + spec.interaction_batch(phi)
        - spec.interaction_batch(np.zeros(phi.shape[-1]))
    )
    return float(out) if phi.ndim == 1 else out
