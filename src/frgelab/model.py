"""Finite-mode truncations of a regularized scalar theory.

A model is declared by a :class:`ModelSpec` and turned into the covariance
of the regularized Gaussian measure, built from the diagonal free operator
and the window (regularization) operator in the mode basis.  Fields are
represented by their real coefficients on a symmetric momentum grid; the
discrete Hartley transform provides the unitary change of basis to
position values.
"""

from __future__ import annotations

import contextlib
import json
import math
import numbers
from dataclasses import dataclass
from functools import cached_property

import numpy as np

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


def mirrored_axis(radius: float, nodes: int) -> np.ndarray:
    """The uniform axis of ``nodes`` (odd) points on [-radius, radius]: the
    points x >= 0 of linspace(0, radius) and their mirror images, so that
    axis == -axis[::-1] bit for bit and the centre point is 0.0.

    linspace(-radius, radius) itself misses the mirror by rounding (by
    6.7e-16 at radius 3 and 161 points), so even functions sampled on it
    could not be folded onto x >= 0 exactly.
    """
    return unfold(np.linspace(0.0, radius, nodes // 2 + 1), odd=True)


def is_mirrored(axis: np.ndarray) -> bool:
    """Whether an axis is odd and axis == -axis[::-1] bit for bit (centre 0)."""
    return axis.size % 2 == 1 and np.array_equal(axis, -axis[::-1])


def is_even(axis: np.ndarray, values: np.ndarray) -> bool:
    """Whether values on a mirrored axis read the same reversed, bit for bit."""
    return is_mirrored(axis) and np.array_equal(values, values[::-1])


def unfold(half: np.ndarray, odd: bool = False) -> np.ndarray:
    """An even (or odd) function on a mirrored axis from its values at x >= 0,
    along the last axis."""
    return np.concatenate([-half[..., :0:-1] if odd else half[..., :0:-1], half], axis=-1)


@dataclass(frozen=True)
class WindowParams:
    """Regularization window: identity, a d=0 scalar, or a Gaussian pair."""

    kind: str  # "identity" | "scalar" | "gaussian"
    r: float | None = None
    K: float | None = None
    Lambda: float | None = None
    n: int | None = None

    def __str__(self) -> str:
        """The kind and the parameters it sets, e.g. ``scalar r=0.75``."""
        return " ".join([self.kind] + [f"{name}={value}" for name, value in (
            ("r", self.r), ("K", self.K), ("Lambda", self.Lambda), ("n", self.n))
            if value is not None])


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
        """The uniform grid of ``phi_nodes`` nodes on [-phi_max, phi_max],
        built by :func:`mirrored_axis`."""
        return mirrored_axis(self.phi_max, self.phi_nodes)

    def hartley_matrix(self) -> np.ndarray:
        """Real orthogonal position<->momentum map on the symmetric grid."""
        if self.dimension == 0:
            return np.ones((1, 1))
        arg = np.outer(self.momenta, self.positions)
        return (np.cos(arg) + np.sin(arg)) / np.sqrt(self.modes)

    # -- interaction ---------------------------------------------------

    def _polynomial(self, v: np.ndarray) -> np.ndarray:
        """c2 v^2 + c3 v^3 + c4 v^4, summed in that order.

        The powers are products (v^2 = v v, v^3 = v^2 v, v^4 = v^2 v^2), not
        calls of libm's ``pow``.  Only the terms with a nonzero coefficient
        are computed: where the powers of v are finite a dropped term is a
        zero, and adding it to a nonzero partial sum changes no bit.  A term
        is scaled, and the sum formed, in place in a term's own array, and
        v^4, the last power, over v^2: the same products and sums, with two
        arrays of v's size fewer alive, which keeps the kernel's widest
        temporaries few.
        """
        v2 = v * v
        terms = []
        if self.c2 != 0:
            terms.append(self.c2 * v2)
        if self.c3 != 0:
            v3 = v2 * v
            v3 *= self.c3
            terms.append(v3)
        if self.c4 != 0:
            v2 *= v2  # v^2 has no later use
            v2 *= self.c4
            terms.append(v2)
        if not terms:
            return np.zeros_like(v)
        out = terms[0]
        for term in terms[1:]:
            out += term
        return out

    @property
    def interaction_key(self) -> tuple:
        """What S^int reads of the spec: the dimension, the mode count, c2, c3
        and c4 and, in d = 1, the momentum spacing that sets the position
        grid.  Specs with equal keys have the same interaction."""
        return (self.dimension, self.modes, self.c2, self.c3, self.c4,
                self.momentum_spacing if self.dimension else None)

    def interaction(self, psi: np.ndarray) -> float:
        """S^int evaluated at the mode coefficients ``psi``: one row of
        ``interaction_batch``."""
        return float(self.interaction_batch(np.reshape(psi, (1, -1)))[0])

    @cached_property
    def position_map(self) -> tuple[np.ndarray, np.ndarray]:
        """The map h of mode coefficients to position values, H^T / sqrt(dx),
        and the position weights w; read-only, built on first use.  In d = 0
        the one mode is the one value: h = w = 1."""
        if self.dimension == 0:
            h, w = np.ones((1, 1)), np.ones(1)
        else:
            h = (self.hartley_matrix() / np.sqrt(self.position_spacing)).T
            w = self.position_weights
        h.setflags(write=False)
        w.setflags(write=False)
        return h, w

    def interaction_batch(self, psi: np.ndarray) -> np.ndarray:
        """Vectorized S^int over an array of shape (..., M).

        In d = 1 the position sum is a product with the weights: a sum over
        the short last axis costs more than the polynomial.
        """
        psi = np.asarray(psi, dtype=float)
        if self.dimension == 0:
            return self._polynomial(psi[..., 0])
        h, w = self.position_map
        return self._polynomial(psi @ h) @ w

    @cached_property
    def _derivative_table(self) -> np.ndarray:
        """D[j, n], the coefficient of v^j in the n-th derivative of
        c2 v^2 + c3 v^3 + c4 v^4 (n = 0 ... 4); read-only."""
        table = np.zeros((5, 5))
        for power, c in ((2, self.c2), (3, self.c3), (4, self.c4)):
            for n in range(power + 1):
                table[power - n, n] = c * math.perm(power, n)
        table.setflags(write=False)
        return table

    def interaction_jet(self, psi: np.ndarray, orders) -> tuple[np.ndarray, np.ndarray]:
        """Derivatives of S^int at an array psi (..., M), as position sums.

        Returns w_l p^(n)(v_l) at the position values v = psi h, one column
        per order n in ``orders`` (shape (..., L, len(orders))), p being
        c2 v^2 + c3 v^3 + c4 v^4, and sum_l w_l (|c2 v_l^2| + |c3 v_l^3| +
        |c4 v_l^4|) (shape (...)), the size of the terms S^int adds, which
        sets its rounding.  The n-th derivative of S^int at psi is the sum
        over l of the l-th weight times the n-fold outer product of h's
        column l: with d = w p^(n), the gradient is d @ h.T and the Hessian
        (h * d[..., None, :]) @ h.T.
        """
        h, w = self.position_map
        table = self._derivative_table
        powers = (psi @ h)[..., None] ** np.arange(5.0)
        return (powers @ table[:, orders]) * w[:, None], np.abs(powers) @ np.abs(table[:, 0]) @ w


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
        if spec.momentum_spacing is None or not 0 < spec.momentum_spacing < np.inf:
            raise SpecValidationError("d=1 requires a positive finite momentum_spacing")
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
    if spec.phi_nodes < 1 or spec.phi_nodes % 2 == 0:
        raise SpecValidationError(
            "field grid node count must be positive and odd (0 must be a node)")
    if not 0 < spec.phi_max < np.inf:
        raise SpecValidationError("phi_max must be positive and finite")
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


def _number(section: dict, key: str, kind, default=None):
    """``section[key]`` (``default`` if absent) as ``kind``: an int key takes
    JSON integers only, a float key any JSON number.  Anything else, a bool
    or a string included, raises :class:`SpecValidationError`; nothing is
    coerced."""
    value = section.get(key, default)
    accepted = numbers.Integral if kind is int else numbers.Real
    if isinstance(value, accepted) and not isinstance(value, bool):
        with contextlib.suppress(OverflowError):  # an integer beyond any float
            return kind(value)
    what = "an integer" if kind is int else "a number"
    raise SpecValidationError(f"config value {key!r} is not {what}: {value!r}")


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
            wp = WindowParams(kind="scalar", r=_number(window, "r", float))
        elif set(window) == {"K", "Lambda", "n"}:
            wp = WindowParams(
                kind="gaussian",
                K=_number(window, "K", float),
                Lambda=_number(window, "Lambda", float),
                n=_number(window, "n", int),
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

    allow_unbounded = doc.get("allow_unbounded", False)
    if not isinstance(allow_unbounded, bool):
        raise SpecValidationError(
            f"config value 'allow_unbounded' is not a boolean: {allow_unbounded!r}")

    return ModelSpec(
        dimension=_number(doc, "dimension", int),
        modes=_number(doc, "modes", int),
        mass=_number(doc, "mass", float),
        momentum_spacing=(
            _number(doc, "momentum_spacing", float)
            if "momentum_spacing" in doc else None
        ),
        c2=_number(interaction, "c2", float, 0.0),
        c3=_number(interaction, "c3", float, 0.0),
        c4=_number(interaction, "c4", float, 0.0),
        window=wp,
        phi_max=_number(fg, "phi_max", float, 3.0),
        phi_nodes=_number(fg, "nodes", int, 201),
        allow_unbounded=allow_unbounded,
    )


def spec_from_json(path) -> ModelSpec:
    with open(path) as fh:
        return spec_from_dict(json.load(fh))


# -- covariance --------------------------------------------------------


def covariance(spec: ModelSpec) -> np.ndarray:
    """Covariance C = R B^{-1} R^T of the regularized Gaussian measure.

    B = diag(m^2 + p_j^2) is the free operator and R the window operator in
    the mode basis; a window whose condition number exceeds
    ``DEFAULT_CONDITION_BOUND`` raises :class:`SingularWindow`.
    """
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
        r_mat = h @ np.diag(chi) @ h @ np.diag(xi)
    cond = float(np.linalg.cond(r_mat))
    if not np.isfinite(cond) or cond > DEFAULT_CONDITION_BOUND:
        raise SingularWindow(
            f"window operator condition number {cond:.3e} exceeds "
            f"{DEFAULT_CONDITION_BOUND:.1e}"
        )
    b = spec.mass**2 + spec.momenta**2
    c = r_mat @ np.diag(1.0 / b) @ r_mat.T
    c = 0.5 * (c + c.T)
    try:
        np.linalg.cholesky(c)
    except np.linalg.LinAlgError as exc:
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
