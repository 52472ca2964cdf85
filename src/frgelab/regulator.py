"""Regulator families R_k(p) and their admissibility checks.

Built-ins: the Litim shape (k^2 - p^2) on its support and the exponential
shape p^2 / (e^{p^2/k^2} - 1).  A tabulated variant interpolates sampled
values.  ``check_conditions`` certifies, on a sampled plan, the bound
0 <= R_k <= k^2, the large-k divergence, monotonicity in k, the vanishing
for k < 0 and the consistency of the analytic k-derivative.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from .errors import SpecValidationError


class Regulator:
    """Shape function R_k(p) with k-derivative; vanishes identically for k < 0.

    ``value`` and ``dk`` broadcast over k and p: each takes floats or numpy
    arrays of any broadcast-compatible shapes.  ``diagonals`` gives both.
    """

    kind = "abstract"

    def value(self, k, p):
        raise NotImplementedError

    def dk(self, k, p):
        raise NotImplementedError

    def diagonals(self, k, p):
        """(value(k, p), dk(k, p)) in one call, bit for bit."""
        return self.value(k, p), self.dk(k, p)

    def kink_scales(self, momenta: np.ndarray) -> np.ndarray:
        """k values where k-differentiability may fail (step clamp loci)."""
        return np.empty(0)


class LitimRegulator(Regulator):
    kind = "litim"

    def value(self, k, p):
        return np.maximum(k * k - p * p, 0.0) * (k >= 0)

    def dk(self, k, p):
        # two-sided value on the kink locus p^2 = k^2
        return 2.0 * k * ((k * k - p * p >= 0.0) & (k >= 0))

    def diagonals(self, k, p):
        gap = k * k - p * p
        if isinstance(k, float) and k >= 0.0:
            # the masks k >= 0 are all True, and multiplying by True is exact
            return np.maximum(gap, 0.0), 2.0 * k * (gap >= 0.0)
        nonnegative = k >= 0
        return (np.maximum(gap, 0.0) * nonnegative,
                2.0 * k * ((gap >= 0.0) & nonnegative))

    def kink_scales(self, momenta):
        return np.unique(np.abs(np.asarray(momenta, dtype=float)))


def _exponential_variable(k, p):
    """(k', x, live) for the exponential shape at x = (p/k)^2.

    Squaring the quotient keeps x from underflowing to 0/0 at tiny k, where
    p^2/k^2 would not.  |p| is capped at 26.5 k, so x stays finite and below
    the overflow of e^x; ``live`` marks k > 0 and x < 700, beyond which the
    suppression underflows.  k' is k where k > 0 and 1 elsewhere.
    """
    if isinstance(k, float) and k > 0.0:  # k' = k, and ``positive &`` is exact
        x = (np.minimum(np.abs(p), 26.5 * k) / k) ** 2
        return k, x, x < 700.0
    positive = k > 0
    k = np.where(positive, k, 1.0)
    x = (np.minimum(np.abs(p), 26.5 * k) / k) ** 2
    return k, x, positive & (x < 700.0)


def _exponential_value(k, x, live):
    # k^2 x/(e^x - 1), with x/(e^x - 1) ~ 1 - x/2 near p = 0
    shape = np.where(x < 1e-8, 1.0 - x / 2.0, x / np.expm1(np.maximum(x, 1e-8)))
    return k * k * shape * live


def _exponential_dk(k, x, live):
    # closed form p^4 / (2 k^3 sinh^2(p^2 / (2 k^2))) = k x^2 / (2 sinh^2(x/2)),
    # -> 2k at p = 0
    shape = np.where(
        x < 1e-8, 2.0 * (1.0 - x),
        x * x / (2.0 * np.sinh(np.maximum(x, 1e-8) / 2.0) ** 2),
    )
    return k * shape * live


class ExponentialRegulator(Regulator):
    kind = "exponential"

    def value(self, k, p):
        return _exponential_value(*_exponential_variable(k, p))

    def dk(self, k, p):
        return _exponential_dk(*_exponential_variable(k, p))

    def diagonals(self, k, p):
        variable = _exponential_variable(k, p)
        return _exponential_value(*variable), _exponential_dk(*variable)


def regulator_diagonals(regulator: Regulator, k, momenta, weights):
    """(F_k, d_k F_k) = (R_k(p) w, d_k R_k(p) w) over the modes.

    R_k ~ k^2 overflows from k ~ 1.3e154 on; a scale where either diagonal
    is not finite raises :class:`SpecValidationError`.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        r, r_dot = regulator.diagonals(k, momenta)
        f, f_dot = r * weights, r_dot * weights
    if not (np.all(np.isfinite(f)) and np.all(np.isfinite(f_dot))):
        raise SpecValidationError(
            f"the regulator is not finite at the scale k={k:.6g}: "
            f"F_k or d_k F_k overflows"
        )
    return f, f_dot


class TableRegulator(Regulator):
    """Bilinear interpolation of sampled (k, p) -> (R, dR) tables."""

    kind = "table"

    def __init__(self, k_grid, p_grid, values, dvalues):
        self.k_grid = np.asarray(k_grid, dtype=float)
        self.p_grid = np.asarray(p_grid, dtype=float)
        self.values = np.asarray(values, dtype=float)
        self.dvalues = np.asarray(dvalues, dtype=float)

    @classmethod
    def from_csv(cls, path):
        """Load columns k, p, R, dR covering a full (k, p) grid, two or more
        values of each."""
        with open(path, newline="") as fh:
            header = next(csv.reader(fh), [])
            try:
                rows = np.loadtxt(fh, delimiter=",", ndmin=2, usecols=[
                    header.index(n) for n in ("k", "p", "R", "dR")])
            except ValueError as exc:  # a missing column or a malformed number
                raise SpecValidationError(f"table regulator CSV: {exc}") from None
        k_grid, i = np.unique(rows[:, 0], return_inverse=True)
        p_grid, j = np.unique(rows[:, 1], return_inverse=True)
        shape = (len(k_grid), len(p_grid))
        vals = np.full(shape, np.nan)
        dvals = np.full(shape, np.nan)
        vals[i, j] = rows[:, 2]
        dvals[i, j] = rows[:, 3]
        if np.isnan(vals).any() or min(shape) < 2:
            raise SpecValidationError("table regulator CSV does not cover a full "
                                      "(k, p) grid of two or more k and p values")
        return cls(k_grid, p_grid, vals, dvals)

    def _interp(self, table, k, p):
        kc = np.clip(k, self.k_grid[0], self.k_grid[-1])
        pc = np.clip(p, self.p_grid[0], self.p_grid[-1])
        i = np.clip(np.searchsorted(self.k_grid, kc) - 1, 0, len(self.k_grid) - 2)
        j = np.clip(np.searchsorted(self.p_grid, pc) - 1, 0, len(self.p_grid) - 2)
        tk = (kc - self.k_grid[i]) / (self.k_grid[i + 1] - self.k_grid[i])
        tp = (pc - self.p_grid[j]) / (self.p_grid[j + 1] - self.p_grid[j])
        v00 = table[i, j]
        v01 = table[i, j + 1]
        v10 = table[i + 1, j]
        v11 = table[i + 1, j + 1]
        bilinear = (1 - tk) * ((1 - tp) * v00 + tp * v01) + tk * (
            (1 - tp) * v10 + tp * v11
        )
        return np.where(k >= 0, bilinear, 0.0)

    def value(self, k, p):
        return self._interp(self.values, k, p)

    def dk(self, k, p):
        return self._interp(self.dvalues, k, p)


def make_regulator(name: str) -> Regulator:
    if name == "litim":
        return LitimRegulator()
    if name == "exponential":
        return ExponentialRegulator()
    if name.startswith("table:"):
        return TableRegulator.from_csv(name.split(":", 1)[1])
    raise SpecValidationError(f"unknown regulator {name!r}")


@dataclass
class ConditionReport:
    kind: str
    samples: int
    passed: dict = field(default_factory=dict)
    witnesses: dict = field(default_factory=dict)

    @property
    def all_passed(self) -> bool:
        return all(self.passed.values())


# symmetric-difference step of condition (e)
FD_STEP = 1e-6
SAMPLE_MAX = 10.0  # the sampled k and p lie in (0, SAMPLE_MAX]
# the most samples one check draws: it holds about 50 B per sample at its peak,
# so the cap keeps it near 50 MB, 100 times the default count
MAX_SAMPLES = 1_000_000


@dataclass(frozen=True)
class SamplePlan:
    count: int = 10_000
    seed: int = 1234

    def __post_init__(self):
        if not (1 <= self.count <= MAX_SAMPLES and self.seed >= 0):
            raise SpecValidationError(
                f"a sample plan needs 1 <= count <= {MAX_SAMPLES} and seed >= 0")


def _record(report: ConditionReport, name: str, bad: np.ndarray, *columns) -> None:
    """Enter condition ``name``; a failed one keeps, when ``columns`` are
    given, their entries at the first failing sample as its witness."""
    report.passed[name] = not bad.any()
    if columns and bad.any():
        i = int(np.argmax(bad))
        columns = np.broadcast_arrays(*columns)
        report.witnesses[name] = tuple(float(c[i]) for c in columns)


def check_conditions(
    regulator: Regulator, plan: SamplePlan | None = None
) -> ConditionReport:
    """Sampled certificate for the admissibility conditions.

    Checks, over ``plan.count`` random (k, p) in (0, 10] x (0, 10]
    (``SAMPLE_MAX``) drawn with ``plan.seed``:
      (a) 0 <= R_k(p) <= k^2,
      (b) R_k(p)/k^2 approaches a positive constant as k grows (its mean
          over the top 4 of 16 k in [100, 1000], at 8 p in [0.1, 10]),
      (c) d_k R_k(p) >= 0,
      (d) R_k(p) = 0 for k < 0,
      (e) symmetric-difference consistency of the analytic k-derivative away
          from kink loci.
    Each condition is one array evaluation; a failed one keeps the first
    failing sample as its witness.
    """
    plan = plan or SamplePlan()
    rng = np.random.default_rng(plan.seed)
    ks = rng.uniform(0.0, SAMPLE_MAX, plan.count) + 1e-9
    ps = rng.uniform(0.0, SAMPLE_MAX, plan.count) + 1e-9
    report = ConditionReport(kind=regulator.kind, samples=plan.count)

    vals = regulator.value(ks, ps)
    bad = (vals < -1e-12) | (vals > ks**2 * (1 + 1e-12))
    _record(report, "bound", bad, ks, ps, vals)

    # (b) divergence: at a handful of fixed p (rows), R_k/k^2 over the top
    # decade of k (columns); the first failing p is the witness
    p_div = np.linspace(0.1, SAMPLE_MAX, 8)
    k_hi = np.linspace(SAMPLE_MAX * 10, SAMPLE_MAX * 100, 16)
    ratio = regulator.value(k_hi, p_div[:, None]) / k_hi**2
    c_fit = ratio[:, -4:].mean(axis=1)
    bad = ~((c_fit > 1e-6) & np.all(ratio > 0, axis=1))
    _record(report, "divergence", bad, k_hi[-1], p_div, c_fit)

    dvals = regulator.dk(ks, ps)
    _record(report, "dk_nonnegative", dvals < -1e-12, ks, ps, dvals)

    _record(report, "negative_k", regulator.value(-ks[:200], ps[:200]) != 0.0)

    # (e) the first 500 samples off the Litim kink locus and the k = 0 corner
    keep = np.flatnonzero((np.abs(ks - ps) >= 0.05) & (ks >= 0.1))[:500]
    k, p = ks[keep], ps[keep]
    fd = (
        regulator.value(k + FD_STEP, p) - regulator.value(k - FD_STEP, p)
    ) / (2 * FD_STEP)
    an = regulator.dk(k, p)
    bad = np.abs(fd - an) > 1e-4 * (1.0 + np.abs(an))
    _record(report, "dk_consistency", bad, k, p, fd - an)
    return report
