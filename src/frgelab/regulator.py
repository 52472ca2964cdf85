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

from .errors import ConditionViolated


class Regulator:
    """Shape function R_k(p) with k-derivative; vanishes identically for k < 0."""

    kind = "abstract"

    def value(self, k: float, p: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def dk(self, k: float, p: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def kink_scales(self, momenta: np.ndarray) -> np.ndarray:
        """k values where k-differentiability may fail (step clamp loci)."""
        return np.empty(0)


class LitimRegulator(Regulator):
    kind = "litim"

    def value(self, k, p):
        p = np.asarray(p, dtype=float)
        if k < 0:
            return np.zeros_like(p)
        return np.maximum(k * k - p * p, 0.0)

    def dk(self, k, p):
        p = np.asarray(p, dtype=float)
        if k < 0:
            return np.zeros_like(p)
        # two-sided value on the kink locus p^2 = k^2
        return 2.0 * k * (k * k - p * p >= 0.0)

    def kink_scales(self, momenta):
        return np.unique(np.abs(np.asarray(momenta, dtype=float)))


class ExponentialRegulator(Regulator):
    kind = "exponential"

    def value(self, k, p):
        p = np.asarray(p, dtype=float)
        if k <= 0:
            return np.zeros_like(p)
        x = p * p / (k * k)
        out = np.zeros_like(x)
        small = x < 1e-8
        out[small] = k * k * (1.0 - x[small] / 2.0)  # x/(e^x - 1) ~ 1 - x/2
        mid = ~small & (x < 700.0)  # beyond that the suppression underflows
        out[mid] = p[mid] ** 2 / np.expm1(x[mid])
        return out

    def dk(self, k, p):
        p = np.asarray(p, dtype=float)
        if k <= 0:
            return np.zeros_like(p)
        x = p * p / (k * k)
        out = np.zeros_like(x)
        small = x < 1e-8
        # d/dk [k^2 x/(e^x-1)] -> 2k at p = 0
        out[small] = 2.0 * k * (1.0 - x[small])
        mid = ~small & (x < 700.0)  # beyond that the suppression underflows
        # closed form: p^4 / (2 k^3 sinh^2(p^2 / (2 k^2)))
        out[mid] = p[mid] ** 4 / (2.0 * k**3 * np.sinh(x[mid] / 2.0) ** 2)
        return out


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
        ks, ps, rs, drs = [], [], [], []
        with open(path, newline="") as fh:
            for row in csv.DictReader(fh):
                ks.append(float(row["k"]))
                ps.append(float(row["p"]))
                rs.append(float(row["R"]))
                drs.append(float(row["dR"]))
        k_grid = np.unique(ks)
        p_grid = np.unique(ps)
        shape = (len(k_grid), len(p_grid))
        vals = np.full(shape, np.nan)
        dvals = np.full(shape, np.nan)
        for k, p, r, dr in zip(ks, ps, rs, drs):
            i = np.searchsorted(k_grid, k)
            j = np.searchsorted(p_grid, p)
            vals[i, j] = r
            dvals[i, j] = dr
        if np.isnan(vals).any():
            raise ValueError("table regulator CSV does not cover a full (k, p) grid")
        return cls(k_grid, p_grid, vals, dvals)

    def _interp(self, table, k, p):
        p = np.asarray(p, dtype=float)
        if k < 0:
            return np.zeros_like(p)
        k = float(np.clip(k, self.k_grid[0], self.k_grid[-1]))
        pc = np.clip(p, self.p_grid[0], self.p_grid[-1])
        i = np.clip(np.searchsorted(self.k_grid, k) - 1, 0, len(self.k_grid) - 2)
        j = np.clip(np.searchsorted(self.p_grid, pc) - 1, 0, len(self.p_grid) - 2)
        tk = (k - self.k_grid[i]) / (self.k_grid[i + 1] - self.k_grid[i])
        tp = (pc - self.p_grid[j]) / (self.p_grid[j + 1] - self.p_grid[j])
        v00 = table[i, j]
        v01 = table[i, j + 1]
        v10 = table[i + 1, j]
        v11 = table[i + 1, j + 1]
        return (1 - tk) * ((1 - tp) * v00 + tp * v01) + tk * ((1 - tp) * v10 + tp * v11)

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
    raise ValueError(f"unknown regulator {name!r}")


@dataclass
class ConditionReport:
    kind: str
    samples: int
    passed: dict = field(default_factory=dict)
    witnesses: dict = field(default_factory=dict)

    @property
    def all_passed(self) -> bool:
        return all(self.passed.values())


@dataclass(frozen=True)
class SamplePlan:
    k_max: float = 10.0
    p_max: float = 10.0
    count: int = 10_000
    seed: int = 1234
    fd_step: float = 1e-6


def check_conditions(
    regulator: Regulator, plan: SamplePlan | None = None, raise_on_failure: bool = False
) -> ConditionReport:
    """Sampled certificate for the admissibility conditions.

    Checks, over random (k, p) in (0, k_max] x (0, p_max]:
      (a) 0 <= R_k(p) <= k^2,
      (b) R_k(p)/k^2 approaches a positive constant as k grows (fit over the
          top decade of sampled k at fixed p),
      (c) d_k R_k(p) >= 0,
      (d) R_k(p) = 0 for k < 0,
      (e) symmetric-difference consistency of the analytic k-derivative away
          from kink loci.
    """
    plan = plan or SamplePlan()
    rng = np.random.default_rng(plan.seed)
    ks = rng.uniform(0.0, plan.k_max, plan.count) + 1e-9
    ps = rng.uniform(0.0, plan.p_max, plan.count) + 1e-9
    report = ConditionReport(kind=regulator.kind, samples=plan.count)

    vals = np.array([regulator.value(k, np.array([p]))[0] for k, p in zip(ks, ps)])
    bad = (vals < -1e-12) | (vals > ks**2 * (1 + 1e-12))
    report.passed["bound"] = not bad.any()
    if bad.any():
        i = int(np.argmax(bad))
        report.witnesses["bound"] = (float(ks[i]), float(ps[i]), float(vals[i]))

    # (b) divergence: at a handful of fixed p, R_k/k^2 over the top decade of k
    ok_div = True
    witness = None
    for p in np.linspace(0.1, plan.p_max, 8):
        k_hi = np.linspace(plan.k_max * 10, plan.k_max * 100, 16)
        ratio = np.array([regulator.value(k, np.array([p]))[0] / k**2 for k in k_hi])
        c_fit = float(ratio[-4:].mean())
        if not (c_fit > 1e-6 and np.all(ratio > 0)):
            ok_div = False
            witness = (float(k_hi[-1]), float(p), c_fit)
            break
    report.passed["divergence"] = ok_div
    if witness:
        report.witnesses["divergence"] = witness

    dvals = np.array([regulator.dk(k, np.array([p]))[0] for k, p in zip(ks, ps)])
    bad = dvals < -1e-12
    report.passed["dk_nonnegative"] = not bad.any()
    if bad.any():
        i = int(np.argmax(bad))
        report.witnesses["dk_nonnegative"] = (float(ks[i]), float(ps[i]), float(dvals[i]))

    neg = np.array(
        [regulator.value(-k, np.array([p]))[0] for k, p in zip(ks[:200], ps[:200])]
    )
    report.passed["negative_k"] = bool(np.all(neg == 0.0))

    # (e) finite-difference consistency, skipping the kink neighbourhood
    h = plan.fd_step
    ok_fd = True
    witness = None
    checked = 0
    for k, p in zip(ks, ps):
        if abs(k - p) < 0.05 or k < 0.1:  # Litim kink locus / k=0 corner
            continue
        fd = (
            regulator.value(k + h, np.array([p]))[0]
            - regulator.value(k - h, np.array([p]))[0]
        ) / (2 * h)
        an = regulator.dk(k, np.array([p]))[0]
        if abs(fd - an) > 1e-4 * (1.0 + abs(an)):
            ok_fd = False
            witness = (float(k), float(p), float(fd - an))
            break
        checked += 1
        if checked >= 500:
            break
    report.passed["dk_consistency"] = ok_fd
    if witness:
        report.witnesses["dk_consistency"] = witness

    if raise_on_failure and not report.all_passed:
        name = next(n for n, ok in report.passed.items() if not ok)
        w = report.witnesses.get(name)
        raise ConditionViolated(
            f"regulator condition {name!r} failed (witness {w})",
            k=None if w is None else w[0],
            p=None if w is None else w[1],
        )
    return report
