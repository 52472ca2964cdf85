"""Acceptance suite: thirteen end-to-end criteria, one printed verdict each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines.
"""

import time

import numpy as np
import pytest

from frgelab import convex as cx
from frgelab import flow as fl
from frgelab.cli import main as cli_main
from frgelab.functionals import (
    W,
    FunctionalContext,
    connected_cov,
    dirac_ratio,
    gamma,
    gamma_bar,
    gamma_hessian,
    invert_mean_field,
)
from frgelab.model import ModelSpec, WindowParams, classical_asymptote, covariance
from frgelab.regulator import make_regulator


def verdict(number: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {number:2d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def d0_spec(r: float, c4: float, **kw) -> ModelSpec:
    return ModelSpec(dimension=0, modes=1, mass=1.0,
                     window=WindowParams(kind="scalar", r=r), c4=c4, **kw)


@pytest.fixture(scope="module")
def litim():
    return make_regulator("litim")


@pytest.fixture(scope="module")
def phi4_ctx(litim):
    # the grid reaches past |phi| = 3 so the low-order edge treatment stays
    # outside every comparison window used below
    spec = d0_spec(1.0, 0.1, phi_max=4.5, phi_nodes=301)
    return FunctionalContext(spec=spec, regulator=litim, self_check=False)


@pytest.fixture(scope="module")
def phi4_flow(phi4_ctx, litim):
    """Grid flow of the anharmonic benchmark from k = 100 down to 0."""
    init, _ = fl.initial_condition(phi4_ctx, "exact", 100.0)
    return fl.integrate(init, 100.0, 0.0, litim, checkpoints=[10.0, 1.0, 0.0])


def test_01_regulator_admissibility():
    start = time.monotonic()
    codes = [cli_main(["validate-regulator", "--regulator", name])
             for name in ("litim", "exponential")]
    elapsed = time.monotonic() - start
    ok = codes == [0, 0] and elapsed < 5.0
    verdict(1, ok, f"both regulators all-pass in {elapsed:.2f}s (< 5 s)")


def test_02_free_theory_stationarity(litim):
    start = time.monotonic()
    spec = d0_spec(0.7, 0.0)
    ctx = FunctionalContext(spec=spec, regulator=litim, self_check=False)
    init, _ = fl.initial_condition(ctx, "exact", 10.0)
    traj = fl.integrate(init, 10.0, 0.0, litim,
                        checkpoints=[10.0, 5.0, 1.0, 0.0],
                        rtol=1e-10, atol=1e-12)
    c_inv = 1.0 / covariance(spec)[0, 0]
    worst = max(
        float(np.abs(s.values - 0.5 * c_inv * s.grid**2).max())
        for _, s in traj.checkpoints
    )
    elapsed = time.monotonic() - start
    ok = worst <= 1e-8 and elapsed < 1.0
    verdict(2, ok, f"max node deviation {worst:.2e} (<= 1e-8) in {elapsed:.2f}s")


def test_03_exact_flow_agreement(phi4_ctx, phi4_flow):
    start = time.monotonic()
    worst = 0.0
    for k, state in phi4_flow.checkpoints:
        oracle = fl.exact_grid_values(phi4_ctx, k, state.grid)
        mask = np.abs(state.grid) <= 2.0
        worst = max(worst, float(np.abs(state.values - oracle)[mask].max()))
    elapsed = time.monotonic() - start
    ok = worst <= 1e-4 and elapsed < 60.0
    verdict(3, ok, f"max |flow - oracle| {worst:.2e} (<= 1e-4) in {elapsed:.1f}s")


def test_04_boundary_k_zero(phi4_ctx, phi4_flow):
    _, state = phi4_flow.checkpoints[-1]
    t_axis = np.linspace(-16.0, 16.0, 1601)
    w_grid = cx.GridFunction(
        axes=(t_axis,),
        values=np.array([W(phi4_ctx, 0.0, np.array([t])) for t in t_axis]),
    )
    g0 = cx.conjugate(w_grid, -3.0, 3.0, 201)
    centred = g0.values - g0.values[g0.values.size // 2]
    inner = np.abs(state.grid) <= 3.0  # the 201 nodes spanning [-3, 3]
    dev = float(np.abs(centred - state.values[inner]).max())
    ok = dev <= 1e-3
    verdict(4, ok, f"|flow - conjugate(W_0)| {dev:.2e} on 201 nodes (<= 1e-3)")


def test_05_boundary_classical_limit(litim):
    spec = d0_spec(0.5, 0.1)
    ctx = FunctionalContext(spec=spec, regulator=litim, self_check=False)
    phis = np.linspace(-2.0, 2.0, 21)
    devs = [
        max(abs(gamma_bar(ctx, k, np.array([p]))
                - classical_asymptote(spec, np.array([p]))) for p in phis)
        for k in (10.0, 30.0, 100.0)
    ]
    half_c_inv = 0.5 / covariance(spec)[0, 0]
    ok = devs[0] > devs[1] > devs[2] and half_c_inv == pytest.approx(2.0)
    verdict(5, ok,
            f"classical deviation {devs[0]:.1e} > {devs[1]:.1e} > {devs[2]:.1e}, "
            f"quadratic coefficient {half_c_inv:.1f} (= 2, not 1/2)")


def test_06_dirac_approximation(phi4_ctx):
    g = lambda psi: np.cos(psi[..., 0])
    gaps = [abs(dirac_ratio(phi4_ctx, g, k) - 1.0) for k in (5.0, 10.0, 50.0)]
    ok = gaps[0] > gaps[1] > gaps[2] and gaps[2] <= 1e-2
    verdict(6, ok, f"|ratio - 1| = {gaps[0]:.1e} > {gaps[1]:.1e} > {gaps[2]:.1e},"
                   f" final <= 1e-2")


def test_07_hessian_inverse_identity(phi4_ctx, fd_hessian):
    # the identity is checked on the finite-difference Hessian, which does
    # not use it; gamma_hessian, which does, must agree with that reference
    rng = np.random.default_rng(2024)
    worst = gap = 0.0
    for _ in range(10):
        k = rng.uniform(0.0, 5.0)
        phi = rng.uniform(-2.0, 2.0, size=1)
        h_fd = fd_hessian(phi4_ctx, k, phi)
        h = gamma_hessian(phi4_ctx, k, phi)
        solve = invert_mean_field(phi4_ctx, k, phi)
        cc = connected_cov(phi4_ctx, k, solve.source)
        f = phi4_ctx.scale(k).f
        worst = max(worst, abs((h_fd[0, 0] + f[0]) * cc[0, 0] - 1.0))
        gap = max(gap, abs(h[0, 0] - h_fd[0, 0]) / (1.0 + abs(h[0, 0])))
    ok = worst <= 1e-6 and gap <= 1e-6
    verdict(7, ok, f"max |(D2Gamma + F) D2W - 1| {worst:.2e} at 10 probes (<= 1e-6); "
                   f"duality Hessian within {gap:.1e} (1 + |H|) of it (<= 1e-6)")


def test_08_first_form_consistency(phi4_ctx):
    report = fl.frge_first_form_check(phi4_ctx, 1.0, [0.0, 0.5, 1.0, 1.5, 2.0])
    worst = max(r["abs_diff"] for r in report)
    ok = worst <= 1e-6
    verdict(8, ok, f"unsubtracted-form residual {worst:.2e} at 5 probes (<= 1e-6)")


def test_09_vertex_grid_cross_validation(litim):
    rels = {}
    for c4 in (0.01, 0.1):
        ctx = FunctionalContext(spec=d0_spec(1.0, c4), regulator=litim,
                                self_check=False)
        init, _ = fl.initial_condition(ctx, "exact", 10.0, rep="vertex")
        traj = fl.integrate(init, 10.0, 0.0, litim,
                            momenta=ctx.spec.momenta,
                            weights=ctx.spec.momentum_weights,
                            checkpoints=[0.0])
        _, state = traj.checkpoints[-1]
        oracle = gamma_hessian(ctx, 0.0, np.zeros(1))[0, 0]
        rels[c4] = abs(state.gamma2[0, 0] - oracle) / abs(oracle)
    ok = rels[0.01] <= 0.01
    verdict(9, ok, f"gamma2 relative error {rels[0.01]:.2e} at c4=0.01 (<= 1%); "
                   f"truncation error {rels[0.1]:.2e} at c4=0.1 (documented)")


def test_10_normalization_identity(phi4_ctx):
    worst = 0.0
    grid = np.linspace(-2.0, 2.0, 41)
    for k in (1.0, 0.0):
        gamma0 = gamma(phi4_ctx, k, np.zeros(1))
        bar_min = min(gamma_bar(phi4_ctx, k, np.array([p])) for p in grid)
        worst = max(worst, abs(gamma0 + bar_min))
    ok = worst <= 1e-8
    verdict(10, ok, f"|Gamma(0) + min GammaBar| {worst:.2e} at k in {{1, 0}}")


def test_11_convergence_suite(litim):
    start = time.monotonic()
    limit = d0_spec(1.0, 0.1)
    models = [d0_spec(1.0 - 2.0 ** (-n), 0.1) for n in range(1, 7)]
    rep = cx.convergence_suite(models, limit, litim)
    elapsed = time.monotonic() - start
    ok = rep.all_monotone and elapsed < 300.0
    verdict(11, ok,
            f"uniform/AW/probe all monotone decreasing over n=1..6 "
            f"in {elapsed:.0f}s (< 5 min)")


def test_12_convex_toolkit():
    x = np.linspace(-5.0, 5.0, 513)
    f = cx.GridFunction(axes=(x,), values=0.5 * x * x)
    fs = cx.conjugate(f, -3.0, 3.0, 121)
    self_conj = float(np.abs(fs.values - 0.5 * fs.axes[0] ** 2).max())
    defect = cx.biconjugate_check(f)
    rng = np.random.default_rng(99)
    reversal_ok = True
    for _ in range(100):
        a, b = sorted(rng.uniform(0.3, 3.0, size=2))
        lo = cx.GridFunction(axes=(x,), values=0.5 * a * x * x)
        hi = cx.GridFunction(axes=(x,),
                             values=0.5 * b * x * x + rng.uniform(0.0, 1.0))
        lo_star = cx.conjugate(lo, -2.0, 2.0, 41)
        hi_star = cx.conjugate(hi, -2.0, 2.0, 41)
        if not np.all(lo_star.values >= hi_star.values - 1e-12):
            reversal_ok = False
            break
    ok = self_conj <= (10.0 / 512) ** 2 and defect <= 1e-6 and reversal_ok
    verdict(12, ok,
            f"self-conjugacy error {self_conj:.1e}, biconjugate defect "
            f"{defect:.1e} (<= 1e-6 at 512 nodes), order-reversal on 100 pairs")


def test_13_broken_translation_invariance(litim):
    # the classical limit of the regularised theory carries C^-1 of the
    # windowed measure, whose off-diagonal momentum couplings break
    # translation invariance, not the free operator B = m^2 + p^2; the
    # identity window (C^-1 = B) is the control
    phi = np.array([0.3, -0.2, 0.1])

    def setup(window):
        spec = ModelSpec(dimension=1, modes=3, mass=1.0, momentum_spacing=1.0,
                         window=window, c4=0.05)
        h, _ = spec._position_map
        jet, _ = spec.interaction_jet(phi, [2])
        s2 = (h * jet[:, 0]) @ h.T
        b = np.diag(spec.mass**2 + spec.momenta**2) + s2
        return FunctionalContext(spec=spec, regulator=litim), b, s2

    ctx, b, s2 = setup(WindowParams(kind="gaussian", K=1.0, Lambda=1.0, n=1))
    limit = ctx.measure.inv + s2
    scales = (10.0, 30.0, 100.0)
    hessians = [gamma_hessian(ctx, k, phi) for k in scales]
    devs = [float(np.abs(h - limit).max()) for h in hessians]
    scaled = [k * k * d for k, d in zip(scales, devs)]
    off = np.abs(limit - np.diag(np.diag(limit))).max() / np.abs(limit).max()
    from_b = float(np.abs(hessians[-1] - b).max())
    control, b_id, _ = setup(WindowParams(kind="identity"))
    control_dev = float(np.abs(gamma_hessian(control, 100.0, phi) - b_id).max())
    ok = (devs[0] > devs[1] > devs[2]
          and all(0.5 <= s / scaled[-1] <= 2.0 for s in scaled)
          and off > 0.1 and from_b > 1.0 and control_dev <= 2.0 * devs[-1])
    verdict(13, ok,
            f"|Hess - (C^-1 + S'')| {devs[0]:.2e} > {devs[1]:.2e} > {devs[2]:.2e} "
            f"at k = 10, 30, 100, k^2 times it {scaled[0]:.3f}, {scaled[1]:.3f}, "
            f"{scaled[2]:.3f} (within 2x); C^-1 + S'' off-diagonal {off:.2f} of its "
            f"largest entry (> 0.1), {from_b:.0f} from B + S''; identity window "
            f"{control_dev:.2e} from B + S'' (<= 2x)")
