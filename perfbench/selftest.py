"""Self-test of the benchmark, kept out of the package's test suite.

    python3 -m pytest perfbench/selftest.py -q

The repeat test runs every workload twice (about two minutes in all).
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import catalog  # noqa: E402
import probe  # noqa: E402
import spans  # noqa: E402
import frgelab  # noqa: E402
from frgelab import cli, convex, flow, functionals, measure, model, regulator  # noqa: E402,F401


@pytest.fixture
def tracer():
    t = spans.Tracer(frgelab)
    t.install()
    yield t
    t.uninstall()


def test_inputs_repeat_per_seed_and_stay_in_band():
    for name in catalog.WORKLOADS:
        assert catalog.make_inputs(name, 5) == catalog.make_inputs(name, 5)
        assert catalog.make_inputs(name, 5) != catalog.make_inputs(name, 6)
    for seed in range(20):
        cfg = catalog.make_inputs("grid_flow_stiff", seed)["config"]
        assert abs(cfg["interaction"]["c4"] / 0.1 - 1) <= catalog.C4_BAND
        assert abs(cfg["mass"] - 1) <= catalog.MASS_BAND


def test_every_binding_is_wrapped_and_restored(tracer):
    by_name = [(cli, "check_conditions"), (functionals, "build_measure"),
               (convex, "build_measure"), (flow, "covariance"),
               (measure, "covariance"), (cli, "main"), (flow, "integrate")]
    methods = [(model.ModelSpec, "interaction_batch")] + [
        (cls, m) for cls in (regulator.LitimRegulator, regulator.ExponentialRegulator,
                             regulator.TableRegulator) for m in ("value", "dk")]
    originals = {}
    for owner, attr in by_name + methods:
        wrapper = getattr(owner, attr)
        assert hasattr(wrapper, "__wrapped_original__"), (owner, attr)
        originals[id(wrapper.__wrapped_original__)] = wrapper.__wrapped_original__
    assert tracer.unwrapped_bindings(originals) == []
    tracer.uninstall()
    for owner, attr in by_name + methods:
        assert not hasattr(getattr(owner, attr), "__wrapped_original__"), (owner, attr)
    tracer.install()  # for the fixture's teardown


def test_self_times_partition_the_root_span(tracer):
    spec = model.ModelSpec(dimension=0, modes=1, mass=1.0,
                           window=model.WindowParams(kind="scalar", r=1.0), c4=0.1,
                           phi_max=2.0, phi_nodes=21)
    ctx = functionals.FunctionalContext(spec=spec, regulator=regulator.LitimRegulator(),
                                        self_check=False)
    tracer.reset()
    _, duration = tracer.root(flow.exact_grid_values, ctx, 1.0, spec.field_grid)
    assert sum(tracer.self_s.values()) == pytest.approx(duration, rel=1e-9)
    # one inversion per node off the centre, plus gamma(0) for the subtraction
    assert tracer.calls["functionals.invert_mean_field"] == 21
    assert tracer.counts["functionals.newton_iters"] > 0
    layers = tracer.layer_metrics(oracle_nodes=21)
    assert layers["functionals.inversions_per_node"] == 1.0
    # every span lies inside its parent
    recorded = tracer.spans()
    for name, start, end, parent in recorded[1:]:
        assert recorded[parent][1] <= start <= end <= recorded[parent][2]


def test_raised_exception_is_counted_and_unwinds(tracer):
    state = flow.GridAction(k=1.0, grid=np.linspace(-1, 1, 5),
                            values=-np.linspace(-1, 1, 5) ** 2)
    with pytest.raises(frgelab.ConvexityLoss):
        tracer.root(flow.rhs_grid, state, regulator.LitimRegulator())
    assert tracer.layer_metrics(0)["flow.rhs_poisoned"] == 1
    assert tracer._stack == []


def _run(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, str(cwd / "perfbench" / "run.py"), *args],
                          capture_output=True, text=True, cwd=cwd, timeout=300)
    return proc


@pytest.mark.parametrize("workload", list(catalog.WORKLOADS))
def test_counts_and_errors_repeat_for_one_seed(workload):
    runs = []
    for _ in range(2):
        proc = _run("--workload", workload, "--seed", "3", "--seconds", "1",
                    "--trace", "1")
        assert proc.returncode == 0, proc.stderr[-3000:]
        last = json.loads(proc.stdout.strip().splitlines()[-1])
        assert last["correct"] and last["failed"] == 0
        assert set(last["metrics"]) == {n for n, _, _ in catalog.PER_LAYER}
        result = json.loads(
            (ROOT / ".perfbench_out" / f"BENCH_{workload}_seed3_trace1.json").read_text())
        counts = {n: m["value"] for n, m in last["metrics"].items()
                  if m["unit"] in catalog.EXACT_UNITS}
        runs.append((counts, result["counts"], result["max_abs_err"]))
    assert runs[0] == runs[1]


def test_metric_tables_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for key, table in (("end_to_end", catalog.END_TO_END),
                       ("per_layer", catalog.PER_LAYER)):
        assert [(m["name"], m["unit"], m["better"]) for m in spec[key]] == table
    assert [w["name"] for w in spec["workloads"]] == list(catalog.WORKLOADS)


def test_probe_samples_while_running_and_restores_the_handler():
    import signal
    import time

    before = signal.getsignal(signal.SIGALRM)
    p = probe.HostProbe()
    p.start()
    try:
        end = time.perf_counter() + 0.3
        while time.perf_counter() < end:
            sum(range(1000))
    finally:
        p.stop()
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    # one probe before the timed region, then one every INTERVAL_S
    assert len(p.durations) >= 3
    assert p.scale() == pytest.approx(
        probe.REF_PROBE_S / (sum(p.durations) / len(p.durations)))
    assert p.total_s() == pytest.approx(sum(p.durations[1:]))
    assert 0 < p.total_s() < 0.3


def test_probe_samples_an_iteration_shorter_than_its_interval():
    p = probe.HostProbe()
    p.start()
    p.stop()
    assert len(p.durations) == 1 and p.total_s() == 0
    assert p.scale() > 0


def test_untraced_run_reports_every_end_to_end_metric():
    proc = _run("--workload", "convergence", "--seed", "2", "--seconds", "2",
                "--trace", "0")
    assert proc.returncode == 0, proc.stderr[-3000:]
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert last["correct"] and last["failed"] == 0
    assert set(last["metrics"]) == {n for n, _, _ in catalog.END_TO_END}
    result = json.loads(
        (ROOT / ".perfbench_out" / "BENCH_convergence_seed2_trace0.json").read_text())
    timed = [r for r in result["iterations"] if not r.get("warmup")]
    assert all(r["probes"] > 0 and 0 < r["wall_norm_s"] for r in timed)


def test_refuses_to_run_without_sources():
    bare = ROOT / ".perfbench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    try:
        proc = _run("--workload", "convergence", "--seed", "1", "--seconds", "1",
                    "--trace", "0", cwd=bare)
        assert proc.returncode != 0
        assert proc.stdout.strip() == ""
    finally:
        shutil.rmtree(bare, ignore_errors=True)
