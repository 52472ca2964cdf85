"""One workload in one process: set up, warm up, time, check, report.

Started by ``run.py``; prints its result as a single JSON line on stdout.
``--spawned-at`` is the parent's ``time.monotonic()`` just before the spawn
(the clock is system-wide), so ``setup_s`` covers interpreter start, the
imports of numpy, scipy and frgelab, and building the workload's objects.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

from catalog import EXACT_UNITS, PER_LAYER
from probe import HostProbe

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _import_package():
    sys.path.insert(0, str(ROOT / "src"))
    import frgelab

    origin = Path(frgelab.__file__).resolve()
    if ROOT / "src" not in origin.parents:
        raise SystemExit(f"frgelab imported from {origin}, not from this checkout")
    return frgelab


def provenance() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = {v: os.environ[v] for v in
               ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
               if v in os.environ}
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "config": blas.get("openblas configuration")},
        # without these variables OpenBLAS starts one thread per usable core
        "blas_threads": threads or f"default ({len(os.sched_getaffinity(0))})",
    }


def run_iteration(workload, tracer=None, probe=None) -> dict:
    """One closed-loop iteration; the check runs after the clock stops.

    With a probe, the record also holds the times rescaled to the nominal
    host speed (probe.py); a traced iteration runs without one.
    """
    record = {"traced": tracer is not None, "ok": False}
    try:
        if tracer is not None:
            tracer.reset()
            tracer.install()
        if probe is not None:
            probe.start()
        c0 = time.process_time()
        t0 = time.perf_counter()
        try:
            if tracer is None:
                out = workload.iterate()
            else:
                out, span = tracer.root(workload.iterate)
        finally:
            wall = time.perf_counter() - t0
            cpu = time.process_time() - c0
            if probe is not None:
                probe.stop()
            if tracer is not None:
                tracer.uninstall()
        record.update(wall_s=wall, cpu_s=cpu)
        if probe is not None:
            spent, scale = probe.total_s(), probe.scale()
            record.update(probes=len(probe.durations) - 1, probe_s=spent,
                          wall_norm_s=(wall - spent) * scale,
                          cpu_norm_s=(cpu - spent) * scale)
        err, counts = workload.check(out)
        record.update(ok=True, max_abs_err=err, counts=counts)
        if tracer is not None:
            self_sum = sum(tracer.self_s.values())
            record["self_sum_frac"] = self_sum / wall
            # the root span nests every other span, so their self times
            # partition it; it starts after t0 and ends before wall is read
            if not (abs(self_sum - span) <= 1e-6 * span and span <= wall):
                raise RuntimeError(
                    f"span self times sum to {self_sum:.6f} s, root span "
                    f"{span:.6f} s, iteration {wall:.6f} s")
            record["layers"] = tracer.layer_metrics(workload.oracle_nodes)
    except Exception as exc:  # a failed iteration is counted, not fatal
        traceback.print_exc(file=sys.stderr)
        record.update(ok=False, error=f"{type(exc).__name__}: {exc}")
    return record


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True)
    p.add_argument("--inputs", required=True, help="generated inputs, JSON")
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--spawned-at", type=float, required=True)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--spans-out", default=None)
    args = p.parse_args(argv)

    package = _import_package()
    from workloads import CLASSES
    from spans import ROOT as ROOT_SPAN, Tracer

    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=out_dir)
    try:
        workload = CLASSES[args.workload](json.loads(args.inputs), workdir)
        setup_s = time.monotonic() - args.spawned_at
        result = {"setup_s": setup_s}
        if args.setup_only:
            print(json.dumps(result))
            return 0

        workload.reference()
        probe = None if args.trace else HostProbe()
        warmup = run_iteration(workload, probe=probe)
        warmup["warmup"] = True
        records = [warmup]
        tracer = Tracer(package) if args.trace else None
        deadline = time.perf_counter() + args.seconds
        while True:
            # a traced run alternates untraced and traced iterations, so the
            # overhead is taken between neighbours under the same load
            traced = tracer is not None and len(records) % 2 == 0
            records.append(run_iteration(workload, tracer, None) if traced
                           else run_iteration(workload, probe=probe))
            kinds = {r["traced"] for r in records[1:]}
            if time.perf_counter() >= deadline and len(kinds) == (2 if tracer else 1):
                break

        result.update(
            iterations=records,
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            provenance=provenance(),
        )
        traced = [r for r in records if r["traced"] and r["ok"]]
        if traced:
            result["layers"] = _layer_summary(traced, PER_LAYER)
            if args.spans_out:
                with open(args.spans_out, "w") as fh:
                    json.dump({"root": ROOT_SPAN, "spans": tracer.spans()}, fh)
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _layer_summary(traced: list, per_layer: list) -> dict:
    """Median of each measurement over traced iterations; counts must repeat.

    Byte counts are measurements too: manifests embed their wall-clock time.
    """
    out = {}
    for name, unit, _ in per_layer:
        if name.startswith("trace."):
            continue
        values = [r["layers"].get(name, 0) for r in traced]
        if unit not in EXACT_UNITS:
            out[name] = statistics.median(values)
        elif len(set(values)) == 1:
            out[name] = values[0]
        else:
            raise RuntimeError(f"count {name} differs between iterations: {values}")
    return out


if __name__ == "__main__":
    sys.exit(main())
