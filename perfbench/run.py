"""frgelab benchmark: runs the workloads, checks them, prints the metrics.

    python3 perfbench/run.py                      # every workload, every metric
    python3 perfbench/run.py --trace 1            # per-layer metrics instead
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads run one at a time, each in its own worker process (worker.py).
Before the timed worker, SETUP_PROBES extra workers only set up, so setup_s
is a median over several process starts.  Every iteration's output is
checked; the command exits non-zero if any check failed.  The last stdout
line is one JSON object {"correct", "attempted", "failed", "metrics"}; a
result file with provenance goes to .perfbench_out/.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from catalog import END_TO_END, PER_LAYER, UNITS, WORKLOADS, make_inputs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"
SETUP_PROBES = 4
PROBE_TIMEOUT_S = 30
WORKER_TIMEOUT_S = 140


class BenchError(Exception):
    """The benchmark could not produce a result."""


def git_sha() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def spawn(workload: str, inputs: dict, seconds: float, trace: int,
          setup_only: bool = False, spans_out: Path | None = None) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--inputs", json.dumps(inputs), "--seconds", str(seconds),
           "--trace", str(trace)]
    if setup_only:
        cmd.append("--setup-only")
    if spans_out is not None:
        cmd += ["--spans-out", str(spans_out)]
    timeout = PROBE_TIMEOUT_S if setup_only else WORKER_TIMEOUT_S
    cmd += ["--spawned-at", repr(time.monotonic())]
    try:
        # run() kills and reaps the worker if it overruns its timeout
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=timeout, cwd=ROOT)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} worker exceeded {timeout} s") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{workload} worker exited with code {proc.returncode}")
    return json.loads(lines[-1])


def run_workload(name: str, seed: int, seconds: float, trace: int) -> dict:
    inputs = make_inputs(name, seed)
    setups = [spawn(name, inputs, seconds, trace, setup_only=True)["setup_s"]
              for _ in range(SETUP_PROBES)]
    spans_out = OUT_DIR / f"spans_{name}_seed{seed}.json" if trace else None
    res = spawn(name, inputs, seconds, trace, spans_out=spans_out)
    setups.append(res["setup_s"])

    records = res["iterations"]
    timed = [r for r in records if not r.get("warmup")]
    plain = [r for r in timed if r["ok"] and not r["traced"]]
    failed = sum(not r["ok"] for r in records)
    errors = [r["max_abs_err"] for r in records
              if r["ok"] and r["max_abs_err"] is not None]
    summary = {
        "workload": name,
        "seed": seed,
        "inputs": inputs,
        "attempted": len(records),
        "failed": failed,
        "correct": failed == 0 and bool(plain),
        "samples": len(plain),
        "max_abs_err": max(errors) if errors else None,
        "counts": next((r["counts"] for r in records if r["ok"]), {}),
    }
    # a metric without a checked sample stays out, which marks the run incorrect
    if trace:
        metrics = dict(res.get("layers", {}))
        traced = [r for r in timed if r["ok"] and r["traced"]]
        if traced:
            metrics["trace.wall_s"] = statistics.median(r["wall_s"] for r in traced)
            summary["self_sum_frac"] = [r["self_sum_frac"] for r in traced]
        if traced and plain:
            metrics["trace.overhead_s"] = metrics["trace.wall_s"] - statistics.median(
                r["wall_s"] for r in plain)
        summary["spans_file"] = str(spans_out.relative_to(ROOT))
        names = [n for n, _, _ in PER_LAYER]
    else:
        metrics = {"setup_s": statistics.median(setups),
                   "peak_rss_mb": res["peak_rss_mb"]}
        if plain:
            for key in ("wall_norm_s", "cpu_norm_s", "wall_s", "cpu_s"):
                metrics[key] = statistics.median(r[key] for r in plain)
        names = [n for n, _, _ in END_TO_END]
        # raw times are printed and kept in the result file, not gated
        summary["raw"] = {n: metrics[n] for n in ("wall_s", "cpu_s") if n in metrics}
    missing = [n for n in names if n not in metrics]
    if missing:
        summary["correct"] = False
        summary["missing_metrics"] = missing
    summary["metrics"] = {n: {"value": metrics[n], "unit": UNITS[n]}
                          for n in names if n in metrics}
    summary["setup_samples"] = setups
    summary["iterations"] = records
    summary["provenance"] = dict(res["provenance"], git_sha=git_sha(),
                                 nproc=os.cpu_count(),
                                 usable_cpus=len(os.sched_getaffinity(0)),
                                 seed=seed)
    return summary


def print_summary(s: dict, trace: int) -> None:
    timed = s["attempted"] - 1
    print(f"== {s['workload']}  seed {s['seed']}  "
          f"({s['samples']} checked untraced iterations after 1 warm-up)")
    for name, m in s["metrics"].items():
        print(f"  {name:<44} {m['value']:>14.6g} {m['unit']}")
    if not trace:
        for name, value in s["raw"].items():
            print(f"  {name:<44} {value:>14.6g} s   (as measured, not rescaled)")
        err = s["max_abs_err"]
        print(f"  {'max_abs_err':<44} {'n/a' if err is None else f'{err:14.6g}':>14}"
              f"{'' if err is None else ' abs'}")
        print(f"  {'failed_frac':<44} {s['failed'] / s['attempted']:>14.6g} "
              f"({s['failed']} of {s['attempted']}, {timed} timed)")
    elif "self_sum_frac" in s:
        fracs = ", ".join(f"{f:.6f}" for f in s["self_sum_frac"])
        print(f"  span self times / traced iteration wall time: {fracs}")
    if s["counts"]:
        print("  counts: " + ", ".join(f"{k}={v}" for k, v in s["counts"].items()))


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20.0,
                   help="timed seconds per workload after the warm-up")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (ROOT / "src" / "frgelab" / "__init__.py").is_file():
        print(f"no frgelab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    summaries = []
    for name in names:
        try:
            s = run_workload(name, args.seed, args.seconds, args.trace)
        except BenchError as exc:
            print(f"benchmark failed: {exc}", file=sys.stderr)
            return 1
        path = OUT_DIR / f"BENCH_{name}_seed{args.seed}_trace{args.trace}.json"
        path.write_text(json.dumps(s, indent=1) + "\n")
        print_summary(s, args.trace)
        summaries.append(s)

    if len(summaries) == 1:
        metrics = dict(summaries[0]["metrics"])
    else:
        metrics = {f"{s['workload']}.{n}": m
                   for s in summaries for n, m in s["metrics"].items()}
    correct = all(s["correct"] for s in summaries)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(s["attempted"] for s in summaries),
        "failed": sum(s["failed"] for s in summaries),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
