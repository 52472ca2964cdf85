"""Batch front door: config ingestion, subcommand dispatch, persistence.

Subcommands: validate-regulator, exact, flow, frge-check, converge, report.
Outputs are written atomically; every numeric artifact embeds the config
hash and gets a JSON run manifest for reproducibility.

Exit codes: 0 success, 2 validation failure (bad input), 3 numerical
failure.  Any other exception is an internal error and propagates.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import hashlib
import io
import json
import os
import sys
import tempfile
import time

import numpy as np

from . import __version__, convex, flow as flow_mod, functionals as fn
from .errors import ConditionViolated, FrgeLabError, SpecValidationError
from .functionals import FunctionalContext
from .model import WindowParams, spec_from_dict
from .regulator import SamplePlan, check_conditions, make_regulator

VALIDATION_ERRORS = (SpecValidationError, OSError, json.JSONDecodeError)
NUMERICAL_ERRORS = FrgeLabError


def config_hash(doc) -> str:
    """64-bit hash of the canonicalized JSON document (hex, 16 chars)."""
    canon = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


def atomic_write(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_csv(path: str, header, rows) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow(row)
    atomic_write(path, buf.getvalue())


def write_manifest(path: str, *, subcommand, cfg_hash, seeds, tolerances,
                   stats, outputs, started) -> None:
    doc = {
        "tool_version": __version__,
        "subcommand": subcommand,
        "config_hash": cfg_hash,
        "seeds": seeds,
        "tolerances": tolerances,
        "stats": stats,
        "outputs": outputs,
        "wall_clock_seconds": round(time.monotonic() - started, 3),
    }
    atomic_write(path, json.dumps(doc, indent=2, sort_keys=True) + "\n")


def _load_config(path: str):
    """The spec and the parsed document it was built from (for the hash)."""
    with open(path) as fh:
        doc = json.load(fh)
    return spec_from_dict(doc), doc


def _parse_floats(text: str):
    try:
        return [float(x) for x in text.split(",") if x.strip() != ""]
    except ValueError:
        raise SpecValidationError(f"not a list of numbers: {text!r}") from None


def _require_positive_finite(flag: str, value: float) -> None:
    if not 0 < value < np.inf:
        raise SpecValidationError(f"{flag} must be positive and finite, got {value}")


# -- subcommands -------------------------------------------------------


def cmd_validate_regulator(args) -> int:
    started = time.monotonic()
    plan = SamplePlan(k_max=args.k_max, p_max=args.p_max,
                      count=args.count, seed=args.seed)
    reg = make_regulator(args.regulator)
    report = check_conditions(reg, plan)
    for name, ok in report.passed.items():
        line = f"{name}: {'pass' if ok else 'FAIL'}"
        if not ok and name in report.witnesses:
            line += f"  witness={report.witnesses[name]}"
        print(line)
    if args.out:
        doc = {
            "regulator": report.kind,
            "samples": report.samples,
            "passed": report.passed,
            "witnesses": {k: list(v) for k, v in report.witnesses.items()},
            "config_hash": config_hash(dataclasses.asdict(plan)),
            "wall_clock_seconds": round(time.monotonic() - started, 3),
        }
        atomic_write(args.out, json.dumps(doc, indent=2, sort_keys=True) + "\n")
    if not report.all_passed:
        name = next(n for n, ok in report.passed.items() if not ok)
        k, p, _ = report.witnesses.get(name, (None, None, None))
        raise ConditionViolated(f"regulator condition {name!r} failed", k=k, p=p)
    return 0


def cmd_exact(args) -> int:
    started = time.monotonic()
    spec, doc = _load_config(args.config)
    cfg_hash = config_hash(doc)
    reg = make_regulator(args.regulator)
    ctx = FunctionalContext(spec=spec, regulator=reg)
    if ctx.measure.dim != 1:
        raise SpecValidationError("the exact sweep is single-mode only")
    if args.phi_nodes < 1:
        raise SpecValidationError("--phi-nodes must be at least 1")
    _require_positive_finite("--phi-max", args.phi_max)
    grid = np.linspace(-args.phi_max, args.phi_max, args.phi_nodes)
    rows = []
    for k in _parse_floats(args.k):
        # the last lane is the field 0, for the subtraction
        values, solve = fn.legendre_transform(ctx, k, np.append(grid, 0.0))
        gamma0 = values[-1]
        for phi, g, j, residual in zip(grid, values, solve.source[:, 0], solve.residual):
            rows.append([
                f"{k:.12g}", f"{phi:.12g}", f"{g:.15g}", f"{g - gamma0:.15g}",
                f"{j:.15g}", f"{residual:.3e}", f"{fn.BUDGET:.1e}",
            ])
    write_csv(args.out, ["k", "phi", "Gamma", "GammaBar", "J", "residual", "budget"],
              rows)
    write_manifest(
        args.out + ".manifest.json", subcommand="exact", cfg_hash=cfg_hash,
        seeds={}, tolerances={"budget": fn.BUDGET, "newton_tol": fn.NEWTON_TOL},
        stats={"rows": len(rows)},
        outputs=[os.path.basename(args.out)], started=started,
    )
    return 0


def cmd_flow(args) -> int:
    started = time.monotonic()
    spec, doc = _load_config(args.config)
    cfg_hash = config_hash(doc)
    _require_positive_finite("--compare-radius", args.compare_radius)
    reg = make_regulator(args.regulator)
    ctx = FunctionalContext(spec=spec, regulator=reg)
    checkpoints = _parse_floats(args.checkpoints)
    initial, info = flow_mod.initial_condition(ctx, args.init, args.kuv, rep=args.rep)
    traj = flow_mod.integrate(
        initial, args.kuv, args.kend, reg,
        momenta=spec.momenta, weights=spec.momentum_weights,
        checkpoints=checkpoints, rtol=args.rtol, atol=args.atol,
    )
    stats = dict(traj.stats)
    stats.update(info)
    rows = []
    if args.rep == "grid":
        max_dev = 0.0
        for k, state in traj.checkpoints:
            exact_vals = None
            if args.compare and args.init == "exact" and k == args.kuv:
                exact_vals = initial.values  # an exact start is the oracle at k_uv
            elif args.compare:
                exact_vals = flow_mod.exact_grid_values(ctx, k, state.grid)
            for i, (phi, val) in enumerate(zip(state.grid, state.values)):
                row = [f"{k:.12g}", f"{phi:.12g}", f"{val:.15g}"]
                if exact_vals is not None:
                    dev = abs(val - exact_vals[i])
                    row.append(f"{dev:.6e}")
                    if abs(phi) <= args.compare_radius:
                        max_dev = max(max_dev, dev)
                rows.append(row)
        header = ["k", "phi", "GammaBar"] + (["deviation"] if args.compare else [])
        if args.compare:
            stats["max_deviation"] = max_dev
    else:
        for k, state in traj.checkpoints:
            rows.append([
                f"{k:.12g}",
                f"{state.gamma2[0, 0]:.15g}" if state.gamma2.shape == (1, 1)
                else json.dumps(state.gamma2.tolist()),
                f"{state.gamma4[0, 0, 0, 0]:.15g}"
                if state.gamma4.shape == (1, 1, 1, 1)
                else json.dumps(state.gamma4.tolist()),
            ])
        header = ["k", "gamma2", "gamma4"]
    write_csv(args.out, header, rows)
    write_manifest(
        args.out + ".manifest.json", subcommand="flow", cfg_hash=cfg_hash,
        seeds={},
        tolerances={"rtol": args.rtol, "atol": args.atol},
        stats=stats, outputs=[os.path.basename(args.out)], started=started,
    )
    return 0


def cmd_frge_check(args) -> int:
    started = time.monotonic()
    spec, doc = _load_config(args.config)
    cfg_hash = config_hash(doc)
    reg = make_regulator(args.regulator)
    ctx = FunctionalContext(spec=spec, regulator=reg)
    probes = _parse_floats(args.probes)
    if not probes:
        raise SpecValidationError("--probes lists no field")
    report = flow_mod.frge_first_form_check(ctx, args.k, probes)
    rows = [[f"{r['phi']:.12g}", f"{r['k']:.12g}", f"{r['lhs']:.15g}",
             f"{r['rhs']:.15g}", f"{r['abs_diff']:.6e}"] for r in report]
    write_csv(args.out, ["phi", "k", "lhs", "rhs", "abs_diff"], rows)
    worst = max(r["abs_diff"] for r in report)
    print(f"max |lhs - rhs| over {len(report)} probes: {worst:.3e}")
    write_manifest(
        args.out + ".manifest.json", subcommand="frge-check", cfg_hash=cfg_hash,
        seeds={}, tolerances={"dk_step": flow_mod.FIRST_FORM_DK_STEP},
        stats={"probes": len(report), "max_abs_diff": worst},
        outputs=[os.path.basename(args.out)], started=started,
    )
    return 0


def cmd_converge(args) -> int:
    started = time.monotonic()
    spec, doc = _load_config(args.config)
    cfg_hash = config_hash(doc)
    if spec.dimension != 0:
        raise SpecValidationError("the convergence sweep varies a d=0 scalar window")
    if args.levels < 1:
        raise SpecValidationError("--levels must be at least 1")
    _require_positive_finite("--rho", args.rho)
    _require_positive_finite("--radius", args.radius)
    reg = make_regulator(args.regulator)
    models = [
        dataclasses.replace(
            spec, window=WindowParams(kind="scalar", r=1.0 - 2.0 ** (-n))
        )
        for n in range(1, args.levels + 1)
    ]
    report = convex.convergence_suite(
        models, spec, reg,
        uniform_radius=args.radius, aw_rho=args.rho, seed=args.seed,
    )
    rows = [
        [str(n), f"{u:.10g}", f"{a:.10g}", f"{p:.10g}"]
        for n, u, a, p in zip(report.indices, report.uniform, report.aw, report.probe)
    ]
    write_csv(args.out, ["n", "uniform_distance", "aw_distance", "probe_distance"],
              rows)
    for name, flag in (("uniform", report.uniform_monotone),
                       ("aw", report.aw_monotone),
                       ("probe", report.probe_monotone)):
        print(f"{name} monotone decreasing: {'yes' if flag else 'NO'}")
    write_manifest(
        args.out + ".manifest.json", subcommand="converge", cfg_hash=cfg_hash,
        seeds={"probe": args.seed},
        tolerances={"uniform_radius": args.radius, "aw_rho": args.rho},
        stats={
            "levels": args.levels,
            "uniform_monotone": report.uniform_monotone,
            "aw_monotone": report.aw_monotone,
            "probe_monotone": report.probe_monotone,
        },
        outputs=[os.path.basename(args.out)], started=started,
    )
    return 0


def cmd_report(args) -> int:
    manifests = []
    for path in args.manifests:
        with open(path) as fh:
            doc = json.load(fh)
        if not isinstance(doc, dict) or "config_hash" not in doc:
            raise SpecValidationError(f"{path} is not a run manifest")
        manifests.append((path, doc))
    hashes = {m["config_hash"] for _, m in manifests}
    if len(hashes) > 1 and not args.force:
        raise SpecValidationError(
            f"manifests carry different config hashes {sorted(hashes)}; "
            "pass --force to merge anyway"
        )
    rows = []
    for path, m in manifests:
        stats = m.get("stats", {})
        summary = "; ".join(f"{k}={v}" for k, v in sorted(stats.items()))
        rows.append([
            os.path.basename(path), m.get("subcommand", "?"),
            m.get("config_hash", "?"), summary,
        ])
        if "max_deviation" in stats:
            print(f"{m['subcommand']}: max deviation {stats['max_deviation']:.3e}")
    write_csv(args.out, ["manifest", "subcommand", "config_hash", "stats"], rows)
    print(f"merged {len(rows)} manifests into {args.out}")
    return 0


# -- argument parsing --------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="frgelab",
        description="Scale-flow laboratory: oracles, flows and convergence checks.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("validate-regulator", help="sampled admissibility checks")
    p.add_argument("--regulator", default="litim")
    p.add_argument("--k-max", type=float, default=10.0)
    p.add_argument("--p-max", type=float, default=10.0)
    p.add_argument("--count", type=int, default=10_000)
    p.add_argument("--seed", type=int, default=1234)
    p.add_argument("--out", default=None)
    p.set_defaults(handler=cmd_validate_regulator)

    p = sub.add_parser("exact", help="oracle sweep over a field grid at given scales")
    p.add_argument("--config", required=True)
    p.add_argument("--k", default="10,1,0")
    p.add_argument("--phi-max", type=float, default=2.0)
    p.add_argument("--phi-nodes", type=int, default=41)
    p.add_argument("--regulator", default="litim")
    p.add_argument("--out", required=True)
    p.set_defaults(handler=cmd_exact)

    p = sub.add_parser("flow", help="integrate the scale flow")
    p.add_argument("--config", required=True)
    p.add_argument("--kuv", type=float, required=True)
    p.add_argument("--kend", type=float, default=0.0)
    p.add_argument("--checkpoints", default="")
    p.add_argument("--init", choices=("exact", "classical"), default="exact")
    p.add_argument("--rep", choices=("grid", "vertex"), default="grid")
    p.add_argument("--rtol", type=float, default=1e-8)
    p.add_argument("--atol", type=float, default=1e-10)
    p.add_argument("--regulator", default="litim")
    p.add_argument("--compare", action="store_true",
                   help="record deviations from the oracle at each checkpoint")
    p.add_argument("--compare-radius", type=float, default=2.0)
    p.add_argument("--out", required=True)
    p.set_defaults(handler=cmd_flow)

    p = sub.add_parser("frge-check", help="unsubtracted flow-identity probe")
    p.add_argument("--config", required=True)
    p.add_argument("--k", type=float, default=1.0)
    p.add_argument("--probes", default="0,0.5,1,1.5,2")
    p.add_argument("--regulator", default="litim")
    p.add_argument("--out", required=True)
    p.set_defaults(handler=cmd_frge_check)

    p = sub.add_parser("converge", help="window-sequence convergence diagnostics")
    p.add_argument("--config", required=True,
                   help="limit-theory config (d=0); members use r_n = 1 - 2^-n")
    p.add_argument("--levels", type=int, default=6)
    p.add_argument("--radius", type=float, default=2.0)
    p.add_argument("--rho", type=float, default=6.0)
    p.add_argument("--seed", type=int, default=20240)
    p.add_argument("--regulator", default="litim")
    p.add_argument("--out", required=True)
    p.set_defaults(handler=cmd_converge)

    p = sub.add_parser("report", help="merge run manifests into a summary table")
    p.add_argument("manifests", nargs="+")
    p.add_argument("--force", action="store_true")
    p.add_argument("--out", required=True)
    p.set_defaults(handler=cmd_report)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except VALIDATION_ERRORS as exc:
        print(f"validation failure: {exc}", file=sys.stderr)
        return 2
    except NUMERICAL_ERRORS as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
