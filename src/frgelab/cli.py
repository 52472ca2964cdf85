"""Batch front door: config ingestion, subcommand dispatch, persistence.

Subcommands: validate-regulator, exact, flow, frge-check, converge, report.
Outputs are written atomically; every numeric artifact embeds the config
hash and gets a JSON run manifest for reproducibility.  The config-driven
subcommands (exact, flow, frge-check, converge) share one runner,
``run_table``, which writes every table and its manifest.

Exit codes: 0 success, 2 validation failure (bad input), 3 numerical
failure.  Any other exception is an internal error and propagates.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import hashlib
import io
import json
import os
import sys
import tempfile
import time

import numpy as np

from . import __version__, convex, functionals as fn
from .errors import ConditionViolated, FrgeLabError, SpecValidationError
from .functionals import FunctionalContext
from .model import WindowParams, spec_from_dict
from .regulator import SamplePlan, check_conditions, make_regulator

VALIDATION_ERRORS = (SpecValidationError, OSError, json.JSONDecodeError)
NUMERICAL_ERRORS = FrgeLabError
# |phi| bound of flow --compare's max_deviation, clear of D2's second-order edge stencils
COMPARE_RADIUS = 2.0
# flow --compare's stats keys of the largest deviation within each |phi| bound
DEVIATION_BANDS = (("max_deviation_within_1", 1.0), ("max_deviation", COMPARE_RADIUS),
                   ("max_deviation_whole_grid", np.inf))
# converge's deepest level: its window r_n = 1 - 2^-n rounds to 1 from n = 54 on,
# as 1 - 2^-53 is the last double below 1
MAX_CONVERGE_LEVEL = np.finfo(float).nmant + 1


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
    """Write a table: ``rows`` is a list of rows of cells, or a grid table's
    rows as text (``_grid_rows``).  ``csv.writer`` quotes the cells that
    hold free text, the vertex flow's JSON arrays and report's stats; the
    converge and frge-check tables are a few rows long."""
    if isinstance(rows, str):
        atomic_write(path, ",".join(header) + "\n" + rows)
        return
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    atomic_write(path, buf.getvalue())


def write_manifest(path: str, *, subcommand, cfg_hash, tolerances, stats,
                   outputs, started) -> None:
    doc = {
        "tool_version": __version__,
        "subcommand": subcommand,
        "config_hash": cfg_hash,
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
    """The comma-separated finite numbers of an option; empty entries skipped."""
    try:
        values = [float(x) for x in text.split(",") if x.strip() != ""]
    except ValueError:
        raise SpecValidationError(f"not a list of numbers: {text!r}") from None
    if not np.isfinite(values).all():
        raise SpecValidationError(f"not a list of finite numbers: {text!r}")
    return values


def _scales(values, option: str):
    """``values``, scales given with ``option``; a negative one raises
    SpecValidationError, as the regulator family is defined for k >= 0."""
    for k in values:
        if k < 0:
            raise SpecValidationError(
                f"{option} {k:g} is negative; the regulator family is defined for k >= 0")
    return values


def _grid_rows(row: str, scales, grid: np.ndarray, columns) -> str:
    """A grid table's rows as text, one ``row.format`` of the k and phi cells
    and each column's value per (scale, node), the columns (S, N) arrays.

    The cells are formatted numbers, which ``csv.writer`` never quotes, so the
    rows are its output without its per-row cost.  Cells are formatted from
    Python floats, the same digits as numpy's.
    """
    phi_cells = [f"{phi:.12g}" for phi in grid.tolist()]
    return "".join([row.format(k_cell, *cells)
                    for k_cell, *values in zip([f"{k:.12g}" for k in scales],
                                               *(c.tolist() for c in columns))
                    for cells in zip(phi_cells, *values)])


def _vertex_cell(vertex: np.ndarray) -> str:
    """A single-mode vertex as a number, a multi-mode one as a JSON array."""
    return f"{vertex.flat[0]:.15g}" if vertex.size == 1 else json.dumps(vertex.tolist())


# -- subcommands -------------------------------------------------------


def cmd_validate_regulator(args) -> int:
    started = time.monotonic()
    plan = SamplePlan(count=args.count, seed=args.seed)
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


# -- table subcommands -------------------------------------------------
# exact, flow, frge-check and converge each read a config and write one CSV
# with its manifest.  Their handlers take (args, spec, regulator) and return
# (header, rows, fields), ``rows`` as write_csv takes them; ``fields`` holds
# the manifest's tolerances and stats.  run_table does the rest.


def run_table(args) -> int:
    started = time.monotonic()
    spec, doc = _load_config(args.config)
    cfg_hash = config_hash(doc)
    regulator = make_regulator(args.regulator)
    header, rows, fields = args.table(args, spec, regulator)
    write_csv(args.out, header, rows)
    write_manifest(
        args.out + ".manifest.json", subcommand=args.subcommand, cfg_hash=cfg_hash,
        outputs=[os.path.basename(args.out)], started=started, **fields,
    )
    return 0


def exact_table(args, spec, regulator):
    # the config's field grid, which the flow steps, with any option put in;
    # the spec validates the result
    options = {"phi_max": args.phi_max, "phi_nodes": args.phi_nodes}
    spec = dataclasses.replace(
        spec, **{name: value for name, value in options.items() if value is not None})
    ctx = FunctionalContext(spec=spec, regulator=regulator)
    if ctx.measure.dim != 1:
        raise SpecValidationError("the exact sweep is single-mode only")
    scales = _scales(_parse_floats(args.k), "--k")
    if not scales:
        raise SpecValidationError("--k lists no scale")
    grid = spec.field_grid
    # one transform of every scale
    *columns, newton_iterations = fn.grid_transform(ctx, scales, grid)
    rows = _grid_rows("{},{},{:.15g},{:.15g},{:.15g},{:.3e}," + f"{fn.BUDGET:.1e}\n",
                      scales, grid, columns)
    header = ["k", "phi", "Gamma", "GammaBar", "J", "residual", "budget"]
    return header, rows, dict(
        tolerances={"budget": fn.BUDGET, "newton_tol": fn.NEWTON_TOL},
        stats={"rows": columns[0].size, "newton_iterations": newton_iterations},
    )


def flow_table(args, spec, regulator):
    from . import flow as flow_mod  # deferred: other commands skip flow's imports
    if args.compare and args.rep != "grid":
        raise SpecValidationError("--compare needs --rep grid")
    ctx = FunctionalContext(spec=spec, regulator=regulator)
    _scales([args.kend], "--kend")
    checkpoints = _scales(_parse_floats(args.checkpoints), "--checkpoints")
    initial, info = flow_mod.initial_condition(ctx, args.init, args.kuv, rep=args.rep)
    traj = flow_mod.integrate(
        initial, args.kuv, args.kend, regulator,
        momenta=spec.momenta, weights=spec.momentum_weights,
        checkpoints=checkpoints, rtol=args.rtol, atol=args.atol,
    )
    stats = dict(traj.stats)
    stats.update(info)
    if args.rep == "grid":
        # every checkpoint shares the grid
        grid = traj.checkpoints[0][1].grid
        scales = [k for k, _ in traj.checkpoints]
        columns = [np.array([state.values for _, state in traj.checkpoints])]
        if args.compare:
            # an exact start is the oracle at k_uv; one transform of the other scales
            reused = np.array([args.init == "exact" and k == args.kuv for k in scales])
            exact = np.empty_like(columns[0])
            exact[reused] = initial.values
            if not reused.all():
                exact[~reused] = flow_mod.exact_grid_values(
                    ctx, [k for k, r in zip(scales, reused) if not r], grid)
            columns.append(np.abs(columns[0] - exact))
            # the largest deviation at |phi| <= 1, at |phi| <= COMPARE_RADIUS
            # and on the whole grid, in that order never smaller: the box
            # edge's error shows in the last, and how far it leaks inward in
            # the other two
            for key, radius in DEVIATION_BANDS:
                stats[key] = float(np.max(
                    columns[1][:, np.abs(grid) <= radius], initial=0.0))
        rows = _grid_rows("{},{},{:.15g}" + (",{:.6e}" if args.compare else "") + "\n",
                          scales, grid, columns)
        header = ["k", "phi", "GammaBar"] + (["deviation"] if args.compare else [])
    else:
        rows = [[f"{k:.12g}", _vertex_cell(state.gamma2), _vertex_cell(state.gamma4)]
                for k, state in traj.checkpoints]
        header = ["k", "gamma2", "gamma4"]
    return header, rows, dict(
        tolerances={"rtol": args.rtol, "atol": args.atol,
                    "rg_time_scale": flow_mod.RG_TIME_SCALE},
        stats=stats,
    )


def frge_check_table(args, spec, regulator):
    ctx = FunctionalContext(spec=spec, regulator=regulator)
    _scales([args.k], "--k")
    probes = _parse_floats(args.probes)
    if not probes:
        raise SpecValidationError("--probes lists no field")
    report = fn.frge_first_form_check(ctx, args.k, probes)
    rows = [[f"{r['phi']:.12g}", f"{r['k']:.12g}", f"{r['lhs']:.15g}",
             f"{r['rhs']:.15g}", f"{r['abs_diff']:.6e}"] for r in report]
    worst = max(r["abs_diff"] for r in report)
    print(f"max |lhs - rhs| over {len(report)} probes: {worst:.3e}")
    return ["phi", "k", "lhs", "rhs", "abs_diff"], rows, dict(
        tolerances={"dk_step": fn.FIRST_FORM_DK_STEP},
        stats={"probes": len(report), "max_abs_diff": worst},
    )


def converge_table(args, spec, regulator):
    if spec.dimension != 0:
        raise SpecValidationError("the convergence sweep varies a d=0 scalar window")
    if not 1 <= args.levels <= MAX_CONVERGE_LEVEL:
        raise SpecValidationError(
            f"--levels must be between 1 and {MAX_CONVERGE_LEVEL}: the window "
            f"1 - 2^-n rounds to 1 past n = {MAX_CONVERGE_LEVEL}")
    if args.seed is not None:
        print("converge: --seed is ignored; the probe is a deterministic quadrature",
              file=sys.stderr)
    models = [
        dataclasses.replace(
            spec, window=WindowParams(kind="scalar", r=1.0 - 2.0 ** (-n))
        )
        for n in range(1, args.levels + 1)
    ]
    report = convex.convergence_suite(models, spec, regulator)
    rows = [
        [str(n), f"{u:.10g}", f"{a:.10g}", f"{p:.10g}"]
        for n, u, a, p in zip(report.indices, report.uniform, report.aw, report.probe)
    ]
    for name, flag in (("uniform", report.uniform_monotone),
                       ("aw", report.aw_monotone),
                       ("probe", report.probe_monotone)):
        print(f"{name} monotone decreasing: {'yes' if flag else 'NO'}")
    header = ["n", "uniform_distance", "aw_distance", "probe_distance"]
    return header, rows, dict(
        tolerances={"uniform_radius": convex.UNIFORM_RADIUS, "aw_rho": convex.AW_RHO},
        stats={
            "levels": args.levels,
            "uniform_monotone": report.uniform_monotone,
            "aw_monotone": report.aw_monotone,
            "probe_monotone": report.probe_monotone,
        },
    )


def cmd_report(args) -> int:
    manifests = []
    for path in args.manifests:
        with open(path) as fh:
            doc = json.load(fh)
        if not isinstance(doc, dict) or not isinstance(doc.get("config_hash"), str):
            raise SpecValidationError(f"{path} is not a run manifest")
        stats = doc.get("stats", {})
        if not isinstance(stats, dict):
            raise SpecValidationError(f"{path}: stats is not an object")
        dev = stats.get("max_deviation", 0.0)
        if not isinstance(dev, (int, float)) or isinstance(dev, bool):
            raise SpecValidationError(f"{path}: stats.max_deviation is not a number")
        manifests.append((path, doc, stats))
    hashes = {m["config_hash"] for _, m, _ in manifests}
    if len(hashes) > 1 and not args.force:
        raise SpecValidationError(
            f"manifests carry different config hashes {sorted(hashes)}; "
            "pass --force to merge anyway"
        )
    rows = []
    for path, m, stats in manifests:
        subcommand = m.get("subcommand", "?")
        summary = "; ".join(f"{k}={v}" for k, v in sorted(stats.items()))
        rows.append([os.path.basename(path), subcommand, m["config_hash"], summary])
        if "max_deviation" in stats:
            print(f"{subcommand}: max deviation {stats['max_deviation']:.3e}")
    write_csv(args.out, ["manifest", "subcommand", "config_hash", "stats"], rows)
    print(f"merged {len(rows)} manifests into {args.out}")
    return 0


# -- argument parsing --------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``frgelab`` parser, built once per process: parsing leaves it
    unchanged, and each option it adds builds a help formatter."""
    parser = argparse.ArgumentParser(
        prog="frgelab",
        description="Scale-flow laboratory: oracles, flows and convergence checks.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("validate-regulator", help="sampled admissibility checks")
    p.add_argument("--regulator", default="litim")
    p.add_argument("--count", type=int, default=10_000)
    p.add_argument("--seed", type=int, default=1234)
    p.add_argument("--out", default=None)
    p.set_defaults(handler=cmd_validate_regulator)

    # the options every table subcommand takes; run_table reads them
    table = argparse.ArgumentParser(add_help=False)
    table.add_argument("--config", required=True)
    table.add_argument("--regulator", default="litim")
    table.add_argument("--out", required=True)

    def add_table(name, handler, **kwargs):
        p = sub.add_parser(name, parents=[table], **kwargs)
        p.set_defaults(handler=run_table, table=handler)
        return p

    p = add_table("exact", exact_table,
                  help="oracle sweep over a field grid at given scales")
    p.add_argument("--k", default="10,1,0")
    # default: the config's field_grid
    p.add_argument("--phi-max", type=float, default=None)
    p.add_argument("--phi-nodes", type=int, default=None)

    p = add_table("flow", flow_table, help="integrate the scale flow")
    p.add_argument("--kuv", type=float, required=True)
    p.add_argument("--kend", type=float, default=0.0)
    p.add_argument("--checkpoints", default="")
    p.add_argument("--init", choices=("exact", "classical"), default="exact")
    p.add_argument("--rep", choices=("grid", "vertex"), default="grid")
    # flow.integrate's defaults, repeated: the parser must not import flow
    p.add_argument("--rtol", type=float, default=1e-9)
    p.add_argument("--atol", type=float, default=1e-11)
    p.add_argument("--compare", action="store_true",
                   help="record deviations from the oracle at each checkpoint")

    p = add_table("frge-check", frge_check_table,
                  help="unsubtracted flow-identity probe")
    p.add_argument("--k", type=float, default=1.0)
    p.add_argument("--probes", default="0,0.5,1,1.5,2")

    p = add_table("converge", converge_table,
                  help="window-sequence convergence diagnostics",
                  description="--config is the limit-theory config (d=0); "
                              "members use r_n = 1 - 2^-n")
    p.add_argument("--levels", type=int, default=6)
    # accepted so that callers which still pass it keep working; it has no effect
    p.add_argument("--seed", type=int, default=None, help=argparse.SUPPRESS)

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
