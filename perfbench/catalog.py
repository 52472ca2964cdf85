"""What the benchmark runs and reports: workloads, seeded inputs, metrics.

This module is plain Python (no numpy, no frgelab) so run.py can use it
without paying for the imports it measures in its worker processes.
"""

from __future__ import annotations

import random

# name -> why it is in the benchmark (one line each; README.md has the long form)
WORKLOADS = {
    "phi4_pipeline": "README quick start at acceptance-03 scale through the CLI; "
                     "the quadrature oracle dominates it",
    "grid_flow_stiff": "1201-node grid flow from the classical start; flow and "
                       "regulator do the work, the oracle none",
    "convergence": "acceptance-11 convergence suite through the CLI; forward "
                   "kernel calls plus the convex layer, no Newton",
    "vertex_multimode": "vertex flow at M = 3 and 9 plus the 16^3-node oracle "
                        "Hessian; few steps with an expensive RHS",
}

# (name, unit, better) of the metrics a --trace 0 run reports
END_TO_END = [
    ("wall_norm_s", "s", "lower"),
    ("cpu_norm_s", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
]

# (name, unit, better) of the metrics a --trace 1 run reports.  A name is
# "<layer>.<what>"; "<layer>.self_s" is the layer's total self time.
PER_LAYER = [
    ("functionals.self_s", "s", "lower"),
    ("functionals.tilted_moments.calls", "count", "lower"),
    ("functionals.tilted_moments.self_s", "s", "lower"),
    ("functionals.invert_mean_field.calls", "count", "lower"),
    ("functionals.invert_mean_field.self_s", "s", "lower"),
    ("functionals.W.calls", "count", "lower"),
    ("functionals.W.self_s", "s", "lower"),
    ("functionals.newton_iters", "count", "lower"),
    ("functionals.inversions_per_node", "ratio", "lower"),
    ("functionals.kernel_calls_per_inversion", "ratio", "lower"),
    ("model.self_s", "s", "lower"),
    ("model.interaction_batch.calls", "count", "lower"),
    ("model.interaction_batch.rows", "count", "lower"),
    ("model.interaction_batch.self_s", "s", "lower"),
    ("model.recentre_passes_per_kernel", "ratio", "lower"),
    ("model.covariance.calls", "count", "lower"),
    ("flow.self_s", "s", "lower"),
    ("flow.integrate.self_s", "s", "lower"),
    ("flow.steps", "count", "lower"),
    ("flow.nfev", "count", "lower"),
    ("flow.nfev_per_step", "ratio", "lower"),
    ("flow.rhs_grid.calls", "count", "lower"),
    ("flow.rhs_grid.self_s", "s", "lower"),
    ("flow.rhs_vertex.calls", "count", "lower"),
    ("flow.rhs_vertex.self_s", "s", "lower"),
    ("flow.rhs_poisoned", "count", "lower"),
    ("flow.exact_grid_values.self_s", "s", "lower"),
    ("flow.exact_grid_values.wall_s", "s", "lower"),
    ("regulator.self_s", "s", "lower"),
    ("regulator.value.calls", "count", "lower"),
    ("regulator.dk.calls", "count", "lower"),
    ("regulator.check_conditions.wall_s", "s", "lower"),
    ("convex.self_s", "s", "lower"),
    ("convex.conjugate.self_s", "s", "lower"),
    ("convex.aw_distance.self_s", "s", "lower"),
    ("convex.convergence_suite.self_s", "s", "lower"),
    ("measure.self_s", "s", "lower"),
    ("measure.build_measure.calls", "count", "lower"),
    ("measure.build_measure.self_s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    ("cli.main.validate-regulator.wall_s", "s", "lower"),
    ("cli.main.flow.wall_s", "s", "lower"),
    ("cli.main.exact.wall_s", "s", "lower"),
    ("cli.main.converge.wall_s", "s", "lower"),
    ("cli.main.report.wall_s", "s", "lower"),
    ("cli.write_csv.self_s", "s", "lower"),
    ("cli.bytes_written", "B", "lower"),
    ("bench.self_s", "s", "lower"),
    ("trace.wall_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
]

UNITS = {name: unit for name, unit, _ in END_TO_END + PER_LAYER}
# per-layer metrics in these units repeat exactly for one seed; the rest are
# measurements (times, and bytes: manifests embed their wall-clock time)
EXACT_UNITS = ("count", "ratio")

# Seeded model parameters stay in a narrow band around the acceptance values,
# so every seed passes the acceptance bounds and does about the same work.
C4_BAND = 0.02
MASS_BAND = 0.01


def _near(rng: random.Random, centre: float, band: float) -> float:
    return centre * (1.0 + rng.uniform(-band, band))


def make_inputs(workload: str, seed: int) -> dict:
    """The generated configs one workload run receives; equal seeds, equal inputs."""
    if workload not in WORKLOADS:
        raise KeyError(f"unknown workload {workload!r}")
    # string seeding hashes with SHA-512, so it does not depend on PYTHONHASHSEED
    rng = random.Random(f"{workload}/{seed}")
    c4 = _near(rng, 0.05 if workload == "vertex_multimode" else 0.1, C4_BAND)
    mass = _near(rng, 1.0, MASS_BAND)
    if workload == "vertex_multimode":
        return {
            "specs": [
                {"dimension": 1, "modes": modes, "mass": mass,
                 "momentum_spacing": 1.0, "window": "identity",
                 "interaction": {"c4": c4}}
                for modes in (3, 9)
            ],
            "kuv": 10.0,
        }
    config = {"dimension": 0, "modes": 1, "mass": mass, "window": {"r": 1.0},
              "interaction": {"c4": c4}}
    if workload == "phi4_pipeline":
        config["field_grid"] = {"phi_max": 4.5, "nodes": 301}
        return {"config": config, "kuv": 100.0, "checkpoints": "10,1,0",
                "exact_k": "10,1,0"}
    if workload == "grid_flow_stiff":
        config["field_grid"] = {"phi_max": 4.5, "nodes": 1201}
        return {"config": config, "kuv": 100.0, "checkpoints": [10.0, 1.0, 0.0]}
    return {"config": config, "levels": 6, "probe_seed": rng.randrange(2**31)}
