"""The four benchmark workloads, run inside a worker process.

Each workload is built once from its generated inputs (its constructor), may
compute a reference outside the timed region (``reference``), and then runs
closed-loop iterations (``iterate``) whose output ``check`` verifies with the
bound of the matching acceptance test.  Only public entry points of frgelab
are called, always through their module so a tracer can wrap them.
"""

from __future__ import annotations

import contextlib
import io
import json
import os

import numpy as np

from frgelab import cli
from frgelab import flow as fl
from frgelab import functionals as fn
from frgelab.model import spec_from_dict
from frgelab.regulator import make_regulator


class CheckFailed(Exception):
    """An iteration's output broke its acceptance bound."""


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


class Workload:
    """Interface: ``iterate`` returns an output that ``check`` turns into
    ``(max_abs_err or None, counts)`` or rejects with :class:`CheckFailed`."""

    oracle_nodes = 0  # field points whose oracle value one iteration requests

    def reference(self) -> None:
        pass


class Phi4Pipeline(Workload):
    """validate-regulator, flow --compare, exact and report, as the README runs them."""

    def __init__(self, inputs: dict, workdir: str):
        self.config_path = os.path.join(workdir, "config.json")
        with open(self.config_path, "w") as fh:
            json.dump(inputs["config"], fh)
        grid = inputs["config"]["field_grid"]
        path = lambda name: os.path.join(workdir, name)  # noqa: E731
        self.csvs = [path("flow.csv"), path("exact.csv"), path("summary.csv")]
        self.nodes = grid["nodes"]
        self.steps = [
            ["validate-regulator", "--regulator", "litim"],
            ["flow", "--config", self.config_path, "--kuv", str(inputs["kuv"]),
             "--checkpoints", inputs["checkpoints"], "--compare",
             "--out", path("flow.csv")],
            ["exact", "--config", self.config_path, "--k", inputs["exact_k"],
             "--phi-max", str(grid["phi_max"]), "--phi-nodes", str(grid["nodes"]),
             "--out", path("exact.csv")],
            ["report", path("flow.csv.manifest.json"),
             path("exact.csv.manifest.json"), "--out", path("summary.csv")],
        ]
        self.first_csvs = None

    def iterate(self):
        with contextlib.redirect_stdout(io.StringIO()):
            return [cli.main(argv) for argv in self.steps]

    def check(self, codes):
        _require(codes == [0] * len(self.steps), f"exit codes {codes}")
        with open(self.csvs[0] + ".manifest.json") as fh:
            stats = json.load(fh)["stats"]
        err = stats["max_deviation"]
        _require(err <= 1e-4, f"flow max_deviation {err:.3e} > 1e-4")
        csvs = []
        for name in self.csvs:
            with open(name, "rb") as fh:
                csvs.append(fh.read())
        if self.first_csvs is None:
            self.first_csvs = csvs
        _require(csvs == self.first_csvs, "CSV outputs differ between iterations")
        # oracle points: the exact initial grid, one flow.csv row per compared
        # (k, phi) and one exact.csv row per swept (k, phi); headers excluded
        self.oracle_nodes = (self.nodes + csvs[0].count(b"\n") - 1
                             + csvs[1].count(b"\n") - 1)
        counts = {"flow.steps": stats["steps"], "flow.nfev": stats["nfev"],
                  "oracle_nodes": self.oracle_nodes}
        return err, counts


class GridFlowStiff(Workload):
    """Grid flow from the classical initial condition, no oracle while timed."""

    def __init__(self, inputs: dict, workdir: str):
        self.spec = spec_from_dict(inputs["config"])
        self.reg = make_regulator("litim")
        self.ctx = fn.FunctionalContext(spec=self.spec, regulator=self.reg,
                                        self_check=False)
        self.kuv = inputs["kuv"]
        self.checkpoints = inputs["checkpoints"]
        self.ref = None

    def reference(self):
        # only the checked nodes: a symmetric odd sub-grid keeps phi = 0 central
        self.mask = np.abs(self.spec.field_grid) <= 2.0
        self.ref = fl.exact_grid_values(self.ctx, 0.0, self.spec.field_grid[self.mask])

    def iterate(self):
        init, _ = fl.initial_condition(self.ctx, "classical", self.kuv)
        return fl.integrate(init, self.kuv, 0.0, self.reg,
                            checkpoints=self.checkpoints)

    def check(self, traj):
        k, state = traj.checkpoints[-1]
        _require(k == 0.0, f"last checkpoint at k={k}, not 0")
        err = float(np.abs(state.values[self.mask] - self.ref).max())
        _require(err <= 1e-3, f"k=0 deviation from gamma_bar {err:.3e} > 1e-3")
        return err, {"flow.steps": traj.stats["steps"], "flow.nfev": traj.stats["nfev"]}


class Convergence(Workload):
    """cli converge: six window members against the limit theory."""

    def __init__(self, inputs: dict, workdir: str):
        self.config_path = os.path.join(workdir, "config.json")
        with open(self.config_path, "w") as fh:
            json.dump(inputs["config"], fh)
        self.out = os.path.join(workdir, "converge.csv")
        self.argv = ["converge", "--config", self.config_path,
                     "--levels", str(inputs["levels"]),
                     "--seed", str(inputs["probe_seed"]), "--out", self.out]

    def iterate(self):
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(self.argv)

    def check(self, code):
        _require(code == 0, f"exit code {code}")
        with open(self.out + ".manifest.json") as fh:
            stats = json.load(fh)["stats"]
        flags = [stats[f"{n}_monotone"] for n in ("uniform", "aw", "probe")]
        _require(all(flags), f"monotone flags uniform/aw/probe = {flags}")
        return None, {}


class VertexMultimode(Workload):
    """Vertex flow at M = 3 and 9 with the M = 3 oracle Hessian cross-check."""

    oracle_nodes = 1

    def __init__(self, inputs: dict, workdir: str):
        self.specs = [spec_from_dict(doc) for doc in inputs["specs"]]
        self.reg = make_regulator("litim")
        self.ctxs = [fn.FunctionalContext(spec=s, regulator=self.reg, self_check=False)
                     for s in self.specs]
        self.kuv = inputs["kuv"]

    def iterate(self):
        finals = []
        for ctx in self.ctxs:
            init, _ = fl.initial_condition(ctx, "classical", self.kuv, rep="vertex")
            traj = fl.integrate(init, self.kuv, 0.0, self.reg,
                                momenta=ctx.spec.momenta,
                                weights=ctx.spec.momentum_weights,
                                checkpoints=[0.0])
            finals.append(traj)
        small = self.ctxs[0]
        hessian = fn.gamma_hessian(small, 0.0, np.zeros(small.spec.modes))
        return finals, hessian

    def check(self, out):
        finals, hessian = out
        g2 = [traj.checkpoints[-1][1].gamma2 for traj in finals]
        err = float(np.abs(g2[0] - hessian).max())
        rel = err / float(np.abs(hessian).max())
        _require(rel <= 0.01, f"M=3 gamma2 relative error {rel:.3e} > 1%")
        big = self.ctxs[1]
        f_diag = self.reg.value(0.0, big.spec.momenta) * big.spec.momentum_weights
        try:
            np.linalg.cholesky(g2[1] + np.diag(f_diag))
        except np.linalg.LinAlgError:
            raise CheckFailed("M=9 gamma2 + F is not positive definite") from None
        counts = {"flow.steps": sum(t.stats["steps"] for t in finals),
                  "flow.nfev": sum(t.stats["nfev"] for t in finals)}
        return err, counts


CLASSES = {
    "phi4_pipeline": Phi4Pipeline,
    "grid_flow_stiff": GridFlowStiff,
    "convergence": Convergence,
    "vertex_multimode": VertexMultimode,
}
