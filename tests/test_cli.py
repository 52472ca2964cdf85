import csv
import dataclasses
import inspect
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from frgelab import flow, functionals
from frgelab.cli import _grid_rows, atomic_write, build_parser, config_hash, main
from frgelab.functionals import FunctionalContext, exact_grid_values
from frgelab.model import spec_from_dict
from frgelab.regulator import make_regulator

CONFIG = {
    "dimension": 0,
    "modes": 1,
    "mass": 1.0,
    "window": {"r": 1.0},
    "interaction": {"c4": 0.1},
    "field_grid": {"phi_max": 3.0, "nodes": 101},
}


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(CONFIG))
    return str(path)


class TestPlumbing:
    def test_hash_stable_under_key_reordering(self):
        a = {"x": 1, "y": {"b": 2, "a": 3}}
        b = {"y": {"a": 3, "b": 2}, "x": 1}
        assert config_hash(a) == config_hash(b)
        assert len(config_hash(a)) == 16

    def test_hash_sensitive_to_values(self):
        assert config_hash({"x": 1}) != config_hash({"x": 2})

    def test_failed_atomic_write_keeps_the_old_file(self, tmp_path):
        target = tmp_path / "out.txt"
        atomic_write(str(target), "old\n")
        with pytest.raises(TypeError):
            atomic_write(str(target), None)
        assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]
        assert target.read_text() == "old\n"

    def test_parser_built_once_and_left_unchanged_by_a_parse(self):
        assert build_parser() is build_parser()
        flow_args = build_parser().parse_args(
            ["flow", "--config", "c.json", "--kuv", "1", "--rtol", "1e-6",
             "--out", "f.csv"])
        assert flow_args.rtol == 1e-6
        exact_args = build_parser().parse_args(["exact", "--config", "c.json",
                                                "--out", "e.csv"])
        assert not hasattr(exact_args, "rtol") and not hasattr(exact_args, "kuv")
        assert (exact_args.k, exact_args.phi_max, exact_args.phi_nodes) == (
            "10,1,0", None, None)
        again = build_parser().parse_args(["flow", "--config", "c.json", "--kuv", "1",
                                           "--out", "f.csv"])
        assert again.rtol == 1e-9

    def test_grid_rows_are_csv_writers_rows(self):
        # formatted numbers, signed zeros, extremes and non-finite values
        # alike: no cell needs quoting, so the joined rows are csv's text
        scales, grid = [10.0, 1e-3, 0.0], np.array([-2.5, -0.0, 1e-300])
        columns = [np.array([[1.0, -0.0, np.inf], [np.nan, 1e300, -2.5e-7],
                             [-np.inf, 5e-324, 123456.789]]),
                   np.array([[0.0, 1e-17, 3.0], [1.5, -1.0, 7e22], [2.0, 0.1, 1e-5]])]
        text = _grid_rows("{},{},{:.15g},{:.6e}\n", scales, grid, columns)
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows(
            [f"{k:.12g}", f"{phi:.12g}", f"{a:.15g}", f"{b:.6e}"]
            for k, row_a, row_b in zip(scales, *(c.tolist() for c in columns))
            for phi, a, b in zip(grid.tolist(), row_a, row_b))
        assert text == buf.getvalue()

    def test_atomic_write(self, tmp_path):
        target = tmp_path / "out.txt"
        atomic_write(str(target), "hello\n")
        assert target.read_text() == "hello\n"
        leftovers = [p for p in tmp_path.iterdir() if p.suffix == ".tmp"]
        assert not leftovers


class TestValidateRegulator:
    def test_litim_passes(self, capsys):
        assert main(["validate-regulator", "--regulator", "litim"]) == 0
        out = capsys.readouterr().out
        assert out.count("pass") == 5

    def test_exponential_passes(self):
        assert main(["validate-regulator", "--regulator", "exponential"]) == 0

    def test_report_written(self, tmp_path):
        out = str(tmp_path / "report.json")
        assert main(["validate-regulator", "--regulator", "litim",
                     "--out", out]) == 0
        doc = json.loads(Path(out).read_text())
        assert all(doc["passed"].values())

    def test_unknown_regulator_is_validation_failure(self):
        assert main(["validate-regulator", "--regulator", "sharp"]) == 2


class TestExact:
    def test_sweep_and_rerun_identical(self, config_path, tmp_path):
        out = str(tmp_path / "exact.csv")
        args = ["exact", "--config", config_path, "--k", "1,0",
                "--phi-nodes", "11", "--out", out]
        assert main(args) == 0
        first = Path(out).read_text()
        assert first.splitlines()[0] == "k,phi,Gamma,GammaBar,J,residual,budget"
        stats = json.loads(Path(out + ".manifest.json").read_text())["stats"]
        assert stats["newton_iterations"] > 0  # the oracle's work, for report
        assert main(args) == 0
        assert Path(out).read_text() == first  # byte-identical rerun
        again = json.loads(Path(out + ".manifest.json").read_text())["stats"]
        assert again["newton_iterations"] == stats["newton_iterations"]

    def test_one_inversion_call_per_table(self, config_path, tmp_path, monkeypatch):
        lanes = []
        original = functionals.invert_mean_field

        def counted(ctx, k, phi):
            lanes.append((k, len(phi)))
            return original(ctx, k, phi)

        monkeypatch.setattr(functionals, "invert_mean_field", counted)
        out = str(tmp_path / "exact.csv")
        odd = tmp_path / "odd.json"
        odd.write_text(json.dumps(dict(CONFIG, interaction={"c3": 0.05, "c4": 0.1},
                                       allow_unbounded=True)))
        # one batched inversion of every scale, each with the fields of an
        # even theory, the N + 1 nodes phi >= 0, phi = 0 among them, or of
        # c3 != 0, every node plus the field 0
        for config, nodes, per_k in ((config_path, 11, 6), (str(odd), 11, 12),
                                     (config_path, 1, 1)):
            lanes.clear()
            assert main(["exact", "--config", config, "--k", "1,0",
                         "--phi-nodes", str(nodes), "--out", out]) == 0
            rows = [r.split(",") for r in Path(out).read_text().splitlines()[1:]]
            assert len(rows) == 2 * nodes
            assert lanes == [([1.0, 0.0], per_k)]
            assert [r[3] for r in rows if r[1] == "0"] == ["0", "0"]
        assert [r[:2] for r in rows] == [["1", "0"], ["0", "0"]]

    def test_mirrored_rows_match(self, config_path, tmp_path):
        # grid == -grid[::-1] bit for bit: the centre row is phi = 0 with
        # GammaBar 0, and rows +-phi share Gamma, GammaBar and the residual,
        # their J differing only in sign
        out = str(tmp_path / "exact.csv")
        assert main(["exact", "--config", config_path, "--phi-max", "123.456",
                     "--phi-nodes", "41", "--out", out]) == 0
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        for k in ("10", "1", "0"):
            sweep = [r for r in rows if r["k"] == k]
            assert len(sweep) == 41
            assert (sweep[20]["phi"], sweep[20]["GammaBar"]) == ("0", "0")
            for minus, plus in zip(sweep[:20], sweep[:20:-1]):
                assert minus["phi"] == "-" + plus["phi"]
                for key in ("Gamma", "GammaBar", "residual"):
                    assert minus[key] == plus[key], (k, plus["phi"], key)
                assert float(minus["J"]) == -float(plus["J"]) != 0.0
                assert minus["J"].lstrip("-") == plus["J"].lstrip("-")

    def test_gamma_bar_matches_grid_oracle(self, config_path, tmp_path):
        # the sweep prints the grid oracle's values: one code path
        out = str(tmp_path / "exact.csv")
        assert main(["exact", "--config", config_path, "--k", "1,0",
                     "--phi-max", "2", "--phi-nodes", "11", "--out", out]) == 0
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        spec = dataclasses.replace(spec_from_dict(CONFIG), phi_max=2.0, phi_nodes=11)
        ctx = FunctionalContext(spec=spec, regulator=make_regulator("litim"))
        for k in (1.0, 0.0):
            swept = [r["GammaBar"] for r in rows if float(r["k"]) == k]
            oracle = exact_grid_values(ctx, k, spec.field_grid)
            assert swept == [f"{v:.15g}" for v in oracle.tolist()]

    def test_default_grid_is_the_flows(self, config_path, tmp_path):
        # without --phi-max and --phi-nodes, exact sweeps the config's
        # field_grid, the grid flow steps: the two CSVs share their phi cells
        exact_out, flow_out = str(tmp_path / "exact.csv"), str(tmp_path / "flow.csv")
        assert main(["exact", "--config", config_path, "--k", "0",
                     "--out", exact_out]) == 0
        assert main(["flow", "--config", config_path, "--kuv", "2",
                     "--checkpoints", "0", "--out", flow_out]) == 0
        cells = []
        for out in (exact_out, flow_out):
            with open(out, newline="") as fh:
                cells.append([r["phi"] for r in csv.DictReader(fh)
                              if float(r["k"]) == 0.0])
        assert len(cells[0]) == CONFIG["field_grid"]["nodes"]
        assert cells[0] == cells[1]

    def test_unknown_key_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(dict(CONFIG, zeta=1)))
        out = str(tmp_path / "x.csv")
        assert main(["exact", "--config", str(bad), "--out", out]) == 2
        assert "zeta" in capsys.readouterr().err

    def test_missing_config_exit_2(self, tmp_path):
        assert main(["exact", "--config", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path / "x.csv")]) == 2


class TestFlowPipeline:
    def test_flow_exact_report(self, config_path, tmp_path, capsys):
        flow_out = str(tmp_path / "flow.csv")
        assert main(["flow", "--config", config_path, "--kuv", "20",
                     "--checkpoints", "1,0", "--compare",
                     "--out", flow_out]) == 0
        exact_out = str(tmp_path / "exact.csv")
        assert main(["exact", "--config", config_path, "--k", "1,0",
                     "--phi-nodes", "11", "--out", exact_out]) == 0
        summary = str(tmp_path / "summary.csv")
        assert main(["report", flow_out + ".manifest.json",
                     exact_out + ".manifest.json", "--out", summary]) == 0
        manifest = json.loads(Path(flow_out + ".manifest.json").read_text())
        assert manifest["stats"]["max_deviation"] <= 1e-4
        assert manifest["stats"]["njev"] > 0 and manifest["stats"]["nlu"] > 0
        assert manifest["tolerances"] == {"rtol": 1e-9, "atol": 1e-11,
                                          "rg_time_scale": flow.RG_TIME_SCALE}
        assert "max deviation" in capsys.readouterr().out
        with open(summary, newline="") as fh:
            flow_row = next(csv.DictReader(fh))
        for counter in ("steps", "nfev", "njev", "nlu"):
            assert f"{counter}={manifest['stats'][counter]}" in flow_row["stats"]

    def test_tolerance_defaults_are_integrates(self):
        # cli repeats them, since importing flow at its top would load scipy
        # for every command
        args = build_parser().parse_args(["flow", "--config", "c.json", "--kuv", "1",
                                          "--out", "f.csv"])
        defaults = inspect.signature(flow.integrate).parameters
        assert (args.rtol, args.atol) == (defaults["rtol"].default,
                                          defaults["atol"].default)

    def test_compare_reuses_the_start_oracle(
        self, config_path, tmp_path, monkeypatch
    ):
        calls, lanes = [], []
        original = flow.exact_grid_values
        invert = functionals.invert_mean_field

        def counted(ctx, k, grid):
            calls.append(k)
            return original(ctx, k, grid)

        def counted_inversion(ctx, k, phi):
            lanes.append(np.size(k) * len(phi))
            return invert(ctx, k, phi)

        monkeypatch.setattr(flow, "exact_grid_values", counted)
        monkeypatch.setattr(functionals, "invert_mean_field", counted_inversion)
        out = str(tmp_path / "flow.csv")
        assert main(["flow", "--config", config_path, "--kuv", "20",
                     "--checkpoints", "1,0", "--compare", "--out", out]) == 0
        # one sweep for the start and one of every checkpoint below k_uv:
        # the 51 nodes phi >= 0 of the 101-node grid at each scale
        assert calls == [20.0, [1.0, 0.0]]
        assert lanes == [51, 2 * 51]
        with open(out, newline="") as fh:
            start = [r for r in csv.DictReader(fh) if float(r["k"]) == 20.0]
        assert len(start) == 101
        assert all(float(r["deviation"]) == 0.0 for r in start)

    def test_deviation_by_band_shows_the_edge_leak(self, tmp_path):
        # an odd theory on the box phi_max 3: the error of the box edge is
        # 17x the deviation at |phi| <= 2, which is 8x that at |phi| <= 1
        cfg = tmp_path / "odd.json"
        cfg.write_text(json.dumps(dict(CONFIG, interaction={"c3": 0.4, "c4": 0.1},
                                       allow_unbounded=True)))
        out = tmp_path / "flow.csv"
        assert main(["flow", "--config", str(cfg), "--kuv", "100", "--init", "exact",
                     "--checkpoints", "1,0", "--compare", "--out", str(out)]) == 0
        stats = json.loads(Path(f"{out}.manifest.json").read_text())["stats"]
        inner, compared, whole = (stats[key] for key in (
            "max_deviation_within_1", "max_deviation", "max_deviation_whole_grid"))
        assert 0.0 < inner < compared < whole
        assert whole > 10 * compared and compared > 5 * inner
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        for key, radius in [("max_deviation_within_1", 1.0), ("max_deviation", 2.0),
                            ("max_deviation_whole_grid", np.inf)]:
            cells = [float(r["deviation"]) for r in rows if abs(float(r["phi"])) <= radius]
            assert f"{stats[key]:.6e}" == f"{max(cells):.6e}"

    def test_exact_start_at_a_large_scale(self, config_path, tmp_path):
        # the oracle's source bound grows with its cold start, so an exact
        # start at k = 1e4 inverts (it exited 3 under an absolute bound)
        out = str(tmp_path / "flow.csv")
        assert main(["flow", "--config", config_path, "--kuv", "1e4",
                     "--init", "exact", "--compare", "--out", out]) == 0
        manifest = json.loads(Path(out + ".manifest.json").read_text())
        assert manifest["stats"]["max_deviation"] <= 1e-4

    @staticmethod
    def _vertex_flow(argv, tmp_path, monkeypatch):
        """Run ``flow --rep vertex``; return the CSV rows and the trajectory."""
        trajectories = []
        original = flow.integrate

        def kept(*args, **kwargs):
            trajectories.append(original(*args, **kwargs))
            return trajectories[-1]

        monkeypatch.setattr(flow, "integrate", kept)
        out = str(tmp_path / "vertex.csv")
        assert main(["flow", *argv, "--rep", "vertex", "--kuv", "10",
                     "--checkpoints", "1,0", "--out", out]) == 0
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        [traj] = trajectories
        assert [float(r["k"]) for r in rows] == [k for k, _ in traj.checkpoints]
        return rows, traj

    def test_single_mode_vertex_cells_are_numbers(self, config_path, tmp_path,
                                                  monkeypatch):
        rows, traj = self._vertex_flow(["--config", config_path], tmp_path,
                                       monkeypatch)
        for row, (_, state) in zip(rows, traj.checkpoints):
            g2, g4 = float(state.gamma2[0, 0]), float(state.gamma4[0, 0, 0, 0])
            assert (row["gamma2"], row["gamma4"]) == (f"{g2:.15g}", f"{g4:.15g}")
            assert float(row["gamma2"]) == pytest.approx(g2, rel=1e-14, abs=0)
            assert float(row["gamma4"]) == pytest.approx(g4, rel=1e-14, abs=0)

    def test_multi_mode_vertex_cells_are_json_arrays(self, tmp_path, monkeypatch):
        cfg = tmp_path / "d1.json"
        cfg.write_text(json.dumps(dict(TestExitCodes.D1, interaction={"c4": 0.05})))
        rows, traj = self._vertex_flow(["--config", str(cfg), "--init", "classical"],
                                       tmp_path, monkeypatch)
        for row, (_, state) in zip(rows, traj.checkpoints):
            g2, g4 = np.array(json.loads(row["gamma2"])), np.array(json.loads(row["gamma4"]))
            assert g2.shape == (3, 3) and g4.shape == (3, 3, 3, 3)
            assert g2.tobytes() == state.gamma2.tobytes()
            assert g4.tobytes() == state.gamma4.tobytes()

    def test_report_refuses_mismatched_hashes(self, config_path, tmp_path):
        out = str(tmp_path / "e.csv")
        assert main(["exact", "--config", config_path, "--k", "0",
                     "--phi-nodes", "5", "--out", out]) == 0
        other_cfg = tmp_path / "other.json"
        other_cfg.write_text(json.dumps(dict(CONFIG, mass=2.0)))
        out2 = str(tmp_path / "e2.csv")
        assert main(["exact", "--config", str(other_cfg), "--k", "0",
                     "--phi-nodes", "5", "--out", out2]) == 0
        summary = str(tmp_path / "s.csv")
        assert main(["report", out + ".manifest.json", out2 + ".manifest.json",
                     "--out", summary]) == 2
        assert main(["report", out + ".manifest.json", out2 + ".manifest.json",
                     "--force", "--out", summary]) == 0

    def test_config_hash_embedded(self, config_path, tmp_path):
        out = str(tmp_path / "e.csv")
        main(["exact", "--config", config_path, "--k", "0",
              "--phi-nodes", "5", "--out", out])
        manifest = json.loads(Path(out + ".manifest.json").read_text())
        assert manifest["config_hash"] == config_hash(CONFIG)


class TestFrgeCheck:
    def test_probes(self, config_path, tmp_path, capsys):
        out = str(tmp_path / "frge.csv")
        assert main(["frge-check", "--config", config_path, "--k", "1",
                     "--probes", "0,1", "--out", out]) == 0
        assert "max |lhs - rhs|" in capsys.readouterr().out


class TestExitCodes:
    D1 = {"dimension": 1, "modes": 3, "mass": 1.0, "momentum_spacing": 1.0,
          "window": "identity"}

    @pytest.mark.parametrize("mass", [None, "heavy", [1.0]])
    def test_non_numeric_config_value_exit_2(self, tmp_path, capsys, mass):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(dict(CONFIG, mass=mass)))
        assert main(["exact", "--config", str(cfg),
                     "--out", str(tmp_path / "x.csv")]) == 2
        assert "mass" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["exact", "--k", "1,x"],
        ["exact", "--regulator", "sharp"],
        ["flow", "--kuv", "1", "--kend", "2", "--init", "classical"],
        ["flow", "--kuv", "1", "--checkpoints", "5", "--init", "classical"],
        ["flow", "--kuv", "1", "--rtol", "-1", "--init", "classical"],
        ["flow", "--kuv", "0"],
        ["flow", "--kuv", "nan"],
        ["exact", "--phi-nodes", "-3"],
        ["exact", "--k", "nan"],
        ["frge-check", "--probes", ","],
        ["exact", "--k", ","],
        ["converge", "--levels", "0"],
        ["converge", "--levels", "-1"],
        ["flow", "--kuv", "1", "--checkpoints", "x", "--init", "classical"],
        ["flow", "--kuv", "1", "--atol", "-1", "--init", "classical"],
        ["flow", "--kuv", "1", "--kend", "nan", "--init", "classical"],
        ["frge-check", "--k", "nan"],
        ["flow", "--kuv", "1", "--rep", "vertex", "--init", "classical", "--compare"],
        ["exact", "--phi-max", "nan"],
        ["exact", "--phi-max", "inf"],
        ["exact", "--phi-max", "-1"],
        # R_k overflows past k ~ 1.34e154
        ["exact", "--k", "1e300"],
        ["exact", "--k", "1e300", "--regulator", "exponential"],
        ["flow", "--kuv", "1e200"],
        ["flow", "--kuv", "1e200", "--init", "classical"],
        ["flow", "--kuv", "1e200", "--init", "classical", "--regulator", "exponential"],
        ["frge-check", "--k", "1e200"],
        ["frge-check", "--probes", "nan"],
        ["frge-check", "--probes", "1,inf"],
        # below 100 eps, the smallest rtol scipy's solvers honour
        ["flow", "--kuv", "1", "--rtol", "1e-15", "--init", "classical"],
        ["flow", "--kuv", "1", "--rtol", "1e-15", "--init", "classical", "--rep", "vertex"],
        # the field grid's node count must be odd: 0 must be a node
        ["exact", "--phi-nodes", "10"],
        # the regulator family is defined for k >= 0
        ["exact", "--k", "-1"],
        ["frge-check", "--k", "-1"],
        ["flow", "--kuv", "1", "--kend", "-1", "--init", "classical"],
        ["flow", "--kuv", "1", "--checkpoints", "0.5,-0.5", "--init", "classical"],
        # the window r_n = 1 - 2^-n rounds to 1 from n = 54
        ["converge", "--levels", "54"],
    ])
    def test_bad_option_exit_2(self, config_path, tmp_path, argv):
        assert main(argv + ["--config", config_path,
                            "--out", str(tmp_path / "o.csv")]) == 2

    @pytest.mark.parametrize("argv, option", [
        (["exact", "--k", "1,-1"], "--k -1"),
        (["frge-check", "--k", "-1"], "--k -1"),
        (["flow", "--kuv", "1", "--kend", "-1", "--init", "classical"], "--kend -1"),
        (["flow", "--kuv", "1", "--checkpoints", "0.5,-0.5", "--init", "classical"],
         "--checkpoints -0.5"),
    ])
    def test_negative_scale_names_its_option(self, config_path, tmp_path, capsys,
                                             argv, option):
        assert main(argv + ["--config", config_path,
                            "--out", str(tmp_path / "o.csv")]) == 2
        assert f"{option} is negative" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["flow", "--kuv", "1", "--init", "classical"],
        ["frge-check"],
        ["exact"],
    ])
    def test_multi_mode_config_exit_2(self, tmp_path, argv):
        cfg = tmp_path / "d1.json"
        cfg.write_text(json.dumps(self.D1))
        assert main(argv + ["--config", str(cfg),
                            "--out", str(tmp_path / "o.csv")]) == 2

    @pytest.mark.parametrize("option", [["--count", "-5"], ["--count", "0"],
                                        ["--seed", "-1"], ["--count", "1000000000000"]])
    def test_bad_sample_plan_exit_2(self, option):
        assert main(["validate-regulator", *option]) == 2

    @pytest.mark.parametrize("argv, option", [
        pytest.param(["converge"], "--rho", id="--rho"),
        pytest.param(["converge"], "--radius", id="--radius"),
        pytest.param(["flow", "--kuv", "1", "--compare"], "--compare-radius",
                     id="--compare-radius"),
        pytest.param(["validate-regulator"], "--k-max", id="--k-max"),
        pytest.param(["validate-regulator"], "--p-max", id="--p-max"),
    ])
    def test_removed_option_refused(self, config_path, tmp_path, capsys, argv, option):
        # the compare radius, the convergence radii and the regulator sample
        # box are constants; the parser refuses the options that set them
        if argv[0] != "validate-regulator":
            argv = argv + ["--config", config_path, "--out", str(tmp_path / "o.csv")]
        with pytest.raises(SystemExit) as exc:
            main(argv + [option, "2"])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {option} 2" in capsys.readouterr().err

    def test_malformed_table_number_exit_2(self, tmp_path, capsys):
        table = tmp_path / "table.csv"
        table.write_text("k,p,R,dR\n0,0,0,0\n1,0,1,x\n")
        assert main(["validate-regulator", "--regulator", f"table:{table}"]) == 2
        assert "table regulator" in capsys.readouterr().err

    def test_failing_scale_of_the_sweep_exit_3(self, tmp_path, capsys):
        # a double well the oracle answers at k = 1 and cannot certify at
        # k = 0: the one transform of both scales names the failing one
        config = tmp_path / "well.json"
        config.write_text(json.dumps(dict(CONFIG, interaction={"c2": -0.75, "c4": 0.1})))
        assert main(["exact", "--config", str(config), "--k", "1,0",
                     "--out", str(tmp_path / "e.csv")]) == 3
        err = capsys.readouterr().err
        assert "at k=0.0, source=[0.]: no rule on the ladder certifies it" in err
        assert not (tmp_path / "e.csv").exists()

    def test_indefinite_precision_exit_3(self, config_path, tmp_path, capsys):
        # R = -5 makes C^-1 + F_k = 1 - 5 indefinite at every scale
        table = tmp_path / "neg.csv"
        table.write_text("k,p,R,dR\n0,0,-5,0\n0,1,-5,0\n10,0,-5,0\n10,1,-5,0\n")
        assert main(["exact", "--config", config_path, "--regulator", f"table:{table}",
                     "--k", "1", "--out", str(tmp_path / "e.csv")]) == 3
        err = capsys.readouterr().err
        assert "not positive definite" in err and "k = 1" in err

    @pytest.mark.parametrize("doc", [
        {"a": 1}, [1], {"config_hash": [1]},
        {"config_hash": "0", "stats": [1]},
        {"config_hash": "0", "subcommand": "flow", "stats": {"max_deviation": "x"}},
    ])
    def test_non_manifest_report_exit_2(self, tmp_path, doc):
        path = tmp_path / "m.json"
        path.write_text(json.dumps(doc))
        assert main(["report", str(path), "--out", str(tmp_path / "s.csv")]) == 2

    def test_internal_value_error_propagates(self, config_path, tmp_path,
                                             monkeypatch):
        def broken(*args, **kwargs):
            raise ValueError("internal bug")

        monkeypatch.setattr(flow, "integrate", broken)
        with pytest.raises(ValueError, match="internal bug"):
            main(["flow", "--config", config_path, "--kuv", "1",
                  "--init", "classical", "--out", str(tmp_path / "f.csv")])


class TestConverge:
    def test_short_sequence(self, config_path, tmp_path):
        out = str(tmp_path / "conv.csv")
        assert main(["converge", "--config", config_path, "--levels", "3",
                     "--out", out]) == 0
        lines = Path(out).read_text().splitlines()
        assert lines[0] == "n,uniform_distance,aw_distance,probe_distance"
        assert len(lines) == 4
        manifest = json.loads(Path(f"{out}.manifest.json").read_text())
        assert manifest["tolerances"] == {"uniform_radius": 2.0, "aw_rho": 6.0}

    def test_seed_is_ignored(self, config_path, tmp_path, capsys):
        csvs = []
        for seed in (["--seed", "-1"], ["--seed", "7"], []):
            out = tmp_path / "conv.csv"
            assert main(["converge", "--config", config_path, "--levels", "3",
                         *seed, "--out", str(out)]) == 0
            csvs.append(out.read_bytes())
            manifest = json.loads(Path(f"{out}.manifest.json").read_text())
            assert "seeds" not in manifest
            assert ("--seed is ignored" in capsys.readouterr().err) == bool(seed)
        assert csvs[0] == csvs[1] == csvs[2]

    def test_d1_config_rejected(self, tmp_path):
        cfg = tmp_path / "d1.json"
        cfg.write_text(json.dumps({
            "dimension": 1, "modes": 3, "mass": 1.0,
            "momentum_spacing": 1.0, "window": "identity",
        }))
        assert main(["converge", "--config", str(cfg),
                     "--out", str(tmp_path / "c.csv")]) == 2


NON_FLOW_COMMANDS = """
import json, sys
from frgelab import cli
cfg, out = sys.argv[1], sys.argv[2]
codes = [
    cli.main(["validate-regulator", "--count", "100"]),
    cli.main(["exact", "--config", cfg, "--k", "1", "--phi-nodes", "3",
              "--out", out + "/e.csv"]),
    cli.main(["frge-check", "--config", cfg, "--probes", "0,1", "--out", out + "/f.csv"]),
    cli.main(["converge", "--config", cfg, "--levels", "2", "--out", out + "/c.csv"]),
    cli.main(["report", out + "/e.csv.manifest.json", out + "/f.csv.manifest.json",
              out + "/c.csv.manifest.json", "--out", out + "/r.csv"]),
]
loaded = sorted(name for name in sys.modules if name.startswith("scipy"))
import frgelab.flow
print(json.dumps({"codes": codes, "loaded": loaded, "flow": "scipy" in sys.modules}))
"""


def test_non_flow_commands_load_no_scipy(config_path, tmp_path):
    """Only ``flow`` needs scipy, so every other command starts in numpy's time.
    pytest's own warning filters import scipy, hence the fresh interpreter."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    run = subprocess.run([sys.executable, "-c", NON_FLOW_COMMANDS, config_path,
                          str(tmp_path)], env=env, capture_output=True, text=True,
                         check=True)
    result = json.loads(run.stdout.splitlines()[-1])
    assert result["codes"] == [0, 0, 0, 0, 0]
    assert result["loaded"] == []
    assert result["flow"]  # the check can see scipy when it is loaded


FLOW_COMMAND = """
import json, sys
from frgelab import cli
cfg, out, *options = sys.argv[1:]
code = cli.main(["flow", "--config", cfg, "--kuv", "2", "--checkpoints", "1,0",
                 "--out", out + "/flow.csv", *options])
print(json.dumps({"code": code, "flow": "frgelab.flow" in sys.modules,
                  "integrate": "scipy.integrate" in sys.modules}))
"""


@pytest.mark.parametrize("options", [["--rep", "grid", "--compare"], ["--rep", "vertex"]])
def test_no_flow_loads_scipy_integrate(config_path, tmp_path, options):
    """A grid flow steps on frgelab's own BDF stepper and a vertex flow on
    its own RK45 stepper: neither loads scipy.integrate."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    run = subprocess.run([sys.executable, "-c", FLOW_COMMAND, config_path,
                          str(tmp_path), *options], env=env, capture_output=True,
                         text=True, check=True)
    result = json.loads(run.stdout.splitlines()[-1])
    assert result == {"code": 0, "flow": True, "integrate": False}


@pytest.mark.parametrize("argv", [
    ["exact", "--k", "1,0", "--phi-nodes", "5"],
    ["flow", "--kuv", "2", "--checkpoints", "1,0", "--compare"],
    ["flow", "--kuv", "2", "--checkpoints", "1,0", "--init", "classical"],
])
def test_grid_tables_are_csv_writers_text(config_path, tmp_path, argv):
    """The grid tables, joined without csv.writer, are its text of their cells."""
    out = tmp_path / "t.csv"
    assert main(argv + ["--config", config_path, "--out", str(out)]) == 0
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    assert buf.getvalue() == out.read_text()
    # a header, then a row per (scale, node): two scales of 5 nodes, or
    # k_uv and two checkpoints of 101
    assert len(rows) == 1 + (2 * 5 if argv[0] == "exact" else 3 * 101)


MANIFEST_KEYS = {"tool_version", "subcommand", "config_hash", "tolerances", "stats",
                 "outputs", "wall_clock_seconds"}


@pytest.mark.parametrize("argv", [
    ["exact", "--k", "1,0", "--phi-nodes", "5"],
    ["flow", "--kuv", "2", "--checkpoints", "1,0", "--compare"],
    ["frge-check", "--probes", "0,1"],
    ["converge", "--levels", "2"],
])
def test_table_runs_are_reproducible(config_path, tmp_path, argv):
    """Every table subcommand writes a byte-identical CSV on a rerun, and a
    manifest of the same seven keys whose only varying entry is the wall time."""
    out = tmp_path / "t.csv"
    runs = []
    for _ in range(2):
        assert main(argv + ["--config", config_path, "--out", str(out)]) == 0
        manifest = json.loads(Path(f"{out}.manifest.json").read_text())
        runs.append((out.read_bytes(), manifest))
    (csv_a, man_a), (csv_b, man_b) = runs
    assert csv_a == csv_b
    for manifest in (man_a, man_b):
        assert set(manifest) == MANIFEST_KEYS
        assert manifest["subcommand"] == argv[0]
        assert manifest["outputs"] == ["t.csv"]
    del man_a["wall_clock_seconds"], man_b["wall_clock_seconds"]
    assert man_a == man_b
