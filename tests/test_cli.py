import csv
import json
from pathlib import Path

import numpy as np
import pytest

from frgelab import flow, functionals
from frgelab.cli import atomic_write, config_hash, main
from frgelab.flow import exact_grid_values
from frgelab.functionals import FunctionalContext
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
        assert main(args) == 0
        assert Path(out).read_text() == first  # byte-identical rerun

    def test_one_inversion_call_per_scale(self, config_path, tmp_path, monkeypatch):
        lanes = []
        original = functionals.invert_mean_field

        def counted(ctx, k, phi):
            lanes.append(len(phi))
            return original(ctx, k, phi)

        monkeypatch.setattr(functionals, "invert_mean_field", counted)
        out = str(tmp_path / "exact.csv")
        for nodes in (11, 10):
            lanes.clear()
            assert main(["exact", "--config", config_path, "--k", "1,0",
                         "--phi-nodes", str(nodes), "--out", out]) == 0
            rows = Path(out).read_text().splitlines()[1:]
            assert len(rows) == 2 * nodes
            # one batched inversion per k: every node plus the field 0
            assert lanes == [nodes + 1, nodes + 1]
            centre = [r for r in rows if r.split(",")[1] == "0"]
            assert [r.split(",")[3] for r in centre] == ["0"] * (2 if nodes % 2 else 0)

    def test_gamma_bar_matches_grid_oracle(self, config_path, tmp_path):
        out = str(tmp_path / "exact.csv")
        assert main(["exact", "--config", config_path, "--k", "1,0",
                     "--phi-max", "2", "--phi-nodes", "11", "--out", out]) == 0
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        ctx = FunctionalContext(spec=spec_from_dict(CONFIG),
                                regulator=make_regulator("litim"))
        grid = np.linspace(-2.0, 2.0, 11)
        for k in (1.0, 0.0):
            swept = [float(r["GammaBar"]) for r in rows if float(r["k"]) == k]
            oracle = exact_grid_values(ctx, k, grid)
            assert np.abs(np.array(swept) - oracle).max() <= 1e-9

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
        assert "max deviation" in capsys.readouterr().out
        with open(summary, newline="") as fh:
            flow_row = next(csv.DictReader(fh))
        for counter in ("steps", "nfev", "njev", "nlu"):
            assert f"{counter}={manifest['stats'][counter]}" in flow_row["stats"]

    def test_compare_reuses_the_start_oracle(
        self, config_path, tmp_path, monkeypatch
    ):
        calls = []
        original = flow.exact_grid_values

        def counted(ctx, k, grid):
            calls.append(k)
            return original(ctx, k, grid)

        monkeypatch.setattr(flow, "exact_grid_values", counted)
        out = str(tmp_path / "flow.csv")
        assert main(["flow", "--config", config_path, "--kuv", "20",
                     "--checkpoints", "1,0", "--compare", "--out", out]) == 0
        # one sweep for the start, one per checkpoint below k_uv
        assert calls == [20.0, 1.0, 0.0]
        with open(out, newline="") as fh:
            start = [r for r in csv.DictReader(fh) if float(r["k"]) == 20.0]
        assert len(start) == 101
        assert all(float(r["deviation"]) == 0.0 for r in start)

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
        ["converge", "--levels", "-1"],
        ["converge", "--rho", "-1"],
        ["converge", "--radius", "-1"],
        ["flow", "--kuv", "1", "--compare", "--compare-radius", "-1"],
        ["flow", "--kuv", "1", "--compare", "--compare-radius", "nan"],
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
    ])
    def test_bad_option_exit_2(self, config_path, tmp_path, argv):
        assert main(argv + ["--config", config_path,
                            "--out", str(tmp_path / "o.csv")]) == 2

    @pytest.mark.parametrize("argv", [
        ["flow", "--kuv", "1", "--init", "classical"],
        ["frge-check"],
    ])
    def test_multi_mode_config_exit_2(self, tmp_path, argv):
        cfg = tmp_path / "d1.json"
        cfg.write_text(json.dumps(self.D1))
        assert main(argv + ["--config", str(cfg),
                            "--out", str(tmp_path / "o.csv")]) == 2

    @pytest.mark.parametrize("option", [["--count", "-5"], ["--k-max", "nan"]])
    def test_bad_sample_plan_exit_2(self, option):
        assert main(["validate-regulator", *option]) == 2

    def test_malformed_table_number_exit_2(self, tmp_path, capsys):
        table = tmp_path / "table.csv"
        table.write_text("k,p,R,dR\n0,0,0,0\n1,0,1,x\n")
        assert main(["validate-regulator", "--regulator", f"table:{table}"]) == 2
        assert "table regulator" in capsys.readouterr().err

    @pytest.mark.parametrize("doc", [{"a": 1}, [1]])
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

    def test_d1_config_rejected(self, tmp_path):
        cfg = tmp_path / "d1.json"
        cfg.write_text(json.dumps({
            "dimension": 1, "modes": 3, "mass": 1.0,
            "momentum_spacing": 1.0, "window": "identity",
        }))
        assert main(["converge", "--config", str(cfg),
                     "--out", str(tmp_path / "c.csv")]) == 2
