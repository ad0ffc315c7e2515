"""CLI tests: subcommand wiring, output files, reproducibility, exit codes."""

import json

import pytest

from gridlight.cli import main
from gridlight.control import ControllerConfig
from gridlight.experiment import ExperimentConfig
from gridlight.flows import load_flow_file
from gridlight.network import build_grid


def write_config(path, **kw):
    cfg = ExperimentConfig(**kw)
    cfg.to_json(str(path))
    return cfg


class TestGenerateFlow:
    def test_syn_light_file(self, tmp_path, capsys):
        out = tmp_path / "light.json"
        assert main(["generate-flow", "syn-light", "--out", str(out)]) == 0
        flows = load_flow_file(str(out), build_grid(3, 3, 300, 300))
        assert len(flows) == 12
        from gridlight.flows import expand_flows

        assert len(expand_flows(flows)) == 2160
        assert "12 flow records" in capsys.readouterr().out

    def test_syn_heavy_file(self, tmp_path):
        out = tmp_path / "heavy.json"
        assert main(["generate-flow", "syn-heavy", "--out", str(out)]) == 0
        flows = load_flow_file(str(out), build_grid(3, 3, 300, 300))
        from gridlight.flows import expand_flows

        assert len(expand_flows(flows)) == 8640


class TestRun:
    def test_outputs_and_reproducibility(self, tmp_path):
        config_path = tmp_path / "config.json"
        write_config(config_path, horizon=300)
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        assert main(["run", "--config", str(config_path), "--seed", "0", "--out", str(out_a)]) == 0
        assert main(["run", "--config", str(config_path), "--seed", "0", "--out", str(out_b)]) == 0
        for name in ("metrics.json", "telemetry.csv", "decisions.csv"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    def test_metrics_content(self, tmp_path):
        config_path = tmp_path / "config.json"
        cfg = write_config(config_path, horizon=300)
        out = tmp_path / "out"
        main(["run", "--config", str(config_path), "--seed", "3", "--out", str(out)])
        doc = json.loads((out / "metrics.json").read_text())
        assert doc["seed"] == 3
        assert doc["config_fingerprint"] == cfg.fingerprint()
        assert 0 <= doc["average_travel_time"] <= 300
        assert "wall_clock" not in doc

    def test_missing_config_fails(self, tmp_path, capsys):
        assert main(["run", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path)]) == 1
        assert "error" in capsys.readouterr().err


class TestConfigErrors:
    @pytest.mark.parametrize(
        "doc,named",
        [
            ({"controller": "dqn"}, ["controller"]),
            ({"controller": {"kind": "fixed", "colour": 1}}, ["controller", "colour"]),
            ({"kinematics": 2.0}, ["kinematics"]),
            ({"kinematics": {"accel": 2.0, "mass": 1200}}, ["kinematics", "mass"]),
            ({"seeds": 3}, ["seeds"]),
            ({"flow": "syn-heavy"}, ["flow"]),
            ({"flow": {"kind": "file"}}, ["flow", "path"]),
            ({"network": {"kind": "roadnet"}}, ["network", "path"]),
        ],
        ids=[
            "controller-not-object", "controller-unknown-key", "kinematics-not-object",
            "kinematics-unknown-key", "seeds-not-list", "flow-not-object", "flow-file-no-path",
            "roadnet-no-path",
        ],
    )
    def test_bad_config_is_one_line(self, tmp_path, capsys, doc, named):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(doc))
        code = main(["run", "--config", str(config_path), "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 1
        assert len(err.splitlines()) == 1
        assert all(word in err for word in named), err


class TestEval:
    def test_eval_checkpoint(self, tmp_path):
        config_path = tmp_path / "config.json"
        write_config(
            config_path,
            horizon=300,
            controller=ControllerConfig(kind="dqn"),
            episodes=1,
            seeds=(0,),
        )
        train_out = tmp_path / "train"
        assert main(["train", "--config", str(config_path), "--out", str(train_out)]) == 0
        ckpt = train_out / "seed_0" / "checkpoint_best.npz"
        assert ckpt.exists()
        assert main(["eval", "--config", str(config_path), "--checkpoint", str(ckpt)]) == 0

    def test_eval_rejects_fixed_config(self, tmp_path, capsys):
        config_path = tmp_path / "config.json"
        write_config(config_path, horizon=300)
        assert main(["eval", "--config", str(config_path), "--checkpoint", "x.npz"]) == 1


class TestCaseStudyCommand:
    def test_from_run_decisions(self, tmp_path):
        config_path = tmp_path / "config.json"
        write_config(config_path, horizon=300)
        run_out = tmp_path / "run"
        main(["run", "--config", str(config_path), "--seed", "0", "--out", str(run_out)])
        cs_out = tmp_path / "cs"
        code = main(["case-study", "--telemetry", str(run_out / "decisions.csv"), "--out", str(cs_out)])
        assert code == 0
        assert (cs_out / "case_study.csv").exists()
        summary = json.loads((cs_out / "case_study_summary.json").read_text())
        assert summary["decisions_total"] > 0

    def test_rejects_non_decisions_file(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("a,b,c\n1,2,3\n")
        assert main(["case-study", "--telemetry", str(bad), "--out", str(tmp_path / "o")]) == 1


class TestCompare:
    def test_two_classic_controllers(self, tmp_path, capsys):
        fixed = tmp_path / "fixed.json"
        maxp = tmp_path / "maxpressure.json"
        write_config(fixed, horizon=300, seeds=(0,))
        write_config(
            maxp, horizon=300, seeds=(0,), controller=ControllerConfig(kind="maxpressure")
        )
        out = tmp_path / "cmp"
        code = main(["compare", "--configs", str(fixed), str(maxp), "--out", str(out)])
        assert code == 0
        table = (out / "comparison.txt").read_text()
        assert "fixed" in table and "maxpressure" in table
        doc = json.loads((out / "comparison.json").read_text())
        assert set(doc) == {"fixed", "maxpressure"}


class TestParser:
    def test_unknown_command_exits(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])
