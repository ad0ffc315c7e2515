"""CLI tests: subcommand wiring, output files, reproducibility, exit codes."""

import json

import pytest

from gridlight.cli import main
from gridlight.control import ControllerConfig
from gridlight.experiment import ExperimentConfig
from gridlight.flows import load_flow_file, save_flow_file, syn_light_flows
from gridlight.network import build_grid
from gridlight.roadnet import save_roadnet


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
            ({"controller": {"green_min": "a"}}, ["controller.green_min"]),
            ({"horizon": "10"}, ["horizon"]),
            ({"horizon": True}, ["horizon"]),
            ({"yellow": 2.5}, ["yellow"]),
            ({"kinematics": {"max_speed": float("nan")}}, ["kinematics.max_speed"]),
            ({"gamma": float("inf")}, ["gamma"]),
            ({"seeds": [0, "1"]}, ["seeds"]),
            ({"eval_every": "5"}, ["eval_every"]),
            ({"obs_counts": 3}, ["obs_counts"]),
            ({"eval_every": 0}, ["eval_every"]),
            ({"epsilon_horizon": 0}, ["epsilon_horizon"]),
            ({"epsilon_horizon": -2}, ["epsilon_horizon"]),
            ({"network": {"kind": "grid", "rows": 3.7, "cols": 3}}, ["network.rows"]),
            ({"network": {"kind": "grid", "rows": 3, "cols": "3"}}, ["network.cols"]),
            ({"network": {"kind": "grid", "we_length": float("inf")}}, ["network.we_length"]),
            ({"network": {"kind": "roadnet", "path": 3}}, ["network.path"]),
        ],
        ids=[
            "controller-not-object", "controller-unknown-key", "kinematics-not-object",
            "kinematics-unknown-key", "seeds-not-list", "flow-not-object", "flow-file-no-path",
            "roadnet-no-path", "int-given-string", "horizon-string", "horizon-bool", "yellow-float",
            "kinematics-nan", "float-inf", "seeds-not-ints", "optional-string", "str-given-int",
            "eval-every-zero", "epsilon-horizon-zero", "epsilon-horizon-negative", "network-rows-float",
            "network-cols-string", "network-length-inf", "network-path-int",
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

    def test_infinite_roadnet_length_is_one_line(self, tmp_path, capsys):
        roadnet_path = tmp_path / "roadnet.json"
        save_roadnet(build_grid(1, 1, 300, 300), str(roadnet_path))
        doc = json.loads(roadnet_path.read_text())
        doc["roads"][0]["length"] = float("inf")
        roadnet_path.write_text(json.dumps(doc))
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({"network": {"kind": "roadnet", "path": str(roadnet_path)}}))
        code = main(["run", "--config", str(config_path), "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 1
        assert len(err.splitlines()) == 1
        assert doc["roads"][0]["id"] in err, err

    def test_infinite_flow_vehicle_speed_is_one_line(self, tmp_path, capsys):
        flow_path = tmp_path / "flows.json"
        save_flow_file(syn_light_flows(build_grid(3, 3, 300, 300)), str(flow_path))
        doc = json.loads(flow_path.read_text())
        doc[0]["vehicle"] = {"maxSpeed": "inf"}
        flow_path.write_text(json.dumps(doc))
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({"flow": {"kind": "file", "path": str(flow_path)}, "horizon": 60}))
        code = main(["run", "--config", str(config_path), "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 1
        assert len(err.splitlines()) == 1
        assert "max_speed" in err, err

    @pytest.mark.parametrize(
        "edit,named",
        [
            (lambda doc: doc["roads"][0].update(id=["x"]), "road id"),
            (lambda doc: doc["roads"][0].update(startIntersection=["b_w_0"]), "startIntersection"),
            (lambda doc: doc["roads"][0].update(endIntersection=7), "endIntersection"),
            (lambda doc: doc["intersections"][0].update(id=["b_n_0"]), "intersection id"),
        ],
        ids=["road-id-list", "start-list", "end-int", "intersection-id-list"],
    )
    def test_non_string_roadnet_id_is_one_line(self, tmp_path, capsys, edit, named):
        roadnet_path = tmp_path / "roadnet.json"
        save_roadnet(build_grid(1, 1, 300, 300), str(roadnet_path))
        doc = json.loads(roadnet_path.read_text())
        edit(doc)
        roadnet_path.write_text(json.dumps(doc))
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({"network": {"kind": "roadnet", "path": str(roadnet_path)}}))
        code = main(["run", "--config", str(config_path), "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 1
        assert len(err.splitlines()) == 1
        assert named in err and "must be a string" in err, err

    @pytest.mark.parametrize(
        "field,value",
        [
            ("interval", float("nan")),
            ("interval", float("inf")),
            ("interval", 1e-9),
            ("vehicle", "fast"),
            ("vehicle", [4.5]),
        ],
        ids=["interval-nan", "interval-inf", "interval-tiny", "vehicle-string", "vehicle-list"],
    )
    def test_bad_flow_record_is_one_line(self, tmp_path, capsys, field, value):
        flow_path = tmp_path / "flows.json"
        save_flow_file(syn_light_flows(build_grid(3, 3, 300, 300)), str(flow_path))
        doc = json.loads(flow_path.read_text())
        doc[3][field] = value
        flow_path.write_text(json.dumps(doc))
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({"flow": {"kind": "file", "path": str(flow_path)}, "horizon": 60}))
        code = main(["run", "--config", str(config_path), "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 1
        assert len(err.splitlines()) == 1
        assert "#3" in err, err


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
