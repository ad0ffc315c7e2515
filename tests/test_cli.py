"""CLI tests: subcommand wiring, output files, reproducibility, exit codes."""

import contextlib
import gc
import io
import json
import os
import pathlib
import subprocess
import sys
import tempfile
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as npst

from gridlight import cli
from gridlight.cli import main
from gridlight.control import ControllerConfig
from gridlight.engine import OBS_SIZE
from gridlight.experiment import ExperimentConfig
from gridlight.flows import load_flow_file, save_flow_file, syn_light_flows
from gridlight.learner import QNetwork, save_checkpoint
from gridlight.network import build_grid
from gridlight.roadnet import save_roadnet
from gridlight.telemetry import DECISIONS_HEADER


def _junction_self_loop(doc: dict) -> None:
    """Drop the 1x1 junction's west entry and bend its east exit back onto it,
    so the loop fills the junction's west approach and east exit."""
    doc["roads"] = [road for road in doc["roads"] if road["id"] != "rd__b_w_0__i_0_0"]
    next(road for road in doc["roads"] if road["id"] == "rd__i_0_0__b_e_0")["endIntersection"] = "i_0_0"


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

    def test_checkpoint_for_a_classic_controller_is_one_line(self, tmp_path):
        config_path = tmp_path / "config.json"
        write_config(config_path, horizon=30)
        code, err = _run_quietly(
            ["run", "--config", str(config_path), "--checkpoint", str(tmp_path / "x.npz"), "--out", str(tmp_path / "out")]
        )
        assert code == 1 and len(err.splitlines()) == 1, (code, err)
        assert "checkpoint" in err and "'fixed'" in err, err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", [["run"], ["eval", "--checkpoint", "x.npz"]], ids=["run", "eval"])
    def test_negative_seed_is_one_line(self, tmp_path, command):
        config_path = tmp_path / "config.json"
        write_config(config_path, horizon=30, controller=ControllerConfig(kind="dqn"))
        out = tmp_path / "out"
        code, err = _run_quietly([*command, "--config", str(config_path), "--seed", "-3", "--out", str(out)])
        assert code == 1 and err.splitlines() == ["gridlight: error: --seed must be an integer >= 0, got -3"], (code, err)
        assert not out.exists()

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
            ({"kinematics": {"accel": 10**400}}, ["kinematics.accel"]),
            ({"network": {"kind": "grid", "we_length": 10**400}}, ["network.we_length"]),
            ({"controller": {"obs_scale": 10**400}}, ["controller.obs_scale"]),
            ({"yellow": 10**19}, ["yellow", "2**53"]),
            ({"controller": {"green_fixed": 10**19}}, ["controller.green_fixed", "2**53"]),
            ({"network": {"kind": "grid", "rowz": 1, "cols": 1}}, ["network", "rowz"]),
            ({"flow": {"kind": "syn-light", "path": "x.json"}}, ["flow", "path"]),
            ({"kinematics": {"vehicle_length": 5e-324, "min_gap": 5e-324}}, ["lane holds more vehicles"]),
            ({"horizon": 10**15}, ["horizon", "1000000"]),
            ({"episodes": 100_001}, ["episodes", "100000"]),
            ({"buffer_capacity": 2**53}, ["buffer_capacity", "1000000"]),
            ({"network": {"kind": "grid", "rows": 101}}, ["network.rows", "100"]),
            ({"network": {"kind": "grid", "cols": 10**9}}, ["network.cols", "100"]),
            ({"hidden_sizes": [8] * 9}, ["hidden_sizes", "8 sizes"]),
            ({"hidden_sizes": [32, 4097]}, ["hidden_sizes", "4096"]),
            ({"kinematics": {"accel": 1e-300}}, ["accel 1e-300", "1000000 s"]),
            ({"kinematics": {"max_speed": 1e160}}, ["max_speed 1e+160"]),
            ({"controller": {"kind": "dqn", "obs_scale": 0.0}}, ["obs_scale", "> 0"]),
        ],
        ids=[
            "controller-not-object", "controller-unknown-key", "kinematics-not-object",
            "kinematics-unknown-key", "seeds-not-list", "flow-not-object", "flow-file-no-path",
            "roadnet-no-path", "int-given-string", "horizon-string", "horizon-bool", "yellow-float",
            "kinematics-nan", "float-inf", "seeds-not-ints", "optional-string", "str-given-int",
            "eval-every-zero", "epsilon-horizon-zero", "epsilon-horizon-negative", "network-rows-float",
            "network-cols-string", "network-length-inf", "network-path-int", "accel-beyond-float",
            "network-length-beyond-float", "obs-scale-beyond-float", "yellow-beyond-int64",
            "green-fixed-beyond-int64", "network-unknown-key", "flow-unknown-key", "vehicles-too-small-to-count",
            "horizon-past-limit", "episodes-past-limit", "buffer-capacity-past-limit",
            "network-rows-past-limit", "network-cols-past-limit", "hidden-sizes-too-many",
            "hidden-size-past-limit", "accel-too-small-to-clear", "max-speed-past-square",
            "obs-scale-zero",
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

    @pytest.mark.parametrize(
        "doc,named",
        [
            ({"episodes": 2, "eval_every": 5}, ["eval_every (5)", "episodes (2)"]),
            ({"buffer_capacity": 16}, ["buffer_capacity (16)", "batch_size (32)"]),
            ({"buffer_capacity": 32}, ["buffer_capacity (32)", "batch_size (32)"]),
            ({"obs_counts": "foo"}, ["obs_counts", "'foo'"]),
            ({"epsilon_start": 1.5}, ["epsilon_start 1.5"]),
            ({"epsilon_end": -0.1}, ["epsilon_end -0.1"]),
            ({"seeds": [0, -1]}, ["'seeds'", "[0, -1]"]),
            ({"seeds": [1, 1, 0]}, ["'seeds'", "[1, 1, 0]"]),
        ],
        ids=["eval-every-past-episodes", "buffer-below-batch", "buffer-equals-batch", "obs-counts-unknown",
             "epsilon-start-above-one", "epsilon-end-below-zero", "seed-negative", "seed-repeated"],
    )
    def test_untrainable_config_is_rejected_at_load(self, tmp_path, doc, named):
        doc = {"controller": {"kind": "dqn"}, "horizon": 30, "episodes": 2, "seeds": [0], **doc}
        with pytest.raises(ValueError):
            ExperimentConfig.from_dict(doc)
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(doc))
        code, err = _run_quietly(["train", "--config", str(config_path), "--out", str(tmp_path / "out")])
        assert code == 1 and len(err.splitlines()) == 1, (code, err)
        assert all(word in err for word in named), err
        assert not (tmp_path / "out").exists()

    def test_u_turn_route_is_one_line(self, tmp_path, capsys):
        flow_path = tmp_path / "flows.json"
        flow_path.write_text(json.dumps(
            [{"route": ["rd__b_w_0__i_0_0", "rd__i_0_0__b_w_0"], "interval": 5, "startTime": 0, "endTime": 20}]
        ))
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({"flow": {"kind": "file", "path": str(flow_path)}, "horizon": 60}))
        code = main(["run", "--config", str(config_path), "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 1
        assert err.splitlines() == [
            f"gridlight: error: {flow_path}: flow record #0: no movement from road rd__b_w_0__i_0_0 to road rd__i_0_0__b_w_0"
        ]

    def test_route_starting_inside_the_grid_is_one_line(self, tmp_path):
        flow_path = tmp_path / "flows.json"
        flow_path.write_text(json.dumps(
            [{"route": ["rd__i_0_0__i_0_1", "rd__i_0_1__b_e_0"], "interval": 5, "startTime": 0, "endTime": 20}]
        ))
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({
            "network": {"kind": "grid", "rows": 2, "cols": 2},
            "flow": {"kind": "file", "path": str(flow_path)},
            "horizon": 60,
        }))
        out = tmp_path / "out"
        code, err = _run_quietly(["run", "--config", str(config_path), "--out", str(out)])
        assert code == 1
        assert err.splitlines() == [
            f"gridlight: error: {flow_path}: flow record #0: route must start at a boundary entry, "
            "but road rd__i_0_0__i_0_1 starts at i_0_0"
        ]
        assert not out.exists()

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

    def test_roadnet_speed_past_the_clearance_law_is_one_line(self, tmp_path, capsys):
        roadnet_path = tmp_path / "roadnet.json"
        save_roadnet(build_grid(1, 1, 300, 300), str(roadnet_path))
        doc = json.loads(roadnet_path.read_text())
        doc["roads"][0]["maxSpeed"] = 1e160
        roadnet_path.write_text(json.dumps(doc))
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({"network": {"kind": "roadnet", "path": str(roadnet_path)}}))
        code = main(["run", "--config", str(config_path), "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 1
        assert len(err.splitlines()) == 1
        assert doc["roads"][0]["id"] in err and "maxSpeed 1e+160" in err, err

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
        assert "#0" in err and "maxSpeed" in err, err

    def test_flow_vehicle_too_slow_to_clear_is_one_line(self, tmp_path, capsys):
        flow_path = tmp_path / "flows.json"
        save_flow_file(syn_light_flows(build_grid(3, 3, 300, 300)), str(flow_path))
        doc = json.loads(flow_path.read_text())
        doc[2]["vehicle"] = {"acceleration": 1e-300}
        flow_path.write_text(json.dumps(doc))
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({"flow": {"kind": "file", "path": str(flow_path)}, "horizon": 60}))
        code = main(["run", "--config", str(config_path), "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 1
        assert len(err.splitlines()) == 1
        assert "#2" in err and "acceleration" in err and "1000000 s" in err, err

    def test_differing_flow_vehicles_are_one_line(self, tmp_path, capsys):
        flow_path = tmp_path / "flows.json"
        save_flow_file(syn_light_flows(build_grid(3, 3, 300, 300)), str(flow_path))
        doc = json.loads(flow_path.read_text())
        doc[0]["vehicle"] = {"length": 5.0, "maxSpeed": 11.0}
        doc[1]["vehicle"] = {}
        doc[2]["vehicle"] = {"length": 5.0, "maxSpeed": 11.0}
        doc[3]["vehicle"] = {"length": 5.0, "maxSpeed": 8.0}
        flow_path.write_text(json.dumps(doc))
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({"flow": {"kind": "file", "path": str(flow_path)}, "horizon": 60}))
        code = main(["run", "--config", str(config_path), "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 1
        assert len(err.splitlines()) == 1
        assert "#3" in err and "#0" in err and "one vehicle type" in err, err
        assert not (tmp_path / "out").exists()

        # one shared map, with records that carry none, is accepted
        doc[3]["vehicle"] = doc[0]["vehicle"]
        flow_path.write_text(json.dumps(doc))
        assert main(["run", "--config", str(config_path), "--out", str(tmp_path / "out")]) == 0

    @pytest.mark.parametrize(
        "edit,named",
        [
            (_junction_self_loop, "road rd__i_0_0__b_e_0 starts and ends at i_0_0"),
            (lambda doc: doc["roads"].append(
                {"id": "loop", "startIntersection": "b_w_0", "endIntersection": "b_w_0", "length": 100}
            ), "road loop starts and ends at b_w_0"),
            (lambda doc: [node.update(virtual=True) for node in doc["intersections"]], "network has no intersection"),
        ],
        ids=["junction-self-loop", "boundary-self-loop", "all-virtual"],
    )
    def test_malformed_roadnet_is_one_line(self, tmp_path, capsys, edit, named):
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
        assert err.splitlines() == [f"gridlight: error: {roadnet_path}: {named}"]

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

    def test_line_break_in_an_id_stays_one_line(self, tmp_path, capsys):
        roadnet_path = tmp_path / "roadnet.json"
        save_roadnet(build_grid(1, 1, 300, 300), str(roadnet_path))
        doc = json.loads(roadnet_path.read_text())
        doc["roads"][0]["startIntersection"] = "b_w\n0\x0c"
        roadnet_path.write_text(json.dumps(doc))
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({"network": {"kind": "roadnet", "path": str(roadnet_path)}}))
        code = main(["run", "--config", str(config_path), "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 1
        assert err.splitlines() == [
            f"gridlight: error: {roadnet_path}: road {doc['roads'][0]['id']} references unknown intersection b_w\\n0\\x0c"
        ]

    @pytest.mark.parametrize(
        "field,value",
        [
            ("interval", float("nan")),
            ("interval", float("inf")),
            ("interval", 1e-9),
            ("vehicle", "fast"),
            ("vehicle", [4.5]),
            ("route", [["x"]]),
            ("endTime", float("inf")),  # what JSON's 1e400 reads as
            ("endTime", 10**400),
            ("startTime", 1.7),
            ("startTime", True),
            ("startTime", -50),
            ("interval", "5"),
            ("interval", True),
            ("vehicle", {"length": "5", "maxSpeed": True}),
        ],
        ids=[
            "interval-nan", "interval-inf", "interval-tiny", "vehicle-string", "vehicle-list",
            "route-of-lists", "end-1e400", "end-huge-int", "start-fraction", "start-true",
            "start-negative", "interval-string", "interval-true", "vehicle-string-and-bool",
        ],
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


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=8), inner, max_size=3),
    max_leaves=6,
)


def _loader_inputs() -> tuple[dict, list]:
    """A valid 1x1 roadnet and a one-record flow file crossing it west to east."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "roadnet.json")
        save_roadnet(build_grid(1, 1, 300, 300), path)
        with open(path, encoding="utf-8") as fh:
            roadnet = json.load(fh)
    flows = [{
        "vehicle": {"length": 5.0, "minGap": 2.5, "maxSpeed": 11.0, "acceleration": 2.0},
        "route": ["rd__b_w_0__i_0_0", "rd__i_0_0__b_e_0"],
        "interval": 5,
        "startTime": 0,
        "endTime": 20,
    }]
    return roadnet, flows


def _fields() -> list[tuple[str, tuple, str]]:
    """(file, path to a record, key) for every field of the valid inputs."""
    roadnet, flows = _loader_inputs()
    fields = [("roadnet", (), key) for key in roadnet]
    for section in ("intersections", "roads"):
        fields += [("roadnet", (section, k), key) for k, rec in enumerate(roadnet[section]) for key in rec]
    fields += [("flows", (k,), key) for k, rec in enumerate(flows) for key in rec]
    return fields


def _run_quietly(argv: list[str]) -> tuple[int, str]:
    """Exit code and stderr of one CLI call, stdout discarded."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    return code, err.getvalue()


class TestLoaderFuzz:
    """One field of a valid roadnet or flow file set to any JSON value."""

    @settings(max_examples=150, deadline=None)
    @given(field=st.sampled_from(_fields()), value=_JSON)
    def test_run_exits_cleanly(self, field, value):
        docs = dict(zip(("roadnet", "flows"), _loader_inputs()))
        which, where, key = field
        record = docs[which]
        for step in where:
            record = record[step]
        record[key] = value
        with tempfile.TemporaryDirectory() as tmp:
            paths = {}
            for name, doc in docs.items():
                paths[name] = os.path.join(tmp, f"{name}.json")
                with open(paths[name], "w", encoding="utf-8") as fh:
                    json.dump(doc, fh)
            config = os.path.join(tmp, "config.json")
            with open(config, "w", encoding="utf-8") as fh:
                json.dump({
                    "network": {"kind": "roadnet", "path": paths["roadnet"]},
                    "flow": {"kind": "file", "path": paths["flows"]},
                    "horizon": 30,
                }, fh)
            code, err = _run_quietly(["run", "--config", config, "--out", os.path.join(tmp, "out")])
        assert code == 0 or (code == 1 and len(err.splitlines()) == 1), (code, err)


def _config_keys() -> list[tuple[str, ...]]:
    """The path of every key of a valid config, top level and nested."""
    keys = []
    for key, value in ExperimentConfig().to_dict().items():
        keys.append((key,))
        if isinstance(value, dict):
            keys += [(key, sub) for sub in value]
    return keys


# keys that size the work, as (values a run takes, values past the key's
# limit): a large value within the limit is a large request, not a malformed
# one; a value past it is rejected at load
_WORK_SIZES = {
    ("horizon",): (st.integers(-1, 40), st.integers(1_000_001, 2**53)),
    ("episodes",): (st.integers(-1, 40), st.integers(100_001, 2**53)),
    ("network", "rows"): (st.integers(-1, 4), st.integers(101, 2**53)),
    ("network", "cols"): (st.integers(-1, 4), st.integers(101, 2**53)),
    ("hidden_sizes",): (
        st.lists(st.integers(-1, 8), max_size=3),
        st.lists(st.integers(4097, 2**53), min_size=1, max_size=3)
        | st.lists(st.integers(1, 2**53), min_size=9, max_size=12),
    ),
    ("buffer_capacity",): (st.integers(-1, 100), st.integers(1_000_001, 2**53)),
}
_BEYOND_FLOAT = st.integers(2**1024, 2**1100) | st.integers(-(2**1100), -(2**1024))


class TestConfigFuzz:
    """One key of a valid fixed-controller config set to any JSON value."""

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_run_exits_cleanly(self, data):
        doc = ExperimentConfig(horizon=30).to_dict()
        path = data.draw(st.sampled_from(_config_keys()), label="key")
        record = doc
        for step in path[:-1]:
            record = record[step]
        sizes = _WORK_SIZES.get(path)
        past_limit = sizes is not None and data.draw(st.booleans(), label="past the limit")
        values = _JSON | _BEYOND_FLOAT if sizes is None else sizes[past_limit]
        record[path[-1]] = data.draw(values, label="value")
        with tempfile.TemporaryDirectory() as tmp:
            config = os.path.join(tmp, "config.json")
            with open(config, "w", encoding="utf-8") as fh:
                json.dump(doc, fh)
            code, err = _run_quietly(["run", "--config", config, "--out", os.path.join(tmp, "out")])
            assert not (past_limit and os.path.exists(os.path.join(tmp, "out"))), err
        assert code == 0 or (code == 1 and len(err.splitlines()) == 1), (code, err)
        assert code == 1 or not past_limit, err


class TestCheckpointFuzz:
    """A valid checkpoint cut short, or with one array replaced by a small random one."""

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_eval_exits_cleanly(self, data):
        with tempfile.TemporaryDirectory() as tmp:
            ckpt = os.path.join(tmp, "checkpoint.npz")
            save_checkpoint(QNetwork((OBS_SIZE, 8, 4), np.random.default_rng(0)), ckpt)
            if data.draw(st.booleans(), label="cut"):
                raw = pathlib.Path(ckpt).read_bytes()
                pathlib.Path(ckpt).write_bytes(raw[: data.draw(st.integers(0, len(raw) - 1), label="length")])
            else:
                with np.load(ckpt) as archive:
                    arrays = dict(archive)
                key = data.draw(st.sampled_from(sorted(arrays)), label="array")
                arrays[key] = data.draw(
                    npst.arrays(npst.scalar_dtypes(), npst.array_shapes(min_dims=0, max_dims=2, max_side=8)),
                    label="replacement",
                )
                np.savez(ckpt, **arrays)
            config = os.path.join(tmp, "config.json")
            with open(config, "w", encoding="utf-8") as fh:
                json.dump({"controller": {"kind": "dqn"}, "horizon": 30}, fh)
            code, err = _run_quietly(["eval", "--config", config, "--checkpoint", ckpt])
        assert code == 0 or (code == 1 and len(err.splitlines()) == 1), (code, err)


_FILE_FAULTS = {
    "not-utf8": lambda raw: raw[:1] + b"\xff" + raw[1:],
    "cut-short": lambda raw: raw[: len(raw) // 2],
}


class TestUnreadableFiles:
    """A file that is not UTF-8, or is cut short, is rejected in one line naming it."""

    @pytest.mark.parametrize("fault", sorted(_FILE_FAULTS))
    @pytest.mark.parametrize("loader", ["config", "roadnet", "flows", "decisions"])
    def test_names_the_file(self, tmp_path, loader, fault):
        roadnet, flows = _loader_inputs()
        paths = {name: tmp_path / f"{name}.json" for name in ("config", "roadnet", "flows")}
        paths["decisions"] = tmp_path / "decisions.csv"
        config = {
            "network": {"kind": "roadnet", "path": str(paths["roadnet"])},
            "flow": {"kind": "file", "path": str(paths["flows"])},
            "horizon": 30,
        }
        good = ["5", "i_0_0", "1", "10", "1", "4", "3"] + ["2"] * 12
        raws = {name: json.dumps(doc).encode() for name, doc in zip(paths, (config, roadnet, flows))}
        raws["decisions"] = "".join(",".join(row) + "\r\n" for row in (DECISIONS_HEADER, good)).encode()
        for name, raw in raws.items():
            paths[name].write_bytes(_FILE_FAULTS[fault](raw) if name == loader else raw)
        if loader == "decisions":
            argv = ["case-study", "--telemetry", str(paths["decisions"])]
        else:
            argv = ["run", "--config", str(paths["config"])]
        code, err = _run_quietly(argv + ["--out", str(tmp_path / "out")])
        assert code == 1 and len(err.splitlines()) == 1, (code, err)
        assert err.startswith(f"gridlight: error: {paths[loader]}: "), err


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


    def test_corrupt_checkpoint_is_one_line(self, tmp_path, capsys):
        config_path = tmp_path / "config.json"
        write_config(config_path, horizon=300, controller=ControllerConfig(kind="dqn"))
        net = QNetwork(rng=np.random.default_rng(0))
        net.weights[0][0, 0] = np.nan
        ckpt = tmp_path / "nan.npz"
        save_checkpoint(net, str(ckpt))
        assert main(["eval", "--config", str(config_path), "--checkpoint", str(ckpt)]) == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert "w0" in err, err

    @pytest.mark.parametrize("damage", ["empty", "bare-npy", "cut-in-half"])
    def test_unreadable_checkpoint_is_one_line(self, tmp_path, capsys, damage):
        config_path = tmp_path / "config.json"
        write_config(config_path, horizon=300, controller=ControllerConfig(kind="dqn"))
        ckpt = tmp_path / "checkpoint.npz"
        if damage == "bare-npy":
            with open(ckpt, "wb") as fh:
                np.save(fh, np.zeros(3))
        else:
            save_checkpoint(QNetwork(rng=np.random.default_rng(0)), str(ckpt))
            raw = ckpt.read_bytes()
            ckpt.write_bytes(raw[: len(raw) // 2] if damage == "cut-in-half" else b"")
        assert main(["eval", "--config", str(config_path), "--checkpoint", str(ckpt)]) == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert f"checkpoint {ckpt}: not a readable .npz archive" in err, err


class TestTrainCommand:
    @staticmethod
    def _train_process(config_path, out, log_level=None) -> subprocess.CompletedProcess:
        """``gridlight train`` in a process of its own, at ``GRIDLIGHT_LOG=log_level`` when given."""
        root = pathlib.Path(__file__).resolve().parents[1]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
        env.pop("GRIDLIGHT_LOG", None)
        if log_level is not None:
            env["GRIDLIGHT_LOG"] = log_level
        return subprocess.run(
            [sys.executable, "-m", "gridlight.cli", "train", "--config", str(config_path), "--out", str(out)],
            env=env, capture_output=True, text=True, timeout=300,
        )

    def test_numeric_fault_is_one_line(self, tmp_path):
        # run as a process: numpy's overflow warnings would reach its stderr
        config_path = tmp_path / "config.json"
        write_config(
            config_path, horizon=600, controller=ControllerConfig(kind="dqn"), episodes=2, seeds=(0,), lr=1e6
        )
        done = self._train_process(config_path, tmp_path / "o")
        assert done.returncode == 1
        assert len(done.stderr.splitlines()) == 1, done.stderr
        assert "episode 0" in done.stderr

    def test_progress_is_logged_per_episode_at_info(self, tmp_path):
        config_path = tmp_path / "config.json"
        write_config(config_path, horizon=120, controller=ControllerConfig(kind="dqn"), episodes=2, seeds=(0,))
        quiet = self._train_process(config_path, tmp_path / "quiet")
        assert quiet.returncode == 0 and quiet.stderr == "", quiet.stderr
        loud = self._train_process(config_path, tmp_path / "loud", log_level="info")
        assert loud.returncode == 0, loud.stderr
        lines = [line for line in loud.stderr.splitlines() if "gridlight.experiment INFO" in line]
        assert [line.split("INFO ", 1)[1].split(":")[0] for line in lines] == [
            "seed 0 episode 0", "seed 0 episode 1"
        ], loud.stderr
        assert all(f in lines[0] for f in ("epsilon 0.800", "travel time", "mean loss")), lines[0]
        # the log changes no artifact
        for name in ("metrics.json", "learning_curve.csv"):
            assert (tmp_path / "quiet" / "seed_0" / name).read_bytes() == (tmp_path / "loud" / "seed_0" / name).read_bytes()

    @pytest.mark.parametrize("command,flag", [("train", "--config"), ("compare", "--configs")])
    def test_jobs_below_one_is_one_line(self, tmp_path, command, flag):
        config_path = tmp_path / "config.json"
        write_config(config_path, horizon=30, controller=ControllerConfig(kind="dqn"), seeds=(0, 1))
        out = tmp_path / "out"
        code, err = _run_quietly([command, flag, str(config_path), "--jobs", "0", "--out", str(out)])
        assert code == 1 and err.splitlines() == ["gridlight: error: --jobs must be an integer >= 1, got 0"], (code, err)
        assert not out.exists()


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

    @pytest.mark.parametrize(
        "edit, named",
        [
            (lambda row: row[:3], "3 fields"),
            (lambda row: row[:3] + ["ten"] + row[4:], "'ten'"),
            (lambda row: row[:2] + ["7"] + row[3:], "phase 7"),
            (lambda row: row[:2] + ["-1"] + row[3:], "phase -1"),
            (lambda row: row[:3] + ["0"] + row[4:], "green_duration 0"),
            (lambda row: row[:4] + ["2"] + row[5:], "switched 2"),
            (lambda row: row[:7] + ["-3"] + row[8:], "negative"),
        ],
        ids=["field-count", "not-integer", "phase-7", "phase-negative", "green-zero", "switched-2", "count-negative"],
    )
    def test_malformed_row_is_one_line(self, tmp_path, capsys, edit, named):
        good = ["5", "i_0_0", "1", "10", "1", "4", "3"] + ["2"] * 12
        path = tmp_path / "decisions.csv"
        path.write_text("\n".join(",".join(row) for row in (DECISIONS_HEADER, good, edit(good))) + "\n")
        code = main(["case-study", "--telemetry", str(path), "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert code == 1
        assert len(err.splitlines()) == 1
        assert f"{path}: row 3: " in err and named in err, err


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

    def test_two_configs_of_one_name_are_rejected(self, tmp_path):
        for sub in ("a", "b"):
            (tmp_path / sub).mkdir()
            write_config(tmp_path / sub / "run.json", horizon=30, seeds=(0,))
        out = tmp_path / "cmp"
        code, err = _run_quietly(
            ["compare", "--configs", str(tmp_path / "a" / "run.json"), str(tmp_path / "b" / "run.json"), "--out", str(out)]
        )
        assert code == 1 and len(err.splitlines()) == 1, (code, err)
        assert "'run'" in err, err
        assert not out.exists()

    @pytest.mark.parametrize(
        "doc,named",
        [
            ({"horizon": "10"}, "horizon"),
            ({"flow": {"kind": "file", "path": "missing.json"}}, "missing.json"),
            ({"network": {"kind": "hex"}}, "'hex'"),
            (
                {"controller": {"kind": "dqn"}, "episodes": 2, "horizon": 300, "target_sync": 100_000},
                "target_sync (100000) exceeds the 540 train steps",
            ),
        ],
        ids=["bad-key", "missing-flow-file", "bad-network", "target-sync-never-fires"],
    )
    def test_bad_later_config_fails_before_any_runs(self, tmp_path, doc, named):
        good = tmp_path / "good.json"
        write_config(good, horizon=30, seeds=(0,))
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        out = tmp_path / "cmp"
        code, err = _run_quietly(["compare", "--configs", str(good), str(bad), "--out", str(out)])
        assert code == 1 and len(err.splitlines()) == 1, (code, err)
        assert err.startswith(f"gridlight: error: {bad}: ") and named in err, err
        assert not out.exists()

    def test_keeps_no_earlier_seed_world(self, tmp_path, monkeypatch):
        config = tmp_path / "fixed.json"
        write_config(config, horizon=30, seeds=(0, 1, 2))
        worlds: list[weakref.ref] = []
        alive: list[int] = []
        run_single = cli.run_single

        def spy(*args, **kwargs):
            gc.collect()
            alive.append(sum(ref() is not None for ref in worlds))
            result = run_single(*args, **kwargs)
            worlds.append(weakref.ref(result.world))
            return result

        monkeypatch.setattr(cli, "run_single", spy)
        code, _ = _run_quietly(["compare", "--configs", str(config), "--out", str(tmp_path / "cmp")])
        assert code == 0
        assert alive == [0, 0, 0]


class TestParser:
    def test_unknown_command_exits(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])
