"""Golden digests: fixed (config, seed) runs keep producing the same bytes.

Every artifact below is a pure function of its config and seed, so a
refactor that keeps behaviour keeps these SHA-256 digests.  A changed digest
is a behaviour change: it is re-recorded only together with a CHANGES.md
entry that explains the diff, never as a routine update.

Checkpoints are digested by their stored arrays (name, dtype, shape, bytes),
because ``.npz`` zip entries carry timestamps.
"""

import hashlib
import json
import os

import numpy as np
import pytest

from gridlight.control import ControllerConfig
from gridlight.experiment import ExperimentConfig, evaluate, run_single, train
from gridlight.flows import save_flow_file, syn_heavy_flows
from gridlight.network import build_grid
from gridlight.roadnet import save_roadnet
from gridlight.signalmath import KinematicParams

RUN_FILES = ("metrics.json", "telemetry.csv", "decisions.csv")


def file_digest(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def npz_digest(path):
    h = hashlib.sha256()
    with np.load(path) as data:
        for name in sorted(data.files):
            arr = data[name]
            h.update(f"{name}:{arr.dtype.str}:{arr.shape}".encode())
            h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


def digests(out_dir, names):
    return {
        name: (npz_digest if name.endswith(".npz") else file_digest)(os.path.join(out_dir, name))
        for name in names
    }


# ------------------------------------------------------------ run_single

CONTROLLERS = {
    "fixed": ControllerConfig(kind="fixed"),
    "maxpressure": ControllerConfig(kind="maxpressure"),
    "greedy_prcol-fixed": ControllerConfig(kind="greedy_prcol"),
    "greedy_prcol-dynamic": ControllerConfig(kind="greedy_prcol", duration_mode="dynamic"),
    "fixed-dynamic": ControllerConfig(kind="fixed", duration_mode="dynamic"),
    "maxpressure-dynamic": ControllerConfig(kind="maxpressure", duration_mode="dynamic"),
}

RUN_SINGLE = {
    ("syn-light", "fixed"): {
        "metrics.json": "86548d33bdcb37f938c0662f7f68939b9fe9171e95d3316be42fce699cdf5465",
        "telemetry.csv": "12e3bad8fd7a67a5e0a863cf3238ba42ffd4e02e087b0d894958a499a8740071",
        "decisions.csv": "21bc4aaf9395348e303a2dbf04ade9ee4fbbc159ee8edcbc272e5d90cef70bcc",
    },
    ("syn-light", "maxpressure"): {
        "metrics.json": "7fba6677de105b9884411e0d7790a1b6f992933c6798fc89274bfd7cb9cd4815",
        "telemetry.csv": "18e68e401665e50f679be8dc12874e4d82283f164f5bb0f8a31cc3aa07080bcd",
        "decisions.csv": "a31f66f8eaca9323b98f4234486441453dc040ab822205e32407416eab117536",
    },
    ("syn-light", "greedy_prcol-fixed"): {
        "metrics.json": "73052125123e42a7f922f5ba1670d8404df367ad074fd2872adb30568782d866",
        "telemetry.csv": "aa89861db51cf744e6900ff9f8309a400d7b93d3439125a7f0382b5b838e2df8",
        "decisions.csv": "297db1a3ac2047b732ae1b98fed5cb15da0138c1ba5916a3dbda72c987bbb6d6",
    },
    ("syn-light", "greedy_prcol-dynamic"): {
        "metrics.json": "cc0a9ea731507f353f0d5508d52c99e4aaf6047e61cae6e947351ae07783b98a",
        "telemetry.csv": "aa89861db51cf744e6900ff9f8309a400d7b93d3439125a7f0382b5b838e2df8",
        "decisions.csv": "297db1a3ac2047b732ae1b98fed5cb15da0138c1ba5916a3dbda72c987bbb6d6",
    },
    ("syn-heavy", "fixed"): {
        "metrics.json": "7107c6438aa399a4ea6b5b43d708259128bb2c489c346833193b36da5e3f1c14",
        "telemetry.csv": "de818f3917cc46a581a5c3dae95535605e78f33222bc3db3478b0dc0d321892b",
        "decisions.csv": "e53cb469e17b9b0e3b226e60364daffd849c0ab55d87447167c1f07ffa3a7ebf",
    },
    ("syn-heavy", "maxpressure"): {
        "metrics.json": "78f5c6354bcfb810d049f10b02a1cb3b41c4379954473075f925010975eda6d2",
        "telemetry.csv": "e150a24c0e7aee1988574db8e5ea1a0359ba32a63d2c72b927de6bb13f869b11",
        "decisions.csv": "d048b8d75fa62a1d9d3c0665503f84c0cd99a87e771141a071454fb82d71209d",
    },
    ("syn-heavy", "greedy_prcol-fixed"): {
        "metrics.json": "0c3d51b3166b9a7c4c1a3ed49270f4cbdea4204967cf69f9f27445df9cf41362",
        "telemetry.csv": "6514f9486073e536f157563d1c9ba6f8871532d9485e2ab08f9bb16a3531082a",
        "decisions.csv": "d4717826ff71f1d29185693369d8a88f56e710d7801ae2baea84af14e412699f",
    },
    ("syn-heavy", "greedy_prcol-dynamic"): {
        "metrics.json": "48d89ce2d1d53074e92b5c57c715334bf4fbfcb1d23878444e65192a1942001a",
        "telemetry.csv": "e5f002e23fde704f8e994b1e0a578d1cc86a028a814f857a1b2f581f8d4b3432",
        "decisions.csv": "d5c13354dfc602915b364028817aebe7e44c96b76a7f51ac0e4b11e87e995352",
    },
    # dynamic greens for these two kinds are new behaviour, recorded after the
    # duration rule became shared by every controller
    ("syn-heavy", "fixed-dynamic"): {
        "metrics.json": "e60990f56e19c13148a824bbd1c69b336a2744f81147efd5a3ac1c8841fb24b8",
        "telemetry.csv": "0a4d09cad9d9dc53e8aecbbfa671c1565e1de77495e9a19d2dbfe5a62b7bc419",
        "decisions.csv": "3ee8072f0e31994cd6d7fef90f4ce5e82f1fbeec10278feaf43ad293ed05ea0d",
    },
    ("syn-heavy", "maxpressure-dynamic"): {
        "metrics.json": "3eb345da3192f75e127b34a7e39252d1422133fbcd6862832a54fea9338a185f",
        "telemetry.csv": "b44435f3d5ae22dcf8e88e00bf4dd60916a48db43c33ea04ad05be905ed125ad",
        "decisions.csv": "fba5d4d2e580faeb4a3f5fdfb77718dbe5051d6bd11d070ed34ceee8f99abade",
    },
}


@pytest.mark.parametrize("flow,controller", sorted(RUN_SINGLE), ids="-".join)
def test_run_single(tmp_path, flow, controller):
    config = ExperimentConfig(flow={"kind": flow}, controller=CONTROLLERS[controller], horizon=3600)
    run_single(config, seed=0, out_dir=str(tmp_path))
    assert digests(tmp_path, RUN_FILES) == RUN_SINGLE[(flow, controller)]


# ------------------------------------------------ roadnet and flow files

# 2x2 grid: right, left, straight and two-turn routes; the first record's
# vehicle fields override the configured kinematics
FLOW_RECORDS = [
    {
        "vehicle": {"length": 4.5, "minGap": 2.0, "maxSpeed": 12.0, "acceleration": 2.5},
        "route": ["rd__b_w_0__i_0_0", "rd__i_0_0__i_1_0", "rd__i_1_0__b_s_0"],
        "interval": 8, "startTime": 0, "endTime": 899,
    },
    {
        "route": ["rd__b_e_0__i_0_1", "rd__i_0_1__i_1_1", "rd__i_1_1__b_s_1"],
        "interval": 12, "startTime": 3, "endTime": 899,
    },
    {
        "route": ["rd__b_s_0__i_1_0", "rd__i_1_0__i_1_1", "rd__i_1_1__i_0_1", "rd__i_0_1__b_n_1"],
        "interval": 15, "startTime": 5, "endTime": 899,
    },
    {
        "route": ["rd__b_w_1__i_1_0", "rd__i_1_0__i_1_1", "rd__i_1_1__b_e_1"],
        "interval": 6, "startTime": 1, "endTime": 899,
    },
]

FILE_INPUTS = {
    "metrics.json": "b599b7c0a3fa52af4b540464c1a3383bbe660e44799776e4f517bfa38482617c",
    "telemetry.csv": "11961e4d42d02badd8787a34dbadd6257879a0727aa5dc404fc9d474dc622ed4",
    "decisions.csv": "33aee46453778a12e4ccf24796eccdaf4a8ea5979a04d518ee0ef68cf0312133",
}


def test_roadnet_and_flow_files(tmp_path, monkeypatch):
    # relative paths keep the config fingerprint in metrics.json independent of tmp_path
    monkeypatch.chdir(tmp_path)
    save_roadnet(build_grid(2, 2, 300, 300), "roadnet.json")
    with open("flow.json", "w", encoding="utf-8") as fh:
        json.dump(FLOW_RECORDS, fh)
    config = ExperimentConfig(
        network={"kind": "roadnet", "path": "roadnet.json"},
        flow={"kind": "file", "path": "flow.json"},
        controller=ControllerConfig(kind="greedy_prcol", duration_mode="dynamic"),
        horizon=900,
    )
    run_single(config, seed=0, out_dir="out")
    assert digests("out", RUN_FILES) == FILE_INPUTS


# -------------------------------------------------------------- training

TRAIN_FILES = ("checkpoint_final.npz", "checkpoint_best.npz", "learning_curve.csv", "metrics.json")

TRAIN = {
    "checkpoint_final.npz": "4be0a35065a81c1724b7cf946d4342e2e274481fb0f539889399e0389ce0c3e5",
    "checkpoint_best.npz": "4be0a35065a81c1724b7cf946d4342e2e274481fb0f539889399e0389ce0c3e5",
    "learning_curve.csv": "90c28ebd92882e752f4682a5734af10bf41cefd9ff616e6bb74581b9ab72fb03",
    "metrics.json": "3f7a412ea3dda8d6c06d7fdd614a4e8cc7419895247cf9daae3ae6584997de08",
}

EVALUATE = {
    "metrics.json": "50a4539a92168e8b962e0ed691d6bdf87556febd38e869388e9bb2d34fe74f99",
    "telemetry.csv": "1bb208c2651cf7b027973c5690d7f1fd608f8c6a4500acc61b30a55270341216",
    "decisions.csv": "da60b6caf4254f5787302b8e9551a62d4f383311cb75d9257cda45880907dff9",
}


def test_train_and_evaluate(tmp_path, monkeypatch):
    # the syn-heavy generator is defined on a full hour only, so the first
    # 1200 s of Syn-Heavy come from its flow file
    monkeypatch.chdir(tmp_path)
    save_flow_file(syn_heavy_flows(build_grid(3, 3, 300, 300)), "syn_heavy.json")
    config = ExperimentConfig(
        flow={"kind": "file", "path": "syn_heavy.json"},
        controller=ControllerConfig(kind="dqn", obs_scale=0.025),
        horizon=1200,
        episodes=3,
        seeds=(0,),
    )
    train(config, seed=0, out_dir="train")
    assert digests("train", TRAIN_FILES) == TRAIN
    evaluate(config, os.path.join("train", "checkpoint_final.npz"), seed=0, out_dir="eval")
    assert digests("eval", RUN_FILES) == EVALUATE


# ----------------------------------------------------------- fingerprint

FINGERPRINT = "296f97655b78df9a"


def test_fingerprint_of_non_default_config():
    config = ExperimentConfig(
        network={"kind": "grid", "rows": 2, "cols": 4, "we_length": 250.0, "ns_length": 350.0},
        flow={"kind": "syn-heavy"},
        controller=ControllerConfig(
            kind="dqn", reward_kind="queue", duration_mode="dynamic",
            green_fixed=12, green_min=8, green_max=25, obs_scale=0.025,
        ),
        horizon=1800,
        episodes=40,
        gamma=0.9,
        lr=0.002,
        buffer_capacity=5000,
        batch_size=64,
        target_sync=10,
        epsilon_start=0.9,
        epsilon_end=0.1,
        yellow=3,
        kinematics=KinematicParams(accel=2.5, max_speed=12.0, vehicle_length=4.5, min_gap=2.0),
        seeds=(4, 5),
        obs_counts="queued",
        hidden_sizes=(24, 16),
        epsilon_horizon=30,
        eval_every=5,
    )
    assert config.fingerprint() == FINGERPRINT
    assert ExperimentConfig.from_dict(json.loads(json.dumps(config.to_dict()))) == config
