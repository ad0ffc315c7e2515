"""The three benchmark workloads: their inputs, configs and round bodies.

A round is one closed-loop pass of a workload: the next episode starts when
the previous one ends, and the round returns when its last artifact is
written.  Every round of a workload runs the same inputs, so rounds repeat
bit for bit.

The inputs of all three workloads are fixed, not drawn from ``--seed``: the
engine's platoon-slot fault (see README) lets a share of trips beat free
flow, that share differs from one demand or training seed to the next, and
the benchmark's failed-trip share has to repeat exactly from run to run.
The turning demand generator takes a seed; the workload pins it to
``DEMAND_SEED``.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

from gridlight.control import ControllerConfig
from gridlight.experiment import ExperimentConfig, build_network, run_single, train, write_case_study
from gridlight.telemetry import read_decisions_csv

import checks

HORIZON = 3600
DEMAND_SEED = 0
TRAIN_SEED = 0

# grid geometry of the benchmark's own roadnet file
LANE_LENGTH = 300.0
LANE_SPEED = 40.0 / 3.6

# turning demand: two streams per entry road, each departing every 40 s,
# each route turning with probability 0.3 at every intersection it meets
STREAMS_PER_ENTRY = 2
STREAM_INTERVAL = 40
TURN_PROBABILITY = 0.3

_LEFT_OF = {"E": "N", "N": "W", "W": "S", "S": "E"}
_RIGHT_OF = {"E": "S", "S": "W", "W": "N", "N": "E"}
_STEP = {"E": (0, 1), "W": (0, -1), "S": (1, 0), "N": (-1, 0)}


# ------------------------------------------------------------------ the grid


def _node(rows: int, cols: int, r: int, c: int) -> str:
    if 0 <= r < rows and 0 <= c < cols:
        return f"i_{r}_{c}"
    if c < 0:
        return f"b_w_{r}"
    if c >= cols:
        return f"b_e_{r}"
    if r < 0:
        return f"b_n_{c}"
    return f"b_s_{c}"


def _road_id(rows: int, cols: int, a: tuple[int, int], b: tuple[int, int]) -> str:
    return f"rd__{_node(rows, cols, *a)}__{_node(rows, cols, *b)}"


def grid_roadnet(rows: int, cols: int) -> dict:
    """A rows x cols grid in the CityFlow roadnet subset, 300 m roads.

    Boundary nodes sit one block outside each edge row and column; every
    pair of neighbouring nodes is joined by one road each way.
    """
    cells = [
        (r, c)
        for r in range(-1, rows + 1)
        for c in range(-1, cols + 1)
        if not (r in (-1, rows) and c in (-1, cols))
    ]
    intersections = [
        {
            "id": _node(rows, cols, r, c),
            "point": {"x": c * LANE_LENGTH, "y": -r * LANE_LENGTH},
            "virtual": not (0 <= r < rows and 0 <= c < cols),
        }
        for r, c in cells
    ]
    cell_set = set(cells)
    inside = {(r, c) for r in range(rows) for c in range(cols)}
    roads = []
    for r, c in cells:
        for dr, dc in _STEP.values():
            nbr = (r + dr, c + dc)
            if nbr not in cell_set or ((r, c) not in inside and nbr not in inside):
                continue
            roads.append(
                {
                    "id": _road_id(rows, cols, (r, c), nbr),
                    "startIntersection": _node(rows, cols, r, c),
                    "endIntersection": _node(rows, cols, *nbr),
                    "length": LANE_LENGTH,
                    "maxSpeed": LANE_SPEED,
                    "lanes": 3,
                }
            )
    return {"intersections": intersections, "roads": roads}


def _entry_starts(rows: int, cols: int) -> list[tuple[tuple[int, int], str]]:
    """(boundary cell, heading into the grid) of every entry road."""
    starts = []
    starts += [((r, -1), "E") for r in range(rows)]
    starts += [((r, cols), "W") for r in range(rows)]
    starts += [((-1, c), "S") for c in range(cols)]
    starts += [((rows, c), "N") for c in range(cols)]
    return starts


def _walk(rows: int, cols: int, start: tuple[int, int], heading: str, rng) -> list[str] | None:
    """One random route from a boundary cell; None if it revisits a junction."""
    here = start
    seen: set[tuple[int, int]] = set()
    roads = []
    while True:
        dr, dc = _STEP[heading]
        nxt = (here[0] + dr, here[1] + dc)
        roads.append(_road_id(rows, cols, here, nxt))
        if not (0 <= nxt[0] < rows and 0 <= nxt[1] < cols):
            return roads
        if nxt in seen:
            return None
        seen.add(nxt)
        u = rng.random()
        if u < TURN_PROBABILITY / 2:
            heading = _LEFT_OF[heading]
        elif u < TURN_PROBABILITY:
            heading = _RIGHT_OF[heading]
        here = nxt


def turning_flows(rows: int, cols: int, seed: int, horizon: int = HORIZON) -> list[dict]:
    """Seeded turning demand as flow-file records.

    Every entry road carries ``STREAMS_PER_ENTRY`` streams, staggered so the
    road sees one departure every ``STREAM_INTERVAL / STREAMS_PER_ENTRY``
    seconds.  Each stream follows one fixed route drawn by a random walk
    that turns left or right (equally likely) with probability
    ``TURN_PROBABILITY`` at each intersection and otherwise goes straight.
    A walk that would revisit an intersection is redrawn.
    """
    rng = np.random.default_rng(seed)
    records = []
    for start, heading in _entry_starts(rows, cols):
        for k in range(STREAMS_PER_ENTRY):
            for _ in range(1000):
                route = _walk(rows, cols, start, heading, rng)
                if route is not None:
                    break
            else:
                raise RuntimeError(f"no loop-free route from {start} after 1000 draws")
            records.append(
                {
                    "route": route,
                    "interval": STREAM_INTERVAL,
                    "startTime": k * STREAM_INTERVAL // STREAMS_PER_ENTRY,
                    "endTime": horizon - 1,
                }
            )
    return records


def write_json(path: str, doc) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


def write_turning_inputs(in_dir: str, rows: int, cols: int, seed: int) -> tuple[str, str, list[dict]]:
    """Write roadnet.json and flows.json; returns both paths and the flows."""
    os.makedirs(in_dir, exist_ok=True)
    roadnet_path = os.path.join(in_dir, "roadnet.json")
    flow_path = os.path.join(in_dir, "flows.json")
    flows = turning_flows(rows, cols, seed)
    write_json(roadnet_path, grid_roadnet(rows, cols))
    write_json(flow_path, flows)
    return roadnet_path, flow_path, flows


# ----------------------------------------------------------- expected counts


def departures(start: int, end: int, interval: float, horizon: int = HORIZON) -> int:
    """Departures of a periodic stream that fall before the horizon."""
    last = min(end, horizon - 1)
    return 0 if last < start else math.floor((last - start) / interval) + 1


def syn_heavy_departures() -> int:
    """Spawn events of the paper's Syn-Heavy pattern on the 3x3 grid.

    Four 900 s periods over three entry roads per side; the base headway
    is 10 s, and the NS/SN entries (period 2) and WE/EW entries (period 4)
    drop to 2 s.
    """
    per_side = 3
    headway = {
        0: {"ns": 10, "we": 10},
        1: {"ns": 2, "we": 10},
        2: {"ns": 10, "we": 10},
        3: {"ns": 10, "we": 2},
    }
    total = 0
    for period, by_axis in headway.items():
        t0 = period * 900
        for interval in by_axis.values():
            # two sides per axis
            total += 2 * per_side * departures(t0, t0 + 899, interval)
    return total


# ---------------------------------------------------------------- workloads


@dataclass
class Workload:
    """A workload's config, its expected spawn count, its round body and checks."""

    name: str
    config: ExperimentConfig
    expected_generated: int
    body: Callable[[str], object]  # out_dir -> the program's return value
    artifacts: tuple[str, ...]  # files each round writes under out_dir
    telemetry_written: bool
    check: Callable[[str, object], list[str]]  # (out_dir, body's return) -> problems


def _telemetry_check(config: ExperimentConfig) -> Callable[[str, object], list[str]]:
    def check(out_dir: str, _returned) -> list[str]:
        return checks.file_problems(out_dir, build_network(config), config.yellow)

    return check


def heavy_prcol(work_dir: str) -> Workload:
    config = ExperimentConfig(
        flow={"kind": "syn-heavy"},
        controller=ControllerConfig(kind="greedy_prcol", duration_mode="dynamic"),
        horizon=HORIZON,
        seeds=(0,),
    )

    def body(out_dir: str):
        result = run_single(config, 0, out_dir=out_dir)
        records = read_decisions_csv(os.path.join(out_dir, "decisions.csv"))
        study = write_case_study(os.path.join(out_dir, "case_study"), records)
        return result, study

    def check(out_dir: str, returned) -> list[str]:
        problems = _telemetry_check(config)(out_dir, returned)
        n_rows = len(checks.read_decision_rows(os.path.join(out_dir, "decisions.csv")))
        if returned[1].decisions_total != n_rows:
            problems.append(f"case study saw {returned[1].decisions_total} of {n_rows} decisions")
        return problems

    return Workload(
        name="heavy-prcol-3x3",
        config=config,
        expected_generated=syn_heavy_departures(),
        body=body,
        artifacts=(
            "metrics.json",
            "telemetry.csv",
            "decisions.csv",
            "case_study/case_study.csv",
            "case_study/case_study_summary.json",
        ),
        telemetry_written=True,
        check=check,
    )


def turning_maxpressure(work_dir: str, rows: int = 10, cols: int = 10) -> Workload:
    roadnet_path, flow_path, flows = write_turning_inputs(
        os.path.join(work_dir, "inputs"), rows, cols, DEMAND_SEED
    )
    config = ExperimentConfig(
        network={"kind": "roadnet", "path": roadnet_path},
        flow={"kind": "file", "path": flow_path},
        controller=ControllerConfig(kind="maxpressure", duration_mode="fixed"),
        horizon=HORIZON,
        seeds=(0,),
    )

    def body(out_dir: str):
        return run_single(config, 0, out_dir=out_dir)

    return Workload(
        name=f"turning-maxpressure-{rows}x{cols}",
        config=config,
        expected_generated=sum(
            departures(f["startTime"], f["endTime"], f["interval"]) for f in flows
        ),
        body=body,
        artifacts=("metrics.json", "telemetry.csv", "decisions.csv"),
        telemetry_written=True,
        check=_telemetry_check(config),
    )


def dqn_train_heavy(work_dir: str) -> Workload:
    config = ExperimentConfig(
        flow={"kind": "syn-heavy"},
        controller=ControllerConfig(kind="dqn", reward_kind="prcol", obs_scale=0.025),
        horizon=HORIZON,
        episodes=3,
        seeds=(TRAIN_SEED,),
    )

    def body(out_dir: str):
        return train(config, TRAIN_SEED, out_dir=out_dir)

    return Workload(
        name="dqn-train-heavy-3x3",
        config=config,
        expected_generated=syn_heavy_departures(),
        body=body,
        artifacts=(
            "metrics.json",
            "learning_curve.csv",
            "checkpoint_final.npz",
            "checkpoint_best.npz",
        ),
        telemetry_written=False,
        check=checks.training_problems,
    )


WORKLOADS = {
    "heavy-prcol-3x3": heavy_prcol,
    "turning-maxpressure-10x10": turning_maxpressure,
    "dqn-train-heavy-3x3": dqn_train_heavy,
}
