"""telemetry.csv against an independent rendering of the same rows.

The episode runs on a 2x3 roadnet file with turning routes, so the index
tables are not square and left turns discharge.  Intersection ids hold a
comma and a quote, line breaks, a NUL and non-ASCII text, so the writer
must quote them the way ``csv`` does and keep every byte.  While the
episode runs, the test keeps its own per-tick snapshot of every lane's
vehicle count and every signal; those rows, written with ``csv.writer``,
must equal the writer's file byte for byte.  Hand-made steps then push
counts and tick times across digit widths and past int16.
"""

import csv
import json

import numpy as np
import pytest

from gridlight.engine import StepTelemetry, World
from gridlight.flows import FlowSpec, expand_flows
from gridlight.network import build_grid
from gridlight.roadnet import load_roadnet, save_roadnet
from gridlight.telemetry import GREEN, TELEMETRY_HEADER, YELLOW, write_telemetry_csv

ODD_ID = 'i,"0_1'
#: junction renames of the 2x3 grid; i_1_2 keeps its plain id
ODD_IDS = {
    "i_0_0": "i\n0",
    "i_0_1": ODD_ID,
    "i_0_2": "i\r0_2",
    "i_1_0": "i\x000",
    "i_1_1": "Kreuzung Süd · 交差点",
}

# road sequences through the 2x3 grid; "L" and "R" mark the turns taken
ROUTES = [
    ("rd__b_w_0__i_0_0", "rd__i_0_0__b_n_0"),  # L
    ("rd__b_w_1__i_1_0", "rd__i_1_0__i_1_1", "rd__i_1_1__i_0_1", "rd__i_0_1__i_0_2", "rd__i_0_2__b_e_0"),  # L R
    ("rd__b_n_2__i_0_2", "rd__i_0_2__i_0_1", "rd__i_0_1__i_1_1", "rd__i_1_1__b_s_1"),  # R L
    ("rd__b_e_1__i_1_2", "rd__i_1_2__i_1_1", "rd__i_1_1__i_1_0", "rd__i_1_0__b_w_1"),
    ("rd__b_s_0__i_1_0", "rd__i_1_0__i_0_0", "rd__i_0_0__i_0_1", "rd__i_0_1__b_n_1"),  # R L
    ("rd__b_s_2__i_1_2", "rd__i_1_2__i_1_1", "rd__i_1_1__i_1_0", "rd__i_1_0__b_w_1"),  # L
]


def turning_roadnet(tmp_path):
    path = tmp_path / "roadnet.json"
    save_roadnet(build_grid(2, 3, 120, 90), str(path))
    doc = json.loads(path.read_text())
    for node in doc["intersections"]:
        node["id"] = ODD_IDS.get(node["id"], node["id"])
    for road in doc["roads"]:
        for end in ("startIntersection", "endIntersection"):
            road[end] = ODD_IDS.get(road[end], road[end])
    path.write_text(json.dumps(doc))
    return load_roadnet(str(path))


def reference_csv(path, rows) -> bytes:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(TELEMETRY_HEADER)
        writer.writerows(rows)
    return path.read_bytes()


def test_telemetry_csv_matches_csv_writer(tmp_path):
    net = turning_roadnet(tmp_path)
    assert {i.id for i in net.intersections} == set(ODD_IDS.values()) | {"i_1_2"}
    rng = np.random.default_rng(5)
    flows = [FlowSpec(route, start=0, end=399, interval=int(rng.integers(2, 6))) for route in ROUTES]
    world = World(net, expand_flows(flows))

    steps, expected = [], []
    for _ in range(400):
        for r in world.due_signals().tolist():
            inter = net.intersections[r]
            world.apply_decision(inter.id, int(rng.integers(4)), int(rng.integers(5, 15)))
        tel = world.step()
        steps.append(tel)
        occupancy = {lane_id: world.occupancy(lane_id) for lane_id in net.lanes}
        for inter in net.intersections:
            sig = world.signals[inter.id]
            expected.append(
                [tel.time, inter.id, int(sig.current_phase), YELLOW if sig.yellow else GREEN]
                + [occupancy[lane_id] for lane_id in inter.incoming_lanes]
                + [tel.discharged.get(m.id, 0) for m in inter.movements]
            )

    left_discharges = sum(row[16 + 3 * k] for row in expected for k in range(4))
    assert left_discharges > 0
    assert any(row[3] == YELLOW for row in expected)

    written = tmp_path / "telemetry.csv"
    write_telemetry_csv(str(written), net, steps)
    assert written.read_bytes() == reference_csv(tmp_path / "reference.csv", expected)
    with open(written, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 1 + 400 * 6 and {len(row) for row in rows} == {28}


# ---------------------------------------------------------------- hand-made steps


def hand_made_rows(net, steps):
    """The rows of ``steps``, read from them directly, one intersection at a time."""
    lane_pos = {lane_id: k for k, lane_id in enumerate(net.lanes)}
    return [
        [step.time, inter.id, int(step.phases[r]), YELLOW if step.yellow[r] else GREEN]
        + [int(step.occupancy[lane_pos[lane_id]]) for lane_id in inter.incoming_lanes]
        + [step.discharged.get(m.id, 0) for m in inter.movements]
        for step in steps
        for r, inter in enumerate(net.intersections)
    ]


def hand_made_steps(net, times, tops, dtype=np.int16, seed=0):
    """One step per time; step ``k`` draws its counts from 0..``tops[k]`` and
    always holds ``tops[k]`` and ``tops[k] - 1``."""
    rng = np.random.default_rng(seed)
    movement_ids = [m.id for inter in net.intersections for m in inter.movements]
    n = len(net.intersections)
    steps = []
    for time, top in zip(times, tops):
        occupancy = rng.integers(0, top + 1, len(net.lanes)).astype(dtype)
        occupancy[:2] = top, max(top - 1, 0)
        picked = rng.choice(len(movement_ids), 9, replace=False).tolist()
        discharged = {movement_ids[k]: int(rng.integers(0, top + 1)) for k in picked}
        discharged[movement_ids[picked[0]]] = top
        steps.append(
            StepTelemetry(
                time=time,
                entered=0,
                exited=0,
                discharged=discharged,
                occupancy=occupancy,
                phases=rng.integers(0, 4, n).astype(np.int8),
                yellow=rng.random(n) < 0.3,
            )
        )
    return steps


EDGES = [0, 9, 10, 99, 100, 999, 1000, 9999, 10000, 10001]


def test_counts_and_times_across_digit_widths(tmp_path):
    net = turning_roadnet(tmp_path)
    times = [t + d for t in (10, 100, 1000, 10000) for d in (-2, -1, 0, 1)]
    n_steps = 400  # several blocks, each holding counts of several widths
    steps = hand_made_steps(
        net,
        [times[k % len(times)] for k in range(n_steps)],
        [EDGES[k * len(EDGES) // n_steps] for k in range(n_steps)],
    )
    written = tmp_path / "telemetry.csv"
    write_telemetry_csv(str(written), net, steps)
    assert written.read_bytes() == reference_csv(tmp_path / "reference.csv", hand_made_rows(net, steps))


def test_int32_occupancy_past_int16(tmp_path):
    net = turning_roadnet(tmp_path)
    tops = [32767, 32768, 40000, 123456789, 2**31 - 1]
    steps = hand_made_steps(net, range(len(tops)), tops, dtype=np.int32)
    assert steps[1].occupancy.max() == 32768
    written = tmp_path / "telemetry.csv"
    write_telemetry_csv(str(written), net, steps)
    assert written.read_bytes() == reference_csv(tmp_path / "reference.csv", hand_made_rows(net, steps))


def test_steps_as_a_generator(tmp_path):
    net = turning_roadnet(tmp_path)
    steps = hand_made_steps(net, range(300), [13] * 300)
    from_list, from_generator = tmp_path / "list.csv", tmp_path / "generator.csv"
    write_telemetry_csv(str(from_list), net, steps)
    write_telemetry_csv(str(from_generator), net, (step for step in steps))
    assert from_generator.read_bytes() == from_list.read_bytes()
    assert from_list.read_bytes() == reference_csv(tmp_path / "reference.csv", hand_made_rows(net, steps))


@pytest.mark.parametrize("n_steps", [0, 1])
def test_no_step_and_one_step(tmp_path, n_steps):
    net = turning_roadnet(tmp_path)
    steps = hand_made_steps(net, [7] * n_steps, [5] * n_steps)
    written = tmp_path / "telemetry.csv"
    write_telemetry_csv(str(written), net, steps)
    assert written.read_bytes() == reference_csv(tmp_path / "reference.csv", hand_made_rows(net, steps))


def test_rejections(tmp_path):
    net = turning_roadnet(tmp_path)
    path = str(tmp_path / "telemetry.csv")
    with pytest.raises(ValueError, match="collect=True"):
        write_telemetry_csv(path, net, [StepTelemetry(time=0, entered=0, exited=0)])
    (step,) = hand_made_steps(net, [0], [3])
    step.discharged[net.intersections[0].movements[0].id] = -1
    with pytest.raises(ValueError, match="non-negative"):
        write_telemetry_csv(path, net, [step])
    (step,) = hand_made_steps(net, [0], [3])
    step.phases[2] = 4
    with pytest.raises(ValueError, match="phase is outside 0-3"):
        write_telemetry_csv(path, net, [step])
