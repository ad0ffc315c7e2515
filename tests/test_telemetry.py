"""telemetry.csv against an independent rendering of the same rows.

The episode runs on a 2x3 roadnet file with turning routes, so the index
tables are not square and left turns discharge.  One intersection id holds
a comma and a quote, so the writer must quote it the way ``csv`` does.
While the episode runs, the test keeps its own per-tick snapshot of every
lane's vehicle count and every signal; those rows, written with
``csv.writer``, must equal the writer's file byte for byte.
"""

import csv
import json

import numpy as np

from gridlight.engine import YELLOW, World
from gridlight.flows import SpawnEvent
from gridlight.network import build_grid, resolve_route
from gridlight.roadnet import load_roadnet, save_roadnet
from gridlight.telemetry import TELEMETRY_HEADER, write_telemetry_csv

ODD_ID = 'i,"0_1'

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
        if node["id"] == "i_0_1":
            node["id"] = ODD_ID
    for road in doc["roads"]:
        for end in ("startIntersection", "endIntersection"):
            if road[end] == "i_0_1":
                road[end] = ODD_ID
    path.write_text(json.dumps(doc))
    return load_roadnet(str(path))


def test_telemetry_csv_matches_csv_writer(tmp_path):
    net = turning_roadnet(tmp_path)
    assert len(net.intersections) == 6 and ODD_ID in {i.id for i in net.intersections}
    rng = np.random.default_rng(5)
    events = []
    for route in ROUTES:
        entry_lane, _ = resolve_route(net, route)
        events += [SpawnEvent(t, route, entry_lane) for t in range(0, 400, int(rng.integers(2, 6)))]
    events.sort(key=lambda e: e.time)
    world = World(net, events)

    steps, expected = [], []
    for _ in range(400):
        for inter in net.intersections:
            if world.needs_decision(inter.id):
                world.apply_decision(inter.id, int(rng.integers(4)), int(rng.integers(5, 15)))
        tel = world.step()
        steps.append(tel)
        occupancy = {lane_id: world.occupancy(lane_id) for lane_id in net.lanes}
        for inter in net.intersections:
            sig = world.signals[inter.id]
            expected.append(
                [tel.time, inter.id, sig.current_phase, sig.mode]
                + [occupancy[lane_id] for lane_id in inter.incoming_lanes]
                + [tel.discharged.get(m.id, 0) for m in inter.movements]
            )

    left_discharges = sum(row[16 + 3 * k] for row in expected for k in range(4))
    assert left_discharges > 0
    assert any(row[3] == YELLOW for row in expected)

    reference = tmp_path / "reference.csv"
    with open(reference, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(TELEMETRY_HEADER)
        writer.writerows(expected)
    written = tmp_path / "telemetry.csv"
    write_telemetry_csv(str(written), net, steps)
    assert written.read_bytes() == reference.read_bytes()
