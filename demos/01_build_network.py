"""Build a signalized grid and look around it.

Constructs the standard 3x3 grid with 300 m lanes (every network is well
formed by construction), prints what one intersection looks like
(lanes, movements, phases), and writes the network to a roadnet JSON file
that the loader can read back.
"""

import os
import tempfile

from gridlight.network import PHASE_COLUMNS, Turn, build_grid, lane_capacity
from gridlight.roadnet import load_roadnet, save_roadnet

net = build_grid(rows=3, cols=3, we_length=300, ns_length=300)

print(f"intersections : {len(net.intersections)}")
print(f"roads         : {len(net.roads)}  (each with 3 lanes)")
print(f"lanes         : {len(net.lanes)}")
print(f"entry roads   : {len(net.entry_roads)}  (3 per compass side)")
print()

# capacity comes from how many 5 m vehicles at a 2.5 m gap fit on a lane
for length in (300, 600, 800, 350, 100):
    print(f"lane_capacity({length:>3} m) = {lane_capacity(length, 5.0, 2.5)}")
print()

inter = net.intersection("i_1_1")  # the center of the grid
print(f"center intersection {inter.id}:")
for phase, columns in enumerate(PHASE_COLUMNS.tolist()):
    moves = [inter.movements[j] for j in columns]
    desc = ", ".join(f"{m.id.split(':')[1]}-{m.turn.value}" for m in moves)
    print(f"  phase {phase}: {desc}")
rights = [m.id.split(":")[1] for m in inter.movements if m.turn is Turn.RIGHT]
print(f"  always green: {sorted(rights)} right turns")
print()

with tempfile.TemporaryDirectory() as tmp:
    path = os.path.join(tmp, "roadnet.json")
    save_roadnet(net, path)
    reloaded = load_roadnet(path)
    print(f"roadnet file round trip: {len(reloaded.lanes)} lanes, "
          f"{len(reloaded.intersections)} intersections")
