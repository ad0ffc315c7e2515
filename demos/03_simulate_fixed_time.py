"""One full hour of light synthetic traffic under a fixed-time plan.

Runs the 3x3 grid with a vehicle entering every 20 s on each of the 12
boundary approaches, all driving straight through, while every signal
cycles its four phases with 10 s greens and 5 s yellows.  Prints the
headline metrics and a mid-episode snapshot of the network, read back
from the telemetry.csv the run writes.
"""

import csv
import os
import tempfile

from gridlight.control import ControllerConfig
from gridlight.experiment import ExperimentConfig, run_single
from gridlight.telemetry import LANE_COLUMNS

config = ExperimentConfig(controller=ControllerConfig(kind="fixed"))
with tempfile.TemporaryDirectory() as out:
    result = run_single(config, seed=0, out_dir=out)
    with open(os.path.join(out, "telemetry.csv"), newline="", encoding="utf-8") as fh:
        mid = [row for row in csv.DictReader(fh) if row["time"] == "1800"]

m = result.metrics
print(f"generated vehicles : {m.generated}")
print(f"throughput         : {m.throughput}")
print(f"avg travel time    : {m.average_travel_time:.2f} s")
print()

waiting = sum(int(row[f"n_{c}"]) for row in mid for c in LANE_COLUMNS)
print(f"at t=1800 s: {waiting} vehicles on the junctions' approach lanes")
for row in mid[:3]:
    print(f"  {row['intersection']}: phase {row['phase']} ({row['mode']})")
print()

durations = {d.green_duration for d in result.decisions}
print(f"decisions taken    : {len(result.decisions)}")
print(f"green durations    : {sorted(durations)} (fixed plan)")
phases = [0, 0, 0, 0]
for d in result.decisions:
    phases[d.phase] += 1
print(f"phase usage        : {phases} (cycling, so near-uniform)")
