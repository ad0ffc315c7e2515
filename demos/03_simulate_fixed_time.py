"""One full hour of light synthetic traffic under a fixed-time plan.

Runs the 3x3 grid with a vehicle entering every 20 s on each of the 12
boundary approaches, all driving straight through, while every signal
cycles its four phases with 10 s greens and 5 s yellows.  Prints the
headline metrics and a mid-episode snapshot of the network.
"""

from gridlight.control import ControllerConfig
from gridlight.experiment import ExperimentConfig, run_single

config = ExperimentConfig(controller=ControllerConfig(kind="fixed"))
result = run_single(config, seed=0)

m = result.metrics
print(f"generated vehicles : {m.generated}")
print(f"throughput         : {m.throughput}")
print(f"avg travel time    : {m.average_travel_time:.2f} s")
print()

mid = result.steps[1800]
on_network = sum(mid.lane_occupancy.values())
print(f"at t=1800 s: {on_network} vehicles on the network")
for inter_id, (phase, mode) in list(mid.signals.items())[:3]:
    print(f"  {inter_id}: phase {phase} ({mode})")
print()

durations = {d.green_duration for d in result.decisions}
print(f"decisions taken    : {len(result.decisions)}")
print(f"green durations    : {sorted(durations)} (fixed plan)")
phases = [0, 0, 0, 0]
for d in result.decisions:
    phases[d.phase] += 1
print(f"phase usage        : {phases} (cycling, so near-uniform)")
