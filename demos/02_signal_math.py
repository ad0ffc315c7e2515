"""The closed-form signal math, worked through by hand-checkable examples.

Shows how the spillback-aware movement score differs from classic pressure
when the outgoing lane fills up, how many vehicles a green can serve, how
long a standing platoon needs to clear, and how those combine into a
dynamic green duration.
"""

import numpy as np

from gridlight.signalmath import (
    DEFAULT_KINEMATICS,
    MovementCounts,
    green_duration,
    n_pass,
    platoon_clear_time,
    prcol,
    pressure,
)

print("movement scores as the outgoing lane fills (10 incoming, capacity 40):")
print(f"{'n_out':>6} {'pressure':>9} {'prcol':>7}")
for n_out in (0, 10, 20, 30, 40):
    c = MovementCounts(n_in=10, n_out=n_out, n_max=40)
    print(f"{n_out:>6} {pressure(c):>9.1f} {prcol(c):>7.2f}")
print("-> pressure keeps asking for green on a blocked movement; prcol goes to 0\n")

print("vehicles a green can actually serve (n_pass = min(demand, free space)):")
for c in (MovementCounts(15, 35, 40), MovementCounts(3, 0, 40), MovementCounts(9, 40, 40)):
    print(f"  demand {c.n_in:>2}, space {c.n_max - c.n_out:>2} -> n_pass {n_pass(c)}")
print()

k = DEFAULT_KINEMATICS
print(f"platoon clearance at a={k.accel} m/s^2, v={k.max_speed:.2f} m/s:")
for n in (1, 5, 10, 20, 30):
    print(f"  {n:>2} standing vehicles clear the stop line in {platoon_clear_time(n):6.3f} s")
print()

print("dynamic green duration = ceil(clear time of the worst queue), clamped to [10, 20]:")
for worst in (1, 8, 14, 20, 30):
    # a phase's two movements as one vector of counts
    counts = MovementCounts(np.array([worst, 2]), np.array([0, 0]), np.array([40, 40]))
    print(f"  worst n_pass {worst:>2} -> green {green_duration(counts, [0, 1], k, 10, 20):>2} s")
