"""Closed-form signal mathematics.

Everything a controller needs that is a pure function of vehicle counts and
vehicle kinematics lives here: the spillback-aware movement score
(:func:`prcol`), classic movement pressure, per-phase scores, the number of
vehicles that can cross during one green (:func:`n_pass`), the time a
standing platoon needs to clear the stop line (:func:`platoon_clear_time`),
the dynamic green duration derived from it, and the per-intersection reward
variants used by the learning controllers.

All functions are pure and operate on plain value objects, so they are safe
to call from anywhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping

__all__ = [
    "KinematicParams",
    "MovementCounts",
    "DEFAULT_KINEMATICS",
    "prcol",
    "pressure",
    "phase_score",
    "n_pass",
    "platoon_clear_time",
    "green_duration",
    "reward",
    "REWARD_KINDS",
]


@dataclass(frozen=True)
class KinematicParams:
    """Uniform vehicle kinematics: acceleration, top speed, length, min gap."""

    accel: float  # m/s^2
    max_speed: float  # m/s
    vehicle_length: float  # m
    min_gap: float  # m

    def __post_init__(self) -> None:
        for name in ("accel", "max_speed", "vehicle_length", "min_gap"):
            if getattr(self, name) <= 0:
                raise ValueError(f"KinematicParams.{name} must be > 0")

    @property
    def headway(self) -> float:
        """Front-to-front spacing of stopped vehicles."""
        return self.vehicle_length + self.min_gap


#: 2 m/s^2 acceleration, 40 km/h top speed, 5 m vehicles, 2.5 m minimum gap.
DEFAULT_KINEMATICS = KinematicParams(
    accel=2.0, max_speed=40.0 / 3.6, vehicle_length=5.0, min_gap=2.5
)


@dataclass(frozen=True)
class MovementCounts:
    """Vehicle counts attached to one traffic movement.

    ``n_in`` vehicles on the incoming lane, ``n_out`` on the outgoing lane,
    ``n_max`` the outgoing lane's capacity.
    """

    n_in: int
    n_out: int
    n_max: int

    def __post_init__(self) -> None:
        if self.n_in < 0 or self.n_out < 0:
            raise ValueError("vehicle counts must be non-negative")
        if self.n_max < 1:
            raise ValueError("outgoing-lane capacity must be >= 1")
        if self.n_out > self.n_max:
            raise ValueError(
                f"n_out={self.n_out} exceeds outgoing capacity n_max={self.n_max}"
            )


def prcol(c: MovementCounts) -> float:
    """Pressure with remaining capacity of the outgoing lane.

    ``n_in * (1 - n_out / n_max)``: the incoming demand discounted by how
    full the outgoing lane is.  Zero when the outgoing lane is full, equal
    to ``n_in`` when it is empty, never negative.
    """
    return c.n_in * (1.0 - c.n_out / c.n_max)


def pressure(c: MovementCounts) -> float:
    """Classic movement pressure: incoming minus outgoing count."""
    return float(c.n_in - c.n_out)


def n_pass(c: MovementCounts) -> int:
    """Vehicles able to cross: limited by demand and by free space downstream."""
    return min(c.n_in, c.n_max - c.n_out)


def phase_score(
    counts: Mapping[str, MovementCounts], movement_ids: Iterable[str], metric: str
) -> float:
    """Sum a movement metric over the movements granted green by one phase.

    ``metric`` is ``"prcol"`` or ``"pressure"``.  Right-turn movements never
    appear in a phase, so the caller only passes the controlled movements.
    """
    if metric == "prcol":
        fn = prcol
    elif metric == "pressure":
        fn = pressure
    else:
        raise ValueError(f"unknown phase metric {metric!r}")
    return sum(fn(counts[m]) for m in movement_ids)


def platoon_clear_time(n: int, k: KinematicParams = DEFAULT_KINEMATICS) -> float:
    """Seconds for ``n`` stopped vehicles to clear the stop line.

    The platoon stands bumper to bumper at the minimum gap and accelerates
    rigidly at ``k.accel`` up to ``k.max_speed``; the result is the time at
    which the last vehicle's rear passes the stop line.  The clearance
    distance is ``(n - 1) * headway + vehicle_length``.
    """
    if n < 0:
        raise ValueError("vehicle count must be >= 0")
    if n == 0:
        return 0.0
    dist = (n - 1) * k.headway + k.vehicle_length
    accel_dist = k.max_speed**2 / (2.0 * k.accel)
    if dist <= accel_dist:
        return math.sqrt(2.0 * dist / k.accel)
    return k.max_speed / k.accel + (dist - accel_dist) / k.max_speed


def green_duration(
    phase_counts: Iterable[MovementCounts],
    k: KinematicParams = DEFAULT_KINEMATICS,
    t_min: int = 10,
    t_max: int = 20,
) -> int:
    """Green time for a phase, from the longest queue it has to serve.

    Takes the maximum :func:`n_pass` over the phase's movements, converts it
    to a clearance time, rounds up to whole seconds and clamps to
    ``[t_min, t_max]``.
    """
    if t_min > t_max:
        raise ValueError("t_min must be <= t_max")
    worst = max((n_pass(c) for c in phase_counts), default=0)
    t = math.ceil(platoon_clear_time(worst, k))
    return min(max(t, t_min), t_max)


REWARD_KINDS = ("prcol", "pressure", "queue")


def reward(counts: Iterable[MovementCounts], kind: str) -> float:
    """Per-intersection reward over its 12 movements (higher is better).

    ``prcol``     negated sum of movement PRCOL values.
    ``pressure``  negated absolute value of the summed movement pressures
                  (the PressLight-style convention).
    ``queue``     negated total vehicle count on the incoming lanes.
    """
    counts = list(counts)
    if kind == "prcol":
        return -sum(prcol(c) for c in counts)
    if kind == "pressure":
        return -abs(sum(pressure(c) for c in counts))
    if kind == "queue":
        return -float(sum(c.n_in for c in counts))
    raise ValueError(f"unknown reward kind {kind!r}")
