"""Closed-form signal mathematics.

Everything a controller needs that is a pure function of vehicle counts and
vehicle kinematics lives here: the spillback-aware movement score
(:func:`prcol`), classic movement pressure, per-phase scores, the number of
vehicles that can cross during one green (:func:`n_pass`), the time a
standing platoon needs to clear the stop line (:func:`platoon_clear_time`),
the dynamic green duration derived from it, and the per-intersection reward
variants used by the learning controllers.

All functions are pure and operate on plain value objects, so they are safe
to call from anywhere.  Movement counts are vectors: one element per
movement, so an intersection's 12 movements are scored in one call.  The
per-phase functions also take a block of count rows, one intersection per
row, and give each row the bits it gets alone: every value is elementwise
or a sum or maximum over one phase's movements.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

__all__ = [
    "KinematicParams",
    "MovementCounts",
    "DEFAULT_KINEMATICS",
    "prcol",
    "pressure",
    "phase_score",
    "n_pass",
    "phase_n_pass",
    "platoon_clear_time",
    "clearance_green",
    "green_duration",
    "reward",
    "REWARD_KINDS",
]


def _clear_time(dist: float, accel: float, max_speed: float) -> float:
    """Seconds for a platoon standing at the stop line to move its rear ``dist`` metres."""
    accel_dist = max_speed**2 / (2.0 * accel)
    if dist <= accel_dist:
        return math.sqrt(2.0 * dist / accel)
    return max_speed / accel + (dist - accel_dist) / max_speed


#: The longest horizon a run may have, in seconds
MAX_HORIZON = 1_000_000


@dataclass(frozen=True)
class KinematicParams:
    """Uniform vehicle kinematics: acceleration, top speed, length, min gap."""

    accel: float  # m/s^2
    max_speed: float  # m/s
    vehicle_length: float  # m
    min_gap: float  # m

    def __post_init__(self) -> None:
        for name in ("accel", "max_speed", "vehicle_length", "min_gap"):
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError(f"KinematicParams.{name} must be finite and > 0")
        # a lone vehicle must clear the stop line within a run's longest horizon
        try:
            lone = _clear_time(self.vehicle_length, self.accel, self.max_speed)
        except OverflowError:  # max_speed**2
            raise ValueError(f"max_speed {self.max_speed:g} m/s is too large for the clearance law to square") from None
        if not lone <= MAX_HORIZON:
            raise ValueError(
                f"accel {self.accel:g} m/s^2, max_speed {self.max_speed:g} m/s and vehicle_length "
                f"{self.vehicle_length:g} m leave one vehicle {lone:.3g} s to clear the stop line, "
                f"past the {MAX_HORIZON} s horizon cap"
            )

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
    """Vehicle counts attached to traffic movements.

    ``n_in`` vehicles on the incoming lane, ``n_out`` on the outgoing lane,
    ``n_max`` the outgoing lane's capacity.  The fields are either scalars
    (one movement) or equal-length integer vectors (one element per
    movement, the canonical (W, E, N, S) x (left, straight, right) order
    for an intersection's 12), and every formula below works on both.
    """

    n_in: Union[int, np.ndarray]
    n_out: Union[int, np.ndarray]
    n_max: Union[int, np.ndarray]

    def __post_init__(self) -> None:
        n_in, n_out, n_max = self.n_in, self.n_out, self.n_max
        # one pass for the common, valid case (n_max >= max(n_out, 1) holds both
        # capacity rules); the checks below name the fault
        if np.minimum(np.minimum(n_in, n_out), n_max - np.maximum(n_out, 1)).min() >= 0:
            return
        if np.min(n_in) < 0 or np.min(n_out) < 0:
            raise ValueError("vehicle counts must be non-negative")
        if np.min(n_max) < 1:
            raise ValueError("outgoing-lane capacity must be >= 1")
        i = int(np.argmax(np.ravel(n_out > n_max)))
        raise ValueError(
            f"n_out={np.ravel(n_out)[i]} exceeds outgoing capacity n_max={np.ravel(n_max)[i]}"
            + (f" at movement {i}" if np.ndim(n_out) else "")
        )

    @classmethod
    def _unchecked(cls, n_in, n_out, n_max) -> "MovementCounts":
        """Counts built without the checks above, for the engine alone: it reads
        them from its own occupancy vector and lane capacities, where they
        hold by construction."""
        counts = object.__new__(cls)
        counts.__dict__.update(n_in=n_in, n_out=n_out, n_max=n_max)
        return counts

    def row(self, k: int) -> "MovementCounts":
        """Row ``k`` of a block: the counts of its ``k``-th intersection."""
        return MovementCounts._unchecked(self.n_in[k], self.n_out[k], self.n_max[k])


def prcol(c: MovementCounts):
    """Pressure with remaining capacity of the outgoing lane.

    ``n_in * (1 - n_out / n_max)``: the incoming demand discounted by how
    full the outgoing lane is.  Zero when the outgoing lane is full, equal
    to ``n_in`` when it is empty, never negative.
    """
    return c.n_in * (1.0 - c.n_out / c.n_max)


def pressure(c: MovementCounts):
    """Classic movement pressure: incoming minus outgoing count."""
    return np.subtract(c.n_in, c.n_out, dtype=float)


def n_pass(c: MovementCounts):
    """Vehicles able to cross: limited by demand and by free space downstream."""
    return np.minimum(c.n_in, c.n_max - c.n_out)


def phase_score(counts: MovementCounts, columns, metric: str) -> np.ndarray:
    """Per-phase sums of a movement metric.

    ``columns`` holds one row of movement positions in ``counts`` per
    phase (the movements the phase grants green); the result has one score
    per row, and one such row per count row when ``counts`` is a block.
    ``metric`` is ``"prcol"`` or ``"pressure"``.  Right-turn movements
    never appear in a phase.
    """
    if metric == "prcol":
        fn = prcol
    elif metric == "pressure":
        fn = pressure
    else:
        raise ValueError(f"unknown phase metric {metric!r}")
    return fn(counts)[..., columns].sum(axis=-1)


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
    return _clear_time((n - 1) * k.headway + k.vehicle_length, k.accel, k.max_speed)


def phase_n_pass(counts: MovementCounts, columns) -> np.ndarray:
    """Per phase, the largest :func:`n_pass` over the movements it grants.

    ``columns`` is laid out as for :func:`phase_score`; a phase with no
    movements gets 0.
    """
    return np.max(n_pass(counts)[..., columns], axis=-1, initial=0)


def clearance_green(worst: int, k: KinematicParams = DEFAULT_KINEMATICS, t_min: int = 10, t_max: int = 20) -> int:
    """Whole seconds for ``worst`` standing vehicles to clear, clamped to ``[t_min, t_max]``."""
    t = math.ceil(platoon_clear_time(worst, k))
    return min(max(t, t_min), t_max)


def green_duration(
    counts: MovementCounts,
    columns,
    k: KinematicParams = DEFAULT_KINEMATICS,
    t_min: int = 10,
    t_max: int = 20,
) -> int:
    """Green time for a phase, from the longest queue it has to serve.

    Takes the maximum :func:`n_pass` over the movements at ``columns`` of
    ``counts`` (the phase's movements), converts it to a clearance time,
    rounds up to whole seconds and clamps to ``[t_min, t_max]``.
    """
    if t_min > t_max:
        raise ValueError("t_min must be <= t_max")
    return clearance_green(int(phase_n_pass(counts, columns)), k, t_min, t_max)


REWARD_KINDS = ("prcol", "pressure", "queue")


def reward(counts: MovementCounts, kind: str) -> float:
    """Per-intersection reward over its 12 movements (higher is better).

    ``prcol``     negated sum of movement PRCOL values.
    ``pressure``  negated absolute value of the summed movement pressures
                  (the PressLight-style convention).
    ``queue``     negated total vehicle count on the incoming lanes.

    The sums run left to right in Python floats: numpy's pairwise sum
    rounds differently, and the learner's trajectories depend on the last bit.
    """
    if kind == "prcol":
        return -sum(prcol(counts).tolist())
    if kind == "pressure":
        return -abs(sum(pressure(counts).tolist()))
    if kind == "queue":
        return -float(np.sum(counts.n_in))
    raise ValueError(f"unknown reward kind {kind!r}")
