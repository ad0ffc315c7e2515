"""Signal controllers.

Four controller families share one decision interface: a cyclic fixed-time
plan, the classic max-pressure rule, a greedy rule over the spillback-aware
movement score (a diagnostic baseline that isolates the score from any
learning), and an epsilon-greedy DQN controller whose reward is pluggable
(spillback-aware PRCOL, PressLight-style pressure, or CoLight-style queue
length).

A decision is a (phase, green duration) pair.  Each controller has its own
phase rule and all four share one duration rule: a fixed setting, or the
kinematic clearance of the chosen phase's queues clamped to the configured
range, as ``duration_mode`` says.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .engine import World
from .learner import QNetwork, forward
from .signalmath import (
    DEFAULT_KINEMATICS,
    KinematicParams,
    REWARD_KINDS,
    MovementCounts,
    green_duration,
    phase_score,
)

__all__ = [
    "Decision",
    "ControllerConfig",
    "FixedTimeController",
    "MaxPressureController",
    "GreedyPrcolController",
    "DQNController",
    "decide_maxpressure",
    "decide_greedy",
    "decide_dqn",
    "build_controller",
]

CONTROLLER_KINDS = ("fixed", "maxpressure", "greedy_prcol", "dqn")
DURATION_MODES = ("fixed", "dynamic")


@dataclass(frozen=True)
class Decision:
    phase: int
    green_duration: int


@dataclass(frozen=True)
class ControllerConfig:
    """Which controller to run and how it times its greens.

    ``reward_kind`` selects the training signal and is only meaningful for
    the DQN controller.  ``obs_scale`` is a fixed factor applied to the
    observation before the Q-network sees it.  The default feeds raw
    counts; congested scenarios train far better with counts normalized by
    lane capacity (0.025 for the standard 300 m lanes), because plain
    gradient descent cannot condition both input regimes at once.
    """

    kind: str = "fixed"
    reward_kind: str = "prcol"
    duration_mode: str = "fixed"
    green_fixed: int = 10
    green_min: int = 10
    green_max: int = 20
    obs_scale: float = 1.0

    def __post_init__(self) -> None:
        if self.kind not in CONTROLLER_KINDS:
            raise ValueError(f"unknown controller kind {self.kind!r}")
        if self.reward_kind not in REWARD_KINDS:
            raise ValueError(f"unknown reward kind {self.reward_kind!r}")
        if self.duration_mode not in DURATION_MODES:
            raise ValueError(f"unknown duration mode {self.duration_mode!r}")
        if not (0 < self.green_min <= self.green_max) or self.green_fixed < 1:
            raise ValueError("green durations must be positive and ordered")


def decide_greedy(counts: MovementCounts, phase_columns, metric: str) -> int:
    """Phase with the best score under ``metric``; ties go to the lowest index.

    ``phase_columns`` holds, per phase, the positions in ``counts`` of the
    movements it grants green (see :func:`gridlight.signalmath.phase_score`).
    """
    return int(np.argmax(phase_score(counts, phase_columns, metric)))


def decide_maxpressure(counts: MovementCounts, phase_columns) -> int:
    """Classic rule: grant green to the phase with the largest total pressure."""
    return decide_greedy(counts, phase_columns, "pressure")


def decide_dqn(net: QNetwork, s: np.ndarray, eps: float, rng: np.random.Generator) -> int:
    """Epsilon-greedy action: random phase with probability eps, else argmax-Q."""
    if not 0.0 <= eps <= 1.0:
        raise ValueError("eps must lie in [0, 1]")
    if eps > 0.0 and rng.random() < eps:
        return int(rng.integers(net.output_size))
    return int(np.argmax(forward(net, s)))


class _Controller:
    """The duration rule every controller shares; subclasses supply the phase rule."""

    def __init__(self, config: ControllerConfig, kinematics: KinematicParams = DEFAULT_KINEMATICS):
        self.config = config
        self.kinematics = kinematics

    def _decision(
        self,
        world: World,
        intersection_id: str,
        phase: int,
        counts: Optional[MovementCounts] = None,
    ) -> Decision:
        if self.config.duration_mode == "fixed":
            return Decision(phase, self.config.green_fixed)
        if counts is None:
            counts = world.movement_counts(intersection_id)
        green = green_duration(
            counts,
            world.phase_columns[phase],
            self.kinematics,
            self.config.green_min,
            self.config.green_max,
        )
        return Decision(phase, green)


class FixedTimeController(_Controller):
    """Cycle the four phases in order."""

    def __init__(self, config: ControllerConfig, kinematics: KinematicParams = DEFAULT_KINEMATICS):
        super().__init__(config, kinematics)
        self._cycle: dict[str, int] = {}

    def decide(self, world: World, intersection_id: str, obs: Optional[np.ndarray] = None) -> Decision:
        nxt = self._cycle.get(intersection_id, 0)
        self._cycle[intersection_id] = (nxt + 1) % 4
        return self._decision(world, intersection_id, nxt)


class MaxPressureController(_Controller):
    """Grant green to the max-pressure phase."""

    def decide(self, world: World, intersection_id: str, obs: Optional[np.ndarray] = None) -> Decision:
        counts = world.movement_counts(intersection_id)
        phase = decide_maxpressure(counts, world.phase_columns)
        return self._decision(world, intersection_id, phase, counts)


class GreedyPrcolController(_Controller):
    """Pick the phase with the highest spillback-aware score each boundary."""

    def decide(self, world: World, intersection_id: str, obs: Optional[np.ndarray] = None) -> Decision:
        counts = world.movement_counts(intersection_id)
        phase = decide_greedy(counts, world.phase_columns, "prcol")
        return self._decision(world, intersection_id, phase, counts)


class DQNController(_Controller):
    """Epsilon-greedy policy over a Q-network, one shared net for all junctions."""

    def __init__(
        self,
        net: QNetwork,
        config: ControllerConfig,
        rng: np.random.Generator,
        eps: float = 0.0,
        kinematics: KinematicParams = DEFAULT_KINEMATICS,
    ):
        super().__init__(config, kinematics)
        self.net = net
        self.rng = rng
        self.eps = eps

    def decide(self, world: World, intersection_id: str, obs: Optional[np.ndarray] = None) -> Decision:
        if obs is None:
            obs = world.observe(intersection_id)
        phase = decide_dqn(self.net, obs * self.config.obs_scale, self.eps, self.rng)
        return self._decision(world, intersection_id, phase)


def build_controller(
    config: ControllerConfig,
    kinematics: KinematicParams = DEFAULT_KINEMATICS,
    net: Optional[QNetwork] = None,
    rng: Optional[np.random.Generator] = None,
    eps: float = 0.0,
):
    """Instantiate the controller described by ``config``."""
    if config.kind == "dqn":
        if net is None:
            raise ValueError("the DQN controller needs a Q-network")
        return DQNController(net, config, rng or np.random.default_rng(0), eps, kinematics)
    classic = {
        "fixed": FixedTimeController,
        "maxpressure": MaxPressureController,
        "greedy_prcol": GreedyPrcolController,
    }
    return classic[config.kind](config, kinematics)
