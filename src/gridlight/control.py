"""Signal controllers.

Four controller families share one shape, a phase rule and one duration
rule: a cyclic fixed-time plan, the classic max-pressure rule, a greedy
rule over the spillback-aware movement score (a diagnostic baseline that
isolates the score from any learning), and an epsilon-greedy DQN over its
observation, whose reward is pluggable (spillback-aware PRCOL,
PressLight-style pressure, or CoLight-style queue length).

A decision is a (phase, green duration) pair.  The duration rule is a
fixed setting, or the kinematic clearance of the chosen phase's queues
clamped to the configured range, as ``duration_mode`` says.  Every
controller decides a tick's due intersections as one block of movement
counts, row for row the decisions each would get alone.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .engine import World
from .learner import QNetwork, forward
from .network import PHASE_COLUMNS
from .signalmath import (
    DEFAULT_KINEMATICS,
    KinematicParams,
    REWARD_KINDS,
    MovementCounts,
    clearance_green,
    phase_n_pass,
    phase_score,
)

__all__ = [
    "Decision",
    "ControllerConfig",
    "FixedTimeController",
    "MaxPressureController",
    "GreedyPrcolController",
    "DQNController",
    "best_phase",
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
        if not self.obs_scale > 0:  # zero would zero the observation, phase one-hot too
            raise ValueError(f"obs_scale must be > 0, got {self.obs_scale}")


def best_phase(counts: MovementCounts, phase_columns, metric: str) -> np.ndarray:
    """Per count row, the phase with the best score under ``metric``; ties go
    to the lowest index.  A block of rows gives one phase per row."""
    return np.argmax(phase_score(counts, phase_columns, metric), axis=-1)


def decide_greedy(counts: MovementCounts, phase_columns, metric: str) -> int:
    """Phase with the best score under ``metric``; ties go to the lowest index.

    ``phase_columns`` holds, per phase, the positions in ``counts`` of the
    movements it grants green (see :func:`gridlight.signalmath.phase_score`).
    """
    return int(best_phase(counts, phase_columns, metric))


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
    """A controller: a phase rule and the shared duration rule.

    :meth:`score` decides a block of intersections at once: a tick's due
    intersections, one count row each.  Each ``decide`` of that tick then
    takes its own row's phase and green from the block; called for an
    intersection outside a block, it scores a block of one.  A row is taken
    once, so a second call gathers its counts anew.
    """

    #: the phase score ``best_phase`` maximises; None when the phase rule reads no counts
    metric: Optional[str] = None

    def __init__(self, config: ControllerConfig, kinematics: KinematicParams = DEFAULT_KINEMATICS):
        self.config = config
        self.kinematics = kinematics
        # the last block: its world, held weakly (no controller keeps a world alive), tick and rows
        self._block: tuple[Optional[weakref.ref], int, dict[str, tuple]] = (None, -1, {})

    def score(self, world: World, intersection_ids: Sequence[str], counts: MovementCounts) -> None:
        """Decide ``intersection_ids`` at once; row ``i`` of ``counts`` belongs to the ``i``-th."""
        phases = worst = [None] * len(intersection_ids)
        if self.metric is not None:
            phases = np.atleast_1d(best_phase(counts, PHASE_COLUMNS, self.metric)).tolist()
        if self.config.duration_mode == "dynamic":
            worst = np.atleast_2d(phase_n_pass(counts, PHASE_COLUMNS)).tolist()
        self._block = (weakref.ref(world), world.time, dict(zip(intersection_ids, zip(phases, worst))))

    def _row(self, world: World, intersection_id: str) -> tuple:
        """The intersection's (phase, per-phase largest n_pass) from this tick's block."""
        block_world, time, rows = self._block
        if intersection_id not in rows or block_world() is not world or time != world.time:
            self.score(world, (intersection_id,), world.movement_counts(intersection_id))
            rows = self._block[2]
        return rows.pop(intersection_id)

    def _decision(self, phase: int, worst: Optional[list[int]]) -> Decision:
        config = self.config
        if worst is None:
            return Decision(phase, config.green_fixed)
        return Decision(phase, clearance_green(worst[phase], self.kinematics, config.green_min, config.green_max))


class FixedTimeController(_Controller):
    """Cycle the four phases in order."""

    def __init__(self, config: ControllerConfig, kinematics: KinematicParams = DEFAULT_KINEMATICS):
        super().__init__(config, kinematics)
        self._cycle: dict[str, int] = {}

    def decide(self, world: World, intersection_id: str, obs: Optional[np.ndarray] = None) -> Decision:
        nxt = self._cycle.get(intersection_id, 0)
        self._cycle[intersection_id] = (nxt + 1) % 4
        return self._decision(nxt, self._row(world, intersection_id)[1])


class MaxPressureController(_Controller):
    """Grant green to the max-pressure phase."""

    metric = "pressure"

    def decide(self, world: World, intersection_id: str, obs: Optional[np.ndarray] = None) -> Decision:
        return self._decision(*self._row(world, intersection_id))


class GreedyPrcolController(_Controller):
    """Pick the phase with the highest spillback-aware score each boundary."""

    metric = "prcol"

    def decide(self, world: World, intersection_id: str, obs: Optional[np.ndarray] = None) -> Decision:
        return self._decision(*self._row(world, intersection_id))


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
        return self._decision(phase, self._row(world, intersection_id)[1])


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
