"""Experiment orchestration.

Runs episodes on a (network, demand, controller) triple, trains the shared
DQN across all intersections of a grid, evaluates checkpoints greedily, and
derives the case-study tables (phase choice behaviour, green-time traces,
ideal vs actual discharge per green).

Decision cadence is per-intersection and asynchronous: whenever an
intersection's green expires it is observed (when a DQN reads it),
rewarded (for the previous action), and given a fresh (phase, duration)
decision; the engine then advances one second of wall clock for everyone.
An episode ends when the wall clock reaches the horizon; vehicles still
inside contribute ``horizon - entry time`` to the average travel time.

Every artifact is a pure function of (config, seed): reruns produce
byte-identical metrics and telemetry files.
"""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import json
import logging
import math
import os
import statistics
import time as _time
import typing
from dataclasses import dataclass, field
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence

import numpy as np

from .control import ControllerConfig, DQNController, build_controller
from .engine import OBS_COUNTS, OBS_SIZE, StepTelemetry, World
from .flows import VEHICLE_FIELDS, Schedule, expand_flows, gen_syn_heavy, gen_syn_light, load_flow_file
from .learner import (
    QNetwork,
    ReplayBuffer,
    Transition,
    epsilon,
    load_checkpoint,
    save_checkpoint,
    sync_target,
    train_step,
)
from .network import RoadNetwork, build_grid
from .roadnet import _finite, _load_json, load_roadnet
from .signalmath import DEFAULT_KINEMATICS, MAX_HORIZON, KinematicParams, reward
from .telemetry import (
    DecisionRecord,
    write_decisions_csv,
    write_metrics_json,
    write_telemetry_csv,
)

__all__ = [
    "ExperimentConfig",
    "MetricsReport",
    "EpisodeResult",
    "TrainRun",
    "CaseStudy",
    "avg_travel_time",
    "throughput",
    "build_network",
    "build_events",
    "run_episode",
    "run_single",
    "check_target_sync",
    "train",
    "train_many",
    "evaluate",
    "case_study",
    "write_case_study",
]

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a run needs; defaults follow the standard settings block.

    ``network`` and ``flow`` each hold a ``kind`` and the keys
    ``_SPEC_KEYS`` lists for that kind, checked when they are built.
    """

    network: dict = field(
        default_factory=lambda: {
            "kind": "grid", "rows": 3, "cols": 3, "we_length": 300.0, "ns_length": 300.0,
        }
    )
    flow: dict = field(default_factory=lambda: {"kind": "syn-light"})
    controller: ControllerConfig = field(default_factory=ControllerConfig)
    horizon: int = 3600
    episodes: int = 100
    gamma: float = 0.8
    lr: float = 0.001
    buffer_capacity: int = 10_000
    batch_size: int = 32
    target_sync: int = 5
    epsilon_start: float = 0.8
    epsilon_end: float = 0.2
    yellow: int = 5
    kinematics: KinematicParams = DEFAULT_KINEMATICS
    seeds: tuple[int, ...] = (0, 1, 2)
    obs_counts: str = "occupancy"
    hidden_sizes: tuple[int, ...] = (32, 32)
    epsilon_horizon: Optional[int] = None  # episodes to reach the floor; None = all
    eval_every: Optional[int] = None  # greedy-eval cadence for checkpoint selection

    def __post_init__(self) -> None:
        if self.horizon < 1 or self.episodes < 1:
            raise ValueError("horizon and episode count must be positive")
        if not 0.0 <= self.gamma <= 1.0:
            raise ValueError("gamma must lie in [0, 1]")
        if self.lr <= 0 or self.buffer_capacity < 1 or self.batch_size < 1:
            raise ValueError("learning parameters must be positive")
        if self.buffer_capacity <= self.batch_size:
            raise ValueError(f"buffer_capacity ({self.buffer_capacity}) must exceed batch_size ({self.batch_size})")
        if self.target_sync < 1 or self.yellow < 1:
            raise ValueError("target_sync and yellow must be positive")
        if not 0.0 <= self.epsilon_end <= self.epsilon_start <= 1.0:
            raise ValueError(
                f"epsilon must lie in [0, 1] and not increase: epsilon_start {self.epsilon_start}, "
                f"epsilon_end {self.epsilon_end}"
            )
        if self.obs_counts not in OBS_COUNTS:
            raise ValueError(f"obs_counts must be one of {OBS_COUNTS}, got {self.obs_counts!r}")
        if not self.seeds:
            raise ValueError("at least one seed is required")
        if min(self.seeds) < 0 or len(set(self.seeds)) < len(self.seeds):
            raise ValueError(f"config key 'seeds' must hold distinct integers >= 0, got {list(self.seeds)}")
        if not self.hidden_sizes or any(n < 1 for n in self.hidden_sizes):
            raise ValueError("hidden layer sizes must be positive")
        for name in ("epsilon_horizon", "eval_every"):
            if getattr(self, name) is not None and getattr(self, name) < 1:
                raise ValueError(f"config key {name!r} must be null or at least 1")
        if self.eval_every is not None and self.eval_every > self.episodes:
            raise ValueError(f"eval_every ({self.eval_every}) must not exceed episodes ({self.episodes})")

    # ------------------------------------------------------------- serializing

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, doc: dict) -> "ExperimentConfig":
        """Inverse of :meth:`to_dict`; nested objects may leave out fields.

        A missing key keeps its default, a nested ``controller`` or
        ``kinematics`` object replaces only the fields it names, and lists
        become the tuples the fields hold.  Every value is checked against
        its field's type and nothing is coerced, so a config's fingerprint
        is that of the values it names.
        """
        if not isinstance(doc, dict):
            raise ValueError("a config must be a JSON object")
        return cls(**_checked_fields(cls, doc, "config", cls()))

    def to_json(self, path: str) -> None:
        write_metrics_json(path, self.to_dict())

    @classmethod
    def from_json(cls, path: str) -> "ExperimentConfig":
        """The config in ``path``; a fault in the file raises a ``ValueError`` naming it."""
        doc = _load_json(path)
        try:
            return cls.from_dict(doc)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from exc

    def fingerprint(self) -> str:
        canon = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canon.encode("utf-8")).hexdigest()[:16]


def _checked_fields(cls, doc: dict, where: str, defaults) -> dict:
    """The fields ``doc`` names, each checked against its type in ``cls``."""
    unknown = sorted(set(doc) - {f.name for f in dataclasses.fields(cls)})
    if unknown:
        raise ValueError(f"unknown {where} keys: {unknown}")
    hints = typing.get_type_hints(cls)
    prefix = "" if where == "config" else f"{where}."
    return {
        name: _checked_value(prefix + name, value, hints[name], getattr(defaults, name))
        for name, value in doc.items()
    }


def _checked_value(key: str, value, hint, default):
    """``value`` if it is a JSON value of type ``hint``; lists become tuples."""
    if typing.get_origin(hint) is typing.Union:  # Optional[X]
        if value is None:
            return value
        (hint,) = [arg for arg in typing.get_args(hint) if arg is not type(None)]
    if dataclasses.is_dataclass(hint):
        if not isinstance(value, dict):
            raise ValueError(f"config key {key!r} must be an object, got {value!r}")
        return dataclasses.replace(default, **_checked_fields(hint, value, key, default))
    if typing.get_origin(hint) is tuple:
        ok = isinstance(value, list | tuple) and all(map(_is_int, value))
        what = "a list of integers within +-2**53"
    elif hint is int:
        ok, what = _is_int(value), "an integer within +-2**53"
    elif hint is float:
        ok, what = _finite(value) is not None, "a finite number"
    else:
        ok, what = isinstance(value, hint), {str: "a string", dict: "an object"}[hint]
    if not ok:
        raise ValueError(f"config key {key!r} must be {what}, got {value!r}")
    limit = _LIMITS.get(key)
    if isinstance(limit, tuple) and (len(value) > limit[0] or max(value, default=0) > limit[1]):
        raise ValueError(f"config key {key!r} takes at most {limit[0]} sizes of at most {limit[1]} each")
    if isinstance(limit, int) and value > limit:
        raise ValueError(f"config key {key!r} must be at most {limit}, got {value}")
    return tuple(value) if isinstance(value, list) else value


def _is_int(value) -> bool:
    """An integer within +-2**53, so tick sums such as ``time + yellow + green`` fit int64."""
    return isinstance(value, int) and not isinstance(value, bool) and -(2**53) <= value <= 2**53


@dataclass
class MetricsReport:
    """Headline episode metrics plus provenance."""

    average_travel_time: float
    throughput: int
    generated: int
    seed: Optional[int]
    config_fingerprint: str

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


@dataclass
class EpisodeResult:
    metrics: MetricsReport
    steps: None  # always None: an episode's steps stream to telemetry.csv and are not kept
    decisions: list[DecisionRecord]
    losses: list[float]
    world: World


# --------------------------------------------------------------------- metrics


def avg_travel_time(vehicles: Iterable, horizon: int) -> float:
    """Mean travel time: exit minus entry, horizon minus entry if still inside."""
    total = 0.0
    n = 0
    for veh in vehicles:
        if veh.entered_at > horizon:
            raise ValueError("vehicle entered after the horizon")
        if veh.exited_at is not None:
            total += veh.exited_at - veh.entered_at
        else:
            total += horizon - veh.entered_at
        n += 1
    return total / n if n else 0.0


def throughput(vehicles: Iterable) -> int:
    """Vehicles that finished their route and left the network."""
    return sum(1 for veh in vehicles if veh.exited_at is not None)


# -------------------------------------------------------------------- builders


#: The keys each ``network`` and ``flow`` kind takes besides ``kind``, as
#: (type, default); a key without a default is required.  A section's first
#: kind is its default.
_SPEC_KEYS = {
    "network": {
        "grid": {"rows": (int, 3), "cols": (int, 3), "we_length": (float, 300.0), "ns_length": (float, 300.0)},
        "roadnet": {"path": (str, None)},
    },
    "flow": {"syn-light": {}, "syn-heavy": {}, "file": {"path": (str, None)}},
}


#: The largest value of each config key that sizes the work; for a list
#: of sizes, the most entries and the largest entry.
_LIMITS = {
    "horizon": MAX_HORIZON,
    "episodes": 100_000,
    "buffer_capacity": 1_000_000,
    "network.rows": 100,
    "network.cols": 100,
    "hidden_sizes": (8, 4096),
}


def _spec(config: ExperimentConfig, section: str) -> tuple[str, dict]:
    """The kind of the config's ``network`` or ``flow`` object and its checked values."""
    spec = getattr(config, section)
    kinds = _SPEC_KEYS[section]
    kind = spec.get("kind", next(iter(kinds)))
    if not isinstance(kind, str) or kind not in kinds:
        raise ValueError(f"unknown {section} kind {kind!r}")
    unknown = sorted(set(spec) - {"kind", *kinds[kind]})
    if unknown:
        raise ValueError(f"unknown config keys {unknown} in {section!r} of kind {kind!r}")
    values = {}
    for key, (hint, default) in kinds[kind].items():
        if key not in spec and default is None:
            raise ValueError(f"config key {section!r} of kind {kind!r} needs a {key!r}")
        values[key] = _checked_value(f"{section}.{key}", spec.get(key, default), hint, None)
    return kind, values


def build_network(config: ExperimentConfig) -> RoadNetwork:
    """The configured road network."""
    kind, spec = _spec(config, "network")
    kin = config.kinematics
    if kind == "grid":
        return build_grid(
            rows=spec["rows"],
            cols=spec["cols"],
            we_length=float(spec["we_length"]),
            ns_length=float(spec["ns_length"]),
            l_v=kin.vehicle_length,
            l_g=kin.min_gap,
            max_speed=kin.max_speed,
        )
    return load_roadnet(spec["path"], l_v=kin.vehicle_length, l_g=kin.min_gap)


def build_events(
    config: ExperimentConfig, net: RoadNetwork
) -> tuple[Schedule, KinematicParams]:
    """The schedule of departures before the horizon, plus the effective kinematics.

    Flow files may carry vehicle fields, one map shared by every record
    that has one (the loader rejects a file whose maps differ); it
    overrides the configured kinematics.
    """
    kind, spec = _spec(config, "flow")
    kin = config.kinematics
    if kind != "file":
        events = (gen_syn_light if kind == "syn-light" else gen_syn_heavy)(net, config.horizon)
    else:
        flows = load_flow_file(spec["path"], net, until=config.horizon)
        idx, vehicle = next(((idx, f.vehicle) for idx, f in enumerate(flows) if f.vehicle), (0, None))
        if vehicle:
            try:
                kin = dataclasses.replace(kin, **{VEHICLE_FIELDS[key]: value for key, value in vehicle.items()})
            except ValueError as exc:
                raise ValueError(f"{spec['path']}: flow record #{idx} vehicle {vehicle}: {exc}") from None
        events = expand_flows(flows, until=config.horizon)
    # each road's speed meets the vehicles' kinematics here first
    for speed, road in {road.max_speed: road for road in net.roads.values()}.items():
        try:
            dataclasses.replace(kin, max_speed=speed)
        except ValueError as exc:
            raise ValueError(f"road {road.id} maxSpeed {speed:g}: {exc}") from None
    return events, kin


class Scenario(NamedTuple):
    """What an episode runs on: a network, its demand, the kinematics."""

    net: RoadNetwork
    events: Schedule
    kinematics: KinematicParams


def _build_scenario(config: ExperimentConfig) -> Scenario:
    net = build_network(config)
    return Scenario(net, *build_events(config, net))


@dataclass
class LearnerContext:
    """Shared learner state threaded through the training episodes."""

    net: QNetwork
    target: QNetwork
    buffer: ReplayBuffer
    sample_rng: np.random.Generator
    train_steps: int = 0


# ---------------------------------------------------------------------- runner


def run_episode(
    config: ExperimentConfig,
    controller,
    *,
    scenario: Optional[Scenario] = None,
    learner_ctx: Optional[LearnerContext] = None,
    seed: Optional[int] = None,
    record: bool = True,
    out_dir: Optional[str] = None,
) -> EpisodeResult:
    """One full episode under the given controller.

    Each tick the controller scores the due intersections' counts as one
    block.  Then each due intersection is observed (for a DQN controller or
    a learner only; the others are passed ``obs=None``), the previous
    action's reward is computed from its row and (when a ``learner_ctx`` is
    given) stored and trained on, and the controller's new decision is
    applied.  Returns metrics, the per-step training losses and, when
    ``record`` is set, the decision log; ``steps`` is always ``None``.
    ``scenario`` is built from the config when not given.

    With ``out_dir``, ``telemetry.csv`` is written as the ticks run, a few
    at a time, then ``decisions.csv`` and, last, ``metrics.json``: a
    ``metrics.json`` on disk means the episode finished.
    """
    net, events, kinematics = scenario or _build_scenario(config)
    world = World(
        net,
        events,
        kinematics=kinematics,
        yellow=config.yellow,
        obs_counts=config.obs_counts,
    )
    obs_scale = config.controller.obs_scale
    reward_kind = config.controller.reward_kind

    decisions: list[DecisionRecord] = []
    losses: list[float] = []
    pending: dict[str, tuple[np.ndarray, int]] = {}
    # only the DQN and its learner read the observation
    observing = learner_ctx is not None or isinstance(controller, DQNController)
    # per intersection and phase: the two services the phase grants
    grants = world._grants
    # per intersection: its last decision, the services it granted and their crossings then
    open_records: dict[str, tuple[DecisionRecord, tuple, int]] = {}
    # each distinct count row once: most decisions repeat a row an earlier one saw
    count_rows: dict[tuple[int, ...], tuple[int, ...]] = {}

    def crossings(services: tuple) -> int:
        a, b = services
        return a.cum_crossed + b.cum_crossed

    ids = [inter.id for inter in net.intersections]

    def ticks(collect: bool) -> Iterator[StepTelemetry]:
        for _ in range(config.horizon):
            due = world.due_signals()
            rows = due.tolist()
            if rows:
                # a decision changes no occupancy: one gather serves the whole tick
                block = world.movement_block(due)
                controller.score(world, [ids[row] for row in rows], block)
                if record:
                    block_rows = block.n_in.tolist()
            for k, row in enumerate(rows):
                iid = ids[row]
                obs = world.observe(iid) * obs_scale if observing else None
                if iid in pending:
                    s_prev, a_prev = pending.pop(iid)
                    r = reward(block.row(k), reward_kind)
                    learner_ctx.buffer.push(Transition(s_prev, a_prev, r, obs, False))
                    batch = learner_ctx.buffer.sample(config.batch_size, learner_ctx.sample_rng)
                    if batch is not None:
                        losses.append(
                            train_step(
                                learner_ctx.net, learner_ctx.target, batch, config.gamma, config.lr
                            )
                        )
                        learner_ctx.train_steps += 1
                        if learner_ctx.train_steps % config.target_sync == 0:
                            sync_target(learner_ctx.net, learner_ctx.target)

                if record and iid in open_records:
                    rec, granted, base = open_records.pop(iid)
                    rec.actual_discharged = crossings(granted) - base

                decision = controller.decide(world, iid, obs)
                ideal_npass = world.apply_decision(iid, decision.phase, decision.green_duration)
                if learner_ctx is not None:
                    pending[iid] = (obs, decision.phase)
                if record:
                    granted = grants[row][decision.phase]
                    counts = tuple(block_rows[k])
                    rec = DecisionRecord(
                        time=world.time,
                        intersection=iid,
                        phase=decision.phase,
                        green_duration=decision.green_duration,
                        # world.signals[iid].yellow, read from the field: an np.record
                        # attribute costs about 2 us of Python per read
                        switched=bool(world._yellow[row]),
                        counts=count_rows.setdefault(counts, counts),
                        ideal_npass=ideal_npass,
                    )
                    decisions.append(rec)
                    open_records[iid] = (rec, granted, crossings(granted))
            yield world.step(collect=collect)

    if out_dir is None:
        for _ in ticks(collect=False):
            pass
    else:
        os.makedirs(out_dir, exist_ok=True)
        write_telemetry_csv(os.path.join(out_dir, "telemetry.csv"), net, ticks(collect=True))

    for rec, granted, base in open_records.values():
        rec.actual_discharged = crossings(granted) - base
    for iid, (s_prev, a_prev) in pending.items():
        r = reward(world.movement_counts(iid), reward_kind)
        s_now = world.observe(iid) * obs_scale
        learner_ctx.buffer.push(Transition(s_prev, a_prev, r, s_now, True))

    metrics = MetricsReport(
        average_travel_time=avg_travel_time(world.vehicles, config.horizon),
        throughput=throughput(world.vehicles),
        generated=world.entered_total,
        seed=seed,
        config_fingerprint=config.fingerprint(),
    )
    if out_dir is not None:
        write_decisions_csv(os.path.join(out_dir, "decisions.csv"), decisions)
        write_metrics_json(os.path.join(out_dir, "metrics.json"), metrics.to_dict())
    return EpisodeResult(metrics=metrics, steps=None, decisions=decisions, losses=losses, world=world)


def _new_qnetwork(config: ExperimentConfig, seed_seq: np.random.SeedSequence) -> QNetwork:
    return QNetwork(
        layer_sizes=(OBS_SIZE, *config.hidden_sizes, 4),
        rng=np.random.default_rng(seed_seq),
    )


def run_single(
    config: ExperimentConfig,
    seed: Optional[int],
    out_dir: Optional[str] = None,
    checkpoint: QNetwork | str | None = None,
) -> EpisodeResult:
    """One recorded episode of the configured controller with exploration off.

    The DQN controller acts with ``checkpoint`` (a network or the path of
    a saved one), or with a fresh network drawn from ``seed`` when there
    is none.  With ``out_dir`` the episode writes its artifacts there (see
    :func:`run_episode`).
    """
    if checkpoint is not None and config.controller.kind != "dqn":
        raise ValueError(f"a checkpoint only applies to the dqn controller, not {config.controller.kind!r}")
    scenario = _build_scenario(config)
    qnet = None
    if config.controller.kind == "dqn":
        if checkpoint is None:
            qnet = _new_qnetwork(config, np.random.SeedSequence(seed))
        else:
            qnet = load_checkpoint(checkpoint) if isinstance(checkpoint, str) else checkpoint
            if qnet.input_size != OBS_SIZE or qnet.output_size != 4:
                raise ValueError(
                    f"checkpoint architecture {qnet.layer_sizes} does not match the "
                    f"{OBS_SIZE}-input / 4-output controller contract"
                )
    controller = build_controller(config.controller, scenario.kinematics, net=qnet)
    return run_episode(config, controller, scenario=scenario, seed=seed, out_dir=out_dir)


def evaluate(
    config: ExperimentConfig,
    parameters: QNetwork | str,
    seed: Optional[int] = None,
    out_dir: Optional[str] = None,
) -> MetricsReport:
    """Greedy rollout of trained parameters: epsilon 0, learning off."""
    if config.controller.kind != "dqn":
        raise ValueError("evaluate() only applies to the dqn controller")
    return run_single(config, seed, out_dir, parameters).metrics


# -------------------------------------------------------------------- training


@dataclass
class TrainRun:
    """Everything a single-seed training run produced."""

    seed: int
    curve: list[dict]
    final_net: QNetwork
    best_net: QNetwork
    best_train_travel_time: float
    final_eval: MetricsReport
    best_eval: MetricsReport
    wall_clock: float


def check_target_sync(config: ExperimentConfig, net: RoadNetwork) -> None:
    """Reject a ``target_sync`` that no run of ``config`` on ``net`` reaches.

    An intersection decides at most once per shortest green (``green_fixed``
    or ``green_min``, by the duration mode) and trains at most once per
    decision, so a run takes at most ``episodes x intersections x
    ceil(horizon / shortest green)`` train steps.
    """
    controller = config.controller
    shortest = controller.green_fixed if controller.duration_mode == "fixed" else controller.green_min
    most = config.episodes * len(net.intersections) * -(-config.horizon // shortest)
    if config.target_sync > most:
        raise ValueError(
            f"target_sync ({config.target_sync}) exceeds the {most} train steps a run takes at most, "
            "so the target network would never sync"
        )


def train(
    config: ExperimentConfig,
    seed: int,
    out_dir: Optional[str] = None,
    progress=None,
) -> TrainRun:
    """Train the shared DQN for ``config.episodes`` episodes on one seed.

    Stores transitions from every intersection in one pooled replay buffer,
    trains after each decision once the buffer is warm, and syncs the
    target network every ``target_sync`` training steps.  Checkpoints the
    best parameters by travel time — of the periodic greedy evaluations
    when ``eval_every`` is set, of the training episodes otherwise — and
    finishes with greedy evaluations of both the final and best parameters.
    Raises ``RuntimeError`` naming the episode when a training loss or, at
    an episode's end, a weight is not finite.
    """
    if config.controller.kind != "dqn":
        raise ValueError("train() needs a dqn controller config")
    started = _time.perf_counter()
    root = np.random.SeedSequence(seed)
    ss_init, ss_actions, ss_samples = root.spawn(3)
    net = _new_qnetwork(config, ss_init)
    ctx = LearnerContext(
        net=net,
        target=net.copy(),
        buffer=ReplayBuffer(config.buffer_capacity),
        sample_rng=np.random.default_rng(ss_samples),
    )
    action_rng = np.random.default_rng(ss_actions)
    scenario = _build_scenario(config)
    check_target_sync(config, scenario.net)

    def greedy(qnet: QNetwork) -> MetricsReport:
        controller = build_controller(config.controller, scenario.kinematics, net=qnet)
        return run_episode(config, controller, scenario=scenario, seed=seed, record=False).metrics

    curve: list[dict] = []
    best_train_tt = float("inf")
    best_eval_tt = float("inf")
    best_net = net.copy()
    for ep in range(config.episodes):
        eps = epsilon(config.epsilon_start, config.epsilon_end, config.epsilon_horizon or config.episodes, ep)
        controller = DQNController(net, config.controller, action_rng, eps, scenario.kinematics)
        # a diverging network overflows; the check below reports it once, by episode
        with np.errstate(over="ignore", invalid="ignore"):
            result = run_episode(
                config, controller, scenario=scenario, learner_ctx=ctx, seed=seed, record=False
            )
        # keep the numbers, not the world: the next episode builds its own
        metrics, losses = result.metrics, result.losses
        del result
        if not all(map(math.isfinite, losses)):
            raise RuntimeError(f"training diverged: non-finite loss in episode {ep} (seed {seed})")
        if not all(np.isfinite(a).all() for a in (*net.weights, *net.biases)):
            raise RuntimeError(f"training diverged: non-finite weights after episode {ep} (seed {seed})")
        row = {
            "episode": ep,
            "epsilon": eps,
            "avg_travel_time": metrics.average_travel_time,
            "throughput": metrics.throughput,
            "mean_loss": statistics.fmean(losses) if losses else 0.0,
            "train_steps": ctx.train_steps,
            "eval_travel_time": None,
        }
        if metrics.average_travel_time < best_train_tt:
            best_train_tt = metrics.average_travel_time
            if config.eval_every is None:
                best_net = net.copy()
        if config.eval_every is not None and (ep + 1) % config.eval_every == 0:
            interim = greedy(net)
            row["eval_travel_time"] = interim.average_travel_time
            if interim.average_travel_time < best_eval_tt:
                best_eval_tt = interim.average_travel_time
                best_net = net.copy()
        curve.append(row)
        if progress is not None:
            progress(row)

    run = TrainRun(
        seed=seed,
        curve=curve,
        final_net=net,
        best_net=best_net,
        best_train_travel_time=best_train_tt,
        final_eval=greedy(net),
        best_eval=greedy(best_net),
        wall_clock=_time.perf_counter() - started,
    )
    if out_dir is not None:
        _write_train_outputs(out_dir, config, run)
    return run


def _write_train_outputs(out_dir: str, config: ExperimentConfig, run: TrainRun) -> None:
    os.makedirs(out_dir, exist_ok=True)
    save_checkpoint(run.final_net, os.path.join(out_dir, "checkpoint_final.npz"))
    save_checkpoint(run.best_net, os.path.join(out_dir, "checkpoint_best.npz"))
    curve_path = os.path.join(out_dir, "learning_curve.csv")
    with open(curve_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(run.curve[0].keys())
        writer.writerows(row.values() for row in run.curve)
    write_metrics_json(
        os.path.join(out_dir, "metrics.json"),
        {
            "seed": run.seed,
            "config_fingerprint": config.fingerprint(),
            "final_eval": run.final_eval.to_dict(),
            "best_eval": run.best_eval.to_dict(),
            "best_train_travel_time": run.best_train_travel_time,
        },
    )


def _train_worker(args: tuple[dict, int, Optional[str]]) -> tuple[int, dict]:
    doc, seed, out_dir = args
    config = ExperimentConfig.from_dict(doc)

    def progress(row: dict) -> None:
        log.info(
            "seed %d episode %d: epsilon %.3f, travel time %.2f s, mean loss %.4g",
            seed, row["episode"], row["epsilon"], row["avg_travel_time"], row["mean_loss"],
        )

    run = train(config, seed, out_dir=out_dir, progress=progress)
    return seed, {
        "final_eval": run.final_eval.to_dict(),
        "best_eval": run.best_eval.to_dict(),
        "best_train_travel_time": run.best_train_travel_time,
        "wall_clock": run.wall_clock,
    }


def train_many(
    config: ExperimentConfig,
    out_dir: Optional[str] = None,
    jobs: int = 1,
) -> dict:
    """Train every configured seed (optionally in up to ``jobs`` worker processes).

    Returns a summary with per-seed evaluations and the across-seed medians
    of the greedy evaluation travel times.
    """
    tasks = [
        (config.to_dict(), seed, os.path.join(out_dir, f"seed_{seed}") if out_dir else None)
        for seed in config.seeds
    ]
    # a pool forks all its workers at the first task: no more than there are seeds
    workers = min(jobs, len(tasks))
    if workers > 1:
        # imported here: a run without a pool never loads it
        import concurrent.futures

        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            results = dict(pool.map(_train_worker, tasks))
    else:
        results = dict(map(_train_worker, tasks))
    summary = {
        "config_fingerprint": config.fingerprint(),
        "seeds": list(config.seeds),
        "per_seed": {str(seed): results[seed] for seed in config.seeds},
        "median_final_eval_travel_time": statistics.median(
            results[s]["final_eval"]["average_travel_time"] for s in config.seeds
        ),
        "median_best_eval_travel_time": statistics.median(
            results[s]["best_eval"]["average_travel_time"] for s in config.seeds
        ),
        "median_best_eval_throughput": statistics.median(
            results[s]["best_eval"]["throughput"] for s in config.seeds
        ),
    }
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        write_metrics_json(os.path.join(out_dir, "summary.json"), summary)
    return summary


# ------------------------------------------------------------------ case study


@dataclass
class CaseStudy:
    """Aggregates derived from a decision log."""

    decisions_total: int
    phase_choice_counts: tuple[int, int, int, int]
    phase_mean_counts: tuple[float, float, float, float]
    unique_max_decisions: int
    max_phase_chosen: int
    max_choice_frequency: float
    duration_table: dict[int, dict]  # duration -> n / ideal / actual aggregates

    def to_dict(self) -> dict:
        doc = dataclasses.asdict(self)
        doc["duration_table"] = {str(d): v for d, v in sorted(doc["duration_table"].items())}
        return doc


def write_case_study(out_dir: str, records: Sequence[DecisionRecord]) -> CaseStudy:
    """Write case_study.csv (per decision) and case_study_summary.json."""
    study, per_record = _case_study(records)
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "case_study.csv"), "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(
            ["time", "intersection", "phase", "green_duration"]
            + [f"phase_count_{k}" for k in range(4)]
            + ["chosen_is_max", "ideal_npass", "actual_discharged"]
        )
        for rec, (per_phase, chosen_is_max) in zip(records, per_record):
            actual = "" if rec.actual_discharged is None else rec.actual_discharged
            writer.writerow(
                [rec.time, rec.intersection, rec.phase, rec.green_duration, *per_phase]
                + [chosen_is_max, rec.ideal_npass, actual]
            )
    write_metrics_json(os.path.join(out_dir, "case_study_summary.json"), study.to_dict())
    return study


def case_study(records: Sequence[DecisionRecord]) -> CaseStudy:
    """Derive the phase-choice and green-time tables from a decision log.

    The max-choice frequency is computed over decisions whose per-phase
    vehicle counts have a unique maximum (ties carry no signal about the
    controller).  The duration table aggregates, per green duration, the
    promised (n_pass) and delivered discharge of the granted phase.
    """
    return _case_study(records)[0]


def _case_study(records: Sequence[DecisionRecord]) -> tuple[CaseStudy, list[tuple[tuple[float, ...], int | str]]]:
    """The case study, and per record its phase mean counts and ``chosen_is_max``
    cell: 1 or 0 when the maximum is unique, empty on a tie."""
    choice_counts = [0, 0, 0, 0]
    mean_sums = [0.0, 0.0, 0.0, 0.0]
    unique_max = 0
    max_chosen = 0
    durations: dict[int, dict] = {}
    per_record = []
    for rec in records:
        choice_counts[rec.phase] += 1
        per_phase = rec.phase_mean_counts()
        for k in range(4):
            mean_sums[k] += per_phase[k]
        top = max(per_phase)
        top_phases = [k for k in range(4) if per_phase[k] == top]
        chosen_is_max = ""
        if len(top_phases) == 1:
            unique_max += 1
            chosen_is_max = int(top_phases[0] == rec.phase)
            max_chosen += chosen_is_max
        per_record.append((per_phase, chosen_is_max))
        if rec.actual_discharged is not None:
            slot = durations.setdefault(
                rec.green_duration,
                {"intervals": 0, "ideal_total": 0, "actual_total": 0},
            )
            slot["intervals"] += 1
            slot["ideal_total"] += rec.ideal_npass
            slot["actual_total"] += rec.actual_discharged
    for slot in durations.values():
        slot["ideal_mean"] = slot["ideal_total"] / slot["intervals"]
        slot["actual_mean"] = slot["actual_total"] / slot["intervals"]
    n = len(records)
    return CaseStudy(
        decisions_total=n,
        phase_choice_counts=tuple(choice_counts),  # type: ignore[arg-type]
        phase_mean_counts=tuple(
            (s / n if n else 0.0) for s in mean_sums
        ),  # type: ignore[arg-type]
        unique_max_decisions=unique_max,
        max_phase_chosen=max_chosen,
        max_choice_frequency=(max_chosen / unique_max) if unique_max else 0.0,
        duration_table=durations,
    ), per_record
