"""Per-layer metrics of a traced round: hooks that count work, and the table.

The hooks wrap a traced function once more, so their own work runs in
``bench.*`` spans and never inflates a layer's self time.  They count what
the engine's return values and public state show (vehicles on the network,
crossings, exits, phase switches, telemetry rows and bytes), and they check
every controller decision against the benchmark's own formulas.
"""

from __future__ import annotations

import os

import numpy as np

import checks
from tracing import LAYERS, Tracer


def _count_lines(path: str) -> int:
    n = 0
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            n += chunk.count(b"\n")
    return n


class LayerHooks:
    """Counters filled by the hooks during one traced round."""

    def __init__(self, tracer: Tracer, world_cls) -> None:
        # taken before tracing is installed, so the checks' own reads make no engine spans
        self._observe = world_cls.observe
        self.tracer = tracer
        self.vehicle_steps = 0
        self.buffered_vehicle_steps = 0
        self.crossings = 0
        self.exits = 0
        self.phase_switches = 0
        self.telemetry_rows = 0
        self.telemetry_bytes = 0
        self.events: int | None = None
        self.decisions_checked = 0
        self.decision_problems = checks.Problems()
        # greedy DQN decisions: (net id, state the net saw, observation scaled once, phase)
        self.greedy_records: list[tuple[int, np.ndarray, np.ndarray, int]] = []

    def hooks(self) -> dict:
        return {
            "engine.World.step": self._step,
            "engine.World.apply_decision": self._apply_decision,
            "experiment.build_events": self._build_events,
            "telemetry.write_telemetry_csv": self._write_csv,
            "telemetry.write_decisions_csv": self._write_csv,
            "telemetry.write_metrics_json": self._write_file,
            "control.GreedyPrcolController.decide": self._decide_prcol,
            "control.MaxPressureController.decide": self._decide_maxpressure,
            "control.DQNController.decide": self._decide_dqn,
        }

    # -------------------------------------------------------------- counting

    def _step(self, step):
        def hooked(world, *args, **kwargs):
            tel = step(world, *args, **kwargs)
            with self.tracer.span("bench.count"):
                self.vehicle_steps += world.on_network_count()
                self.buffered_vehicle_steps += world.buffered_count()
                self.crossings += sum(tel.discharged.values())
                self.exits += tel.exited
            return tel

        return hooked

    def _apply_decision(self, apply_decision):
        def hooked(world, intersection_id, phase, green_duration):
            with self.tracer.span("bench.count"):
                if phase != world.signals[intersection_id].current_phase:
                    self.phase_switches += 1
            return apply_decision(world, intersection_id, phase, green_duration)

        return hooked

    def _build_events(self, build_events):
        def hooked(*args, **kwargs):
            events, kin = build_events(*args, **kwargs)
            if self.events is None:
                self.events = len(events)
            return events, kin

        return hooked

    def _write_csv(self, write):
        def hooked(path, *args, **kwargs):
            write(path, *args, **kwargs)
            with self.tracer.span("bench.count"):
                self.telemetry_rows += _count_lines(path) - 1  # header
                self.telemetry_bytes += os.path.getsize(path)

        return hooked

    def _write_file(self, write):
        def hooked(path, *args, **kwargs):
            write(path, *args, **kwargs)
            with self.tracer.span("bench.count"):
                self.telemetry_bytes += os.path.getsize(path)

        return hooked

    # ------------------------------------------------------ decision checks

    def _checked(self, decide, problem_of):
        def hooked(controller, world, intersection_id, obs=None):
            with self.tracer.span("bench.check"):
                counts = checks.movement_counts(world, world.net.intersection(intersection_id))
            decision = decide(controller, world, intersection_id, obs)
            with self.tracer.span("bench.check"):
                self.decisions_checked += 1
                problem = problem_of(controller, counts, decision)
                if problem:
                    self.decision_problems.add(f"t={world.time} {intersection_id}: {problem}")
            return decision

        return hooked

    def _decide_prcol(self, decide):
        def problem_of(controller, counts, decision):
            if controller.config.duration_mode != "dynamic":
                return "the benchmark checks PRCOL with dynamic greens only"
            return checks.prcol_decision_problem(counts, decision.phase, decision.green_duration)

        return self._checked(decide, problem_of)

    def _decide_maxpressure(self, decide):
        return self._checked(
            decide, lambda _c, counts, decision: checks.maxpressure_decision_problem(counts, decision.phase)
        )

    def _decide_dqn(self, decide):
        def hooked(controller, world, intersection_id, obs=None):
            decision = decide(controller, world, intersection_id, obs)
            if controller.eps == 0.0:
                with self.tracer.span("bench.check"):
                    scale = controller.config.obs_scale
                    once = self._observe(world, intersection_id) * scale
                    seen = (once if obs is None else obs * scale)
                    self.greedy_records.append((id(controller.net), seen, once, decision.phase))
            return decision

        return hooked

    def check_greedy(self, checkpoints: dict[int, str]) -> int:
        """Check greedy DQN phases against the checkpoints' own forward pass.

        ``checkpoints`` maps the id of each evaluated network to the file it
        was saved to.  Returns how many phases would differ if the network
        saw the observation scaled once, as the replay buffer stores it.
        """
        weights = {key: checks.load_weights(path) for key, path in checkpoints.items()}
        differ = 0
        for key, seen, once, phase in self.greedy_records:
            if key not in weights:
                self.decision_problems.add("greedy decision by a network that was not checkpointed")
                continue
            self.decisions_checked += 1
            problem = checks.greedy_problem(weights[key], seen, phase)
            if problem:
                self.decision_problems.add(problem)
            if int(np.argmax(checks.q_values(weights[key], once))) != phase:
                differ += 1
        return differ


def layer_metrics(summary: dict, hooks: LayerHooks, episodes: list, lanes: int) -> dict:
    """Every per-layer metric (name -> (value, unit)) of one traced round."""

    def stat(key: str, *names: str) -> int:
        return sum(summary.get(n, {}).get(key, 0) for n in names)

    def incl(*names: str) -> float:
        return stat("incl_ns", *names) / 1e9

    def own(*names: str) -> float:
        return stat("self_ns", *names) / 1e9

    def calls(*names: str) -> int:
        return stat("calls", *names)

    decide = [n for n in summary if n.startswith("control.") and "decide" in n]
    step_s = incl("engine.World.step")
    ideal = sum(ep["ideal"] for ep in episodes)
    actual = sum(ep["actual"] for ep in episodes)
    m = {
        "network.build_s": (incl("experiment.build_network"), "s"),
        "network.validate_s": (incl("network.validate"), "s"),
        "network.lanes": (lanes, "count"),
        "flows.build_events_s": (incl("experiment.build_events"), "s"),
        "flows.events": (hooks.events or 0, "count"),
        "engine.init_s": (own("engine.World.__init__"), "s"),
        "engine.step_s": (step_s, "s"),
        "engine.steps": (calls("engine.World.step"), "count"),
        "engine.vehicle_steps": (hooks.vehicle_steps, "count"),
        "engine.step_ns_per_vehicle_step": (
            step_s * 1e9 / hooks.vehicle_steps if hooks.vehicle_steps else 0.0, "ns"
        ),
        "engine.buffered_vehicle_steps": (hooks.buffered_vehicle_steps, "count"),
        "engine.crossings": (hooks.crossings, "count"),
        "engine.exits": (hooks.exits, "count"),
        "engine.movement_counts_s": (incl("engine.World.movement_counts"), "s"),
        "engine.movement_counts_calls": (calls("engine.World.movement_counts"), "count"),
        "engine.observe_s": (incl("engine.World.observe"), "s"),
        "engine.apply_decision_s": (own("engine.World.apply_decision"), "s"),
        "engine.decisions": (calls("engine.World.apply_decision"), "count"),
        "signalmath.reward_s": (incl("signalmath.reward"), "s"),
        "signalmath.reward_calls": (calls("signalmath.reward"), "count"),
        "control.decide_s": (own(*decide), "s"),
        "control.phase_switches": (hooks.phase_switches, "count"),
        "control.green_delivery_ratio": (actual / ideal if ideal else 0.0, "ratio"),
        "learner.forward_s": (incl("learner.forward"), "s"),
        "learner.train_step_s": (incl("learner.train_step"), "s"),
        "learner.train_steps": (calls("learner.train_step"), "count"),
        "learner.replay_sample_s": (incl("learner.ReplayBuffer.sample"), "s"),
        "learner.replay_push_s": (incl("learner.ReplayBuffer.push"), "s"),
        "learner.sync_target_s": (incl("learner.sync_target"), "s"),
        "learner.checkpoint_s": (incl("learner.save_checkpoint", "learner.load_checkpoint"), "s"),
        "telemetry.write_s": (
            incl(
                "telemetry.write_telemetry_csv",
                "telemetry.write_decisions_csv",
                "telemetry.write_metrics_json",
            ),
            "s",
        ),
        "telemetry.read_s": (incl("telemetry.read_decisions_csv"), "s"),
        "telemetry.rows": (hooks.telemetry_rows, "count"),
        "telemetry.bytes": (hooks.telemetry_bytes, "bytes"),
        "experiment.driver_s": (own("experiment.run_episode"), "s"),
        "experiment.episodes": (calls("experiment.run_episode"), "count"),
        "experiment.case_study_s": (incl("experiment.write_case_study"), "s"),
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = (own(*(n for n in summary if n.startswith(layer + "."))), "s")
    m["bench.self_s"] = (own(*(n for n in summary if n.startswith("bench."))), "s")
    return m
