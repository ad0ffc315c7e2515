"""Experiment-layer tests: metric definitions, config round trips, episode
determinism, training/evaluation consistency, and case-study aggregation."""

import collections
import concurrent.futures
import csv
import dataclasses
import gc
import io
import json
import weakref
from dataclasses import dataclass
from typing import Optional

import numpy as np
import pytest

from gridlight import experiment, telemetry
from gridlight.control import (
    ControllerConfig,
    DQNController,
    FixedTimeController,
    GreedyPrcolController,
    MaxPressureController,
    build_controller,
)
from gridlight.engine import World
from gridlight.experiment import (
    ExperimentConfig,
    avg_travel_time,
    build_events,
    build_network,
    case_study,
    check_target_sync,
    evaluate,
    run_episode,
    run_single,
    throughput,
    train,
    train_many,
    write_case_study,
)
from gridlight.flows import SpawnEvent
from gridlight.learner import QNetwork, save_checkpoint
from gridlight.signalmath import DEFAULT_KINEMATICS
from gridlight.telemetry import DecisionRecord, read_decisions_csv, write_decisions_csv


@dataclass
class Trip:
    entered_at: int
    exited_at: Optional[int]


class TestTravelTimeMetric:
    def test_mixed_exited_and_inside(self):
        trips = [Trip(0, 100), Trip(3500, None)]
        assert avg_travel_time(trips, 3600) == pytest.approx(100.0)

    def test_instant_exits(self):
        trips = [Trip(5, 5), Trip(60, 60)]
        assert avg_travel_time(trips, 3600) == 0.0

    def test_single_never_exiting(self):
        assert avg_travel_time([Trip(0, None)], 3600) == 3600.0

    def test_empty_is_zero(self):
        assert avg_travel_time([], 3600) == 0.0

    def test_entry_after_horizon_rejected(self):
        with pytest.raises(ValueError):
            avg_travel_time([Trip(4000, None)], 3600)


class TestThroughputMetric:
    def test_counts_only_finished(self):
        trips = [Trip(0, 80)] * 5 + [Trip(10, None)] * 2
        assert throughput(trips) == 5

    def test_empty(self):
        assert throughput([]) == 0


class TestExperimentConfig:
    def test_round_trip(self, tmp_path):
        cfg = ExperimentConfig(
            flow={"kind": "syn-heavy"},
            controller=ControllerConfig(kind="dqn", reward_kind="queue"),
            episodes=7,
            seeds=(3, 4),
        )
        path = tmp_path / "config.json"
        cfg.to_json(str(path))
        twin = ExperimentConfig.from_json(str(path))
        assert twin == cfg
        assert twin.fingerprint() == cfg.fingerprint()

    def test_fingerprint_distinguishes_configs(self):
        a = ExperimentConfig()
        b = ExperimentConfig(gamma=0.9)
        assert a.fingerprint() != b.fingerprint()

    def test_values_are_not_coerced(self):
        cfg = ExperimentConfig.from_dict(
            {"gamma": 1, "eval_every": None, "seeds": [4], "kinematics": {"accel": 3}}
        )
        assert cfg.gamma == 1 and isinstance(cfg.gamma, int)
        assert cfg.eval_every is None
        assert cfg.seeds == (4,)
        assert cfg.kinematics.accel == 3 and cfg.kinematics.max_speed == DEFAULT_KINEMATICS.max_speed
        assert cfg.fingerprint() == ExperimentConfig(
            gamma=1, seeds=(4,), kinematics=dataclasses.replace(DEFAULT_KINEMATICS, accel=3)
        ).fingerprint()

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError, match="unknown config keys"):
            ExperimentConfig.from_dict({"learning_rate": 0.1})

    def test_validation(self):
        with pytest.raises(ValueError):
            ExperimentConfig(gamma=1.5)
        with pytest.raises(ValueError):
            ExperimentConfig(seeds=())
        with pytest.raises(ValueError):
            ExperimentConfig(epsilon_start=0.1, epsilon_end=0.5)

    def test_defaults_follow_settings_block(self):
        cfg = ExperimentConfig()
        assert cfg.horizon == 3600
        assert cfg.gamma == 0.8
        assert cfg.lr == 0.001
        assert cfg.buffer_capacity == 10_000
        assert cfg.batch_size == 32
        assert cfg.target_sync == 5
        assert (cfg.epsilon_start, cfg.epsilon_end) == (0.8, 0.2)
        assert cfg.yellow == 5
        assert cfg.kinematics.accel == 2.0
        assert cfg.kinematics.max_speed == pytest.approx(40 / 3.6)


class TestRunEpisode:
    def test_zero_demand(self):
        cfg = ExperimentConfig(horizon=120)
        net = build_network(cfg)
        result = run_episode(
            cfg, FixedTimeController(cfg.controller), scenario=(net, [], cfg.kinematics)
        )
        assert result.metrics.throughput == 0
        assert result.metrics.average_travel_time == 0.0
        assert result.metrics.generated == 0

    def test_fixed_time_is_reproducible(self):
        cfg = ExperimentConfig(horizon=400)
        a = run_single(cfg, seed=0)
        b = run_single(cfg, seed=0)
        assert a.metrics.to_dict() == b.metrics.to_dict()
        assert a.decisions and a.decisions == b.decisions

    def test_throughput_bounded_by_demand(self):
        cfg = ExperimentConfig(horizon=900)
        result = run_single(cfg, seed=0)
        generated = result.metrics.generated
        assert generated == 12 * 45
        assert 0 < result.metrics.throughput <= generated

    def test_dynamic_durations_lie_in_range(self):
        cfg = ExperimentConfig(
            horizon=600,
            controller=ControllerConfig(kind="greedy_prcol", duration_mode="dynamic"),
        )
        result = run_single(cfg, seed=0)
        assert result.decisions
        assert all(10 <= d.green_duration <= 20 for d in result.decisions)

    @pytest.mark.parametrize("kind", ["fixed", "maxpressure"])
    def test_dynamic_durations_apply_to_every_kind(self, kind):
        controller = ControllerConfig(kind=kind, duration_mode="dynamic")
        cfg = ExperimentConfig(flow={"kind": "syn-heavy"}, controller=controller)
        greens = {d.green_duration for d in run_single(cfg, seed=0).decisions}
        assert greens <= set(range(controller.green_min, controller.green_max + 1))
        assert greens != {controller.green_fixed}

    @pytest.mark.parametrize("kind", ["fixed", "maxpressure", "greedy_prcol", "dqn"])
    def test_only_the_dqn_is_observed(self, kind, monkeypatch):
        observed = []
        observe = World.observe

        def spy(world, intersection_id):
            observed.append((world.time, intersection_id))
            return observe(world, intersection_id)

        monkeypatch.setattr(World, "observe", spy)
        cfg = ExperimentConfig(horizon=300, controller=ControllerConfig(kind=kind))
        qnet = QNetwork(layer_sizes=(16, 8, 4), rng=np.random.default_rng(0)) if kind == "dqn" else None
        result = run_single(cfg, 0, checkpoint=qnet)
        assert result.decisions
        expected = [(d.time, d.intersection) for d in result.decisions] if kind == "dqn" else []
        assert observed == expected

    @pytest.mark.parametrize("mode", ["fixed", "dynamic"])
    @pytest.mark.parametrize("kind", ["fixed", "maxpressure", "greedy_prcol", "dqn"])
    def test_one_hooked_call_per_decision(self, kind, mode, monkeypatch):
        # the benchmark hooks each controller class's decide and World.apply_decision:
        # a decision scored in a block must still pass through both, once
        calls = collections.Counter()

        def spy(owner, name):
            original = getattr(owner, name)

            def counted(*args, **kwargs):
                calls[owner.__name__, name] += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(owner, name, counted)

        for cls in (FixedTimeController, MaxPressureController, GreedyPrcolController, DQNController):
            spy(cls, "decide")
        spy(World, "apply_decision")
        cfg = ExperimentConfig(horizon=300, controller=ControllerConfig(kind=kind, duration_mode=mode))
        decisions = run_single(cfg, 0).decisions
        own = type(build_controller(cfg.controller, net=QNetwork())).__name__
        assert decisions
        assert calls == {(own, "decide"): len(decisions), ("World", "apply_decision"): len(decisions)}

    def test_interval_outcomes_are_recorded(self):
        cfg = ExperimentConfig(horizon=300)
        result = run_single(cfg, seed=0)
        closed = [d for d in result.decisions if d.actual_discharged is not None]
        assert len(closed) == len(result.decisions)
        assert all(d.actual_discharged >= 0 for d in closed)
        assert all(d.actual_discharged <= d.ideal_npass for d in closed)


class TestStreaming:
    """An episode writes its telemetry as it runs and keeps no steps."""

    def test_steps_are_freed_block_by_block(self, tmp_path, monkeypatch):
        cfg = ExperimentConfig(
            flow={"kind": "syn-heavy"},
            controller=ControllerConfig(kind="greedy_prcol", duration_mode="dynamic"),
        )
        block = telemetry._RowTables(build_network(cfg)).ticks
        assert block < 500
        refs: list[weakref.ref] = []
        alive: list[int] = []
        write = experiment.write_telemetry_csv

        def spy(path, net, steps):
            def watched():
                for step in steps:
                    refs.append(weakref.ref(step))
                    if len(refs) % 500 == 0:
                        gc.collect()
                        alive.append(sum(ref() is not None for ref in refs))
                    yield step

            write(path, net, watched())

        monkeypatch.setattr(experiment, "write_telemetry_csv", spy)
        result = run_single(cfg, seed=0, out_dir=str(tmp_path))
        assert len(refs) == cfg.horizon
        assert len(alive) == cfg.horizon // 500
        assert max(alive) <= block, (alive, block)
        assert result.steps is None
        assert (tmp_path / "metrics.json").exists()

    def test_without_out_dir_steps_collect_nothing(self, monkeypatch):
        collected = []
        step = World.step

        def spy(world, collect=True):
            collected.append(collect)
            return step(world, collect)

        monkeypatch.setattr(World, "step", spy)
        cfg = ExperimentConfig(horizon=300)
        result = run_single(cfg, seed=0)
        assert collected == [False] * cfg.horizon
        assert result.steps is None and result.decisions

    def test_failed_episode_leaves_partial_telemetry_and_no_metrics(self, tmp_path, monkeypatch):
        build = experiment.build_controller

        class FailsAt100:
            def __init__(self, inner):
                self.inner = inner

            def score(self, world, intersection_ids, counts):
                self.inner.score(world, intersection_ids, counts)

            def decide(self, world, intersection_id, obs):
                if world.time >= 100:
                    raise RuntimeError("controller fault at t=100")
                return self.inner.decide(world, intersection_id, obs)

        monkeypatch.setattr(experiment, "build_controller", lambda *a, **kw: FailsAt100(build(*a, **kw)))
        with pytest.raises(RuntimeError, match="t=100"):
            run_single(ExperimentConfig(horizon=300), seed=0, out_dir=str(tmp_path))
        with open(tmp_path / "telemetry.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        assert tuple(rows[0]) == telemetry.TELEMETRY_HEADER
        times = [int(row[0]) for row in rows[1:]]
        assert times and max(times) < 100
        assert len(rows[1:]) % 9 == 0
        assert not (tmp_path / "metrics.json").exists()
        assert not (tmp_path / "decisions.csv").exists()


class TestMemory:
    """An episode keeps each fact once, and a run holds one world at a time."""

    def test_records_and_events_have_no_dict(self):
        record = DecisionRecord(0, "i_0_0", 0, 10, False, (0,) * 12, 0)
        event = SpawnEvent(0, ("rd",))
        assert not hasattr(record, "__dict__") and not hasattr(event, "__dict__")

    def test_equal_count_rows_are_one_object(self):
        decisions = run_single(ExperimentConfig(horizon=600), seed=0).decisions
        rows = {rec.counts for rec in decisions}
        assert len(rows) < len(decisions)
        assert len({id(rec.counts) for rec in decisions}) == len(rows)

    def test_training_frees_each_world_before_the_next(self, monkeypatch):
        worlds: list[weakref.ref] = []
        alive: list[int] = []

        class Watched(World):
            def __init__(self, *args, **kwargs):
                gc.collect()
                alive.append(sum(ref() is not None for ref in worlds))
                super().__init__(*args, **kwargs)
                worlds.append(weakref.ref(self))

        monkeypatch.setattr(experiment, "World", Watched)
        cfg = ExperimentConfig(
            horizon=60, controller=ControllerConfig(kind="dqn"), episodes=3, seeds=(0,), eval_every=2
        )
        train(cfg, seed=0)
        # three learning episodes, one interim and two final greedy evaluations
        assert alive == [0] * 6


class TestFileBasedInputs:
    def test_roadnet_and_flow_files_drive_a_run(self, tmp_path):
        from gridlight.flows import save_flow_file, syn_light_flows
        from gridlight.network import build_grid
        from gridlight.roadnet import save_roadnet

        net = build_grid(3, 3, 300, 300)
        roadnet_path = tmp_path / "roadnet.json"
        flow_path = tmp_path / "flow.json"
        save_roadnet(net, str(roadnet_path))
        save_flow_file(syn_light_flows(net, horizon=600), str(flow_path))
        cfg = ExperimentConfig(
            network={"kind": "roadnet", "path": str(roadnet_path)},
            flow={"kind": "file", "path": str(flow_path)},
            horizon=600,
        )
        result = run_single(cfg, seed=0)
        assert result.metrics.generated == 12 * 30
        assert result.metrics.throughput > 0

    def test_flow_file_vehicle_fields_override_kinematics(self, tmp_path):
        import json

        from gridlight.flows import syn_light_flows
        from gridlight.network import build_grid

        net = build_grid(3, 3, 300, 300)
        flow = syn_light_flows(net, horizon=200)[0]
        records = [
            {
                "vehicle": {"length": 4.0, "minGap": 2.0, "maxSpeed": 10.0, "acceleration": 3.0},
                "route": list(flow.route),
                "interval": 20,
                "startTime": 0,
                "endTime": 199,
            }
        ]
        flow_path = tmp_path / "flow.json"
        flow_path.write_text(json.dumps(records))
        cfg = ExperimentConfig(flow={"kind": "file", "path": str(flow_path)}, horizon=200)
        net2 = build_network(cfg)
        _, kin = build_events(cfg, net2)
        assert (kin.vehicle_length, kin.min_gap, kin.max_speed, kin.accel) == (4.0, 2.0, 10.0, 3.0)

    def test_flow_file_events_stop_at_the_horizon(self, tmp_path):
        import json

        from gridlight.network import build_grid

        route = ["rd__b_w_0__i_0_0", "rd__i_0_0__i_0_1", "rd__i_0_1__i_0_2", "rd__i_0_2__b_e_0"]
        records = [
            {"route": route, "interval": 1, "startTime": 0, "endTime": 500_000},
            {"route": route, "interval": 2.5, "startTime": 1, "endTime": 500_000},
        ]
        flow_path = tmp_path / "flow.json"
        flow_path.write_text(json.dumps(records))
        cfg = ExperimentConfig(flow={"kind": "file", "path": str(flow_path)}, horizon=30)
        events, _ = build_events(cfg, build_grid(3, 3, 300, 300))
        # 0..29 every second; 1, 3.5, 6, ... 28.5 every 2.5 s, spawning at the whole second
        assert [e.time for e in events] == sorted(list(range(30)) + [int(1 + 2.5 * k) for k in range(12)])

    def test_event_cap_counts_departures_before_the_horizon(self, tmp_path):
        from gridlight.flows import load_flow_file
        from gridlight.network import build_grid

        route = ["rd__b_w_0__i_0_0", "rd__i_0_0__i_0_1", "rd__i_0_1__i_0_2", "rd__i_0_2__b_e_0"]
        flow_path = tmp_path / "flow.json"
        # 1,000,001 departures in all, over the cap; 30 of them before the horizon
        flow_path.write_text(json.dumps([{"route": route, "interval": 1, "startTime": 0, "endTime": 1_000_000}]))
        cfg = ExperimentConfig(flow={"kind": "file", "path": str(flow_path)}, horizon=30)
        net = build_grid(3, 3, 300, 300)
        events, _ = build_events(cfg, net)
        assert [e.time for e in events] == list(range(30))
        with pytest.raises(ValueError, match="1e\\+06 departures, over the limit of 1000000"):
            load_flow_file(str(flow_path), net)


class TestEvaluate:
    def _dqn_config(self, **kw):
        return ExperimentConfig(
            horizon=300, controller=ControllerConfig(kind="dqn"), episodes=2, **kw
        )

    def test_rejects_non_dqn_config(self):
        with pytest.raises(ValueError):
            evaluate(ExperimentConfig(), QNetwork())

    def test_architecture_mismatch_faults(self, tmp_path):
        bad = QNetwork(layer_sizes=(8, 8, 4))
        path = str(tmp_path / "bad.npz")
        save_checkpoint(bad, path)
        with pytest.raises(ValueError, match="architecture"):
            evaluate(self._dqn_config(), path)

    def test_deterministic_given_parameters(self):
        cfg = self._dqn_config()
        net = QNetwork(rng=np.random.default_rng(8))
        a = evaluate(cfg, net, seed=1)
        b = evaluate(cfg, net, seed=1)
        assert a.to_dict() == b.to_dict()
        assert a.average_travel_time <= cfg.horizon


class TestTrain:
    def test_single_episode_curve(self):
        cfg = ExperimentConfig(
            horizon=300, controller=ControllerConfig(kind="dqn"), episodes=1, seeds=(0,)
        )
        run = train(cfg, seed=0)
        assert len(run.curve) == 1
        assert run.curve[0]["epsilon"] == 0.2  # one-episode schedule sits at the floor

    def test_epsilon_endpoints_logged(self):
        cfg = ExperimentConfig(
            horizon=300, controller=ControllerConfig(kind="dqn"), episodes=3, seeds=(0,)
        )
        run = train(cfg, seed=0)
        assert run.curve[0]["epsilon"] == 0.8
        assert run.curve[-1]["epsilon"] == 0.2

    def test_rejects_non_dqn(self):
        with pytest.raises(ValueError):
            train(ExperimentConfig(), seed=0)

    @pytest.mark.parametrize("mode", ["fixed", "dynamic"])
    def test_counts_are_read_only_for_the_terminal_rewards(self, mode, monkeypatch):
        # a tick's rewards and greens come from its one gather of the due rows, so
        # only the episode's end reads an intersection's counts: its terminal reward
        read = []
        movement_counts = World.movement_counts

        def spy(world, intersection_id):
            read.append((world.time, intersection_id))
            return movement_counts(world, intersection_id)

        monkeypatch.setattr(World, "movement_counts", spy)
        cfg = ExperimentConfig(
            horizon=300, controller=ControllerConfig(kind="dqn", duration_mode=mode), episodes=1, seeds=(0,)
        )
        train(cfg, seed=0)
        assert sorted(read) == [(300, f"i_{r}_{c}") for r in range(3) for c in range(3)]

    def test_target_sync_that_never_fires_is_rejected_before_any_episode(self, monkeypatch):
        cfg = ExperimentConfig(
            horizon=300, controller=ControllerConfig(kind="dqn"), episodes=2, seeds=(0,), target_sync=100_000
        )
        monkeypatch.setattr(experiment, "run_episode", lambda *args, **kwargs: pytest.fail("an episode ran"))
        with pytest.raises(ValueError, match=r"target_sync \(100000\) exceeds the 540 train steps") as info:
            train(cfg, seed=0)
        assert len(str(info.value).splitlines()) == 1

    @pytest.mark.parametrize(
        "controller,bound",
        [
            # 1 episode x 9 intersections x ceil(30 / 10) decisions
            (ControllerConfig(kind="dqn"), 27),
            # ceil(30 / 7) = 5 decisions: a dynamic green is at least green_min
            (ControllerConfig(kind="dqn", duration_mode="dynamic", green_fixed=30, green_min=7), 45),
        ],
        ids=["fixed", "dynamic"],
    )
    def test_target_sync_at_the_bound_is_accepted(self, controller, bound):
        cfg = ExperimentConfig(horizon=30, controller=controller, episodes=1, seeds=(0,), target_sync=bound)
        assert len(train(cfg, seed=0).curve) == 1
        with pytest.raises(ValueError, match=f"target_sync \\({bound + 1}\\) exceeds the {bound} train steps"):
            check_target_sync(dataclasses.replace(cfg, target_sync=bound + 1), build_network(cfg))

    def test_diverging_loss_stops_at_its_episode(self):
        cfg = ExperimentConfig(
            horizon=600, controller=ControllerConfig(kind="dqn"), episodes=2, seeds=(0,), lr=1e6
        )
        with pytest.raises(RuntimeError, match="non-finite loss in episode 0"):
            train(cfg, seed=0)

    def test_final_checkpoint_reproduces_logged_eval(self, tmp_path):
        cfg = ExperimentConfig(
            horizon=400, controller=ControllerConfig(kind="dqn"), episodes=2, seeds=(0,)
        )
        run = train(cfg, seed=0, out_dir=str(tmp_path))
        again = evaluate(cfg, str(tmp_path / "checkpoint_final.npz"), seed=0)
        assert again.to_dict() == run.final_eval.to_dict()
        assert (tmp_path / "learning_curve.csv").exists()
        assert (tmp_path / "checkpoint_best.npz").exists()


class TestTrainMany:
    def test_parallel_workers_match_serial(self, tmp_path):
        cfg = ExperimentConfig(
            horizon=300, controller=ControllerConfig(kind="dqn"), episodes=2, seeds=(0, 1)
        )
        serial = train_many(cfg, out_dir=str(tmp_path / "serial"), jobs=1)
        parallel = train_many(cfg, out_dir=str(tmp_path / "parallel"), jobs=2)
        files = [json.loads((tmp_path / run / "summary.json").read_text()) for run in ("serial", "parallel")]
        for summary in (serial, parallel, *files):
            for payload in summary["per_seed"].values():
                payload.pop("wall_clock")
        assert parallel == serial
        assert files[0] == files[1] == json.loads(json.dumps(serial))

    def test_pool_never_outnumbers_the_seeds(self, monkeypatch):
        # a stub pool that maps in this process: no worker is ever started
        sizes = []

        class SerialPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks):
                return map(fn, tasks)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
        cfg = ExperimentConfig(horizon=30, controller=ControllerConfig(kind="dqn"), episodes=1, seeds=(0, 1, 2))
        summary = train_many(cfg, jobs=500)
        assert sizes == [3] and list(summary["per_seed"]) == ["0", "1", "2"]
        train_many(dataclasses.replace(cfg, seeds=(0,)), jobs=500)
        assert sizes == [3]  # a lone seed trains in this process, without a pool


def synthetic_record(rng, phase=None, time=0):
    counts = [int(rng.integers(0, 20)) for _ in range(12)]
    rec = DecisionRecord(
        time=time,
        intersection="i_0_0",
        phase=0,
        green_duration=10,
        switched=False,
        counts=tuple(counts),
        ideal_npass=int(rng.integers(0, 20)),
        actual_discharged=int(rng.integers(0, 10)),
    )
    if phase is None:
        rec.phase = int(rng.integers(4))
    else:
        rec.phase = phase
    return rec


class TestCaseStudy:
    def test_single_decision_on_unique_max(self):
        rec = DecisionRecord(
            time=0,
            intersection="i_0_0",
            phase=0,
            green_duration=10,
            switched=False,
            counts=(0, 9, 0, 0, 9, 0, 0, 1, 0, 0, 1, 0, 0, 0, 0, 0)[:12],
            ideal_npass=5,
            actual_discharged=4,
        )
        study = case_study([rec])
        assert study.unique_max_decisions == 1
        assert study.max_choice_frequency == 1.0
        assert study.phase_choice_counts == (1, 0, 0, 0)

    def test_uniform_random_choices_sit_near_quarter(self):
        rng = np.random.default_rng(17)
        records = [synthetic_record(rng, time=t) for t in range(10_000)]
        study = case_study(records)
        assert abs(study.max_choice_frequency - 0.25) < 0.03

    def test_duration_table_aggregates(self):
        rng = np.random.default_rng(5)
        records = [synthetic_record(rng) for _ in range(50)]
        study = case_study(records)
        total = sum(slot["intervals"] for slot in study.duration_table.values())
        assert total == 50
        for slot in study.duration_table.values():
            assert slot["ideal_mean"] == pytest.approx(slot["ideal_total"] / slot["intervals"])

    def test_write_case_study_outputs(self, tmp_path):
        rng = np.random.default_rng(6)
        records = [synthetic_record(rng) for _ in range(20)]
        write_case_study(str(tmp_path), records)
        assert (tmp_path / "case_study.csv").exists()
        assert (tmp_path / "case_study_summary.json").exists()

    def test_id_that_needs_quoting_round_trips(self, tmp_path):
        plain = DecisionRecord(0, "i_0_0", 1, 10, True, tuple(range(12)), 5, None)
        odd = dataclasses.replace(plain, time=5, intersection='a,"b', actual_discharged=3)
        write_case_study(str(tmp_path), [plain, odd])
        with open(tmp_path / "case_study.csv", newline="", encoding="utf-8") as fh:
            text = fh.read()
        assert text.splitlines()[1] == "0,i_0_0,1,10,2.5,8.5,1.5,7.5,1,5,"  # plain ids stay unquoted
        rows = list(csv.reader(io.StringIO(text)))
        assert [len(row) for row in rows] == [11, 11, 11]
        assert rows[2] == ["5", 'a,"b', "1", "10", "2.5", "8.5", "1.5", "7.5", "1", "5", "3"]


class TestDecisionsCsvRoundTrip:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(2)
        records = [synthetic_record(rng, time=t) for t in range(25)]
        records[3].actual_discharged = None
        path = str(tmp_path / "decisions.csv")
        write_decisions_csv(path, records)
        loaded = read_decisions_csv(path)
        assert len(loaded) == len(records)
        for a, b in zip(records, loaded):
            assert (a.time, a.intersection, a.phase, a.green_duration) == (
                b.time, b.intersection, b.phase, b.green_duration,
            )
            assert a.counts == b.counts
            assert a.actual_discharged == b.actual_discharged
