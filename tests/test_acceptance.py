"""Acceptance suite.

Thirteen criteria, one test each, every test printing a
``ACCEPTANCE <n> PASS`` line with its headline numbers (run with ``-s`` to
see them).  Criteria 10-12 train the DQN and carry the ``training`` marker;
deselect them with ``-m "not training"`` when a quick pass is needed.

 1. PRCOL arithmetic exact + bounds/monotonicity fuzz (10^4), < 1 s
 2. platoon clearance closed form vs 1 ms integration, n in [1, 100], < 5 s
 3. n_pass trio exact; dynamic-run green durations always within [10, 20] s
 4. lane capacities 40/106/80/46/13 for 300/800/600/350/100 m, exact
 5. analytic vs finite-difference gradients (20 nets) and frozen-batch
    descent, < 30 s
 6. max-pressure decision == brute-force enumeration, 1000 vectors, ties
    included, exact
 7. conservation + capacity at every step over 100 fuzzed episodes, < 60 s
 8. Syn-Light 2160 events, Syn-Heavy 8640, flow-file round trip identity
 9. spillback: full outgoing lanes zero the movement PRCOL and the greedy
    rule never picks the blocked phase (1000 trials)
10. [training] Syn-Light, 100 episodes x 3 seeds: median greedy-eval travel
    time of the PRCOL DQN strictly below FixedTime
11. [training] Syn-Heavy, identical budget/seeds: PRCOL-reward median <=
    pressure-reward median
12. [training] every recorded green interval delivers <= its promised
    n_pass; trained Syn-Heavy policy picks the busiest phase more often
    than the 0.25 random baseline
13. two runs with identical config and seed produce byte-identical
    metrics.json and telemetry.csv
"""

import json
import statistics
import time

import numpy as np
import pytest

from gridlight.cli import main as cli_main
from gridlight.control import ControllerConfig, best_phase
from gridlight.engine import World
from gridlight.experiment import (
    ExperimentConfig,
    case_study,
    evaluate,
    run_single,
    train_many,
)
from gridlight.flows import (
    FlowSpec,
    expand_flows,
    gen_syn_heavy,
    gen_syn_light,
    load_flow_file,
    save_flow_file,
    straight_route,
    syn_heavy_flows,
    syn_light_flows,
)
from gridlight.learner import QNetwork, Transition, forward_batch, train_step
from gridlight.network import build_grid, lane_capacity, standard_phase_table
from gridlight.signalmath import (
    DEFAULT_KINEMATICS,
    MovementCounts,
    n_pass,
    platoon_clear_time,
    prcol,
)

from helpers import departures


def ok(n: int, detail: str) -> None:
    print(f"ACCEPTANCE {n:>2} PASS — {detail}")


# ---------------------------------------------------------------- criterion 1


def test_criterion_01_prcol_unit_suite():
    started = time.perf_counter()
    assert prcol(MovementCounts(10, 20, 40)) == 5.0
    assert prcol(MovementCounts(7, 40, 40)) == 0.0
    assert prcol(MovementCounts(12, 0, 40)) == 12.0
    rng = np.random.default_rng(2024)
    for _ in range(10_000):
        n_max = int(rng.integers(1, 100))
        n_out = int(rng.integers(0, n_max + 1))
        n_in = int(rng.integers(0, 100))
        c = MovementCounts(n_in, n_out, n_max)
        value = prcol(c)
        assert 0.0 <= value <= n_in
        assert (value == 0.0) == (n_in == 0 or n_out == n_max)
        if n_out < n_max:
            assert prcol(MovementCounts(n_in + 1, n_out, n_max)) > value
        if n_in > 0 and n_out < n_max:
            assert prcol(MovementCounts(n_in, n_out + 1, n_max)) < value
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    ok(1, f"exact trio + 10^4-sample bounds/monotonicity fuzz in {elapsed:.2f} s")


# ---------------------------------------------------------------- criterion 2


def integrated_clear_times(n_max: int, dt: float = 1e-3) -> list[float]:
    """One forward integration, recording each platoon size's clearance."""
    k = DEFAULT_KINEMATICS
    targets = [(n - 1) * k.headway + k.vehicle_length for n in range(1, n_max + 1)]
    times = []
    x = v = t = 0.0
    nxt = 0
    while nxt < len(targets):
        v = min(k.max_speed, v + k.accel * dt)
        x += v * dt
        t += dt
        while nxt < len(targets) and x >= targets[nxt]:
            times.append(t)
            nxt += 1
    return times


def test_criterion_02_platoon_kinematics():
    started = time.perf_counter()
    assert platoon_clear_time(1) == pytest.approx(2.236, abs=1e-3)
    assert platoon_clear_time(10) == pytest.approx(9.303, abs=1e-3)
    assert platoon_clear_time(20) == pytest.approx(16.053, abs=1e-3)
    oracle = integrated_clear_times(100)
    worst = 0.0
    for n in range(1, 101):
        err = abs(platoon_clear_time(n) - oracle[n - 1])
        worst = max(worst, err)
        assert err <= 0.05
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0
    ok(2, f"closed form vs 1 ms integration, n in [1,100], max |err| {worst:.4f} s, {elapsed:.2f} s")


# ---------------------------------------------------------------- criterion 3


def test_criterion_03_dynamic_durations():
    assert n_pass(MovementCounts(15, 35, 40)) == 5
    assert n_pass(MovementCounts(3, 0, 40)) == 3
    assert n_pass(MovementCounts(9, 40, 40)) == 0
    config = ExperimentConfig(
        flow={"kind": "syn-heavy"},
        controller=ControllerConfig(kind="greedy_prcol", duration_mode="dynamic"),
    )
    result = run_single(config, seed=0)
    durations = [d.green_duration for d in result.decisions]
    assert durations and all(10 <= g <= 20 for g in durations)
    ok(3, f"n_pass trio exact; {len(durations)} dynamic durations all in [10, 20] s")


# ---------------------------------------------------------------- criterion 4


def test_criterion_04_capacity_arithmetic():
    expected = {300: 40, 800: 106, 600: 80, 350: 46, 100: 13}
    for length, cap in expected.items():
        assert lane_capacity(length, 5.0, 2.5) == cap
    ok(4, "capacities 40/106/80/46/13 for 300/800/600/350/100 m, exact")


# ---------------------------------------------------------------- criterion 5


def _fast_loss(net, states, actions, targets):
    q = forward_batch(net, states)[np.arange(len(actions)), actions]
    return float(np.mean((q - targets) ** 2))


def _kink_free(net, states, margin=1e-3):
    """No hidden pre-activation near its rectifier kink: finite differences
    with step 1e-5 perturb pre-activations by at most ~5e-5 here, so a 1e-3
    margin keeps every +-h evaluation on one side of the kink."""
    h = np.asarray(states, dtype=float)
    for i, (w, b) in enumerate(zip(net.weights[:-1], net.biases[:-1])):
        z = h @ w.T + b
        if np.abs(z).min() < margin:
            return False
        h = np.maximum(z, 0.0)
    return True


def _stacked(transitions) -> Transition:
    """A batch of stacked rows, the layout ReplayBuffer.sample returns."""
    return Transition(*map(np.array, zip(*transitions)))


def test_criterion_05_dqn_numerics():
    started = time.perf_counter()
    rng = np.random.default_rng(7)
    gamma = 0.8
    worst_rel = 0.0
    for trial in range(20):
        net = QNetwork(rng=rng)
        target_net = QNetwork(rng=rng)
        B = 8
        while True:
            draws = [
                Transition(
                    s=rng.uniform(0, 5, size=16),
                    a=int(rng.integers(4)),
                    r=float(rng.normal(scale=10)),
                    s_next=rng.uniform(0, 5, size=16),
                    terminal=bool(rng.random() < 0.2),
                )
                for _ in range(B)
            ]
            batch = _stacked(draws)
            if _kink_free(net, batch.s):
                break
        states, actions, rewards, next_states, terminal = batch
        best_next = forward_batch(target_net, next_states).max(axis=1)
        targets = rewards + gamma * best_next * (~terminal)

        probe = net.copy()
        train_step(probe, target_net, batch, gamma, lr=1.0)
        analytic = np.concatenate(
            [(w - pw).ravel() for w, pw in zip(net.weights, probe.weights)]
            + [(b - pb).ravel() for b, pb in zip(net.biases, probe.biases)]
        )

        h = 1e-5
        numeric = np.empty_like(analytic)
        cursor = 0
        for tensor in net.weights + net.biases:
            flat = tensor.reshape(-1)
            for i in range(flat.size):
                keep = flat[i]
                flat[i] = keep + h
                up = _fast_loss(net, states, actions, targets)
                flat[i] = keep - h
                down = _fast_loss(net, states, actions, targets)
                flat[i] = keep
                numeric[cursor] = (up - down) / (2 * h)
                cursor += 1
        rel = np.linalg.norm(analytic - numeric) / max(np.linalg.norm(numeric), 1e-12)
        worst_rel = max(worst_rel, rel)
        assert rel <= 1e-4, f"trial {trial}: relative error {rel:.2e}"

    net = QNetwork(rng=rng)
    target_net = QNetwork(rng=rng)
    frozen = _stacked(
        [
            Transition(
                s=rng.uniform(0, 5, size=16),
                a=int(rng.integers(4)),
                r=float(rng.normal(scale=10)),
                s_next=rng.uniform(0, 5, size=16),
                terminal=False,
            )
            for _ in range(32)
        ]
    )
    losses = [train_step(net, target_net, frozen, gamma, lr=0.001) for _ in range(50)]
    for a, b in zip(losses[5:], losses[6:]):
        assert b <= a + 1e-9
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    ok(5, f"20 gradient checks, worst rel err {worst_rel:.2e}; 50-step descent; {elapsed:.1f} s")


# ---------------------------------------------------------------- criterion 6


def phase_columns(inter) -> list[list[int]]:
    """Per phase, the canonical positions of the movements it serves, by id."""
    column = {m.id: j for j, m in enumerate(inter.movements)}
    return [[column[f"{inter.id}:{a}:{t.value}"] for a, t in pair] for pair in standard_phase_table()]


def test_criterion_06_maxpressure_oracle():
    net = build_grid(1, 1, 300, 300)
    inter = net.intersections[0]
    columns = phase_columns(inter)
    rng = np.random.default_rng(99)
    ties_seen = 0
    for trial in range(1000):
        # small ranges on even trials force frequent score ties
        hi = 4 if trial % 2 == 0 else 30
        draws = np.array([(rng.integers(0, hi), rng.integers(0, hi)) for _ in inter.movements])
        counts = MovementCounts(draws[:, 0], draws[:, 1], np.full(12, 40))
        # brute force: the two movement pressures of each phase, summed by hand
        scores = []
        for a, b in columns:
            scores.append(
                float(counts.n_in[a] - counts.n_out[a]) + float(counts.n_in[b] - counts.n_out[b])
            )
        best = scores.index(max(scores))
        if scores.count(max(scores)) > 1:
            ties_seen += 1
        assert best_phase(counts, columns, "pressure") == best
    assert ties_seen > 0
    ok(6, f"1000 random count vectors match brute force, {ties_seen} ties broken low")


# ---------------------------------------------------------------- criterion 7


def test_criterion_07_engine_invariants_fuzz():
    started = time.perf_counter()
    steps_checked = 0
    for episode in range(100):
        rng = np.random.default_rng(10_000 + episode)
        net = build_grid(1, 2, 120, 90)
        flows = [
            FlowSpec(straight_route(net, road_id), start=0, end=599, interval=int(rng.integers(2, 15)))
            for road_id, _ in net.entry_roads
        ]
        world = World(net, expand_flows(flows))
        lanes = list(world.lanes.values())
        for _ in range(600):
            for r in world.due_signals().tolist():
                inter = net.intersections[r]
                world.apply_decision(
                    inter.id, int(rng.integers(4)), int(rng.integers(10, 21))
                )
            world.step(collect=False)
            steps_checked += 1
            on_network = 0
            for ls in lanes:
                occ = len(ls.vehicles)
                assert occ <= ls.lane.capacity
                on_network += occ
            assert world.entered_total == on_network + world.buffered_count() + world.exited_total
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    ok(7, f"conservation + capacity at {steps_checked} step boundaries over 100 episodes, {elapsed:.1f} s")


# ---------------------------------------------------------------- criterion 8


def test_criterion_08_flow_generation(tmp_path):
    net = build_grid(3, 3, 300, 300)
    light = gen_syn_light(net)
    heavy = gen_syn_heavy(net)
    assert len(light) == 2160
    assert len(heavy) == 8640
    for flows in (syn_light_flows(net), syn_heavy_flows(net)):
        path = str(tmp_path / "flow.json")
        save_flow_file(flows, path)
        reloaded = load_flow_file(path, net)
        assert reloaded == flows
        assert departures(expand_flows(reloaded)) == departures(expand_flows(flows))
    ok(8, "2160 light / 8640 heavy events; flow-file round trip is identity")


# ---------------------------------------------------------------- criterion 9


def test_criterion_09_spillback_behavior():
    net = build_grid(1, 1, 300, 300)
    inter = net.intersections[0]
    columns = phase_columns(inter)
    rng = np.random.default_rng(31)
    for _ in range(1000):
        blocked = int(rng.integers(4))
        unblocked = int((blocked + 1 + rng.integers(3)) % 4)
        draws = np.array([(rng.integers(0, 20), rng.integers(0, 41)) for _ in inter.movements])
        n_in, n_out = draws[:, 0], draws[:, 1]
        for j in columns[blocked]:
            n_in[j], n_out[j] = rng.integers(1, 20), 40
        for j in columns[unblocked]:
            n_in[j], n_out[j] = rng.integers(1, 20), rng.integers(0, 20)
        counts = MovementCounts(n_in, n_out, np.full(12, 40))
        for j in columns[blocked]:
            assert prcol(counts)[j] == 0.0
        assert best_phase(counts, columns, "prcol") != blocked
    ok(9, "full outgoing lanes: movement PRCOL = 0 and the blocked phase never chosen (1000 trials)")


# ------------------------------------------------------- criteria 10-12 setup


SEEDS = (0, 1, 2)

LIGHT_DQN = ExperimentConfig(
    controller=ControllerConfig(kind="dqn", reward_kind="prcol"),
    episodes=100,
    seeds=SEEDS,
)

# identical budget and seeds for both reward variants; counts normalized by
# lane capacity, which congested training needs (see README / ControllerConfig)
HEAVY_EPISODES = 40


def heavy_config(reward_kind: str) -> ExperimentConfig:
    return ExperimentConfig(
        flow={"kind": "syn-heavy"},
        controller=ControllerConfig(kind="dqn", reward_kind=reward_kind, obs_scale=0.025),
        episodes=HEAVY_EPISODES,
        seeds=SEEDS,
    )


@pytest.fixture(scope="module")
def heavy_trainings(tmp_path_factory):
    root = tmp_path_factory.mktemp("heavy")
    results = {}
    for reward_kind in ("prcol", "pressure"):
        out = root / reward_kind
        out.mkdir()
        results[reward_kind] = {
            "runs": train_many(heavy_config(reward_kind), str(out), jobs=2)["per_seed"],
            "out": out,
        }
    return results


@pytest.mark.training
def test_criterion_10_learning_beats_fixed_time():
    started = time.perf_counter()
    runs = train_many(LIGHT_DQN, jobs=2)["per_seed"]
    median_dqn = statistics.median(r["final_eval"]["average_travel_time"] for r in runs.values())
    fixed = run_single(ExperimentConfig(controller=ControllerConfig(kind="fixed")), seed=0)
    fixed_att = fixed.metrics.average_travel_time
    elapsed = time.perf_counter() - started
    assert median_dqn < fixed_att
    assert elapsed < 15 * 60
    ok(
        10,
        f"median greedy-eval travel time {median_dqn:.1f} s < FixedTime {fixed_att:.1f} s "
        f"(100 episodes x {len(SEEDS)} seeds, {elapsed / 60:.1f} min)",
    )


@pytest.mark.training
def test_criterion_11_reward_variant_ordering(heavy_trainings):
    prcol_med, pressure_med = (
        statistics.median(r["final_eval"]["average_travel_time"] for r in heavy_trainings[kind]["runs"].values())
        for kind in ("prcol", "pressure")
    )
    walls = sum(
        r["wall_clock"] for kind in ("prcol", "pressure") for r in heavy_trainings[kind]["runs"].values()
    )
    assert prcol_med <= pressure_med
    assert walls < 30 * 60  # total training compute within the stated budget
    ok(
        11,
        f"Syn-Heavy medians: PRCOL {prcol_med:.1f} s <= pressure {pressure_med:.1f} s "
        f"({HEAVY_EPISODES} episodes x {len(SEEDS)} seeds each, "
        f"{walls / 60:.1f} min of training)",
    )


@pytest.mark.training
def test_criterion_12_case_study_consistency(heavy_trainings, tmp_path):
    # structural half on a deterministic dynamic-duration run
    dynamic = run_single(
        ExperimentConfig(
            flow={"kind": "syn-heavy"},
            controller=ControllerConfig(kind="greedy_prcol", duration_mode="dynamic"),
        ),
        seed=0,
    )
    closed = [d for d in dynamic.decisions if d.actual_discharged is not None]
    assert closed
    assert all(d.actual_discharged <= d.ideal_npass for d in closed)

    # behavioural half on the trained Syn-Heavy PRCOL policy (median seed)
    runs = heavy_trainings["prcol"]["runs"]
    seeds = sorted(runs, key=lambda seed: runs[seed]["final_eval"]["average_travel_time"])
    median_seed = int(seeds[len(seeds) // 2])
    checkpoint = heavy_trainings["prcol"]["out"] / f"seed_{median_seed}" / "checkpoint_final.npz"
    out = tmp_path / "eval"
    evaluate(heavy_config("prcol"), str(checkpoint), seed=median_seed, out_dir=str(out))
    from gridlight.telemetry import read_decisions_csv

    records = read_decisions_csv(str(out / "decisions.csv"))
    assert all(
        d.actual_discharged <= d.ideal_npass
        for d in records
        if d.actual_discharged is not None
    )
    study = case_study(records)
    assert study.unique_max_decisions > 0
    assert study.max_choice_frequency > 0.25
    ok(
        12,
        f"delivered <= promised on {len(closed)} + {len(records)} green intervals; "
        f"trained policy picks the busiest phase {study.max_choice_frequency:.3f} > 0.25",
    )


# --------------------------------------------------------------- criterion 13


def test_criterion_13_byte_identical_reruns(tmp_path):
    config_path = tmp_path / "config.json"
    ExperimentConfig(controller=ControllerConfig(kind="maxpressure")).to_json(str(config_path))
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert cli_main(["run", "--config", str(config_path), "--seed", "7", "--out", str(out_a)]) == 0
    assert cli_main(["run", "--config", str(config_path), "--seed", "7", "--out", str(out_b)]) == 0
    metrics_a = (out_a / "metrics.json").read_bytes()
    assert metrics_a == (out_b / "metrics.json").read_bytes()
    telemetry_a = (out_a / "telemetry.csv").read_bytes()
    assert telemetry_a == (out_b / "telemetry.csv").read_bytes()
    assert json.loads(metrics_a)["seed"] == 7
    ok(
        13,
        f"byte-identical metrics.json ({len(metrics_a)} B) and telemetry.csv "
        f"({len(telemetry_a)} B) across reruns",
    )
