"""Controller tests: fixed-time cycling, max-pressure against a brute-force
oracle, epsilon-greedy behaviour, spillback avoidance, duration invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as npst

from gridlight.control import (
    ControllerConfig,
    Decision,
    DQNController,
    FixedTimeController,
    GreedyPrcolController,
    MaxPressureController,
    build_controller,
    decide_dqn,
    decide_greedy,
    decide_maxpressure,
)
from gridlight.engine import World
from gridlight.learner import QNetwork
from gridlight.network import PHASE_COLUMNS, build_grid, standard_phase_table
from gridlight.signalmath import DEFAULT_KINEMATICS, MovementCounts, green_duration, phase_score, reward

from helpers import place_vehicle


@pytest.fixture(scope="module")
def net():
    return build_grid(1, 1, 300, 300)


@pytest.fixture()
def world(net):
    return World(net)


def phase_columns(inter) -> list[list[int]]:
    """Per phase, the canonical positions of the movements it serves, by id."""
    column = {m.id: j for j, m in enumerate(inter.movements)}
    return [[column[f"{inter.id}:{a}:{t.value}"] for a, t in pair] for pair in standard_phase_table()]


def uniform(n_in, n_out, n_max, n=12):
    """The same counts on every movement, as one vector MovementCounts."""
    return MovementCounts(np.full(n, n_in), np.full(n, n_out), np.full(n, n_max))


def random_counts(rng, inter, n_max=40, blocked_phase=None, positive_phase=None):
    """Random movement counts as one vector; optionally pin one phase's
    outgoing lanes full and guarantee another phase real demand with free
    space."""
    columns = phase_columns(inter)
    blocked = set(columns[blocked_phase]) if blocked_phase is not None else set()
    positive = set(columns[positive_phase]) if positive_phase is not None else set()
    n_in, n_out = [], []
    for j in range(len(inter.movements)):
        if j in blocked:
            n_in.append(int(rng.integers(1, 20)))
            n_out.append(n_max)
        elif j in positive:
            n_in.append(int(rng.integers(1, 20)))
            n_out.append(int(rng.integers(0, 10)))
        else:
            n_in.append(int(rng.integers(0, 20)))
            n_out.append(int(rng.integers(0, n_max + 1)))
    return MovementCounts(np.array(n_in), np.array(n_out), np.full(len(n_in), n_max))


class TestFixedTime:
    def test_cycles_in_order(self, world):
        ctrl = FixedTimeController(ControllerConfig(kind="fixed", green_fixed=10))
        phases = [ctrl.decide(world, "i_0_0").phase for _ in range(5)]
        assert phases == [0, 1, 2, 3, 0]

    def test_duration_always_fixed(self, world):
        ctrl = FixedTimeController(ControllerConfig(kind="fixed", green_fixed=10))
        assert all(ctrl.decide(world, "i_0_0").green_duration == 10 for _ in range(8))

    def test_per_intersection_cycles_are_independent(self):
        netw = build_grid(1, 2, 300, 300)
        w = World(netw)
        ctrl = FixedTimeController(ControllerConfig(kind="fixed"))
        assert ctrl.decide(w, "i_0_0").phase == 0
        assert ctrl.decide(w, "i_0_1").phase == 0
        assert ctrl.decide(w, "i_0_0").phase == 1


class TestMaxPressure:
    def test_only_loaded_phase_wins(self, net):
        inter = net.intersections[0]
        columns = phase_columns(inter)
        n_in = np.zeros(12, dtype=int)
        n_in[columns[0]] = 10
        counts = MovementCounts(n_in, np.zeros(12, dtype=int), np.full(12, 40))
        assert decide_maxpressure(counts, columns) == 0

    def test_all_zero_tie_breaks_low(self, net):
        inter = net.intersections[0]
        assert decide_maxpressure(uniform(0, 0, 40), phase_columns(inter)) == 0

    def test_matches_brute_force_enumeration(self, net):
        inter = net.intersections[0]
        columns = phase_columns(inter)
        rng = np.random.default_rng(123)
        for _ in range(1000):
            counts = random_counts(rng, inter)
            scores = [float(phase_score(counts, [cols], "pressure")[0]) for cols in columns]
            best = scores.index(max(scores))  # first maximum = lowest index
            assert decide_maxpressure(counts, columns) == best

    def test_scale_invariance(self, net):
        inter = net.intersections[0]
        columns = phase_columns(inter)
        rng = np.random.default_rng(7)
        for _ in range(200):
            draws = np.array([(rng.integers(0, 10), rng.integers(0, 10)) for _ in inter.movements])
            base = MovementCounts(draws[:, 0], draws[:, 1], np.full(12, 100))
            tripled = MovementCounts(base.n_in * 3, base.n_out * 3, np.full(12, 300))
            assert decide_maxpressure(base, columns) == decide_maxpressure(tripled, columns)


class TestGreedyPrcol:
    def test_never_selects_blocked_phase(self, net):
        # one phase's outgoing lanes pinned full, another with demand + space
        inter = net.intersections[0]
        columns = phase_columns(inter)
        rng = np.random.default_rng(99)
        for _ in range(1000):
            blocked = int(rng.integers(4))
            positive = int((blocked + 1 + rng.integers(3)) % 4)
            counts = random_counts(rng, inter, blocked_phase=blocked, positive_phase=positive)
            for j in columns[blocked]:
                assert phase_score(counts, [[j]], "prcol")[0] == 0.0
            assert decide_greedy(counts, columns, "prcol") != blocked

    def test_dynamic_durations_stay_in_range(self, net):
        w = World(net)
        config = ControllerConfig(kind="greedy_prcol", duration_mode="dynamic")
        ctrl = GreedyPrcolController(config)
        inter = net.intersections[0]
        # load one approach heavily so the clearance time would exceed the cap
        lane = inter.incoming_lanes[1]
        length = net.lanes[lane].length
        for i in range(38):
            place_vehicle(w, lane, pos=length - i * 7.5, speed=0.0)
        decision = ctrl.decide(w, "i_0_0")
        assert decision.phase == 0
        assert decision.green_duration == 20
        # empty intersection clamps to the minimum
        w2 = World(net)
        assert ctrl.decide(w2, "i_0_0").green_duration == 10


@st.composite
def count_blocks(draw):
    """(n_in, n_out, n_max) blocks of 1-6 intersections: small counts for ties,
    rows of zeros, and outgoing lanes that are empty, half full or full."""
    rows = draw(st.integers(1, 6))
    n_max = draw(npst.arrays(np.int64, (rows, 12), elements=st.sampled_from([1, 2, 40])))
    fill = draw(npst.arrays(np.float64, (rows, 12), elements=st.sampled_from([0.0, 0.5, 1.0])))
    n_in = draw(npst.arrays(np.int64, (rows, 12), elements=st.integers(0, 3) | st.integers(0, 40)))
    n_in[draw(npst.arrays(bool, rows))] = 0
    return n_in, (n_max * fill).astype(np.int64), n_max


class TestBlockScoring:
    """A tick's due intersections are scored as one block; each row must decide as it would alone."""

    @settings(max_examples=60, deadline=None)
    @given(block=count_blocks())
    def test_block_row_equals_the_row_alone(self, block):
        net = build_grid(1, 1, 300, 300)
        n_in, n_out, n_max = block
        counts = MovementCounts(n_in, n_out, n_max)
        # ids no world knows: a decide that left the block would fail to gather
        ids = [f"row{i}" for i in range(len(n_in))]
        # the DQN's observations: each row's incoming counts and a phase one-hot
        obs = np.hstack([n_in, np.eye(4)[np.arange(len(n_in)) % 4]]).astype(float)
        qnet = QNetwork(rng=np.random.default_rng(7))
        kinds = (("maxpressure", "pressure"), ("greedy_prcol", "prcol"), ("fixed", None), ("dqn", None))
        for kind, metric in kinds:
            scores = None if metric is None else phase_score(counts, PHASE_COLUMNS, metric)
            for mode in ("fixed", "dynamic"):
                config = ControllerConfig(kind=kind, duration_mode=mode, obs_scale=0.5)
                ctrl = build_controller(config, net=qnet, eps=0.0)
                world = World(net)
                ctrl.score(world, ids, counts)
                for i, iid in enumerate(ids):
                    row = MovementCounts(n_in[i], n_out[i], n_max[i])
                    phase = 0
                    if metric is not None:
                        assert scores[i].tobytes() == phase_score(row, PHASE_COLUMNS, metric).tobytes()
                        phase = decide_greedy(row, PHASE_COLUMNS, metric)
                    elif kind == "dqn":
                        phase = decide_dqn(qnet, obs[i] * 0.5, 0.0, np.random.default_rng(0))
                    green = config.green_fixed
                    if mode == "dynamic":
                        green = green_duration(
                            row, PHASE_COLUMNS[phase], DEFAULT_KINEMATICS, config.green_min, config.green_max
                        )
                    assert ctrl.decide(world, iid, obs[i]) == Decision(phase, green)

    def test_a_row_is_taken_once(self, net):
        w = World(net)
        ctrl = MaxPressureController(ControllerConfig(kind="maxpressure"))
        n_in = np.zeros((1, 12), dtype=int)
        n_in[0, phase_columns(net.intersections[0])[2]] = 5
        ctrl.score(w, ["i_0_0"], MovementCounts(n_in, np.zeros_like(n_in), np.full_like(n_in, 40)))
        assert ctrl.decide(w, "i_0_0").phase == 2
        # the block row is spent: the next call reads the empty world
        assert ctrl.decide(w, "i_0_0").phase == 0


class TestDQNDecide:
    def test_full_exploration_is_uniform(self):
        net_q = QNetwork(rng=np.random.default_rng(0))
        rng = np.random.default_rng(42)
        draws = 10_000
        s = np.zeros(16)
        hist = np.zeros(4)
        for _ in range(draws):
            hist[decide_dqn(net_q, s, 1.0, rng)] += 1
        freqs = hist / draws
        assert np.all(np.abs(freqs - 0.25) < 0.02)

    def test_greedy_follows_preferred_action(self):
        net_q = QNetwork()
        for w in net_q.weights:
            w[:] = 0.0
        for b in net_q.biases:
            b[:] = 0.0
        net_q.biases[-1][:] = [0.0, 0.0, 5.0, 0.0]
        rng = np.random.default_rng(0)
        assert all(decide_dqn(net_q, np.zeros(16), 0.0, rng) == 2 for _ in range(20))

    def test_greedy_tie_breaks_to_lowest_index(self):
        net_q = QNetwork()
        for w in net_q.weights:
            w[:] = 0.0
        for b in net_q.biases:
            b[:] = 0.0
        rng = np.random.default_rng(0)
        assert decide_dqn(net_q, np.zeros(16), 0.0, rng) == 0

    def test_greedy_consumes_no_randomness(self):
        net_q = QNetwork(rng=np.random.default_rng(1))
        rng_a = np.random.default_rng(5)
        rng_b = np.random.default_rng(5)
        decide_dqn(net_q, np.ones(16), 0.0, rng_a)
        assert rng_a.random() == rng_b.random()

    def test_bad_eps_rejected(self):
        with pytest.raises(ValueError):
            decide_dqn(QNetwork(), np.zeros(16), 1.5, np.random.default_rng(0))

    def test_controller_durations(self, net):
        w = World(net)
        config = ControllerConfig(kind="dqn", duration_mode="fixed")
        ctrl = DQNController(QNetwork(), config, np.random.default_rng(0), eps=0.0)
        assert ctrl.decide(w, "i_0_0").green_duration == 10
        config_dyn = ControllerConfig(kind="dqn", duration_mode="dynamic")
        ctrl_dyn = DQNController(QNetwork(), config_dyn, np.random.default_rng(0), eps=0.0)
        d = ctrl_dyn.decide(w, "i_0_0")
        assert 10 <= d.green_duration <= 20


class TestRewardOf:
    def test_empty_intersection_all_kinds(self, net):
        counts = uniform(0, 0, 40, n=len(net.intersections[0].movements))
        for kind in ("prcol", "pressure", "queue"):
            assert reward(counts, kind) == 0.0

    def test_saturated_outgoing_divergence(self, net):
        counts = uniform(10, 40, 40, n=len(net.intersections[0].movements))
        assert reward(counts, "prcol") == 0.0
        assert reward(counts, "pressure") == pytest.approx(-360.0)

    def test_reference_prcol_value(self, net):
        counts = uniform(10, 20, 40, n=len(net.intersections[0].movements))
        assert reward(counts, "prcol") == pytest.approx(-60.0)


class TestBuildController:
    def test_each_kind(self, net):
        kin = None
        assert isinstance(build_controller(ControllerConfig(kind="fixed")), FixedTimeController)
        assert isinstance(
            build_controller(ControllerConfig(kind="maxpressure")), MaxPressureController
        )
        assert isinstance(
            build_controller(ControllerConfig(kind="greedy_prcol")), GreedyPrcolController
        )
        dqn = build_controller(
            ControllerConfig(kind="dqn"), net=QNetwork(), rng=np.random.default_rng(0)
        )
        assert isinstance(dqn, DQNController)

    def test_dqn_requires_network(self):
        with pytest.raises(ValueError):
            build_controller(ControllerConfig(kind="dqn"))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ControllerConfig(kind="webster")
        with pytest.raises(ValueError):
            ControllerConfig(duration_mode="adaptive")
        with pytest.raises(ValueError):
            ControllerConfig(green_min=20, green_max=10)
