"""Learner tests: forward pass, TD targets, gradient correctness against
central finite differences, loss descent, replay semantics, schedules and
checkpoint round trips."""

import numpy as np
import pytest

from gridlight.experiment import ExperimentConfig
from gridlight.learner import (
    QNetwork,
    ReplayBuffer,
    Transition,
    epsilon,
    forward,
    forward_batch,
    load_checkpoint,
    save_checkpoint,
    sync_target,
    train_step,
)


def stacked(transitions) -> Transition:
    """A batch of stacked rows, the layout ReplayBuffer.sample returns."""
    return Transition(*map(np.array, zip(*transitions)))


def loss_of(net: QNetwork, target_net: QNetwork, batch, gamma: float) -> float:
    """Independent loss evaluation (no parameter update)."""
    total = 0.0
    rows = list(zip(*batch))
    for s, a, r, s_next, terminal in rows:
        y = r if terminal else r + gamma * max(forward(target_net, s_next))
        total += (y - forward(net, s)[a]) ** 2
    return total / len(rows)


def finite_difference_grads(net: QNetwork, target_net: QNetwork, batch, gamma: float, h: float = 1e-5):
    """Central finite differences over every parameter."""
    grads_w = []
    grads_b = []
    for w in net.weights:
        g = np.zeros_like(w)
        for idx in np.ndindex(w.shape):
            keep = w[idx]
            w[idx] = keep + h
            up = loss_of(net, target_net, batch, gamma)
            w[idx] = keep - h
            down = loss_of(net, target_net, batch, gamma)
            w[idx] = keep
            g[idx] = (up - down) / (2 * h)
        grads_w.append(g)
    for b in net.biases:
        g = np.zeros_like(b)
        for idx in np.ndindex(b.shape):
            keep = b[idx]
            b[idx] = keep + h
            up = loss_of(net, target_net, batch, gamma)
            b[idx] = keep - h
            down = loss_of(net, target_net, batch, gamma)
            b[idx] = keep
            g[idx] = (up - down) / (2 * h)
        grads_b.append(g)
    return grads_w, grads_b


def analytic_grads(net: QNetwork, target_net: QNetwork, batch, gamma: float):
    """Recover train_step's gradients from the parameter deltas at lr=1."""
    probe = net.copy()
    train_step(probe, target_net, batch, gamma, lr=1.0)
    gw = [w - pw for w, pw in zip(net.weights, probe.weights)]
    gb = [b - pb for b, pb in zip(net.biases, probe.biases)]
    return gw, gb


def random_batch(rng, net, size=4):
    return stacked(
        Transition(
            s=rng.normal(size=net.input_size),
            a=int(rng.integers(net.output_size)),
            r=float(rng.normal(scale=5)),
            s_next=rng.normal(size=net.input_size),
            terminal=bool(rng.random() < 0.2),
        )
        for _ in range(size)
    )


class TestForward:
    def test_zero_parameters_give_zero_output(self):
        net = QNetwork()
        for w in net.weights:
            w[:] = 0.0
        for b in net.biases:
            b[:] = 0.0
        assert forward(net, np.ones(16)).tolist() == [0.0, 0.0, 0.0, 0.0]

    def test_hand_computed_toy_network(self):
        net = QNetwork(layer_sizes=(2, 2, 2))
        net.weights[0][:] = [[1.0, 0.0], [0.0, -1.0]]
        net.biases[0][:] = [0.0, 0.5]
        net.weights[1][:] = [[2.0, 1.0], [0.0, 3.0]]
        net.biases[1][:] = [0.1, -0.2]
        # x = (3, 1): hidden pre = (3, -0.5) -> relu (3, 0)
        # out = (2*3 + 1*0 + 0.1, 0*3 + 3*0 - 0.2) = (6.1, -0.2)
        out = forward(net, np.array([3.0, 1.0]))
        assert out == pytest.approx([6.1, -0.2])

    def test_deterministic(self):
        net = QNetwork(rng=np.random.default_rng(5))
        s = np.random.default_rng(6).normal(size=16)
        assert np.array_equal(forward(net, s), forward(net, s))

    def test_width_mismatch_faults(self):
        with pytest.raises(ValueError):
            forward(QNetwork(), np.zeros(12))

    def test_batch_matches_single(self):
        rng = np.random.default_rng(0)
        net = QNetwork(rng=rng)
        states = rng.normal(size=(5, 16))
        batch_out = forward_batch(net, states)
        for i in range(5):
            assert batch_out[i] == pytest.approx(forward(net, states[i]))

    def test_default_architecture(self):
        net = QNetwork()
        assert net.layer_sizes == (16, 32, 32, 4)
        assert net.input_size == 16 and net.output_size == 4


class TestTrainStep:
    def test_perfect_predictions_do_not_move(self):
        # zero network, zero rewards: targets are 0 = predictions everywhere
        net = QNetwork()
        for w in net.weights:
            w[:] = 0.0
        for b in net.biases:
            b[:] = 0.0
        target = net.copy()
        batch = stacked([Transition(np.ones(16), 1, 0.0, np.ones(16), False)] * 3)
        loss = train_step(net, target, batch, gamma=0.8, lr=0.1)
        assert loss == 0.0
        assert all(not w.any() for w in net.weights)
        assert all(not b.any() for b in net.biases)

    def test_one_parameter_toy_gradient(self):
        # Q(s) = w*s with w=1; sample (s=2, target 1): J=1, dJ/dw=4
        net = QNetwork(layer_sizes=(1, 1))
        net.weights[0][:] = [[1.0]]
        net.biases[0][:] = [0.0]
        target_net = net.copy()
        lr = 0.01
        batch = stacked([Transition(np.array([2.0]), 0, 1.0, np.array([0.0]), True)])
        loss = train_step(net, target_net, batch, gamma=0.8, lr=lr)
        assert loss == pytest.approx(1.0)
        assert net.weights[0][0, 0] == pytest.approx(1.0 - 4.0 * lr)

    @staticmethod
    def _identity_net() -> QNetwork:
        # Q(s) = s on two inputs, so Q is 0 at the origin
        net = QNetwork(layer_sizes=(2, 2))
        net.weights[0][:] = [[1.0, 0.0], [0.0, 1.0]]
        net.biases[0][:] = [0.0, 0.0]
        return net

    def test_terminal_target_is_reward(self):
        net = self._identity_net()
        batch = stacked([Transition(np.zeros(2), 0, -5.0, np.array([10.0, 4.0]), True)])
        assert train_step(net, net.copy(), batch, gamma=0.8, lr=0.0) == pytest.approx(25.0)

    def test_bootstrap_target(self):
        # target -5 + 0.8 * max(10, 4) = 3 against Q(s, 0) = 0
        net = self._identity_net()
        batch = stacked([Transition(np.zeros(2), 0, -5.0, np.array([10.0, 4.0]), False)])
        assert train_step(net, net.copy(), batch, gamma=0.8, lr=0.0) == pytest.approx(9.0)

    def test_gamma_zero_is_myopic(self):
        rng = np.random.default_rng(1)
        net = QNetwork(rng=rng)
        s = rng.normal(size=16)
        batch = stacked([Transition(s, 2, 2.5, rng.normal(size=16), False)])
        expected = (forward(net, s)[2] - 2.5) ** 2
        assert train_step(net, QNetwork(rng=rng), batch, gamma=0.0, lr=0.0) == pytest.approx(expected)

    def test_empty_batch_faults(self):
        empty = Transition(np.empty((0, 16)), np.empty(0, int), np.empty(0), np.empty((0, 16)), np.empty(0, bool))
        with pytest.raises(ValueError):
            train_step(QNetwork(), QNetwork(), empty, 0.8, 0.001)

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(42)
        for trial in range(3):
            net = QNetwork(layer_sizes=(6, 8, 8, 3), rng=rng)
            target_net = QNetwork(layer_sizes=(6, 8, 8, 3), rng=rng)
            batch = random_batch(rng, net)
            gw, gb = analytic_grads(net, target_net, batch, 0.8)
            fw, fb = finite_difference_grads(net, target_net, batch, 0.8)
            flat_a = np.concatenate([g.ravel() for g in gw + gb])
            flat_f = np.concatenate([g.ravel() for g in fw + fb])
            rel = np.linalg.norm(flat_a - flat_f) / max(np.linalg.norm(flat_f), 1e-12)
            assert rel <= 1e-4, f"trial {trial}: relative error {rel}"

    def test_frozen_batch_loss_descends(self):
        rng = np.random.default_rng(3)
        net = QNetwork(rng=rng)
        target_net = QNetwork(rng=np.random.default_rng(4))
        batch = random_batch(rng, net, size=16)
        losses = [train_step(net, target_net, batch, 0.8, 0.001) for _ in range(50)]
        for a, b in zip(losses[5:], losses[6:]):
            assert b <= a + 1e-9

    def test_target_net_untouched(self):
        rng = np.random.default_rng(9)
        net = QNetwork(rng=rng)
        target_net = QNetwork(rng=np.random.default_rng(10))
        before_w = [w.copy() for w in target_net.weights]
        train_step(net, target_net, random_batch(rng, net), 0.8, 0.01)
        assert all(np.array_equal(a, b) for a, b in zip(before_w, target_net.weights))


class TestSyncTarget:
    def test_outputs_agree_after_sync(self):
        rng = np.random.default_rng(11)
        net = QNetwork(rng=rng)
        target_net = QNetwork(rng=np.random.default_rng(12))
        sync_target(net, target_net)
        for _ in range(20):
            s = rng.normal(size=16)
            assert np.array_equal(forward(net, s), forward(target_net, s))

    def test_training_after_sync_diverges_them(self):
        rng = np.random.default_rng(13)
        net = QNetwork(rng=rng)
        target_net = net.copy()
        train_step(net, target_net, random_batch(rng, net), 0.8, 0.05)
        s = rng.normal(size=16)
        assert not np.array_equal(forward(net, s), forward(target_net, s))

    def test_architecture_mismatch_faults(self):
        with pytest.raises(ValueError):
            sync_target(QNetwork(), QNetwork(layer_sizes=(16, 8, 4)))

    def test_sync_cadence_counting(self):
        # every 5th training step syncs: a 20-step loop syncs exactly 4 times
        rng = np.random.default_rng(14)
        net = QNetwork(rng=rng)
        target_net = net.copy()
        syncs = 0
        for step in range(1, 21):
            train_step(net, target_net, random_batch(rng, net), 0.8, 0.001)
            if step % 5 == 0:
                sync_target(net, target_net)
                syncs += 1
        assert syncs == 4

    def test_target_constant_between_syncs(self):
        rng = np.random.default_rng(15)
        net = QNetwork(rng=rng)
        target_net = net.copy()
        s = rng.normal(size=16)
        snapshot = forward(target_net, s).copy()
        for _ in range(4):
            train_step(net, target_net, random_batch(rng, net), 0.8, 0.01)
            assert np.array_equal(forward(target_net, s), snapshot)


class TestReplayBuffer:
    @staticmethod
    def _t(k: int) -> Transition:
        return Transition(np.full(16, float(k)), k % 4, float(k), np.zeros(16), False)

    def _filled(self, capacity: int, pushes: int) -> ReplayBuffer:
        buf = ReplayBuffer(capacity)
        for k in range(pushes):
            buf.push(self._t(k))
        return buf

    def test_not_ready_until_strictly_larger_than_batch(self):
        buf = self._filled(100, 32)
        rng = np.random.default_rng(0)
        assert buf.sample(32, rng) is None
        buf.push(self._t(99))
        batch = buf.sample(32, rng)
        assert batch is not None and batch.s.shape == (32, 16)
        assert [len(rows) for rows in batch] == [32] * 5

    def test_sample_without_replacement(self):
        batch = self._filled(100, 40).sample(32, np.random.default_rng(1))
        assert len(set(batch.r)) == 32

    def test_eviction_is_oldest_first(self):
        buf = self._filled(10, 13)
        assert len(buf) == 10
        seen = set()
        for seed in range(20):
            seen.update(buf.sample(9, np.random.default_rng(seed)).r)
        assert seen == set(float(k) for k in range(3, 13))

    def test_sample_is_the_rows_rng_choice_picks(self):
        # capacity 40 after 50 pushes: row i holds push 40 + i for i < 10, push i after
        buf = self._filled(40, 50)
        batch = buf.sample(8, np.random.default_rng(7))
        picks = np.random.default_rng(7).choice(40, size=8, replace=False)
        pushed = np.where(picks < 10, picks + 40, picks)
        assert np.array_equal(batch.r, pushed.astype(float))
        assert np.array_equal(batch.a, pushed % 4)
        assert np.array_equal(batch.s, np.repeat(pushed.astype(float)[:, None], 16, axis=1))
        assert not batch.terminal.any() and not batch.s_next.any()

    def test_sample_is_a_copy(self):
        buf = self._filled(40, 41)
        batch = buf.sample(8, np.random.default_rng(3))
        before = batch.r.copy()
        for k in range(100, 140):
            buf.push(self._t(k))
        assert np.array_equal(batch.r, before)

    def test_sampling_is_deterministic_given_seed(self):
        buf = self._filled(100, 50)
        a = buf.sample(8, np.random.default_rng(7))
        b = buf.sample(8, np.random.default_rng(7))
        assert all(np.array_equal(x, y) for x, y in zip(a, b))


class TestEpsilonSchedule:
    def test_endpoints(self):
        assert epsilon(0.8, 0.2, 100, 0) == 0.8
        assert epsilon(0.8, 0.2, 100, 99) == 0.2
        assert epsilon(0.8, 0.2, 100, 500) == 0.2
        assert epsilon(0.8, 0.2, 1, 0) == 0.2

    def test_midpoint(self):
        assert epsilon(0.8, 0.2, 101, 50) == pytest.approx(0.5)

    def test_monotone_non_increasing(self):
        values = [epsilon(0.8, 0.2, 37, e) for e in range(50)]
        assert all(b <= a for a, b in zip(values, values[1:]))
        assert all(0.2 <= v <= 0.8 for v in values)

    def test_invalid_schedules(self):
        # a training config is the one source of a schedule, and it rejects these
        with pytest.raises(ValueError, match="not increase"):
            ExperimentConfig(epsilon_start=0.1, epsilon_end=0.2)
        with pytest.raises(ValueError, match="epsilon_horizon"):
            ExperimentConfig(epsilon_horizon=0)


class TestCheckpoints:
    def test_round_trip_is_bit_exact(self, tmp_path):
        net = QNetwork(rng=np.random.default_rng(21))
        path = str(tmp_path / "model.npz")
        save_checkpoint(net, path)
        twin = load_checkpoint(path)
        assert twin.layer_sizes == net.layer_sizes
        for a, b in zip(net.weights, twin.weights):
            assert np.array_equal(a, b)
        for a, b in zip(net.biases, twin.biases):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize(
        "edit,named",
        [
            (lambda a: a.update(layer_sizes=np.array([16])), "architecture"),
            (lambda a: a.update(layer_sizes=np.array([8, 32, 32, 4])), "architecture"),
            (lambda a: a.update(layer_sizes=np.array([16, 32, 32, 3])), "architecture"),
            (lambda a: a.update(layer_sizes=np.array([16, 0, 32, 4])), "architecture"),
            (lambda a: a.update(layer_sizes=np.array([16.0, 32.0, 32.0, 4.0])), "architecture"),
            (lambda a: a.pop("w1"), "missing w1"),
            (lambda a: a.pop("b2"), "missing b2"),
            (lambda a: a.update(w0=a["w0"][:, :15]), "w0 has shape"),
            (lambda a: a.update(b1=np.zeros(31)), "b1 has shape"),
            (lambda a: a["w2"].__setitem__((0, 0), np.nan), "w2"),
            (lambda a: a["b0"].__setitem__(3, np.inf), "b0"),
        ],
        ids=[
            "one-layer", "wrong-input", "wrong-output", "zero-width", "float-sizes",
            "missing-weight", "missing-bias", "weight-shape", "bias-shape", "nan-weight", "inf-bias",
        ],
    )
    def test_corrupt_checkpoint_is_rejected(self, tmp_path, edit, named):
        net = QNetwork(rng=np.random.default_rng(23))
        arrays = {"version": np.array(1), "layer_sizes": np.array(net.layer_sizes)}
        for i, (w, b) in enumerate(zip(net.weights, net.biases)):
            arrays[f"w{i}"], arrays[f"b{i}"] = w.copy(), b.copy()
        edit(arrays)
        path = str(tmp_path / "corrupt.npz")
        np.savez(path, **arrays)
        with pytest.raises(ValueError, match=named) as err:
            load_checkpoint(path)
        assert len(str(err.value).splitlines()) == 1

    def test_copy_is_independent(self):
        net = QNetwork(rng=np.random.default_rng(22))
        twin = net.copy()
        net.weights[0][0, 0] += 1.0
        assert twin.weights[0][0, 0] != net.weights[0][0, 0]
