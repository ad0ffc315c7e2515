"""From-scratch DQN machinery on numpy.

A small fully connected Q-network (rectifier hidden layers, linear output)
with hand-written backpropagation, a ring replay buffer with uniform
sampling, a linear exploration schedule, TD targets against a lagged target
network, and plain gradient descent.  Checkpoints round-trip bit exactly
through ``.npz`` files.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence

import numpy as np

__all__ = [
    "QNetwork",
    "Transition",
    "ReplayBuffer",
    "EpsilonSchedule",
    "forward",
    "forward_batch",
    "td_target",
    "train_step",
    "sync_target",
    "epsilon",
    "save_checkpoint",
    "load_checkpoint",
]

DEFAULT_LAYERS = (16, 32, 32, 4)

_CHECKPOINT_VERSION = 1


class QNetwork:
    """Fully connected rectifier network mapping a state to 4 Q-values.

    Weight matrices are (fan_out, fan_in); initialization is uniform in
    +-1/sqrt(fan_in), drawn from the supplied generator so runs are
    reproducible.
    """

    def __init__(
        self,
        layer_sizes: Sequence[int] = DEFAULT_LAYERS,
        rng: Optional[np.random.Generator] = None,
    ):
        if len(layer_sizes) < 2:
            raise ValueError("need at least an input and an output layer")
        self.layer_sizes = tuple(int(n) for n in layer_sizes)
        rng = rng or np.random.default_rng(0)
        self.weights: list[np.ndarray] = []
        self.biases: list[np.ndarray] = []
        for fan_in, fan_out in zip(self.layer_sizes, self.layer_sizes[1:]):
            bound = 1.0 / math.sqrt(fan_in)
            self.weights.append(rng.uniform(-bound, bound, size=(fan_out, fan_in)))
            self.biases.append(rng.uniform(-bound, bound, size=fan_out))

    @property
    def input_size(self) -> int:
        return self.layer_sizes[0]

    @property
    def output_size(self) -> int:
        return self.layer_sizes[-1]

    def copy(self) -> "QNetwork":
        twin = QNetwork.__new__(QNetwork)
        twin.layer_sizes = self.layer_sizes
        twin.weights = [w.copy() for w in self.weights]
        twin.biases = [b.copy() for b in self.biases]
        return twin


def forward(net: QNetwork, s: np.ndarray) -> np.ndarray:
    """Q-values for one state."""
    s = np.asarray(s, dtype=float)
    if s.shape != (net.input_size,):
        raise ValueError(f"state must have shape ({net.input_size},), got {s.shape}")
    return forward_batch(net, s[None, :])[0]


def forward_batch(net: QNetwork, states: np.ndarray) -> np.ndarray:
    """Q-values for a (B, input) batch of states."""
    h = np.asarray(states, dtype=float)
    if h.ndim != 2 or h.shape[1] != net.input_size:
        raise ValueError(f"batch must have shape (B, {net.input_size}), got {h.shape}")
    return _activations(net, h)[-1]


def _activations(net: QNetwork, states: np.ndarray) -> list[np.ndarray]:
    """The input batch followed by every layer's output."""
    activations = [states]
    last = len(net.weights) - 1
    for i, (w, b) in enumerate(zip(net.weights, net.biases)):
        h = activations[-1] @ w.T + b
        if i < last:
            np.maximum(h, 0.0, out=h)
        activations.append(h)
    return activations


def td_target(
    r: float,
    s_next: np.ndarray,
    target_net: QNetwork,
    gamma: float,
    terminal: bool = False,
) -> float:
    """Bootstrap target: r, plus the discounted best target-Q of the successor."""
    if not 0.0 <= gamma <= 1.0:
        raise ValueError("gamma must lie in [0, 1]")
    if terminal:
        return float(r)
    return float(r) + gamma * float(np.max(forward(target_net, s_next)))


class Transition(NamedTuple):
    s: np.ndarray
    a: int
    r: float
    s_next: np.ndarray
    terminal: bool = False


def train_step(
    net: QNetwork,
    target_net: QNetwork,
    batch: Sequence[Transition],
    gamma: float,
    lr: float,
) -> float:
    """One gradient-descent step on the squared TD error of a batch.

    Only the taken action's output contributes per sample.  Returns the
    pre-update loss ``mean((target - Q(s, a))^2)``; the target network is
    left untouched.
    """
    if not batch:
        raise ValueError("batch must be non-empty")
    B = len(batch)
    states = np.stack([t.s for t in batch]).astype(float)
    actions = np.fromiter((t.a for t in batch), dtype=int, count=B)
    rewards = np.fromiter((t.r for t in batch), dtype=float, count=B)
    terminal = np.fromiter((t.terminal for t in batch), dtype=bool, count=B)
    next_states = np.stack([t.s_next for t in batch]).astype(float)

    targets = rewards.copy()
    if not terminal.all():
        best_next = forward_batch(target_net, next_states).max(axis=1)
        targets[~terminal] += gamma * best_next[~terminal]

    activations = _activations(net, states)
    out = activations[-1]
    idx = np.arange(B)
    diff = out[idx, actions] - targets
    loss = float(np.mean(diff**2))

    grad_out = np.zeros_like(out)
    grad_out[idx, actions] = 2.0 * diff / B

    grad_w: list[np.ndarray] = [np.empty(0)] * len(net.weights)
    grad_b: list[np.ndarray] = [np.empty(0)] * len(net.biases)
    g = grad_out
    for i in range(len(net.weights) - 1, -1, -1):
        grad_w[i] = g.T @ activations[i]
        grad_b[i] = g.sum(axis=0)
        if i > 0:
            g = (g @ net.weights[i]) * (activations[i] > 0.0)

    for w, gw in zip(net.weights, grad_w):
        w -= lr * gw
    for b, gb in zip(net.biases, grad_b):
        b -= lr * gb
    return loss


def sync_target(net: QNetwork, target_net: QNetwork) -> None:
    """Copy the online parameters into the target network, bit for bit."""
    if net.layer_sizes != target_net.layer_sizes:
        raise ValueError(
            f"architecture mismatch: {net.layer_sizes} vs {target_net.layer_sizes}"
        )
    for dst, src in zip(target_net.weights, net.weights):
        np.copyto(dst, src)
    for dst, src in zip(target_net.biases, net.biases):
        np.copyto(dst, src)


class ReplayBuffer:
    """Bounded transition memory; oldest entries are overwritten first."""

    def __init__(self, capacity: int = 10_000):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._storage: list[Transition] = []
        self._cursor = 0

    def push(self, transition: Transition) -> None:
        if len(self._storage) < self.capacity:
            self._storage.append(transition)
        else:
            self._storage[self._cursor] = transition
        self._cursor = (self._cursor + 1) % self.capacity

    def sample(self, batch_size: int, rng: np.random.Generator) -> Optional[list[Transition]]:
        """Uniform sample without replacement; None while not yet warm.

        Training only starts once the buffer holds strictly more than a
        batch, so callers skip the step when this returns None.
        """
        if len(self._storage) <= batch_size:
            return None
        picks = rng.choice(len(self._storage), size=batch_size, replace=False)
        return [self._storage[i] for i in picks]

    def __len__(self) -> int:
        return len(self._storage)


@dataclass(frozen=True)
class EpsilonSchedule:
    """Linear exploration decay over a training run."""

    start: float = 0.8
    end: float = 0.2
    horizon: int = 100

    def __post_init__(self) -> None:
        if self.start < self.end:
            raise ValueError("epsilon schedule must be non-increasing")
        if self.horizon < 1:
            raise ValueError("horizon must be >= 1")


def epsilon(sched: EpsilonSchedule, episode: int) -> float:
    """Exploration rate for an episode: linear from start to end, then flat."""
    if episode < 0:
        raise ValueError("episode index must be >= 0")
    if sched.horizon == 1 or episode >= sched.horizon - 1:
        return sched.end
    frac = episode / (sched.horizon - 1)
    return sched.start + (sched.end - sched.start) * frac


def save_checkpoint(net: QNetwork, path: str) -> None:
    """Dump layer sizes and parameters; loading restores them bit-exactly."""
    arrays = {
        "version": np.array(_CHECKPOINT_VERSION),
        "layer_sizes": np.array(net.layer_sizes),
    }
    for i, (w, b) in enumerate(zip(net.weights, net.biases)):
        arrays[f"w{i}"] = w
        arrays[f"b{i}"] = b
    np.savez(path, **arrays)


def load_checkpoint(path: str) -> QNetwork:
    with np.load(path) as data:
        version = int(data["version"])
        if version != _CHECKPOINT_VERSION:
            raise ValueError(f"unsupported checkpoint version {version}")
        sizes = tuple(int(n) for n in data["layer_sizes"])
        net = QNetwork.__new__(QNetwork)
        net.layer_sizes = sizes
        net.weights = [data[f"w{i}"].astype(float) for i in range(len(sizes) - 1)]
        net.biases = [data[f"b{i}"].astype(float) for i in range(len(sizes) - 1)]
    return net
