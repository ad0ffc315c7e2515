"""From-scratch DQN machinery on numpy.

A small fully connected Q-network (rectifier hidden layers, linear output)
with hand-written backpropagation, a replay buffer held in ring arrays with
uniform sampling, a linear exploration schedule, TD targets against a lagged
target network, and plain gradient descent.  Checkpoints round-trip bit exactly
through ``.npz`` files.
"""

from __future__ import annotations

import math
import zipfile
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .engine import OBS_SIZE

__all__ = [
    "QNetwork",
    "Transition",
    "ReplayBuffer",
    "forward",
    "forward_batch",
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


class Transition(NamedTuple):
    """One step of experience; a batch is a Transition of stacked rows."""

    s: np.ndarray
    a: int
    r: float
    s_next: np.ndarray
    terminal: bool = False


def train_step(
    net: QNetwork,
    target_net: QNetwork,
    batch: Transition,
    gamma: float,
    lr: float,
) -> float:
    """One gradient-descent step on the squared TD error of a batch.

    ``batch`` holds stacked rows, as :meth:`ReplayBuffer.sample` returns
    them: states ``(B, input)``, actions ``(B,)``, rewards ``(B,)``,
    successor states ``(B, input)`` and terminal flags ``(B,)``.  The target
    is the reward, plus the discounted best target-network Q-value of the
    successor unless the transition is terminal.  Only the taken action's
    output contributes per sample.  Returns the pre-update loss
    ``mean((target - Q(s, a))^2)``; the target network is left untouched.
    """
    states, actions, rewards, next_states, terminal = batch
    B = len(actions)
    if B == 0:
        raise ValueError("batch must be non-empty")
    targets = rewards.astype(float)
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
    """Bounded transition memory; oldest entries are overwritten first.

    Each :class:`Transition` field lives in its own ring array of
    ``capacity`` rows, allocated on the first push with that transition's
    shapes and dtypes.
    """

    def __init__(self, capacity: int = 10_000):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._rows: Optional[Transition] = None
        self._size = 0
        self._cursor = 0

    def push(self, transition: Transition) -> None:
        if self._rows is None:
            self._rows = Transition(
                *(np.empty((self.capacity, *np.shape(v)), np.asarray(v).dtype) for v in transition)
            )
        for rows, value in zip(self._rows, transition):
            rows[self._cursor] = value
        self._cursor = (self._cursor + 1) % self.capacity
        self._size = min(self._size + 1, self.capacity)

    def sample(self, batch_size: int, rng: np.random.Generator) -> Optional[Transition]:
        """Uniform sample without replacement, as stacked rows; None while not yet warm.

        Training only starts once the buffer holds strictly more than a
        batch, so callers skip the step when this returns None.
        """
        if self._size <= batch_size:
            return None
        picks = rng.choice(self._size, size=batch_size, replace=False)
        return Transition(*(rows[picks] for rows in self._rows))

    def __len__(self) -> int:
        return self._size


def epsilon(start: float, end: float, horizon: int, episode: int) -> float:
    """Exploration rate for an episode: linear from ``start`` at episode 0 to
    ``end`` at episode ``horizon - 1``, then flat."""
    if horizon == 1 or episode >= horizon - 1:
        return end
    return start + (end - start) * (episode / (horizon - 1))


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
    """Restore a network written by :func:`save_checkpoint`, bit-exactly.

    Rejects with a one-line ``ValueError`` a file that is not a readable
    ``.npz`` archive, or whose version is unknown, whose layer sizes are not
    at least two positive integers running from ``OBS_SIZE`` inputs to 4
    outputs, whose weight or bias arrays are missing or of the wrong shape,
    or whose parameters are not finite.
    """
    try:
        # np.load(path) hands its open file to NpzFile, which leaves it open if it fails
        with open(path, "rb") as fh:
            data = np.load(fh)
            if not isinstance(data, np.lib.npyio.NpzFile):
                raise ValueError("it holds one bare .npy array")
            arrays = {key: data[key] for key in data.files}
    except (EOFError, ValueError, zipfile.BadZipFile) as exc:  # e.g. an empty or a cut file
        raise ValueError(f"checkpoint {path}: not a readable .npz archive: {exc}") from exc

    def array(key: str) -> np.ndarray:
        if not isinstance(arrays.get(key), np.ndarray):
            raise ValueError(f"checkpoint {path}: missing {key}")
        return arrays[key]

    version = array("version")
    if version.shape != () or version.dtype.kind not in "iu" or int(version) != _CHECKPOINT_VERSION:
        raise ValueError(f"checkpoint {path}: unsupported version {version.tolist()!r}")
    raw = array("layer_sizes")
    if (
        raw.ndim != 1
        or raw.dtype.kind not in "iu"
        or len(raw) < 2
        or (raw < 1).any()
        or raw[0] != OBS_SIZE
        or raw[-1] != 4
    ):
        raise ValueError(
            f"checkpoint {path}: architecture {raw.tolist()!r} must be at least two positive "
            f"layer sizes from {OBS_SIZE} inputs to 4 outputs"
        )
    sizes = tuple(int(n) for n in raw)
    params: dict[str, np.ndarray] = {}
    for i, (fan_in, fan_out) in enumerate(zip(sizes, sizes[1:])):
        for key, shape in ((f"w{i}", (fan_out, fan_in)), (f"b{i}", (fan_out,))):
            values = array(key)
            if values.shape != shape:
                raise ValueError(f"checkpoint {path}: {key} has shape {values.shape}, expected {shape}")
            if values.dtype.kind not in "fiu" or not np.isfinite(values).all():
                raise ValueError(f"checkpoint {path}: {key} holds non-finite or non-numeric values")
            params[key] = values.astype(float)
    net = QNetwork.__new__(QNetwork)
    net.layer_sizes = sizes
    net.weights = [params[f"w{i}"] for i in range(len(sizes) - 1)]
    net.biases = [params[f"b{i}"] for i in range(len(sizes) - 1)]
    return net
