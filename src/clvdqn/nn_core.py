"""Minimal feed-forward network with backprop, RMSProp, and input gradients.

Everything is float64 numpy. A net's parameters are one flat float64 vector,
which its per-layer weights and biases view: layer by layer, each layer's
weights as one row-major (input_dim, output_dim) block, then its biases, so
that every forward product reads a contiguous matrix. weights[i] is the
(output_dim, input_dim) transposed view of its block. A weight file is its
header plus the vector in file order (w0, b0, w1, b1, ...; each weights[i]
row-major), one precomputed permutation away from the memory order.
One layer loop, _pres_from, runs every forward: training's and action_space's.
forward_batch returns the cache backward needs instead of storing state: each
layer's input, then the outputs. Backward can write into a caller's reused
Gradients and skip the input gradient, which a training step never reads.
Layers are ReLU or linear.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

MAGIC = b"CLVDQN1"

ACTIVATIONS = ("relu", "linear")

RMSPROP_DECAY = 0.9  # of the running mean of squared gradients
RMSPROP_EPSILON = 1e-8  # added to its square root


class ConfigError(ValueError):
    """Inconsistent settings: a network specification or a run configuration."""


class NetworkOverflow(ConfigError):
    """Non-finite Q-values from finite inputs: finite but huge weights can do that."""


class TrainingDiverged(RuntimeError):
    """A non-finite loss, or else `what` (a gradient, a Q-value), at an epoch and step or -1."""

    def __init__(self, epoch, step, loss=None, what="gradient"):
        self.what = what if loss is None else f"loss {loss}"
        super().__init__(f"non-finite {self.what} at epoch {epoch}, step {step}")
        self.epoch, self.step, self.loss = epoch, step, loss


@dataclass(frozen=True)
class LayerSpec:
    input_dim: int
    output_dim: int
    activation: str  # "relu" or "linear"

    def __post_init__(self):
        if self.input_dim < 1 or self.output_dim < 1:
            raise ConfigError(f"layer dims must be >= 1, got {self}")
        if self.activation not in ACTIVATIONS:
            raise ConfigError(f"unknown activation {self.activation!r}")


def n_params(specs) -> int:
    return sum(s.output_dim * (s.input_dim + 1) for s in specs)


def layer_views(specs, flat: np.ndarray):
    """(weights, biases): tuples of per-layer views into a flat parameter vector, each weights
    view the (output_dim, input_dim) transpose of an (input_dim, output_dim) row-major block."""
    weights, biases, start = [], [], 0
    for s in specs:
        end = start + s.output_dim * s.input_dim
        weights.append(flat[start:end].reshape(s.input_dim, s.output_dim).T)
        biases.append(flat[end:end + s.output_dim])
        start = end + s.output_dim
    return tuple(weights), tuple(biases)


@lru_cache
def _file_order(specs: tuple):
    """(order, inverse) for specs: a weight file's parameters are flat.take(order), and the
    flat vector of a file's parameters is params.take(inverse)."""
    weights, biases = layer_views(specs, np.arange(n_params(specs)))
    order = np.concatenate([a.ravel() for pair in zip(weights, biases) for a in pair])
    return order, np.argsort(order)


class Mlp:
    """Layer specs plus one flat parameter vector; weights[i] is (output_dim, input_dim), a
    transposed view of the row-major (input_dim, output_dim) block that flat holds."""

    def __init__(self, specs, flat: np.ndarray):
        """Makes flat itself (not a copy) the parameters of this net: n_params(specs) floats."""
        self.specs = validate_specs(specs)
        if flat.shape != (n_params(self.specs),):
            raise ConfigError(f"parameter vector shape {flat.shape} != ({n_params(self.specs)},)")
        self.flat = flat
        self.weights, self.biases = layer_views(self.specs, flat)
        self.input_dim, self.output_dim = self.specs[0].input_dim, self.specs[-1].output_dim

    def copy(self) -> "Mlp":
        return Mlp(self.specs, self.flat.copy())


@dataclass
class Gradients:
    specs: tuple
    flat: np.ndarray  # parameter gradients summed over the batch, in Mlp.flat's layout
    input_grads: np.ndarray = None

    def __post_init__(self):
        self.weight_grads, self.bias_grads = layer_views(self.specs, self.flat)

    @classmethod
    def like(cls, net: Mlp) -> "Gradients":
        """Uninitialized gradients of net, for backward_batch to write into."""
        return cls(net.specs, np.empty_like(net.flat))


def validate_specs(specs) -> tuple:
    specs = tuple(specs)
    if not specs:
        raise ConfigError("empty layer spec")
    for prev, cur in zip(specs, specs[1:]):
        if prev.output_dim != cur.input_dim:
            raise ConfigError(
                f"layer dims do not chain: {prev.output_dim} -> {cur.input_dim}"
            )
    return specs


def init_mlp(specs, seed: int) -> Mlp:
    """Seeded init: weights uniform in +-1/sqrt(fan_in), biases zero."""
    net = Mlp(specs, np.zeros(n_params(specs)))
    rng = np.random.default_rng(seed)
    for spec, w in zip(net.specs, net.weights):
        scale = 1.0 / np.sqrt(spec.input_dim)
        w[...] = rng.uniform(-scale, scale, size=w.shape)
    return net


def batch_inputs(net: Mlp, inputs) -> np.ndarray:
    """inputs as a contiguous float64 (n, input_dim) array, copied if strided; ConfigError
    naming its shape if it has another shape or holds a NaN or an infinity."""
    x = np.ascontiguousarray(inputs, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != net.input_dim:
        raise ConfigError(f"expected input shape (n, {net.input_dim}), got {x.shape}")
    if not np.isfinite(x).all():
        raise ConfigError(f"non-finite network input in a batch of shape {x.shape}")
    return x


def _pres_from(net: Mlp, z, j: int, k: int, out=None, inputs=None):
    """Layer k's pre-activations, from layer j's pre-activations z (j <= k), or from the net's
    inputs z with j = -1: the one layer loop, with no check. Layer k's product goes into out,
    if given, and each layer's input is appended to the list inputs, if given."""
    for i in range(j + 1, k + 1):
        if i and net.specs[i - 1].activation == "relu":
            z = np.maximum(z, 0.0, out=z if i > j + 1 else None)  # in place once z is ours
        if inputs is not None:
            inputs.append(z)
        z = np.matmul(z, net.weights[i].T, out=out if i == k else None)
        z += net.biases[i]
    return z


def forward_batch(net: Mlp, inputs: np.ndarray):
    """Run a (n, input_dim) batch (see batch_inputs). Returns (outputs, cache) for backward:
    the cache lists each layer's input, then the outputs."""
    cache = []
    h = _pres_from(net, batch_inputs(net, inputs), -1, len(net.specs) - 1, inputs=cache)
    cache.append(np.maximum(h, 0.0, out=h) if net.specs[-1].activation == "relu" else h)
    return h, cache


def backward_batch(net: Mlp, cache, output_grads: np.ndarray, out: Gradients = None,
                   input_grads: bool = True) -> Gradients:
    """Backprop a (n, output_dim) upstream gradient through the cached batch.

    Parameter gradients are summed over the batch into one flat vector, that
    of out (a Gradients.like(net)) if given, else a new one; input_grads stay
    per-row, or are None without input_grads, which skips layer 0's input
    matmul. A ReLU's mask is its cached output > 0, which is its pre-activation > 0.
    """
    g = np.asarray(output_grads, dtype=np.float64)
    if g.shape != cache[-1].shape:
        raise ConfigError(f"output grad shape {g.shape} != output shape {cache[-1].shape}")
    grads = Gradients.like(net) if out is None else out
    last = len(net.specs) - 1
    for i in range(last, -1, -1):
        if net.specs[i].activation == "relu":
            # as floats: g * 1.0 and g * 0.0 are g * True and g * False, bit for bit, with no
            # buffered cast of a bool mask in the multiply
            mask = np.greater(cache[i + 1], 0.0, out=np.empty_like(cache[i + 1]))
            # below the output layer g is this loop's own array, so mask it in place
            g = g * mask if i == last else np.multiply(g, mask, out=g)
        np.matmul(g.T, cache[i], out=grads.weight_grads[i])
        np.add.reduce(g, axis=0, out=grads.bias_grads[i])  # np.sum's reduction, called direct
        if i or input_grads:
            g = g @ net.weights[i]
    grads.input_grads = g if input_grads else None
    return grads


def rmsprop_step(net: Mlp, grads: Gradients, cache: np.ndarray, lr: float):
    """In-place RMSProp update of every parameter and of cache, np.zeros_like(net.flat) at
    first; a gradient whose square or step is not finite raises TrainingDiverged instead."""
    if not lr > 0:  # NaN too
        raise ConfigError(f"learning rate must be positive, got {lr}")
    g = grads.flat
    # cache * DECAY + (1 - DECAY) * g * g, then lr * g / (sqrt + EPSILON), in that order of
    # operations, into three buffers; step holds the squared term before the step
    with np.errstate(over="ignore", invalid="ignore"):
        new_cache = np.multiply(cache, RMSPROP_DECAY)
        step = np.multiply(g, 1.0 - RMSPROP_DECAY)
        new_cache += np.multiply(step, g, out=step)
        root = np.sqrt(new_cache)
        root += RMSPROP_EPSILON
        np.multiply(g, lr, out=step)
        step /= root
    if not (np.isfinite(new_cache).all() and np.isfinite(step).all()):
        raise TrainingDiverged(-1, -1)
    cache[...] = new_cache
    net.flat -= step


def save_mlp(net: Mlp, path):
    """Versioned flat file: magic + layer specs, then the parameters in file order as float64
    LE: per layer, weights[i] row-major, then biases[i]."""
    with open(path, "wb") as f:
        f.write(MAGIC + b"\n")
        f.write(f"{len(net.specs)}\n".encode("ascii"))
        for spec in net.specs:
            f.write(f"{spec.input_dim} {spec.output_dim} {spec.activation}\n".encode("ascii"))
        f.write(net.flat.take(_file_order(net.specs)[0]).astype("<f8", copy=False).tobytes())


def load_mlp(path) -> Mlp:
    """Reads a save_mlp file; ConfigError naming the path if it is malformed, mis-sized or
    holds a NaN or infinite parameter."""
    with open(path, "rb") as f:
        magic = f.readline().strip()
        if magic != MAGIC:
            raise ConfigError(f"bad magic in {path}: {magic!r}")
        try:
            n_layers = int(f.readline())
            specs = []
            for _ in range(n_layers):
                in_dim, out_dim, act = f.readline().split()
                specs.append(LayerSpec(int(in_dim), int(out_dim), act.decode("ascii")))
            specs = validate_specs(specs)
        except ValueError as exc:  # includes ConfigError and UnicodeDecodeError
            raise ConfigError(f"{path}: malformed layer header ({exc})") from None
        raw = f.read()
    expected = 8 * n_params(specs)
    if len(raw) != expected:
        raise ConfigError(f"{path}: expected {expected} parameter bytes, found {len(raw)}")
    params = np.frombuffer(raw, dtype="<f8").astype(np.float64, copy=False)
    net = Mlp(specs, params.take(_file_order(specs)[1]))
    if not np.isfinite(net.flat).all():  # one pass; the layers are scanned to name the first
        for i, (w, b) in enumerate(zip(net.weights, net.biases)):
            for kind, values in (("weights", w), ("biases", b)):
                if not np.isfinite(values).all():
                    raise ConfigError(f"{path}: non-finite value in layer {i} {kind}")
    return net
