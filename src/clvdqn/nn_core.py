"""Minimal feed-forward network with backprop, RMSProp, and input gradients.

Everything is float64 numpy. A net's parameters are one flat float64 vector
in file order (w0, b0, w1, b1, ...; weights row-major), which its per-layer
weights and biases view, and a weight file is its header plus that vector.
Forward returns the cache backward needs instead of storing state: each
layer's input and pre-activation. Backward can write into a caller's reused
Gradients and skip the input gradient, which a training step never reads.
Layers are ReLU or linear.
"""

from __future__ import annotations

from dataclasses import dataclass

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
    """(weights, biases): tuples of per-layer views into a flat parameter vector."""
    weights, biases, start = [], [], 0
    for s in specs:
        end = start + s.output_dim * s.input_dim
        weights.append(flat[start:end].reshape(s.output_dim, s.input_dim))
        biases.append(flat[end:end + s.output_dim])
        start = end + s.output_dim
    return tuple(weights), tuple(biases)


class Mlp:
    """Layer specs plus one flat parameter vector; weights[i] is (output_dim, input_dim)."""

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


def forward_batch(net: Mlp, inputs: np.ndarray):
    """Run a (n, input_dim) batch, copied if strided. Returns (outputs, cache) for backward."""
    x = np.ascontiguousarray(inputs, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != net.input_dim:
        raise ConfigError(f"expected input shape (n, {net.input_dim}), got {x.shape}")
    if not np.isfinite(x).all():
        raise ConfigError("non-finite network input")
    layer_inputs = []
    pre_acts = []
    h = x
    for spec, w, b in zip(net.specs, net.weights, net.biases):
        layer_inputs.append(h)
        z = h @ w.T
        z += b  # the same sums as h @ w.T + b, with one temporary fewer
        pre_acts.append(z)
        h = np.maximum(z, 0.0) if spec.activation == "relu" else z
    return h, {"inputs": layer_inputs, "pres": pre_acts}


def backward_batch(net: Mlp, cache, output_grads: np.ndarray, out: Gradients = None,
                   input_grads: bool = True) -> Gradients:
    """Backprop a (n, output_dim) upstream gradient through the cached batch.

    Parameter gradients are summed over the batch into one flat vector, that
    of out (a Gradients.like(net)) if given, else a new one; input_grads stay
    per-row, or are None without input_grads, which skips layer 0's input
    matmul. ReLU subgradient at exactly 0 is 0.
    """
    g = np.asarray(output_grads, dtype=np.float64)
    if g.ndim == 1:
        g = g[None, :]
    if g.shape != cache["pres"][-1].shape:
        raise ConfigError(
            f"output grad shape {g.shape} != output shape {cache['pres'][-1].shape}"
        )
    grads = Gradients.like(net) if out is None else out
    last = len(net.specs) - 1
    for i in range(last, -1, -1):
        if net.specs[i].activation == "relu":
            mask = cache["pres"][i] > 0.0
            # below the output layer g is this loop's own array, so mask it in place
            g = g * mask if i == last else np.multiply(g, mask, out=g)
        np.matmul(g.T, cache["inputs"][i], out=grads.weight_grads[i])
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
    with np.errstate(over="ignore", invalid="ignore"):
        new_cache = cache * RMSPROP_DECAY
        new_cache += (1.0 - RMSPROP_DECAY) * g * g
        step = lr * g / (np.sqrt(new_cache) + RMSPROP_EPSILON)
    if not (np.isfinite(new_cache).all() and np.isfinite(step).all()):
        raise TrainingDiverged(-1, -1)
    cache[...] = new_cache
    net.flat -= step


def save_mlp(net: Mlp, path):
    """Versioned flat file: magic + layer specs, then Mlp.flat as float64 LE."""
    with open(path, "wb") as f:
        f.write(MAGIC + b"\n")
        f.write(f"{len(net.specs)}\n".encode("ascii"))
        for spec in net.specs:
            f.write(f"{spec.input_dim} {spec.output_dim} {spec.activation}\n".encode("ascii"))
        f.write(net.flat.astype("<f8").tobytes())


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
    net = Mlp(specs, np.frombuffer(raw, dtype="<f8").astype(np.float64))
    for i, (w, b) in enumerate(zip(net.weights, net.biases)):
        for kind, values in (("weights", w), ("biases", b)):
            if not np.all(np.isfinite(values)):
                raise ConfigError(f"{path}: non-finite value in layer {i} {kind}")
    return net
