"""Minimal feed-forward network with backprop, RMSProp, and input gradients.

Everything is float64 numpy. Networks are plain parameter containers; forward
returns the cache needed by backward instead of storing state, so a single net
can be evaluated concurrently. Only ReLU hidden layers and linear outputs are
supported.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

MAGIC = b"CLVDQN1"

ACTIVATIONS = ("relu", "linear")


class ConfigError(ValueError):
    """Inconsistent network specification."""


class TrainingError(RuntimeError):
    """Non-finite values encountered during an optimizer step."""


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


@dataclass
class Mlp:
    specs: tuple
    weights: list  # per layer (output_dim, input_dim)
    biases: list  # per layer (output_dim,)

    @property
    def input_dim(self) -> int:
        return self.specs[0].input_dim

    @property
    def output_dim(self) -> int:
        return self.specs[-1].output_dim

    def copy(self) -> "Mlp":
        return Mlp(
            specs=self.specs,
            weights=[w.copy() for w in self.weights],
            biases=[b.copy() for b in self.biases],
        )

    def n_params(self) -> int:
        return sum(w.size + b.size for w, b in zip(self.weights, self.biases))


@dataclass
class Gradients:
    weight_grads: list
    bias_grads: list
    input_grads: np.ndarray


@dataclass
class RmspropState:
    weight_caches: list
    bias_caches: list
    decay: float = 0.9
    epsilon: float = 1e-8

    @classmethod
    def init_like(cls, net: Mlp, decay: float = 0.9, epsilon: float = 1e-8) -> "RmspropState":
        return cls(
            weight_caches=[np.zeros_like(w) for w in net.weights],
            bias_caches=[np.zeros_like(b) for b in net.biases],
            decay=decay,
            epsilon=epsilon,
        )


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
    specs = validate_specs(specs)
    rng = np.random.default_rng(seed)
    weights, biases = [], []
    for spec in specs:
        scale = 1.0 / np.sqrt(spec.input_dim)
        weights.append(rng.uniform(-scale, scale, size=(spec.output_dim, spec.input_dim)))
        biases.append(np.zeros(spec.output_dim))
    return Mlp(specs=specs, weights=weights, biases=biases)


def forward_batch(net: Mlp, inputs: np.ndarray):
    """Run a (n, input_dim) batch. Returns (outputs, cache) for backward_batch."""
    x = np.asarray(inputs, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != net.input_dim:
        raise ConfigError(f"expected input shape (n, {net.input_dim}), got {x.shape}")
    if not np.all(np.isfinite(x)):
        raise ConfigError("non-finite network input")
    layer_inputs = []
    pre_acts = []
    h = x
    for spec, w, b in zip(net.specs, net.weights, net.biases):
        layer_inputs.append(h)
        z = h @ w.T + b
        pre_acts.append(z)
        h = np.maximum(z, 0.0) if spec.activation == "relu" else z
    return h, {"inputs": layer_inputs, "pres": pre_acts}


def forward(net: Mlp, inputs):
    """Single-vector forward. Returns (output vector, cache)."""
    y, cache = forward_batch(net, np.asarray(inputs, dtype=np.float64)[None, :])
    return y[0], cache


def backward_batch(net: Mlp, cache, output_grads: np.ndarray) -> Gradients:
    """Backprop a (n, output_dim) upstream gradient through the cached batch.

    Parameter gradients are summed over the batch; input_grads stay per-row.
    ReLU subgradient at exactly 0 is 0.
    """
    g = np.asarray(output_grads, dtype=np.float64)
    if g.ndim == 1:
        g = g[None, :]
    if g.shape != cache["pres"][-1].shape:
        raise ConfigError(
            f"output grad shape {g.shape} != output shape {cache['pres'][-1].shape}"
        )
    weight_grads = [None] * len(net.weights)
    bias_grads = [None] * len(net.biases)
    for i in range(len(net.specs) - 1, -1, -1):
        if net.specs[i].activation == "relu":
            g = g * (cache["pres"][i] > 0.0)
        weight_grads[i] = g.T @ cache["inputs"][i]
        bias_grads[i] = g.sum(axis=0)
        g = g @ net.weights[i]
    return Gradients(weight_grads=weight_grads, bias_grads=bias_grads, input_grads=g)


def backward(net: Mlp, cache, output_grad) -> Gradients:
    """Single-vector backprop; input_grads is a flat vector."""
    grads = backward_batch(net, cache, np.asarray(output_grad, dtype=np.float64)[None, :])
    grads.input_grads = grads.input_grads[0]
    return grads


def rmsprop_step(net: Mlp, grads: Gradients, state: RmspropState, lr: float):
    """In-place RMSProp update. Returns (net, state) for convenience."""
    if lr <= 0:
        raise ConfigError(f"learning rate must be positive, got {lr}")
    params = list(zip(net.weights, grads.weight_grads, state.weight_caches)) + list(
        zip(net.biases, grads.bias_grads, state.bias_caches)
    )
    for p, g, cache in params:
        if not np.all(np.isfinite(g)):
            raise TrainingError("non-finite gradient in optimizer step")
        cache *= state.decay
        cache += (1.0 - state.decay) * g * g
        p -= lr * g / (np.sqrt(cache) + state.epsilon)
    return net, state


def save_mlp(net: Mlp, path):
    """Versioned flat file: magic + layer specs, then row-major float64 LE params."""
    with open(path, "wb") as f:
        f.write(MAGIC + b"\n")
        f.write(f"{len(net.specs)}\n".encode("ascii"))
        for spec in net.specs:
            f.write(f"{spec.input_dim} {spec.output_dim} {spec.activation}\n".encode("ascii"))
        for w, b in zip(net.weights, net.biases):
            f.write(np.ascontiguousarray(w, dtype="<f8").tobytes())
            f.write(np.ascontiguousarray(b, dtype="<f8").tobytes())


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
    expected = 8 * sum(s.output_dim * (s.input_dim + 1) for s in specs)
    if len(raw) != expected:
        raise ConfigError(f"{path}: expected {expected} parameter bytes, found {len(raw)}")
    params = np.frombuffer(raw, dtype="<f8").astype(np.float64)
    weights, biases = [], []
    for i, spec in enumerate(specs):
        n = spec.output_dim * spec.input_dim
        weights.append(params[:n].reshape(spec.output_dim, spec.input_dim))
        biases.append(params[n:n + spec.output_dim])
        params = params[n + spec.output_dim:]
        for key, values in ((f"layer {i} weights", weights[-1]), (f"layer {i} biases", biases[-1])):
            if not np.all(np.isfinite(values)):
                raise ConfigError(f"{path}: non-finite value in {key}")
    return Mlp(specs=specs, weights=weights, biases=biases)
