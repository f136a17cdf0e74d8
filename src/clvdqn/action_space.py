"""Action selection: discrete argmax and exact continuous-attribute maximization.

In mixed mode the network input is [state(5), acont]. With ReLU hidden layers
each output is piecewise linear in acont for a fixed state, so its maximum over
the bounds lies at a bound or at a kink, where some hidden pre-activation
changes sign. maximize_continuous_batch enumerates those points and evaluates
them all. Ties always break toward the lowest acont, then the lowest action
index.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .nn_core import ConfigError, Mlp, forward, forward_batch

N_ACTIONS_DEFAULT = 12  # 11 mailing types + inaction 0
CHUNK_ROWS = 2048  # network rows per block of states in the kink search; bounds memory only


@dataclass
class ActionSpec:
    n_discrete: int = N_ACTIONS_DEFAULT
    continuous_dims: int = 0  # 0 or 1
    bounds: tuple = (0.0, 1.0)  # closed interval in normalized units

    def __post_init__(self):
        if self.n_discrete < 1:
            raise ConfigError("n_discrete must be >= 1")
        if self.continuous_dims not in (0, 1):
            raise ConfigError("continuous_dims must be 0 or 1")
        if self.continuous_dims:
            lo, hi = self.bounds
            if not (np.isfinite(lo) and np.isfinite(hi) and lo < hi):
                raise ConfigError(f"degenerate bounds {self.bounds}")


@dataclass
class MixedAction:
    action: int
    acont: float  # meaningless for inaction
    q_value: float


def best_discrete(net: Mlp, state) -> MixedAction:
    """Argmax over output neurons; first index wins ties."""
    q, _ = forward(net, state)
    action = int(np.argmax(q))
    return MixedAction(action=action, acont=0.0, q_value=float(q[action]))


def _max_points(net: Mlp) -> int:
    """Bound on _argmax_aconts' points per state: each hidden unit can cross 0 once per segment."""
    m = 2
    for spec in net.specs[:-1]:
        m += (m - 1) * spec.output_dim
    return m


def _paired(states, aconts):
    """Network inputs pairing row i of states with each acont in row i of aconts."""
    return np.column_stack([np.repeat(states, aconts.shape[1], axis=0), aconts.reshape(-1)])


def _argmax_aconts(net: Mlp, states, lo: float, hi: float):
    """(n, output_dim) lowest acont in [lo, hi] at which each output peaks.

    Hidden layers are taken in order. Between consecutive points found so far
    every earlier layer is affine in acont, so this layer's pre-activations are
    too, and each sign change gives a kink by linear interpolation. (A linear
    hidden layer adds points that are not kinks: more candidates, same maximum.
    An output ReLU only clips a segment's affine value, which keeps its maximum
    at a segment end.) Rows are padded with `hi` past their `count` points.
    """
    n = len(states)
    points = np.tile([lo, hi], (n, 1))
    count = np.full(n, 2)
    for k in range(len(net.specs) - 1):
        _, cache = forward_batch(net, _paired(states, points))
        z = cache["pres"][k].reshape(n, points.shape[1], -1)
        z0, z1 = z[:, :-1], z[:, 1:]
        t0, t1 = points[:, :-1, None], points[:, 1:, None]
        cross = np.sign(z0) * np.sign(z1) < 0
        frac = np.divide(z0, z0 - z1, out=np.zeros_like(z0), where=cross)
        kinks = np.where(cross, np.clip(t0 + (t1 - t0) * frac, t0, t1), hi)
        count += cross.sum(axis=(1, 2))
        points = np.sort(np.concatenate([points, kinks.reshape(n, -1)], axis=1), axis=1)
        points = points[:, :count.max()]
    q, _ = forward_batch(net, _paired(states, points))
    first_max = np.argmax(q.reshape(n, points.shape[1], -1), axis=1)
    return np.take_along_axis(points, first_max, axis=1)


def maximize_continuous_batch(net: Mlp, states, spec: ActionSpec, inaction_acont: float = 0.0):
    """Exact best acont and Q of every discrete action, for a (n, 5) state batch.

    Returns (aconts, qs), both (n, spec.n_discrete). Column 0 is inaction at
    `inaction_acont`, not maximized; every other column holds the maximum of
    that output over spec.bounds, at the lowest acont reaching it. Each
    column's q comes from one forward_batch over the n chosen inputs.
    """
    states = np.atleast_2d(np.asarray(states, dtype=np.float64))
    if net.input_dim != states.shape[1] + 1:
        raise ConfigError(
            f"mixed-mode net expects {net.input_dim} inputs, states have {states.shape[1]} dims"
        )
    lo, hi = spec.bounds
    aconts = np.empty((len(states), net.output_dim))
    block = max(1, CHUNK_ROWS // _max_points(net))
    for i in range(0, len(states), block):
        aconts[i:i + block] = _argmax_aconts(net, states[i:i + block], lo, hi)
    aconts = aconts[:, :spec.n_discrete]
    aconts[:, 0] = inaction_acont
    qs = np.empty_like(aconts)
    for a in range(spec.n_discrete):
        q, _ = forward_batch(net, np.column_stack([states, aconts[:, a]]))
        qs[:, a] = q[:, a]
    if not np.all(np.isfinite(qs)):
        raise ConfigError("non-finite Q-value while maximizing over the continuous action")
    return aconts, qs


def best_mixed_batch(net: Mlp, states, spec: ActionSpec, inaction_acont: float = 0.0):
    """(actions, aconts, qs) of the best mixed action per state; inaction sits at inaction_acont."""
    aconts, qs = maximize_continuous_batch(net, states, spec, inaction_acont)
    actions = np.argmax(qs, axis=1)
    rows = np.arange(len(actions))
    return actions, aconts[rows, actions], qs[rows, actions]


def best_mixed(net: Mlp, state, spec: ActionSpec, inaction_acont: float = 0.0) -> MixedAction:
    actions, aconts, qs = best_mixed_batch(net, np.asarray(state)[None, :], spec, inaction_acont)
    return MixedAction(action=int(actions[0]), acont=float(aconts[0]), q_value=float(qs[0]))
