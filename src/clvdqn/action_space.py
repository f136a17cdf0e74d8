"""Action selection: the value of every discrete action, maximized over acont in mixed mode.

A net's input width says which action space it scores: 5 inputs (the state)
for discrete actions only, 6 (the state, then the continuous attribute acont)
for the mixed space. With ReLU hidden layers each output of a mixed net is
piecewise linear in acont for a fixed state, so its maximum over the bounds
lies at a bound or at a kink, where some hidden pre-activation changes sign.
maximize_continuous_batch enumerates those points and evaluates them all.
Ties always break toward the lowest acont, then the lowest action index.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .nn_core import ConfigError, Mlp, NetworkOverflow, forward_batch
from .rfmi import STATE_DIMS

CHUNK_ROWS = 2048  # network rows per block of states in the kink search; bounds memory only


@dataclass(frozen=True)
class AcontRange:
    """Normalized acont values of a mixed net: the closed search interval and inaction's input."""

    lo: float
    hi: float
    inaction: float = 0.0  # the normalized raw acont 0; inaction is never maximized

    def __post_init__(self):
        if not (np.isfinite(self.lo) and np.isfinite(self.hi) and self.lo < self.hi):
            raise ConfigError(f"degenerate bounds ({self.lo}, {self.hi})")


def is_mixed(net: Mlp) -> bool:
    """True for a 6-input (mixed) net, False for a 5-input (discrete) one; ConfigError otherwise."""
    width = len(STATE_DIMS)
    if net.input_dim not in (width, width + 1):
        raise ConfigError(f"a Q-network takes {width} inputs (discrete) or {width + 1} (mixed), "
                          f"not {net.input_dim}")
    return net.input_dim == width + 1


def action_values(net: Mlp, states, acont_range: AcontRange = None):
    """(aconts, qs), both (n, net.output_dim), for a batch of normalized states.

    A discrete net's qs are its outputs and its aconts are 0. A mixed net needs
    acont_range; see maximize_continuous_batch.
    """
    states = np.atleast_2d(np.asarray(states, dtype=np.float64))
    if not is_mixed(net):
        qs, _ = forward_batch(net, states)
        return np.zeros_like(qs), qs
    return maximize_continuous_batch(net, states, acont_range)


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


def maximize_continuous_batch(net: Mlp, states, acont_range: AcontRange):
    """Exact best acont and Q of every discrete action, for a (n, 5) state batch.

    Returns (aconts, qs), both (n, net.output_dim). Column 0 is inaction at
    acont_range.inaction, not maximized; every other column holds the maximum
    of that output over [acont_range.lo, acont_range.hi], at the lowest acont
    reaching it. Each column's q comes from one forward_batch over the n
    chosen inputs.
    """
    states = np.atleast_2d(np.asarray(states, dtype=np.float64))
    if net.input_dim != states.shape[1] + 1:
        raise ConfigError(f"a {net.input_dim}-input net cannot take {states.shape[1]}-dim "
                          "states plus acont")
    if acont_range is None:
        raise ConfigError("a mixed-mode net needs an acont range to maximize over")
    aconts = np.empty((len(states), net.output_dim))
    block = max(1, CHUNK_ROWS // _max_points(net))
    for i in range(0, len(states), block):
        aconts[i:i + block] = _argmax_aconts(net, states[i:i + block],
                                             acont_range.lo, acont_range.hi)
    aconts[:, 0] = acont_range.inaction
    qs = np.empty_like(aconts)
    for a in range(net.output_dim):
        q, _ = forward_batch(net, np.column_stack([states, aconts[:, a]]))
        qs[:, a] = q[:, a]
    if not np.all(np.isfinite(qs)):
        raise NetworkOverflow("non-finite Q-value while maximizing over the continuous action")
    return aconts, qs
