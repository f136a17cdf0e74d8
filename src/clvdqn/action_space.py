"""Action selection: the value of every discrete action, maximized over acont in mixed mode.

A net's input width says which action space it scores: 5 inputs (the state)
for discrete actions only, 6 (the state, then the continuous attribute acont)
for the mixed space. With ReLU hidden layers each output of a mixed net is
piecewise linear in acont for a fixed state, so its maximum over the bounds
lies at a bound or at a kink, where some hidden pre-activation changes sign.
maximize_continuous_batch enumerates those points as one flat list of (state,
acont) candidates per block of BLOCK_STATES states and evaluates them all
from the block's cached state part, layer 0's pre-activations at acont 0, the
only layer arithmetic here (nn_core's one layer loop runs every other layer):
layer 0's kinks are in closed form, and no candidate runs a whole forward.
Ties always break toward the lowest acont, then the lowest action index.
Every Q-value returned comes from net_qs, which raises NetworkOverflow if one is not finite.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .nn_core import ConfigError, Mlp, NetworkOverflow, _pres_from, batch_inputs
from .rfmi import STATE_DIMS

BLOCK_STATES = 12  # states per block of the kink search; bounds memory only
SCORE_ROWS = 512  # rows per block of net_qs; bounds memory only
_ZERO = np.zeros(1)  # the read-only buffer of a discrete net's aconts
_ZERO.flags.writeable = False


@dataclass(frozen=True)
class AcontRange:
    """Normalized acont values of a mixed net: the closed search interval and inaction's input."""

    lo: float
    hi: float
    inaction: float = 0.0  # the normalized raw acont 0; inaction is never maximized

    def __post_init__(self):
        if not (self.lo < self.hi and np.isfinite(float(self.hi) - float(self.lo))):
            raise ConfigError(f"degenerate bounds ({self.lo}, {self.hi}): need 0 < hi - lo < inf")


def is_mixed(net: Mlp) -> bool:
    """True for a 6-input (mixed) net, False for a 5-input (discrete) one; ConfigError otherwise."""
    width = len(STATE_DIMS)
    if net.input_dim not in (width, width + 1):
        raise ConfigError(f"a Q-network takes {width} inputs (discrete) or {width + 1} (mixed), "
                          f"not {net.input_dim}")
    return net.input_dim == width + 1


def score_cuts(n: int) -> list:
    """Bounds of the blocks that n rows are scored in: SCORE_ROWS rows each, the last taking
    the remainder, so no block is smaller than SCORE_ROWS rows or the whole batch."""
    return [0, *range(SCORE_ROWS, n - SCORE_ROWS + 1, SCORE_ROWS), n]


def net_qs(net: Mlp, inputs):
    """The net's outputs for a (n, input_dim) batch: states, then acont for a mixed net.

    The batch is checked whole, then forwarded with no cache, in the blocks of
    score_cuts; a batch of under 2 * SCORE_ROWS rows is one block. Each block's
    last product goes straight into the output, so at most 2 * SCORE_ROWS - 1
    rows' hidden activations are live. It runs forward_batch's layer loop, with
    no cache. A non-finite output raises NetworkOverflow: the inputs are finite,
    so the net overflows.
    """
    x = batch_inputs(net, inputs)  # its errors name the whole batch's shape
    qs = np.empty((len(x), net.output_dim))
    cuts = score_cuts(len(x))
    with np.errstate(over="ignore", invalid="ignore"):
        for lo, hi in zip(cuts, cuts[1:]):
            _pres_from(net, x[lo:hi], -1, len(net.specs) - 1, out=qs[lo:hi])
        if net.specs[-1].activation == "relu":
            np.maximum(qs, 0.0, out=qs)
    if not np.isfinite(qs).all():
        raise NetworkOverflow("non-finite Q-value: the network overflows")
    return qs


def action_values(net: Mlp, states, acont_range: AcontRange = None):
    """(aconts, qs), both (n, net.output_dim), for a batch of normalized states.

    A discrete net's qs are its outputs and its aconts a read-only 0 of stride 0, which
    allocates nothing. A mixed net needs acont_range; see maximize_continuous_batch.
    A non-finite Q raises NetworkOverflow.
    """
    states = np.atleast_2d(np.asarray(states, dtype=np.float64))
    if not is_mixed(net):
        qs = net_qs(net, states)
        return np.ndarray(qs.shape, buffer=_ZERO, strides=(0, 0)), qs
    return maximize_continuous_batch(net, states, acont_range)


def _argmax_aconts(net: Mlp, states, lo: float, hi: float):
    """(n, output_dim) lowest acont in [lo, hi] at which each output peaks.

    Layer 0's pre-activations are c + acont * u, with the state part c cached
    once per block, so its kinks are -c / u in closed form (a unit with u == 0
    has none). The candidates are flat (owner, acont) arrays sorted by owner,
    then acont, starting at each state's two bounds, and z holds the
    pre-activations of the layer being read at each candidate. Hidden layers
    are taken in order. Between consecutive candidates of one owner every
    earlier layer is affine in acont, so layer k's pre-activations are too,
    and each sign change gives a kink by linear interpolation; an overflowing
    layer's NaN kinks are dropped. A pass's new points are forwarded from c
    through layer k only, merged in, and every candidate's z then goes on to
    layer k + 1. (A linear hidden layer adds points that are not kinks: more
    candidates, same maximum. An output ReLU only clips a segment's affine
    value, which keeps its maximum at a segment end.)
    """
    c = states @ net.weights[0][:, :-1].T
    c += net.biases[0]
    u = net.weights[0][:, -1]
    owner = np.repeat(np.arange(len(states)), 2)
    points = np.tile([lo, hi], len(states))
    z = c[owner] + np.multiply.outer(points, u)
    last = len(net.specs) - 1
    for k in range(last):
        if k == 0:
            kinks = -c / u
            kink_owner, unit = np.nonzero((lo < kinks) & (kinks < hi))
            kinks = kinks[kink_owner, unit]
        else:
            z0, z1 = z[:-1], z[1:]
            cross = (np.sign(z0) * np.sign(z1) < 0) & (owner[:-1] == owner[1:])[:, None]
            seg, unit = np.nonzero(cross)
            z0, z1, t0, t1 = z0[seg, unit], z1[seg, unit], points[seg], points[seg + 1]
            kinks = np.clip(t0 + (t1 - t0) * (z0 / (z0 - z1)), t0, t1)
            kept = ~np.isnan(kinks)
            kink_owner, kinks = owner[seg[kept]], kinks[kept]
        kink_z = _pres_from(net, c[kink_owner] + np.multiply.outer(kinks, u), 0, k)
        owner = np.concatenate([owner, kink_owner])
        points = np.concatenate([points, kinks])
        order = np.lexsort((points, owner))
        owner, points = owner[order], points[order]
        z = _pres_from(net, np.concatenate([z, kink_z])[order], k, k + 1)
    q = np.maximum(z, 0.0) if net.specs[-1].activation == "relu" else z
    starts = np.searchsorted(owner, np.arange(len(states)))  # each state's first candidate
    peaks = np.maximum.reduceat(q, starts)
    hit = (q == peaks[owner]) | np.isnan(q)  # a NaN peak sits at its first NaN, as in np.argmax
    return points[np.minimum.reduceat(np.where(hit, np.arange(len(q))[:, None], len(q)), starts)]


def maximize_continuous_batch(net: Mlp, states, acont_range: AcontRange):
    """Exact best acont and Q of every discrete action, for a (n, 5) state batch.

    Returns (aconts, qs), both (n, net.output_dim). Column 0 is inaction at
    acont_range.inaction, not maximized; every other column holds the maximum
    of that output over [acont_range.lo, acont_range.hi], at the lowest acont
    reaching it. Each column's q comes from one net_qs over the n chosen
    inputs. A non-finite Q-value raises NetworkOverflow.
    """
    states = np.atleast_2d(np.asarray(states, dtype=np.float64))
    if net.input_dim != states.shape[1] + 1:
        raise ConfigError(f"a {net.input_dim}-input net cannot take {states.shape[1]}-dim "
                          "states plus acont")
    if acont_range is None:
        raise ConfigError("a mixed-mode net needs an acont range to maximize over")
    # its errors name the whole batch's shape; its last column holds each read-back's aconts
    x = batch_inputs(net, np.column_stack([states, np.full(len(states), acont_range.inaction)]))
    aconts = np.empty((len(x), net.output_dim))
    # u == 0 in _argmax_aconts divides by zero; an overflow raises NetworkOverflow
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for i in range(0, len(x), BLOCK_STATES):
            aconts[i:i + BLOCK_STATES] = _argmax_aconts(net, x[i:i + BLOCK_STATES, :-1],
                                                        acont_range.lo, acont_range.hi)
    aconts[:, 0] = acont_range.inaction
    qs = np.empty_like(aconts)
    for a in range(net.output_dim):
        x[:, -1] = aconts[:, a]
        qs[:, a] = net_qs(net, x)[:, a]
    return aconts, qs
