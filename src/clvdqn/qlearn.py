"""Mini-batch Q-learning with experience replay and a cloned target network.

The network maps the 5-dim customer state (plus the continuous action
attribute in mixed mode) to one value per discrete action. Targets are
r + gamma * max_a' Q_target(s', a'); the loss gradient flows only through the
output neuron of the action actually taken. Model selection keeps the
parameters with the best matched-group mean reward on the validation set.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, fields

import numpy as np

from . import policy_eval
from .action_space import AcontRange, action_values, is_mixed, score_cuts
from .nn_core import (
    ConfigError,
    Gradients,
    LayerSpec,
    Mlp,
    NetworkOverflow,
    TrainingDiverged,
    backward_batch,
    forward_batch,
    init_mlp,
    load_mlp,
    rmsprop_step,
    save_mlp,
)
from .rfmi import N_ACTIONS, DataError, NormStats, Transitions, apply_norm, key_values

log = logging.getLogger(__name__)

HIDDEN = (40, 15)

MODES = ("discrete_only", "mixed")

SEGMENT_DRAWS = 65_536  # replay draws per segment of td_steps; bounds memory only


@dataclass
class TrainConfig:
    mode: str = "discrete_only"  # the net train makes (network_spec); first key of the sidecar
    gamma: float = 0.9
    lr0: float = 0.001
    lr_decay_per_epoch: float = 0.99
    batch_size: int = 200
    epochs: int = 100
    target_clone_period: int = 10000  # in gradient steps
    seed: int = 0
    bounds_lo: float = -2.0  # acont search interval of a mixed net, normalized units
    bounds_hi: float = 2.0

    def __post_init__(self):
        if not 0 <= self.gamma < 1:
            raise ConfigError(f"gamma must be in [0,1), got {self.gamma}")
        if not (math.isfinite(self.lr0) and self.lr0 > 0):
            raise ConfigError(f"lr0 must be finite and > 0, got {self.lr0}")
        if not 0 < self.lr_decay_per_epoch <= 1:
            raise ConfigError(f"lr_decay_per_epoch must be in (0,1], got {self.lr_decay_per_epoch}")
        if self.batch_size < 1 or self.epochs < 0 or self.target_clone_period < 1:
            raise ConfigError("bad batch/epoch/clone settings")
        if self.mode not in MODES:
            raise ConfigError(f"mode must be one of {MODES}")
        AcontRange(self.bounds_lo, self.bounds_hi)  # ConfigError on degenerate bounds

    def acont_range(self, stats: NormStats) -> AcontRange:
        """The bounds, with inaction at raw acont 0 normalized under stats."""
        return AcontRange(self.bounds_lo, self.bounds_hi, stats.normalize_acont(0.0))


def network_spec(mode: str):
    n_in = 5 if mode == "discrete_only" else 6
    return [
        LayerSpec(n_in, HIDDEN[0], "relu"),
        LayerSpec(HIDDEN[0], HIDDEN[1], "relu"),
        LayerSpec(HIDDEN[1], N_ACTIONS, "linear"),
    ]


def max_next_q(next_states, target_net, acont_range=None):
    """max_a' Q_target(s', a') for a batch of next states; a mixed net needs acont_range."""
    return action_values(target_net, next_states, acont_range)[1].max(axis=1)


def bellman_target(batch: Transitions, target_net: Mlp, cfg: TrainConfig,
                   acont_range=None) -> np.ndarray:
    """y = r + gamma * max_a' Q_target(s', a') for each transition of a batch."""
    return batch.rewards + cfg.gamma * max_next_q(batch.next_states, target_net, acont_range)


def td_step(batch: Transitions, net: Mlp, target_net: Mlp, opt: np.ndarray, cfg: TrainConfig,
            lr=None, acont_range=None, grads: Gradients = None, y=None):
    """One gradient step on a batch. Returns the batch mean squared TD error.

    Only the output neuron of the taken action receives loss gradient. The
    gradients go into grads (a Gradients.like(net)) if given, else a new one.
    y holds the batch's Bellman targets if the caller has them; else
    bellman_target computes them with target_net. A non-finite loss, gradient
    or target Q-value raises TrainingDiverged.
    """
    if not batch:
        raise ConfigError("empty training batch")
    lr = cfg.lr0 if lr is None else lr
    n = len(batch)
    x = batch.states
    if is_mixed(net):
        x = np.concatenate([x, batch.aconts[:, None]], axis=1)
    with np.errstate(over="ignore", invalid="ignore"):  # non-finite values raise below
        if y is None:
            try:
                y = bellman_target(batch, target_net, cfg, acont_range)
            except NetworkOverflow:
                raise TrainingDiverged(-1, -1, what="target Q-value") from None
        q, cache = forward_batch(net, x)
        taken = batch.actions + np.arange(0, q.size, q.shape[1])  # flat index of (row, action)
        err = q.take(taken)
        err -= y
        loss = float(np.add.reduce(err * err)) / n  # np.mean's sum and division, called direct
        if not math.isfinite(loss):
            raise TrainingDiverged(-1, -1, loss)
        err *= 2.0  # then / n: the bits of 2.0 * err / n
        err /= n
        output_grads = np.zeros(q.shape)
        output_grads.put(taken, err)
        grads = backward_batch(net, cache, output_grads, grads, input_grads=False)
    rmsprop_step(net, grads, opt, lr)
    return loss


@dataclass
class Learner:
    """What TD training carries from one call of td_steps to the next."""

    net: Mlp
    target: Mlp  # clone of net, refreshed every cfg.target_clone_period steps
    opt: np.ndarray  # the RMSProp cache, in Mlp.flat's layout
    rng: np.random.Generator  # uniform replay draws
    step: int = 0  # gradient steps completed

    @classmethod
    def fresh(cls, net: Mlp, rng, step: int = 0) -> "Learner":
        return cls(net, net.copy(), np.zeros_like(net.flat), rng, step)


def td_steps(learner: Learner, data, n_steps: int, cfg: TrainConfig, norm_stats: NormStats,
             lr=None) -> np.ndarray:
    """n_steps TD steps on batches drawn uniformly with replacement from raw data (anything with
    len() whose int-array index gives Transitions in a new table: a Transitions or an
    env.ReplayRing), each normalized in that table with norm_stats. Clones the target net
    whenever the learner's global step count reaches a multiple of cfg.target_clone_period.
    Returns the per-step losses.

    The steps run in segments, each ending at a clone, at the call's end or after
    SEGMENT_DRAWS draws. A segment first draws its steps' batches, one rng call per step as
    a step-by-step loop makes them, then computes the Bellman target of each distinct drawn
    row once (_row_targets), and each step takes its batch's targets from those. If that
    scoring raises (a non-finite input or target Q-value), each step of the segment
    computes its own batch's targets, so the fault raises at the step that first draws its
    row. Whatever raises, learner.rng is left after the draws of the steps begun.
    """
    acont_range = cfg.acont_range(norm_stats)
    losses = np.empty(n_steps)
    grads = Gradients.like(learner.net)
    rng, size, period = learner.rng, cfg.batch_size, cfg.target_clone_period
    done = 0
    while done < n_steps:
        steps = min(n_steps - done, max(SEGMENT_DRAWS // size, 1), period - learner.step % period)
        start = rng.bit_generator.state
        drawn = np.empty((steps, size), dtype=np.int64)
        for i in range(steps):
            drawn[i] = rng.integers(0, len(data), size=size)
        begun = 0
        try:
            rows, inverse = np.unique(drawn, return_inverse=True)
            inverse = inverse.reshape(drawn.shape)  # numpy 1 returns it flat
            try:
                targets = _row_targets(data, rows, learner.target, cfg, norm_stats, acont_range)
            except ConfigError:  # NetworkOverflow included: the steps raise it in turn
                targets = None
            for i in range(steps):
                begun = i + 1
                batch = data[drawn[i]]
                apply_norm(norm_stats, batch, out=batch.table)  # the gather is a copy: normalize it
                y = None if targets is None else targets[inverse[i]]
                losses[done + i] = td_step(batch, learner.net, learner.target, learner.opt, cfg,
                                           lr, acont_range, grads, y)
                learner.step += 1
        except BaseException:
            rng.bit_generator.state = start
            for _ in range(begun):
                rng.integers(0, len(data), size=size)
            raise
        done += steps
        if learner.step % period == 0:
            learner.target = learner.net.copy()
    return losses


def _row_targets(data, rows, target_net: Mlp, cfg: TrainConfig, norm_stats: NormStats,
                 acont_range) -> np.ndarray:
    """bellman_target of data's rows (distinct indices), gathered and normalized in the blocks
    that net_qs scores a batch in (score_cuts), so each block is one net_qs block. (On
    OpenBLAS a row's Q bits do not depend on its batch mates in a batch of 81 rows or more,
    so a set that large gets the bits of a batch-200 step.)"""
    targets = np.empty(len(rows))
    cuts = score_cuts(len(rows))
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite target raises in td_step
        for lo, hi in zip(cuts, cuts[1:]):
            block = data[rows[lo:hi]]
            apply_norm(norm_stats, block, out=block.table)
            targets[lo:hi] = bellman_target(block, target_net, cfg, acont_range)
    return targets


@dataclass
class EpochRecord:
    epoch: int
    loss: float
    val_response_rate: float
    val_mean_reward: float
    lr: float


def train(train_set: Transitions, validation_set: Transitions, cfg: TrainConfig,
          norm_stats: NormStats):
    """Train a DQN on raw logged transitions. Returns (best net, one EpochRecord per epoch).

    td_steps normalizes each batch of train_set with norm_stats; validation
    runs policy_eval.evaluate on the raw validation_set.

    The best net has the highest matched-group mean reward on the validation set; when no
    epoch has a matched group, it is the last trained net. An epoch is ceil(N / batch_size)
    uniform replay draws, so each sample is expected once per epoch; the learning rate decays
    per epoch and the target net is cloned on a fixed gradient-step schedule. A non-finite
    Q-value in the epoch's validation raises TrainingDiverged, as one in a step does.
    """
    if not train_set:
        raise ConfigError("empty training set")
    net = init_mlp(network_spec(cfg.mode), cfg.seed)
    history = []
    if cfg.epochs == 0:
        return net, history
    acont_range = cfg.acont_range(norm_stats)
    learner = Learner.fresh(net, np.random.default_rng(cfg.seed))
    steps_per_epoch = math.ceil(len(train_set) / cfg.batch_size)
    lr = cfg.lr0
    best_net, best_reward = None, -np.inf
    for epoch in range(cfg.epochs):
        try:
            losses = td_steps(learner, train_set, steps_per_epoch, cfg, norm_stats, lr)
            report = policy_eval.evaluate(validation_set, net, norm_stats, acont_range,
                                          baseline_seed=cfg.seed)
        except TrainingDiverged as exc:
            raise TrainingDiverged(epoch, learner.step, exc.loss, exc.what) from exc
        except NetworkOverflow as exc:
            raise TrainingDiverged(epoch, learner.step, what="validation Q-value") from exc
        val_rate = report.matched.response_rate
        val_reward = report.matched.mean_reward
        history.append(EpochRecord(epoch, float(losses.mean()), val_rate, val_reward, lr))
        score = val_reward if math.isfinite(val_reward) else -np.inf
        if score > best_reward:
            best_reward = score
            best_net = net.copy()
        lr *= cfg.lr_decay_per_epoch
    if best_net is None:
        log.warning("no epoch had a matched validation group; keeping the last trained net")
        return net, history
    return best_net, history


# ---------------------------------------------------------------------------
# Checkpoint: a weight file (nn_core.save_mlp) and its key=value sidecar beside it


def save_checkpoint(path, net: Mlp, cfg: TrainConfig, norm_stats: NormStats):
    """The net's weights at path; its TrainConfig (mode and bounds included) and NormStats
    in the sidecar path.meta."""
    save_mlp(net, path)
    write_sidecar(f"{path}.meta", cfg, norm_stats)


def load_checkpoint(path):
    """(net, TrainConfig, NormStats) of a save_checkpoint pair; DataError names the file that
    is malformed, or the sidecar whose mode does not fit the net."""
    try:
        net = load_mlp(path)
    except ConfigError as exc:
        raise DataError(str(exc)) from None
    cfg, stats = read_sidecar(f"{path}.meta")
    if net.input_dim != network_spec(cfg.mode)[0].input_dim:
        raise DataError(f"{path}.meta: mode {cfg.mode} does not match the {net.input_dim}-input "
                        f"net in {path}")
    return net, cfg, stats


def write_sidecar(path, cfg: TrainConfig, norm_stats):
    values = {f.name: getattr(cfg, f.name) for f in fields(TrainConfig)}
    lines = {k: v if isinstance(v, str) else repr(v) for k, v in values.items()}
    lines.update(
        state_mean=",".join(repr(float(v)) for v in norm_stats.state_mean),
        state_std=",".join(repr(float(v)) for v in norm_stats.state_std),
        acont_mean=repr(float(norm_stats.acont_mean)),
        acont_std=repr(float(norm_stats.acont_std)),
    )
    with open(path, "w", encoding="utf-8") as f:
        for k, v in lines.items():
            f.write(f"{k}={v}\n")


def _five_floats(text):
    values = np.array([float(v) for v in text.split(",")])
    if values.shape != (5,):
        raise ValueError(f"expected 5 values, got {values.size}")
    return values


def read_sidecar(path):
    """(TrainConfig, NormStats) of a sidecar read by rfmi.key_values; DataError names a
    missing, malformed (an integer outside int64 included) or non-finite key."""
    kv = {key: text for _, key, text in key_values(path)}

    def value(key, parse):
        if key not in kv:
            raise DataError(f"{path}: missing key {key!r}")
        try:
            parsed = parse(kv[key])
            if isinstance(parsed, int) and not -2**63 <= parsed < 2**63:
                raise ValueError("outside int64")
        except ValueError:
            raise DataError(f"{path}: bad value for {key!r}: {kv[key]!r}") from None
        if (isinstance(parsed, float) and not math.isfinite(parsed)
                or isinstance(parsed, np.ndarray) and not np.isfinite(parsed).all()):
            raise DataError(f"{path}: non-finite value for {key!r}: {kv[key]!r}")
        return parsed

    defaults = TrainConfig()
    try:
        cfg = TrainConfig(**{f.name: value(f.name, type(getattr(defaults, f.name)))
                             for f in fields(TrainConfig)})
    except ConfigError as exc:
        raise DataError(f"{path}: {exc}") from None
    stats = NormStats(
        state_mean=value("state_mean", _five_floats),
        state_std=value("state_std", _five_floats),
        acont_mean=value("acont_mean", float),
        acont_std=value("acont_std", float),
    )
    return cfg, stats
