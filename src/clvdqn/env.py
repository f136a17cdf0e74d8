"""Synthetic donor population and the autonomous explore/train control loop.

The ground-truth response probability is a clamped linear score: base rate plus
a per-action effect, minus contact fatigue proportional to i_frequency, minus
a recency penalty for formerly frequent donors, plus a thank-you bonus when the
donor transacted in the last period. These are exactly the structures the
learner is expected to recover. States advance with rfmi.advance_states, the
arithmetic that builds logged transitions, so a simulated history rebuilt as
timelines gives back the same states bit for bit.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from . import policy_eval
from .action_space import is_mixed
from .nn_core import ConfigError, NetworkOverflow, init_mlp
from .qlearn import Learner, TrainConfig, TrainingDiverged, network_spec, td_steps
from .rfmi import (N_ACTIONS, TRANSITION_COLUMNS, NormStats, Transitions, advance_states,
                   compute_norm_stats)

log = logging.getLogger(__name__)

PROB_FLOOR = 0.001
PROB_CEIL = 0.999
REPLAY_CAPACITY = 1_000_000  # rows; past it the oldest are overwritten


@dataclass
class DonorModel:
    base_rate: float = 0.08
    action_effects: tuple = (
        0.0,  # inaction
        0.02, 0.03, 0.02, 0.30, 0.02, 0.03,
        0.05, 0.02, 0.03, 0.02, 0.04,
    )
    fatigue_coeff: float = 0.0005  # penalty per unit i_frequency
    recency_decay: float = 0.002  # per unit recency, frequent donors only
    thankyou_boost: float = 0.35  # extra effect when recency <= 1
    thankyou_action: int = 7
    amount_mean: float = 10.0
    seed: int = 0

    def __post_init__(self):
        if len(self.action_effects) != N_ACTIONS:
            raise ConfigError(f"need {N_ACTIONS} action effects")
        if not 0 <= self.thankyou_action < N_ACTIONS:
            raise ConfigError(f"thankyou_action must be in 0..{N_ACTIONS - 1}, "
                              f"got {self.thankyou_action}")
        if not np.isfinite([self.base_rate, *self.action_effects, self.fatigue_coeff,
                            self.recency_decay, self.thankyou_boost]).all():
            raise ConfigError("the response rates, effects and coefficients must be finite")
        if not 0 <= self.amount_mean < np.inf:
            raise ConfigError(f"amount_mean must be finite and >= 0, got {self.amount_mean}")


def response_probabilities(model: DonorModel, states: np.ndarray, actions: np.ndarray) -> np.ndarray:
    """Ground-truth response probability per row of raw (n, 5) states, clamped to [0.001, 0.999]."""
    if np.any((actions < 0) | (actions >= N_ACTIONS)):
        raise ValueError(f"actions must be in 0..{N_ACTIONS - 1}")
    recency, frequency, i_frequency = states[:, 0], states[:, 1], states[:, 4]
    p = model.base_rate + np.asarray(model.action_effects, dtype=np.float64)[actions]
    p = p - model.fatigue_coeff * i_frequency
    p = np.where(frequency > 2, p - model.recency_decay * recency, p)
    p = np.where((actions == model.thankyou_action) & (recency <= 1), p + model.thankyou_boost, p)
    return np.clip(p, PROB_FLOOR, PROB_CEIL)


@dataclass
class AgentConfig:
    epsilon0: float = 1.0
    epsilon_floor: float = 0.05
    epsilon_decay: float = 0.995  # per-episode multiplier
    episodes: int = 300
    train_every: int = 5  # episodes between training bursts
    steps_per_burst: int = 400  # gradient steps per burst
    # rule(states, action) -> (n,) bool over raw (n, 5) states; False forbids the action
    constraints: list = field(default_factory=list)
    drop_threshold: float = None  # mean-reward floor for pruning actions
    drop_min_observations: int = 200
    initial_policy: object = None  # policy(states) -> (n,) actions, used while untrained
    seed: int = 0

    def __post_init__(self):
        for name, least in (("episodes", 0), ("train_every", 1), ("steps_per_burst", 0)):
            if getattr(self, name) < least:
                raise ConfigError(f"{name} must be >= {least}, got {getattr(self, name)}")
        if not np.isfinite([self.epsilon0, self.epsilon_floor, self.epsilon_decay]).all():
            raise ConfigError("epsilon0, epsilon_floor and epsilon_decay must be finite")

    def epsilon(self, episode: int) -> float:
        return max(self.epsilon_floor, self.epsilon0 * self.epsilon_decay ** episode)


@dataclass
class EpisodeRecord:
    episode: int
    epsilon: float
    mean_reward: float
    response_rate: float
    replay_size: int


class ReplayRing:
    """Fixed-size FIFO replay memory; once full, each new row overwrites the oldest."""

    def __init__(self, capacity: int):
        self._rows = Transitions(np.empty((capacity, len(TRANSITION_COLUMNS))))
        self._added = 0  # rows ever added; row k lives in slot k % capacity

    def __len__(self):
        return min(self._added, len(self._rows))

    def add(self, batch: Transitions):
        capacity = len(self._rows)
        keep = batch.table[max(len(batch) - capacity, 0):]
        first = self._added + len(batch) - len(keep)
        self._rows.table[np.arange(first, first + len(keep)) % capacity] = keep
        self._added += len(batch)

    def contents(self) -> Transitions:
        """Every stored row, oldest first. Before the ring wraps this is a view
        of its storage, valid until the next add."""
        if self._added <= len(self._rows):
            return self._rows[:self._added]
        return self._rows[np.arange(self._added - len(self), self._added) % len(self._rows)]


@dataclass
class AutonomousResult:
    net: object
    norm_stats: NormStats
    history: list
    replay: ReplayRing
    dropped_actions: set


def _allowed_mask(cfg: AgentConfig, states: np.ndarray, dropped) -> np.ndarray:
    """(n, N_ACTIONS) bool: the actions each donor may receive."""
    allowed = np.ones((len(states), N_ACTIONS), dtype=bool)
    allowed[:, sorted(dropped)] = False
    for rule in cfg.constraints:
        for a in range(N_ACTIONS):
            allowed[:, a] &= rule(states, a)
    allowed[~allowed.any(axis=1), 0] = True  # inaction is always a legal fallback
    return allowed


def _choose_actions(allowed, greedy, greedy_aconts, eps, acont_range, stats, rng):
    """Epsilon-greedy (actions, raw aconts) for one episode; with greedy None everyone explores.

    acont_range is None for a discrete net, whose aconts are all 0. Otherwise an
    acting explorer draws its acont uniformly from its [lo, hi], the interval
    the greedy maximizer searches, and denormalizes it with stats.
    Draws from rng one call per kind: every explore coin; then, in customer
    order, a random allowed action for each explorer and each greedy pick that
    is not allowed; then, in customer order, the acont of each acting explorer.
    """
    mixed = acont_range is not None
    n = len(allowed)
    explore = (rng.random(n) < eps) | (greedy is None)
    actions = np.zeros(n, dtype=np.int64) if greedy is None else np.asarray(greedy).astype(np.int64)
    in_range = (actions >= 0) & (actions < N_ACTIONS)
    draw = explore | ~(in_range & allowed[np.arange(n), np.clip(actions, 0, N_ACTIONS - 1)])
    aconts = np.where(mixed & (actions != 0) & ~draw, greedy_aconts, 0.0)
    ranked = np.argsort(~allowed, axis=1, kind="stable")  # allowed actions first, ascending
    drawing = np.flatnonzero(draw)
    actions[drawing] = ranked[drawing, rng.integers(allowed[drawing].sum(axis=1))]
    if mixed:
        acting = np.flatnonzero(explore & (actions != 0))
        aconts[acting] = stats.denormalize_acont(
            rng.uniform(acont_range.lo, acont_range.hi, size=acting.size))
    return actions, aconts


def run_autonomous(population, model: DonorModel, agent_cfg: AgentConfig,
                   train_cfg: TrainConfig):
    """Cold-start control loop: explore, log into replay, train in bursts.

    `population` is either a customer count (fresh donors) or an (n, 5) array
    of starting raw states, whose gift sums start at frequency * monetary;
    ConfigError if it holds no customer.
    Returns an AutonomousResult; the trained net consumes states normalized
    with result.norm_stats.
    """
    if isinstance(population, int):
        population = np.zeros((max(population, 0), 5))
    states = np.array(population, dtype=np.float64).reshape(-1, 5)
    if not len(states):
        raise ConfigError("population must contain at least one customer")
    gift_sums = states[:, 1] * states[:, 2]
    env_rng = np.random.default_rng(model.seed)
    agent_rng = np.random.default_rng(agent_cfg.seed)
    net_seed = train_cfg.seed
    learner = Learner.fresh(init_mlp(network_spec(train_cfg.mode), net_seed),
                            np.random.default_rng(train_cfg.seed))
    replay = ReplayRing(min(REPLAY_CAPACITY, len(states) * agent_cfg.episodes))
    stats = NormStats.identity()
    trained = False
    dropped = set()
    history = []

    for episode in range(agent_cfg.episodes):
        eps = agent_cfg.epsilon(episode)
        acont_range = train_cfg.acont_range(stats) if is_mixed(learner.net) else None
        # Greedy recommendations for the whole population at once.
        greedy, greedy_aconts = None, 0.0
        if trained:
            try:
                greedy, greedy_aconts, _ = policy_eval.recommend_batch(learner.net, states, stats,
                                                                       acont_range)
            except NetworkOverflow:  # the last burst left weights whose Q-values overflow
                net_seed += 1
                learner, trained = _reinitialized(learner, train_cfg.mode, net_seed), False
        if not trained and agent_cfg.initial_policy is not None:
            greedy, greedy_aconts = agent_cfg.initial_policy(states), stats.denormalize_acont(0.0)
        actions, aconts = _choose_actions(_allowed_mask(agent_cfg, states, dropped), greedy,
                                          greedy_aconts, eps, acont_range, stats, agent_rng)
        # The environment draws in customer order: a response, then its amount.
        rewards = np.zeros(len(states))
        for i, p in enumerate(response_probabilities(model, states, actions).tolist()):
            if env_rng.random() < p:
                rewards[i] = env_rng.exponential(model.amount_mean)
        next_states, gift_sums = advance_states(states, gift_sums, actions, rewards)
        replay.add(Transitions(np.column_stack([states, actions, aconts, next_states, rewards])))
        states = next_states
        history.append(
            EpisodeRecord(
                episode=episode,
                epsilon=eps,
                mean_reward=float(rewards.mean()),
                response_rate=float(np.mean(rewards > 0)),
                replay_size=len(replay),
            )
        )

        if (episode + 1) % agent_cfg.train_every == 0 and len(replay) >= train_cfg.batch_size:
            data = replay.contents()
            stats = compute_norm_stats(data)
            try:
                td_steps(learner, data, agent_cfg.steps_per_burst, train_cfg, stats)
                trained = True
            except TrainingDiverged:
                net_seed += 1
                learner, trained = _reinitialized(learner, train_cfg.mode, net_seed), False
            if agent_cfg.drop_threshold is not None:
                dropped |= _underperforming_actions(data, agent_cfg)

    return AutonomousResult(net=learner.net, norm_stats=stats, history=history,
                            replay=replay, dropped_actions=dropped)


def _reinitialized(learner: Learner, mode: str, net_seed: int) -> Learner:
    """A fresh net from net_seed in place of a diverged one; the rng and step count go on."""
    log.warning("training diverged; re-initializing network with seed %d", net_seed)
    return Learner.fresh(init_mlp(network_spec(mode), net_seed), learner.rng, learner.step)


def _underperforming_actions(data: Transitions, cfg: AgentConfig) -> set:
    dropped = set()
    for action in range(1, N_ACTIONS):  # inaction must remain available
        mask = data.table[:, 5] == action
        if mask.sum() >= cfg.drop_min_observations and data.rewards[mask].mean() < cfg.drop_threshold:
            dropped.add(action)
    return dropped
