"""Synthetic donor population and the autonomous explore/train control loop.

The ground-truth response probability is a clamped linear score: base rate plus
a per-action effect, minus contact fatigue proportional to i_frequency, minus
a recency penalty for formerly frequent donors, plus a thank-you bonus when the
donor transacted in the last period. These are exactly the structures the
learner is expected to recover. State bookkeeping matches rfmi.compute_state,
so simulated transitions and logged-data transitions share one convention.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field, fields

import numpy as np

from . import policy_eval
from .action_space import ActionSpec
from .nn_core import init_mlp
from .qlearn import Learner, TrainConfig, TrainingDiverged, network_spec, td_steps
from .rfmi import N_ACTIONS, NormStats, RfmiState, Transitions, apply_norm, compute_norm_stats

log = logging.getLogger(__name__)

PROB_FLOOR = 0.001
PROB_CEIL = 0.999


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
            raise ValueError(f"need {N_ACTIONS} action effects")


def response_probability(model: DonorModel, state: RfmiState, action: int) -> float:
    """Ground-truth response probability, clamped to [0.001, 0.999]."""
    p = model.base_rate + model.action_effects[action]
    p -= model.fatigue_coeff * state.i_frequency
    if state.frequency > 2:
        p -= model.recency_decay * state.recency
    if action == model.thankyou_action and state.recency <= 1:
        p += model.thankyou_boost
    return min(max(p, PROB_FLOOR), PROB_CEIL)


def _advance_state(state: RfmiState, action: int, reward: float) -> RfmiState:
    # Incremental form of the rfmi period-boundary conventions.
    if reward > 0:
        frequency = state.frequency + 1
        recency = 1.0
        monetary = (state.monetary * state.frequency + reward) / frequency
    else:
        frequency = state.frequency
        recency = state.recency + 1
        monetary = state.monetary
    if action != 0:
        i_frequency = state.i_frequency + 1
        i_recency = 1.0
    else:
        i_frequency = state.i_frequency
        i_recency = state.i_recency + 1
    return RfmiState(recency, frequency, monetary, i_recency, i_frequency)


def env_step(model: DonorModel, state: RfmiState, action: int, acont: float, rng):
    """Simulate one period for one donor. Returns (reward, next_state)."""
    if not 0 <= action < N_ACTIONS:
        raise ValueError(f"invalid action {action}")
    p = response_probability(model, state, action)
    responded = rng.random() < p
    reward = float(rng.exponential(model.amount_mean)) if responded else 0.0
    return reward, _advance_state(state, action, reward)


@dataclass
class AgentConfig:
    epsilon0: float = 1.0
    epsilon_floor: float = 0.05
    epsilon_decay: float = 0.995  # per-episode multiplier
    episodes: int = 300
    train_every: int = 5  # episodes between training bursts
    steps_per_burst: int = 400  # gradient steps per burst
    replay_capacity: int = 1_000_000
    constraints: list = field(default_factory=list)  # callables (state, action) -> bool
    drop_threshold: float = None  # mean-reward floor for pruning actions
    drop_min_observations: int = 200
    initial_policy: object = None  # callable state -> action, used while untrained
    seed: int = 0

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
        self._rows = Transitions.empty(capacity)
        self._added = 0  # rows ever added; row k lives in slot k % capacity

    def __len__(self):
        return min(self._added, len(self._rows))

    def add(self, batch: Transitions):
        capacity = len(self._rows)
        keep = batch[max(len(batch) - capacity, 0):]
        first = self._added + len(batch) - len(keep)
        slots = np.arange(first, first + len(keep)) % capacity
        for f in fields(Transitions):
            getattr(self._rows, f.name)[slots] = getattr(keep, f.name)
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


def write_history_csv(history, path):
    import csv

    with open(path, "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f)
        writer.writerow(["episode", "epsilon", "mean_reward", "response_rate", "replay_size"])
        for r in history:
            writer.writerow([r.episode, repr(r.epsilon), repr(r.mean_reward),
                             repr(r.response_rate), r.replay_size])


def _allowed_actions(cfg: AgentConfig, state: RfmiState, dropped) -> list:
    allowed = []
    for a in range(N_ACTIONS):
        if a in dropped:
            continue
        if any(not rule(state, a) for rule in cfg.constraints):
            continue
        allowed.append(a)
    return allowed or [0]  # inaction is always a legal fallback


def run_autonomous(population, model: DonorModel, agent_cfg: AgentConfig,
                   train_cfg: TrainConfig):
    """Cold-start control loop: explore, log into replay, train in bursts.

    `population` is either a customer count (fresh donors) or a list of
    starting RfmiStates. Returns an AutonomousResult; the trained net consumes
    states normalized with result.norm_stats.
    """
    if isinstance(population, int):
        states = [RfmiState(0, 0, 0, 0, 0) for _ in range(population)]
    else:
        states = list(population)
    if not states:
        raise ValueError("population must contain at least one customer")
    env_rng = np.random.default_rng(model.seed)
    agent_rng = np.random.default_rng(agent_cfg.seed)
    net_seed = train_cfg.seed
    learner = Learner.fresh(init_mlp(network_spec(train_cfg.mode), net_seed),
                            np.random.default_rng(train_cfg.seed))
    replay = ReplayRing(min(agent_cfg.replay_capacity, len(states) * agent_cfg.episodes))
    stats = NormStats.identity()
    spec = ActionSpec(continuous_dims=1 if train_cfg.mode == "mixed" else 0)
    trained = False
    dropped = set()
    history = []

    for episode in range(agent_cfg.episodes):
        eps = agent_cfg.epsilon(episode)
        n = len(states)
        # Greedy recommendations for the whole population at once.
        if trained:
            norm = stats.normalize_state(np.array([s.to_array() for s in states]))
            greedy_actions, greedy_aconts, _ = policy_eval.recommend_batch(
                learner.net, norm, train_cfg.mode, spec,
                inaction_acont=stats.normalize_acont(0.0),
            )
        elif agent_cfg.initial_policy is not None:
            greedy_actions = np.array([agent_cfg.initial_policy(s) for s in states])
            greedy_aconts = np.zeros(n)
        else:
            greedy_actions, greedy_aconts = None, None

        explore = agent_rng.random(n) < eps
        ep_states = np.empty((n, 5))
        ep_next = np.empty((n, 5))
        ep_actions = np.empty(n, dtype=np.int64)
        ep_aconts = np.empty(n)
        rewards = np.empty(n)
        for i, state in enumerate(states):
            allowed = _allowed_actions(agent_cfg, state, dropped)
            if explore[i] or greedy_actions is None:
                action = int(allowed[agent_rng.integers(len(allowed))])
                if train_cfg.mode == "mixed" and action != 0:
                    acont = float(agent_rng.uniform(*spec.bounds))
                else:
                    acont = 0.0
            else:
                action = int(greedy_actions[i])
                if action != 0 and train_cfg.mode == "mixed":
                    acont = float(stats.denormalize_acont(greedy_aconts[i]))
                else:
                    acont = 0.0
                if action not in allowed:
                    action, acont = int(allowed[agent_rng.integers(len(allowed))]), 0.0
            reward, next_state = env_step(model, state, action, acont, env_rng)
            ep_states[i] = state.to_array()
            ep_next[i] = next_state.to_array()
            ep_actions[i] = action
            ep_aconts[i] = acont
            rewards[i] = reward
            states[i] = next_state
        replay.add(Transitions(ep_states, ep_actions, ep_aconts, ep_next, rewards))
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
                td_steps(learner, apply_norm(stats, data), agent_cfg.steps_per_burst, train_cfg,
                         action_spec=spec, inaction_acont=stats.normalize_acont(0.0))
                trained = True
            except TrainingDiverged:
                net_seed += 1
                log.warning("training diverged; re-initializing network with seed %d", net_seed)
                learner = Learner.fresh(init_mlp(network_spec(train_cfg.mode), net_seed),
                                        learner.rng, learner.step)
                trained = False
            if agent_cfg.drop_threshold is not None:
                dropped |= _underperforming_actions(data, agent_cfg)

    return AutonomousResult(net=learner.net, norm_stats=stats, history=history,
                            replay=replay, dropped_actions=dropped)


def _underperforming_actions(data: Transitions, cfg: AgentConfig) -> set:
    dropped = set()
    for action in range(1, N_ACTIONS):  # inaction must remain available
        mask = data.actions == action
        if mask.sum() >= cfg.drop_min_observations and data.rewards[mask].mean() < cfg.drop_threshold:
            dropped.add(action)
    return dropped
