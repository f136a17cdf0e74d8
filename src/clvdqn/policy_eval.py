"""Policy extraction, CLV estimation, and matched-vs-deviated evaluation.

The evaluation partitions logged transitions by whether the logged action
agreed with the model's recommendation and compares group response rates and
mean rewards against a seeded random baseline, the best single logged action,
and the dataset mean. This matched-group comparison is a biased off-policy
estimate (no importance weighting); the text report carries that caveat.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from datetime import datetime, timezone

import numpy as np

from .action_space import action_values, is_mixed, net_qs
from .nn_core import ConfigError, Mlp
from .rfmi import N_ACTIONS, STATE_DIMS, NormStats, Transitions, write_csv

BIAS_CAVEAT = (
    "matched/deviated comparison is a biased off-policy estimate (no importance weighting)"
)


@dataclass
class GroupStats:
    n: int
    response_rate: float  # nan when n = 0
    mean_reward: float  # nan when n = 0

    @property
    def defined(self) -> bool:
        return self.n > 0


def _group_stats(rewards) -> GroupStats:
    rewards = np.asarray(rewards)
    if rewards.size == 0:
        return GroupStats(n=0, response_rate=float("nan"), mean_reward=float("nan"))
    return GroupStats(
        n=int(rewards.size),
        response_rate=float(np.mean(rewards > 0)),
        mean_reward=float(rewards.mean()),
    )


@dataclass
class EvaluationReport:
    matched: GroupStats
    deviated: GroupStats
    random_baseline: GroupStats
    best_single_action: int
    best_single_action_stats: GroupStats
    dataset_mean: GroupStats


@dataclass
class ClvEstimate:
    values: np.ndarray  # per-action expected discounted cumulative reward
    aconts: np.ndarray  # maximizing acont per action (raw units); 0 for inaction and discrete nets

    @property
    def best_action(self) -> int:
        return int(np.argmax(self.values))

    @property
    def best_value(self) -> float:
        return float(self.values.max())


def _raw_action_values(net: Mlp, raw_states, norm_stats: NormStats, acont_range):
    """action_values of raw states, with a mixed net's aconts in raw units and inaction's 0."""
    if np.shape(raw_states)[-1:] != (5,):  # normalize_state would broadcast a narrower state
        raise ConfigError(f"expected 5-dim raw states, got shape {np.shape(raw_states)}")
    with np.errstate(over="ignore"):  # forward_batch rejects a state too large to normalize
        aconts, qs = action_values(net, norm_stats.normalize_state(raw_states), acont_range)
    if is_mixed(net):
        aconts = norm_stats.denormalize_acont(aconts)
        aconts[:, 0] = 0.0
    return aconts, qs


def recommend_batch(net: Mlp, raw_states, norm_stats: NormStats, acont_range=None):
    """(actions, raw aconts, qs) of the best action per raw state; a mixed net needs acont_range."""
    aconts, qs = _raw_action_values(net, raw_states, norm_stats, acont_range)
    actions = np.argmax(qs, axis=1)
    rows = np.arange(len(actions))
    return actions, aconts[rows, actions], qs[rows, actions]


def evaluate(transitions: Transitions, net: Mlp, norm_stats: NormStats, acont_range=None,
             baseline_seed: int = 0) -> EvaluationReport:
    """Matched-vs-deviated report over raw logged transitions.

    A mixed net matches on the discrete action and on the continuous attribute
    after rounding both raw aconts to the nearest integer.
    """
    if not transitions:
        raise ConfigError("cannot evaluate on empty transition list")
    logged_actions = transitions.actions
    rewards = transitions.rewards

    rec_actions, rec_aconts, _ = recommend_batch(net, transitions.states, norm_stats, acont_range)
    matched_mask = rec_actions == logged_actions
    if is_mixed(net):
        acont_match = np.round(transitions.aconts) == np.round(rec_aconts)
        matched_mask &= (rec_actions == 0) | acont_match  # inaction has no attribute

    rng = np.random.default_rng(baseline_seed)
    random_actions = rng.integers(0, N_ACTIONS, size=len(transitions))
    random_mask = random_actions == logged_actions

    best_action, best_stats = -1, GroupStats(0, float("nan"), float("nan"))
    for a in range(N_ACTIONS):
        stats = _group_stats(rewards[logged_actions == a])
        if stats.defined and (
            not best_stats.defined or stats.mean_reward > best_stats.mean_reward
        ):
            best_action, best_stats = a, stats

    return EvaluationReport(
        matched=_group_stats(rewards[matched_mask]),
        deviated=_group_stats(rewards[~matched_mask]),
        random_baseline=_group_stats(rewards[random_mask]),
        best_single_action=best_action,
        best_single_action_stats=best_stats,
        dataset_mean=_group_stats(rewards),
    )


def estimate_clv(net: Mlp, raw_state, norm_stats: NormStats, acont_range=None) -> ClvEstimate:
    """Per-action Q-values for one raw (unnormalized) customer state.

    Q-outputs are already in reward currency units; only the inputs are
    normalized. A mixed net needs acont_range.
    """
    raw_state = np.asarray(raw_state, dtype=np.float64)
    if raw_state.shape != (5,):
        raise ConfigError(f"expected a 5-dim raw state, got shape {raw_state.shape}")
    if np.any(raw_state < 0):
        raise ConfigError("state components must be non-negative")
    aconts, qs = _raw_action_values(net, raw_state, norm_stats, acont_range)
    return ClvEstimate(values=qs[0], aconts=aconts[0])


# ---------------------------------------------------------------------------
# Value-curve export (Q against swept raw state dimensions)


class SweepError(ConfigError):
    """A bad SweepSpec field; `field` names it: dims, ranges or reference."""

    def __init__(self, field_name: str, message: str):
        super().__init__(message)
        self.field = field_name


@dataclass
class SweepSpec:
    dims: tuple  # 1 or 2 distinct names from STATE_DIMS
    ranges: tuple  # matching (lo, hi) pairs, raw units, finite
    resolution: int = 50
    reference: dict = field(default_factory=dict)  # fixed finite raw values for other dims

    def __post_init__(self):
        if not 1 <= len(self.dims) <= 2 or len(self.dims) != len(self.ranges):
            raise ConfigError("sweep needs 1 or 2 dims with matching ranges")
        for name, dims in (("dims", self.dims), ("reference", self.reference)):
            for d in dims:
                if d not in STATE_DIMS:
                    raise SweepError(name, f"unknown state dimension {d!r}")
        if len(set(self.dims)) < len(self.dims):
            raise SweepError("dims", f"state dimension {self.dims[0]!r} swept twice")
        for d in self.dims:
            if d in self.reference:
                raise SweepError("reference", f"state dimension {d!r} is swept, not fixed")
        for name, values in (("ranges", self.ranges), ("reference", self.reference.values())):
            for v in np.ravel(list(values)).tolist():
                if not math.isfinite(v):
                    raise SweepError(name, f"non-finite value {v!r}")


def export_value_curves(net: Mlp, sweep: SweepSpec, norm_stats: NormStats):
    """Rows of (swept value(s), 12 Q-values) over a raw-unit grid.

    Unswept dimensions sit at sweep.reference values (default 0). A mixed
    net's acont input is held at inaction's, raw acont 0.
    """
    base = np.zeros(5)
    for dim, val in sweep.reference.items():
        base[STATE_DIMS.index(dim)] = val
    axes = [np.linspace(lo, hi, sweep.resolution) for lo, hi in sweep.ranges]
    grid = np.column_stack([a.ravel() for a in np.meshgrid(*axes, indexing="ij")])
    raw_states = np.tile(base, (len(grid), 1))
    for j, dim in enumerate(sweep.dims):
        raw_states[:, STATE_DIMS.index(dim)] = grid[:, j]
    states = norm_stats.normalize_state(raw_states)
    if is_mixed(net):
        inaction = norm_stats.normalize_acont(0.0)
        states = np.concatenate([states, np.full((len(states), 1), inaction)], axis=1)
    return np.concatenate([grid, net_qs(net, states)], axis=1)


def write_curves_csv(rows, sweep: SweepSpec, path):
    """The rows of export_value_curves, one column per swept dim and per action's Q."""
    header = [*sweep.dims, *(f"q{a}" for a in range(rows.shape[1] - len(sweep.dims)))]
    write_csv(path, header, rows.T)


# ---------------------------------------------------------------------------
# Report formatting


def _fmt(stats: GroupStats):
    if not stats.defined:
        return "n=0 (rates undefined)"
    return f"rate={stats.response_rate:.4f} mean_reward={stats.mean_reward:.4f} n={stats.n}"


def _groups(report: EvaluationReport):
    """(name, action or "", stats) of each group, in report order."""
    return (
        ("matched", "", report.matched),
        ("deviated", "", report.deviated),
        ("random_baseline", "", report.random_baseline),
        ("best_single_action", report.best_single_action, report.best_single_action_stats),
        ("dataset_mean", "", report.dataset_mean),
    )


def report_text(report: EvaluationReport, timestamp: bool = True) -> str:
    lines = [datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")] if timestamp else []
    lines.append(f"# caveat: {BIAS_CAVEAT}")
    for name, action, stats in _groups(report):
        label = name.replace("_", " ") + ("" if action == "" else f" ({action:>2})")
        lines.append(f"{label:<22}: {_fmt(stats)}")
    return "\n".join(lines) + "\n"


def report_csv_rows(report: EvaluationReport):
    rows = [["group", "action", "n", "response_rate", "mean_reward"]]
    for name, action, stats in _groups(report):
        rates = [repr(stats.response_rate), repr(stats.mean_reward)] if stats.defined else ["", ""]
        rows.append([name, str(action), str(stats.n), *rates])
    return rows


def write_report_csv(report: EvaluationReport, path):
    header, *rows = report_csv_rows(report)
    write_csv(path, header, zip(*rows))
