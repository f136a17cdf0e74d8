"""RFM-I state construction from customer timelines.

A timeline is one customer's per-period record of donation amounts and
marketing contacts. States summarize strictly the periods before the given
index; an event in period p-1 gives recency 1 at index p, and with no history
recency equals the number of elapsed periods. Action 0 is inaction.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, fields

import numpy as np

N_ACTIONS = 12  # action 0 is inaction

STATE_DIMS = ("recency", "frequency", "monetary", "i_recency", "i_frequency")

TRANSITION_COLUMNS = (
    "r", "f", "m", "ir", "if", "a", "acont",
    "r2", "f2", "m2", "ir2", "if2", "reward",
)


class DataError(ValueError):
    """Malformed timeline or transition data."""


@dataclass(frozen=True)
class RfmiState:
    recency: float
    frequency: float
    monetary: float
    i_recency: float
    i_frequency: float

    def to_array(self) -> np.ndarray:
        return np.array(
            [self.recency, self.frequency, self.monetary, self.i_recency, self.i_frequency],
            dtype=np.float64,
        )


@dataclass
class CustomerTimeline:
    customer_id: str
    amounts: np.ndarray  # (periods,) donation per period, 0 = none
    actions: np.ndarray  # (periods,) int, 0 = inaction
    aconts: np.ndarray  # (periods,) continuous attribute, 0 for inaction

    def __post_init__(self):
        self.amounts = np.asarray(self.amounts, dtype=np.float64)
        self.actions = np.asarray(self.actions, dtype=np.int64)
        self.aconts = np.asarray(self.aconts, dtype=np.float64)
        if not (len(self.amounts) == len(self.actions) == len(self.aconts)):
            raise DataError(f"timeline arrays differ in length for {self.customer_id}")
        if np.any(self.amounts < 0):
            raise DataError(f"negative amount in timeline {self.customer_id}")
        if np.any(self.actions < 0):
            raise DataError(f"negative action in timeline {self.customer_id}")

    @property
    def periods(self) -> int:
        return len(self.amounts)


@dataclass
class Transitions:
    """A batch of transitions as parallel columns; row i of every field is one transition.

    `len()` is the row count. Indexing with a slice, boolean mask or index
    array selects rows and returns another Transitions.
    """

    states: np.ndarray  # (n, 5) state at the start of the period
    actions: np.ndarray  # (n,) int64, 0 = inaction
    aconts: np.ndarray  # (n,) continuous attribute
    next_states: np.ndarray  # (n, 5)
    rewards: np.ndarray  # (n,) currency units

    def __post_init__(self):
        self.states = np.asarray(self.states, dtype=np.float64)
        self.actions = np.asarray(self.actions, dtype=np.int64)
        self.aconts = np.asarray(self.aconts, dtype=np.float64)
        self.next_states = np.asarray(self.next_states, dtype=np.float64)
        self.rewards = np.asarray(self.rewards, dtype=np.float64)

    def __len__(self) -> int:
        return len(self.rewards)

    def __getitem__(self, rows) -> "Transitions":
        return Transitions(self.states[rows], self.actions[rows], self.aconts[rows],
                           self.next_states[rows], self.rewards[rows])

    @classmethod
    def empty(cls, n: int) -> "Transitions":
        """n rows of uninitialized storage."""
        return cls(np.empty((n, 5)), np.empty(n, dtype=np.int64), np.empty(n),
                   np.empty((n, 5)), np.empty(n))

    @classmethod
    def concat(cls, parts: list) -> "Transitions":
        return cls(*(np.concatenate([getattr(p, f.name) for p in parts]) for f in fields(cls)))


def compute_state(timeline: CustomerTimeline, period_index: int) -> RfmiState:
    """State at a period boundary, from the first `period_index` periods only."""
    if not 0 <= period_index <= timeline.periods:
        raise DataError(
            f"period_index {period_index} out of range [0, {timeline.periods}]"
        )
    amounts = timeline.amounts[:period_index]
    donated = np.nonzero(amounts > 0)[0]
    frequency = len(donated)
    if frequency:
        recency = period_index - 1 - donated[-1] + 1  # counted at the period's end
        monetary = float(amounts[donated].mean())
    else:
        recency = period_index
        monetary = 0.0
    contacted = np.nonzero(timeline.actions[:period_index] != 0)[0]
    i_frequency = len(contacted)
    i_recency = period_index - contacted[-1] if i_frequency else period_index
    return RfmiState(
        recency=float(recency),
        frequency=float(frequency),
        monetary=monetary,
        i_recency=float(i_recency),
        i_frequency=float(i_frequency),
    )


def build_transitions(timeline: CustomerTimeline) -> Transitions:
    """One transition per period after the first; reward co-occurs with the action."""
    if timeline.periods < 2:
        raise DataError(f"timeline {timeline.customer_id} needs >= 2 periods")
    states = np.array([compute_state(timeline, p).to_array() for p in range(timeline.periods)])
    return Transitions(states[:-1], timeline.actions[:-1], timeline.aconts[:-1],
                       states[1:], timeline.amounts[:-1])


@dataclass
class NormStats:
    """Affine normalization: 5 state dims plus the continuous action attribute.

    Zero-variance dimensions keep std 0 in storage and divide by 1 when applied.
    """

    state_mean: np.ndarray
    state_std: np.ndarray
    acont_mean: float
    acont_std: float

    def _safe(self, std):
        return np.where(np.asarray(std) > 0, std, 1.0)

    def normalize_state(self, arr) -> np.ndarray:
        return (np.asarray(arr, dtype=np.float64) - self.state_mean) / self._safe(self.state_std)

    def denormalize_state(self, arr) -> np.ndarray:
        return np.asarray(arr, dtype=np.float64) * self._safe(self.state_std) + self.state_mean

    def normalize_acont(self, v: float) -> float:
        return (v - self.acont_mean) / (self.acont_std if self.acont_std > 0 else 1.0)

    def denormalize_acont(self, v: float) -> float:
        return v * (self.acont_std if self.acont_std > 0 else 1.0) + self.acont_mean

    @classmethod
    def identity(cls) -> "NormStats":
        return cls(np.zeros(5), np.ones(5), 0.0, 1.0)


def compute_norm_stats(data: Transitions) -> NormStats:
    """Population moments over states and next states; acont over acted rows only."""
    if not data:
        raise DataError("cannot compute normalization stats from empty input")
    states = np.concatenate([data.states, data.next_states])
    aconts = data.aconts[data.actions != 0]
    if aconts.size:
        acont_mean, acont_std = float(aconts.mean()), float(aconts.std())
    else:
        acont_mean, acont_std = 0.0, 0.0
    return NormStats(
        state_mean=states.mean(axis=0),
        state_std=states.std(axis=0),
        acont_mean=acont_mean,
        acont_std=acont_std,
    )


def apply_norm(stats: NormStats, data: Transitions) -> Transitions:
    """Normalized states and aconts; actions and rewards (currency units) are shared, not copied."""
    return Transitions(
        stats.normalize_state(data.states),
        data.actions,
        stats.normalize_acont(data.aconts),
        stats.normalize_state(data.next_states),
        data.rewards,
    )


# ---------------------------------------------------------------------------
# CSV interfaces


def _timeline_fault(period, amount, action, acont, periods_seen):
    """Why a parsed timeline row is invalid, or None."""
    if not (math.isfinite(amount) and math.isfinite(acont)):
        return "non-finite amount or acont"
    if amount < 0:
        return "negative amount"
    if not 0 <= action < N_ACTIONS:
        return f"action must be an integer in 0..{N_ACTIONS - 1}"
    if period < 0:
        return "negative period"
    if period in periods_seen:
        return f"duplicate period {period} for this customer"
    return None


def read_timelines(path) -> list:
    """Timeline CSV: customer_id,period,amount,action,acont (empty action = inaction).

    A malformed row, or one with a _timeline_fault, raises DataError("path:line: ...").
    """
    per_customer = {}
    with open(path, newline="", encoding="utf-8") as f:
        reader = csv.DictReader(f)
        expected = ["customer_id", "period", "amount", "action", "acont"]
        if reader.fieldnames != expected:
            raise DataError(f"expected header {','.join(expected)}, got {reader.fieldnames}")
        for line_no, row in enumerate(reader, start=2):
            try:
                cid = row["customer_id"]
                period = int(row["period"])
                amount = float(row["amount"]) if row["amount"] else 0.0
                action = int(row["action"]) if row["action"] else 0
                acont = float(row["acont"]) if row["acont"] else 0.0
            except (TypeError, ValueError) as exc:
                raise DataError(f"{path}:{line_no}: malformed row ({exc})") from None
            rows = per_customer.setdefault(cid, {})
            fault = _timeline_fault(period, amount, action, acont, rows)
            if fault:
                raise DataError(f"{path}:{line_no}: {fault}")
            rows[period] = (amount, action, acont)
    timelines = []
    for cid, rows in per_customer.items():
        periods = max(rows) + 1
        amounts = np.zeros(periods)
        actions = np.zeros(periods, dtype=np.int64)
        aconts = np.zeros(periods)
        for period, (amount, action, acont) in rows.items():
            amounts[period], actions[period], aconts[period] = amount, action, acont
        timelines.append(CustomerTimeline(cid, amounts, actions, aconts))
    return timelines


def write_timelines(timelines, path):
    with open(path, "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f)
        writer.writerow(["customer_id", "period", "amount", "action", "acont"])
        for tl in timelines:
            for p in range(tl.periods):
                action = tl.actions[p]
                writer.writerow(
                    [
                        tl.customer_id,
                        p,
                        repr(float(tl.amounts[p])),
                        int(action) if action != 0 else "",
                        repr(float(tl.aconts[p])) if action != 0 else "",
                    ]
                )


def write_transitions(data: Transitions, path):
    """13-column transition CSV in the fixed r..reward order, UTF-8, '.' decimals."""
    floats = np.column_stack([data.states, data.aconts, data.next_states, data.rewards]).tolist()
    with open(path, "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f)
        writer.writerow(TRANSITION_COLUMNS)
        for row, action in zip(floats, data.actions.tolist()):
            writer.writerow(row[:5] + [action] + row[5:])


def read_transitions(path) -> Transitions:
    """Reads a transition CSV, rejecting malformed rows with DataError("path:line: ...").

    Every value must be finite, the action an integer in 0..N_ACTIONS-1 and
    every state component non-negative.
    """
    rows = []
    with open(path, newline="", encoding="utf-8") as f:
        reader = csv.reader(f)
        header = next(reader, None)
        if header != list(TRANSITION_COLUMNS):
            raise DataError(f"expected header {','.join(TRANSITION_COLUMNS)}, got {header}")
        for line_no, row in enumerate(reader, start=2):
            if len(row) != 13:
                raise DataError(f"{path}:{line_no}: expected 13 columns, got {len(row)}")
            try:
                rows.append([float(v) for v in row])
            except ValueError as exc:
                raise DataError(f"{path}:{line_no}: malformed row ({exc})") from None
    vals = np.array(rows, dtype=np.float64).reshape(-1, 13)
    actions = vals[:, 5]
    state_cols = vals[:, [0, 1, 2, 3, 4, 7, 8, 9, 10, 11]]
    faults = (  # checked in this order, so a row's first fault is the one reported
        (~np.isfinite(vals).all(axis=1), "non-finite value"),
        ((actions != np.floor(actions)) | (actions < 0) | (actions >= N_ACTIONS),
         f"action must be an integer in 0..{N_ACTIONS - 1}"),
        ((state_cols < 0).any(axis=1), "negative state value"),
    )
    bad = [(int(np.argmax(mask)), message) for mask, message in faults if mask.any()]
    if bad:
        row, message = min(bad, key=lambda b: b[0])
        raise DataError(f"{path}:{row + 2}: {message}")
    return Transitions(vals[:, 0:5], actions.astype(np.int64), vals[:, 6],
                       vals[:, 7:12], vals[:, 12])
