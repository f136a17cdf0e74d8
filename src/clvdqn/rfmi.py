"""RFM-I state construction from customer timelines.

A timeline is one customer's per-period record of donation amounts and
marketing contacts. States summarize strictly the periods before the given
index; an event in period p-1 gives recency 1 at index p, and with no history
recency equals the number of elapsed periods (likewise i_recency for
contacts). monetary is the sum of gifts, added in period order, over
frequency. advance_states is the one definition of this arithmetic, for logged
and simulated donors alike. Action 0 is inaction.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

N_ACTIONS = 12  # action 0 is inaction

STATE_DIMS = ("recency", "frequency", "monetary", "i_recency", "i_frequency")

TIMELINE_COLUMNS = ("customer_id", "period", "amount", "action", "acont")

TRANSITION_COLUMNS = (
    "r", "f", "m", "ir", "if", "a", "acont",
    "r2", "f2", "m2", "ir2", "if2", "reward",
)


class DataError(ValueError):
    """Malformed timeline or transition data."""


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


def advance_states(states: np.ndarray, gift_sums: np.ndarray, actions: np.ndarray,
                   amounts: np.ndarray):
    """Raw (n, 5) states one period on, with each donor's sum of gifts so far.

    Returns (next_states, next_gift_sums). A gift in the period sets recency
    to 1 and makes monetary the new gift sum over the new frequency; a contact
    sets i_recency to 1; otherwise the recencies grow by one.
    """
    recency, frequency, monetary, i_recency, i_frequency = states.T
    paid, acted = amounts > 0, actions != 0
    gift_sums = gift_sums + amounts
    frequency = frequency + paid
    return np.column_stack([
        np.where(paid, 1.0, recency + 1),
        frequency,
        np.divide(gift_sums, frequency, out=monetary.copy(), where=paid),
        np.where(acted, 1.0, i_recency + 1),
        i_frequency + acted,
    ]), gift_sums


def build_transitions(timelines) -> Transitions:
    """One transition per period after the first of each timeline, customer by customer.

    The reward co-occurs with the action. The timelines are padded to one
    (customers, periods) grid with zero amounts and inaction, and the states
    of every customer are stepped together with advance_states.
    """
    for tl in timelines:
        if tl.periods < 2:
            raise DataError(f"timeline {tl.customer_id} needs >= 2 periods")
    periods = np.array([tl.periods for tl in timelines], dtype=np.int64)
    width = int(periods.max(initial=0))
    amounts = np.zeros((len(timelines), width))
    actions = np.zeros((len(timelines), width), dtype=np.int64)
    aconts = np.zeros((len(timelines), width))
    for i, tl in enumerate(timelines):
        amounts[i, :tl.periods], actions[i, :tl.periods], aconts[i, :tl.periods] = (
            tl.amounts, tl.actions, tl.aconts)
    states = np.zeros((len(timelines), width, 5))
    gift_sums = np.zeros(len(timelines))
    for p in range(width - 1):
        states[:, p + 1], gift_sums = advance_states(states[:, p], gift_sums,
                                                     actions[:, p], amounts[:, p])
    keep = np.arange(width - 1) < periods[:, None] - 1  # (customers, width - 1), row-major
    return Transitions(states[:, :-1][keep], actions[:, :-1][keep], aconts[:, :-1][keep],
                       states[:, 1:][keep], amounts[:, :-1][keep])


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


def _check_header(path, header, expected):
    if header != list(expected):
        got = ",".join(header) if header else "an empty line"
        raise DataError(f"{path}:1: expected header {','.join(expected)}, got {got}")


def read_timelines(path) -> list:
    """Timeline CSV: customer_id,period,amount,action,acont (empty action = inaction).

    A wrong header, a malformed row, one with a _timeline_fault, or a customer
    with fewer than 2 periods raises DataError("path:line: ...").
    """
    per_customer, first_lines = {}, {}
    with open(path, newline="", encoding="utf-8") as f:
        reader = csv.DictReader(f)
        _check_header(path, reader.fieldnames, TIMELINE_COLUMNS)
        for row in reader:
            line_no = reader.line_num  # DictReader skips blank lines, so count them here
            try:
                cid = row["customer_id"]
                period = int(row["period"])
                amount = float(row["amount"]) if row["amount"] else 0.0
                action = int(row["action"]) if row["action"] else 0
                acont = float(row["acont"]) if row["acont"] else 0.0
            except (TypeError, ValueError) as exc:
                raise DataError(f"{path}:{line_no}: malformed row ({exc})") from None
            rows = per_customer.setdefault(cid, {})
            first_lines.setdefault(cid, line_no)
            fault = _timeline_fault(period, amount, action, acont, rows)
            if fault:
                raise DataError(f"{path}:{line_no}: {fault}")
            rows[period] = (amount, action, acont)
    timelines = []
    for cid, rows in per_customer.items():
        periods = max(rows) + 1
        if periods < 2:
            raise DataError(f"{path}:{first_lines[cid]}: timeline {cid} needs >= 2 periods")
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
        writer.writerow(TIMELINE_COLUMNS)
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
        _check_header(path, next(reader, None), TRANSITION_COLUMNS)
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
