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
import io
import re
from dataclasses import dataclass, fields

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
class Timelines:
    """Customer timelines as flat columns of one entry per customer-period.

    Customer k's periods 0..lengths[k]-1 sit together, the customers one after
    another. A missing period is empty: no gift, inaction, acont 0.
    """

    customer_ids: list
    lengths: np.ndarray  # (customers,) int64 periods of each timeline, >= 2
    amounts: np.ndarray  # (lengths.sum(),) donation per period, 0 = none
    actions: np.ndarray  # (lengths.sum(),) int64, 0 = inaction
    aconts: np.ndarray  # (lengths.sum(),) continuous attribute, 0 for inaction

    def __post_init__(self):
        self.customer_ids = list(self.customer_ids)
        self.lengths = np.asarray(self.lengths, dtype=np.int64)
        self.amounts = np.asarray(self.amounts, dtype=np.float64)
        self.actions = np.asarray(self.actions, dtype=np.int64)
        self.aconts = np.asarray(self.aconts, dtype=np.float64)
        columns = (self.amounts, self.actions, self.aconts)
        n = len(self.customer_ids)
        if (self.lengths.shape != (n,) or (self.lengths < 0).any()
                or {c.shape for c in columns} != {(self.lengths.sum(),)}):
            raise DataError("timeline lengths must be >= 0, and each column hold their sum")
        owner = np.repeat(np.arange(n), self.lengths)  # the customer of each period
        k, message = _first_fault([*((np.bincount(owner[mask], minlength=n) > 0,
                                      f"{message} in timeline {{}}")
                                     for mask, message in _value_faults(*columns)),
                                   (self.lengths < 2, "timeline {} needs >= 2 periods")])
        if message:
            raise DataError(message.format(self.customer_ids[k]))

    def __len__(self) -> int:
        return len(self.customer_ids)


@dataclass
class Transitions:
    """A batch of transitions as one (n, 13) float64 table whose columns are TRANSITION_COLUMNS.

    Row i is one transition; `len()` is the row count. Indexing with a slice, boolean
    mask or index array selects rows and returns another Transitions. The action column
    holds exact integers, 0 = inaction. The named columns below are views of the table,
    except actions: a read-only int64 copy, so a write meant for the table raises.
    """

    table: np.ndarray

    def __post_init__(self):
        self.table = np.asarray(self.table, dtype=np.float64)
        if self.table.ndim != 2 or self.table.shape[1] != len(TRANSITION_COLUMNS):
            raise DataError(f"a transition table has shape (n, {len(TRANSITION_COLUMNS)}), "
                            f"not {self.table.shape}")

    states = property(lambda self: self.table[:, 0:5])  # (n, 5) state at the start of the period
    aconts = property(lambda self: self.table[:, 6])  # (n,) continuous attribute
    next_states = property(lambda self: self.table[:, 7:12])  # (n, 5)
    rewards = property(lambda self: self.table[:, 12])  # (n,) currency units

    @property
    def actions(self) -> np.ndarray:  # (n,)
        actions = self.table[:, 5].astype(np.int64)
        actions.flags.writeable = False
        return actions

    def __len__(self) -> int:
        return len(self.table)

    def __getitem__(self, rows) -> "Transitions":
        return Transitions(self.table[rows])


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


def build_transitions(timelines: Timelines) -> Transitions:
    """One transition per period after the first of each timeline, customer by customer.

    The reward co-occurs with the action. Period by period, advance_states
    steps the customers whose timeline runs on.
    """
    lengths, amounts, actions = timelines.lengths, timelines.amounts, timelines.actions
    ends = np.cumsum(lengths)
    rows, last, gift_sums = ends - lengths, ends - 1, np.zeros(len(ends))  # per running customer
    states = np.zeros((len(amounts), 5))  # each period's state at its start
    while (running := rows < last).any():
        rows, last, gift_sums = rows[running], last[running], gift_sums[running]
        states[rows + 1], gift_sums = advance_states(states[rows], gift_sums, actions[rows],
                                                     amounts[rows])
        rows += 1
    rows = np.delete(np.arange(len(states)), ends - 1)  # every period but each customer's last
    return Transitions(np.column_stack([states[rows], actions[rows], timelines.aconts[rows],
                                        states[rows + 1], amounts[rows]]))


@dataclass
class NormStats:
    """Affine normalization: 5 state dims plus the continuous action attribute.

    Zero-variance dimensions keep std 0 in storage and divide by 1. Each TRANSITION_COLUMNS
    column's shift and divisor are set at construction: 0 and 1 for the action and reward.
    """

    state_mean: np.ndarray
    state_std: np.ndarray
    acont_mean: float
    acont_std: float

    def __post_init__(self):
        state_div = np.where(np.asarray(self.state_std) > 0, self.state_std, 1.0)
        self._acont_div = self.acont_std if self.acont_std > 0 else 1.0
        self._shift = np.concatenate([self.state_mean, [0.0, self.acont_mean],
                                      self.state_mean, [0.0]])
        self._div = np.concatenate([state_div, [1.0, self._acont_div], state_div, [1.0]])

    def normalize_state(self, arr) -> np.ndarray:
        out = np.asarray(arr, dtype=np.float64) - self.state_mean
        out /= self._div[:5]  # in place, with the bits of a division into a new array
        return out

    def normalize_acont(self, v: float) -> float:
        return (v - self.acont_mean) / self._acont_div

    def denormalize_acont(self, v: float) -> float:
        return v * self._acont_div + self.acont_mean

    @classmethod
    def identity(cls) -> "NormStats":
        return cls(np.zeros(5), np.ones(5), 0.0, 1.0)


def compute_norm_stats(data: Transitions) -> NormStats:
    """Population moments over states and next states; acont over acted rows only."""
    if not data:
        raise DataError("cannot compute normalization stats from empty input")
    states = np.concatenate([data.states, data.next_states])
    acted = data.aconts[data.table[:, 5] != 0]  # the float action column, not an int64 copy
    moments = (float(acted.mean()), float(acted.std())) if acted.size else (0.0, 0.0)
    return NormStats(states.mean(axis=0), states.std(axis=0), *moments)


def apply_norm(stats: NormStats, data: Transitions) -> Transitions:
    """Normalized states and aconts in a new table; actions and rewards keep their values."""
    return Transitions((data.table - stats._shift) / stats._div)


# ---------------------------------------------------------------------------
# CSV interfaces


def _first_fault(checks):
    """(row, message) of the first row that fails a (bool mask, message) check, else (None,
    None). checks come in the order a row is checked, so on a tie the earlier one wins; a
    message may be a function of the row."""
    faults = [(int(np.argmax(mask)), message) for mask, message in checks if mask.any()]
    row, message = min(faults, key=lambda fault: fault[0], default=(None, None))
    return row, message(row) if callable(message) else message


def _value_faults(amounts, actions, aconts):
    """(mask, message) for each rule on timeline values, in the order a row is checked."""
    return (
        (~(np.isfinite(amounts) & np.isfinite(aconts)), "non-finite amount or acont"),
        (amounts < 0, "negative amount"),
        ((actions < 0) | (actions >= N_ACTIONS),
         f"action must be an integer in 0..{N_ACTIONS - 1}"),
    )


def open_text(path, newline=None):
    """A text stream over the whole of a UTF-8 file, read once: a pipe cannot be read twice.

    newline is as for open(): None reads every line end as "\\n", "" keeps them.
    DataError("path:line: not UTF-8") names the line of the first byte that does
    not decode.
    """
    with open(path, "rb") as f:
        data = f.read()
    try:
        return io.StringIO(data.decode("utf-8"), newline=newline)
    except UnicodeDecodeError as exc:
        head = data[:exc.start]
        line = head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n") + 1
        raise DataError(f"{path}:{line}: not UTF-8") from None


def _check_header(path, header, expected):
    if header != list(expected):
        got = ",".join(header) if header else "an empty line"
        raise DataError(f"{path}:1: expected header {','.join(expected)}, got {got}")


# Python's float() and int() also read underscores, non-ASCII digits and
# non-ASCII spaces, and np.loadtxt strips the separators \x1c-\x1f around a
# number. A number in these files has none of them, so both readers, one
# through float()/int() and one through np.loadtxt, read one grammar.
_NOT_PLAIN = re.compile(r"[^\x00-\x1b\x20-\x5e\x60-\x7f]")


def _check_plain(cells):
    """ValueError if a cell holds a character that no number here has."""
    bad = _NOT_PLAIN.search("".join(cells))
    if bad:
        raise ValueError(f"{bad.group()!r} in a number")


def _numbers(cells, kind, blank=""):
    """A column of CSV cells as a list of kind (int or float); an empty cell reads as blank.

    Raises ValueError unless every cell is a number as kind() reads it, with
    no underscore, non-ASCII or \\x1c-\\x1f character.
    """
    values = [kind(cell or blank) for cell in cells]
    _check_plain(cells)
    return values


def _column(cells, kind, blank=""):
    """(values, fault): the numbers of a column up to its first bad cell, and that
    cell's _first_fault check, or None when every cell is a number."""
    try:
        return _numbers(cells, kind, blank), None
    except ValueError:
        for i, cell in enumerate(cells):
            try:
                _numbers([cell], kind, blank)
            except ValueError as exc:
                return _numbers(cells[:i], kind, blank), (np.arange(i + 1) == i,
                                                          f"malformed row ({exc})")
        raise


def _int64(values):
    """Python ints as int64, clamped to +-2**62 (keeping their sign) so a period + 1 fits."""
    try:
        return np.clip(np.array(values, dtype=np.int64), -2**62, 2**62)
    except OverflowError:
        return np.array([min(max(v, -2**62), 2**62) for v in values], dtype=np.int64)


def read_timelines(path) -> Timelines:
    """Timeline CSV: customer_id,period,amount,action,acont (empty action = inaction).

    Blank lines are skipped; an empty amount, action or acont reads as 0. A
    file that is not UTF-8, a wrong header, a row without exactly 5 fields, a
    malformed number, a negative period or amount, a non-finite amount or
    acont, an action outside 0..11, a repeated period of one customer, a
    customer with fewer than 2 periods, or a period too large for the columns
    raises DataError("path:line: ..."), naming the first such row (the row of
    the largest period for the last). Timelines come in order of their
    customer's first row, each with an empty period where a row is missing.
    """
    with open_text(path, newline="") as f:
        reader = csv.reader(f)
        _check_header(path, next(reader, None), TIMELINE_COLUMNS)
        rows, line_nums = [], []  # each non-blank row and the line it ends on: no re-read on a fault
        for row in reader:
            if row:
                rows.append(row)
                line_nums.append(reader.line_num)
    widths = np.fromiter(map(len, rows), np.int64, len(rows))
    wrong_width = widths != 5
    faults = [(wrong_width, lambda i: f"expected 5 columns, got {widths[i]}")]
    rows = rows[:int(np.argmax(wrong_width))] if wrong_width.any() else rows
    cids, *cells = zip(*rows) if rows else [()] * 5
    columns = []
    for column, kind, blank in zip(cells, (int, float, int, float), ("", "0", "0", "0")):
        values, fault = _column(column, kind, blank)
        columns.append(values)
        faults += [fault] if fault else []
    n = min(map(len, columns))  # the rows before the first malformed number
    period, action = _int64(columns[0][:n]), _int64(columns[2][:n])
    amount = np.array(columns[1][:n], dtype=np.float64)
    acont = np.array(columns[3][:n], dtype=np.float64)
    index = {}
    codes = np.array([index.setdefault(cid, len(index)) for cid in cids[:n]], dtype=np.int64)
    order = np.lexsort((period, codes))  # stable: a repeat follows its first row
    duplicate = np.zeros(n, dtype=bool)
    duplicate[order[1:]] = ((codes[order[1:]] == codes[order[:-1]])
                            & (period[order[1:]] == period[order[:-1]]))
    faults += [*_value_faults(amount, action, acont), (period < 0, "negative period"),
               (duplicate, lambda i: f"duplicate period {period[i]} for this customer")]
    i, message = _first_fault(faults)
    if message:
        raise DataError(f"{path}:{line_nums[i]}: {message}")
    lengths = np.zeros(len(index), dtype=np.int64)
    np.maximum.at(lengths, codes, period + 1)
    short = (lengths < 2)[codes]  # each row of a customer with fewer than 2 periods
    i, message = _first_fault([(short, lambda i: f"timeline {cids[i]} needs >= 2 periods")])
    if message:
        raise DataError(f"{path}:{line_nums[i]}: {message}")
    try:  # a sum of Python ints, which cannot wrap as an int64 sum can
        columns = np.zeros((3, sum(lengths.tolist())))  # actions too: 0..11 are exact floats
    except (ValueError, MemoryError):
        i = int(np.argmax(period))
        raise DataError(f"{path}:{line_nums[i]}: period too large") from None
    columns[:, (np.cumsum(lengths) - lengths)[codes] + period] = amount, action, acont
    return Timelines(list(index), lengths, *columns)


def _formatted(column):
    """repr() of each value of a float64 or int64 column. A long one formats each distinct
    value once (distinct bits, so -0.0 keeps its sign); np.unique costs more than that saves
    on a short one, such as a clv table."""
    if len(column) < 256:
        return list(map(repr, column.tolist()))
    bits, inverse = np.unique(column.view(np.int64), return_inverse=True)
    values = bits.view(column.dtype).tolist()
    return np.array([repr(v) for v in values], dtype=object)[inverse].tolist()


def csv_text(header, columns) -> str:
    """CSV text of a header and parallel columns: CRLF line ends, no quoting, the bytes
    csv.writer writes. A float64 or int64 array's cells are repr() of its values; any other
    column holds str cells, none with a comma, quote or line break."""
    cells = [_formatted(c) if getattr(c, "dtype", None) in (np.float64, np.int64) else c
             for c in columns]
    return "\r\n".join([",".join(header), *map(",".join, zip(*cells))]) + "\r\n"


def write_csv(path, header, columns):
    """csv_text(header, columns) as a UTF-8 file."""
    with open(path, "w", newline="", encoding="utf-8") as f:
        f.write(csv_text(header, columns))


def write_records(path, kind, records):
    """One row per record of dataclass kind, one column per field, headed by the field names."""
    names = [f.name for f in fields(kind)]
    write_csv(path, names, [np.array([getattr(r, name) for r in records]) for name in names])


def write_transitions(data: Transitions, path):
    """13-column transition CSV in the fixed r..reward order, the action as an integer."""
    write_csv(path, TRANSITION_COLUMNS, [*data.table.T[:5], data.actions, *data.table.T[6:]])


def _float_block(lines):
    """The (n, 13) float64 block of transition CSV lines, ValueError if one is not 13 numbers."""
    _check_plain(lines)
    vals = np.loadtxt(lines, delimiter=",", comments=None, quotechar='"', ndmin=2)
    if vals.shape[1] != 13:
        raise ValueError(f"expected 13 columns, got {vals.shape[1]}")
    return vals


def read_transitions(path) -> Transitions:
    """Reads a transition CSV, rejecting malformed rows with DataError("path:line: ...").

    Every row has 13 numbers; every value must be finite, the action an
    integer in 0..N_ACTIONS-1 and every state component non-negative.
    """
    with open_text(path) as f:  # universal newlines: every line end reads as \n
        lines = f.read().split("\n")
    if lines[-1] == "":
        lines.pop()
    _check_header(path, next(csv.reader(lines[:1]), None), TRANSITION_COLUMNS)
    body = lines[1:]
    try:
        if "" in body:
            raise ValueError("blank line")
        vals = _float_block(body) if body else np.empty((0, 13))
    except ValueError:
        for line_no, line in enumerate(body, start=2):
            fields = len(next(csv.reader([line]), []))
            if fields != 13:
                raise DataError(f"{path}:{line_no}: expected 13 columns, got {fields}") from None
            try:
                _float_block([line])
            except ValueError as exc:
                raise DataError(f"{path}:{line_no}: malformed row ({exc})") from None
        raise
    actions = vals[:, 5]
    state_cols = vals[:, [0, 1, 2, 3, 4, 7, 8, 9, 10, 11]]
    faults = (  # checked in this order, so a row's first fault is the one reported
        (~np.isfinite(vals).all(axis=1), "non-finite value"),
        ((actions != np.floor(actions)) | (actions < 0) | (actions >= N_ACTIONS),
         f"action must be an integer in 0..{N_ACTIONS - 1}"),
        ((state_cols < 0).any(axis=1), "negative state value"),
    )
    row, message = _first_fault(faults)
    if message:
        raise DataError(f"{path}:{row + 2}: {message}")
    return Transitions(vals)
