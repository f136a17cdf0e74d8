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
import re
from dataclasses import dataclass, fields
from itertools import repeat

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


def _moments(x: np.ndarray) -> np.ndarray:
    """(3, dims) count, mean and M2 (sum of squared deviations) of the rows of x, with the sums
    of np.mean and np.std, so that sqrt(M2 / count) has np.std's bits; all 0 for no row."""
    if not len(x):
        return np.zeros((3, x.shape[1]))
    mean = np.add.reduce(x, axis=0) / len(x)
    dev = x - mean
    return np.stack([np.full(x.shape[1], float(len(x))), mean,
                     np.add.reduce(np.square(dev, out=dev), axis=0)])  # in place, as np.std


def table_moments(data: Transitions) -> np.ndarray:
    """(3, 6) count, mean and M2 of what NormStats normalizes: the 5 state dims, pooled over
    states and next states, then the acont of acted rows. A moment may be non-finite."""
    states = np.concatenate([data.states, data.next_states])
    acted = data.aconts[data.table[:, 5] != 0]  # the float action column, not an int64 copy
    with np.errstate(over="ignore", invalid="ignore"):  # stats_from_moments raises on it
        return np.hstack([_moments(states), _moments(acted[:, None])])


def merge_moments(records) -> np.ndarray:
    """The (3, 6) moments of the union of tables, from a sequence of their table_moments.

    Merges them in one step (Chan, Golub and LeVeque 1979): n = sum n_i,
    mean = sum (n_i / n) mean_i and M2 = sum [M2_i + n_i (mean_i - mean)^2].
    One record has weight 1, so it keeps its bits.
    """
    n_i, mean_i, m2_i = np.reshape(records, (-1, 3, 6)).transpose(1, 0, 2)  # each (records, 6)
    n = n_i.sum(axis=0)
    with np.errstate(over="ignore", invalid="ignore"):  # stats_from_moments raises on it
        mean = (n_i / np.maximum(n, 1.0) * mean_i).sum(axis=0)  # 0 for an acont never acted on
        return np.stack([n, mean, (m2_i + n_i * np.square(mean_i - mean)).sum(axis=0)])


def stats_from_moments(moments: np.ndarray) -> NormStats:
    """NormStats of (3, 6) moments: std = sqrt(M2 / count), and an acont with no acted row
    gets mean and std 0. DataError names the first dim whose mean or std is not finite, as
    of values too large to square."""
    n, mean, m2 = moments
    if not n[0]:
        raise DataError("cannot compute normalization stats from empty input")
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite moment raises below
        std = np.sqrt(m2 / np.maximum(n, 1.0))
    finite = np.isfinite([mean, std]).all(axis=0)
    if not finite.all():
        name = (*STATE_DIMS, "acont")[np.argmin(finite)]
        raise DataError(f"{name} is too large to normalize: its mean or std is not finite")
    return NormStats(mean[:5], std[:5], float(mean[5]), float(std[5]))


def compute_norm_stats(data: Transitions) -> NormStats:
    """Population moments over states and next states, and acont over acted rows only, of
    one table: stats_from_moments(table_moments(data)), with its DataError."""
    return stats_from_moments(table_moments(data))


def apply_norm(stats: NormStats, data: Transitions, out=None) -> Transitions:
    """Normalized states and aconts in a new table, or in out (data.table itself may be it);
    actions and rewards keep their values."""
    table = np.subtract(data.table, stats._shift, out=out)
    table /= stats._div  # in place, with the bits of a division into a new array
    return Transitions(table)


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


def read_text(path) -> str:
    """The whole of a UTF-8 file, read once: a pipe cannot be read twice.

    DataError("path:line: not UTF-8") names the line of the first byte that does
    not decode.
    """
    with open(path, "rb") as f:
        data = f.read()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        head = data[:exc.start]
        line = head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n") + 1
        raise DataError(f"{path}:{line}: not UTF-8") from None


def split_lines(text) -> list:
    """The lines of text without their ends, read with universal newlines: \\r\\n and a lone
    \\r end a line as \\n does, and a final line end starts no empty line. In a text with a
    quote each line keeps its end, as open(newline="") keeps it, for csv.reader to read."""
    if '"' in text:
        return _LINES.findall(text)
    text = text.replace("\r\n", "\n").replace("\r", "\n")  # rebound: frees a text no caller keeps
    lines = text.split("\n")
    if lines[-1] == "":
        lines.pop()
    return lines


_LINES = re.compile(r"[^\r\n]*(?:\r\n?|\n)|[^\r\n]+")


def key_values(path):
    """(line number, key, value) of each non-blank, non-# line of a key=value file, in order."""
    first_line = {}
    for line_no, line in enumerate(split_lines(read_text(path)), start=1):
        key, eq, value = line.partition("=")
        if (key := key.strip()).startswith("#") or not (eq or key):  # a # line or a blank one
            continue
        if not eq:
            raise DataError(f"{path}:{line_no}: expected key=value")
        if first_line.setdefault(key, line_no) != line_no:
            raise DataError(f"{path}:{line_no}: key {key!r} given twice")
        yield line_no, key, value.strip()


def _check_header(path, header, expected):
    if header != list(expected):
        got = ",".join(header) if header else "an empty line"
        raise DataError(f"{path}:1: expected header {','.join(expected)}, got {got}")


# Python's float() and int() also read underscores, non-ASCII digits and
# non-ASCII spaces, and np.loadtxt strips the separators \x1c-\x1f around a
# number. A number in these files has none of them, so both readers, one
# through float()/int() and one through np.loadtxt, read one grammar.
_NOT_PLAIN = re.compile(r"[^\x00-\x1b\x20-\x5e\x60-\x7f]")


def _check_plain(text):
    """ValueError if text holds a character that no number here has. Five `in` tests on an
    ASCII text give the regex's verdict; the regex names the character."""
    if not text.isascii() or any(c in text for c in "_\x1c\x1d\x1e\x1f"):
        raise ValueError(f"{_NOT_PLAIN.search(text).group()!r} in a number")


def _numbers(cells, kind, blank=""):
    """A column of CSV cells as a list of kind (int or float); an empty cell reads as blank.

    Raises ValueError unless every cell is a number as kind() reads it, with
    no underscore, non-ASCII or \\x1c-\\x1f character. Each distinct cell is read once:
    a timeline column repeats few spellings.
    """
    read = {cell: kind(cell or blank) for cell in set(cells)}
    _check_plain("".join(read))
    return list(map(read.__getitem__, cells))


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


def _csv_rows(path, lines):
    """(line, row) of each csv row of a list of lines, line being the row's last. A row the
    csv module refuses, such as one with a field over its size limit, raises
    DataError("path:line: ...")."""
    reader = csv.reader(lines)
    try:
        for row in reader:
            yield reader.line_num, row
    except csv.Error as exc:
        raise DataError(f"{path}:{reader.line_num}: {exc}") from None


def _parse_rows(numbered, kinds, skip_blank):
    """(columns, line_nums, faults) of _csv_rows' (line, row) pairs, blank rows too unless
    skip_blank; row i ends on line line_nums[i]. Each (kind, blank) of kinds reads a column as
    _column does, or keeps a str column's cells, up to the first faulty row. faults check field
    counts and cells."""
    rows, line_nums = [], []
    for line_num, row in numbered:
        if row or not skip_blank:
            rows.append(row)
            line_nums.append(line_num)
    widths = np.fromiter(map(len, rows), np.int64, len(rows))
    wrong_width = widths != len(kinds)
    faults = [(wrong_width, lambda i: f"expected {len(kinds)} columns, got {widths[i]}")]
    rows = rows[:int(np.argmax(wrong_width))] if wrong_width.any() else rows
    columns, cell_faults = _parse_columns(zip(*rows) if rows else [()] * len(kinds), kinds)
    return columns, line_nums, faults + cell_faults


def _parse_columns(columns, kinds):
    """(values, faults) of columns of cells: each (kind, blank) of kinds reads a column as
    _column does, or keeps a str column's cells; faults are the bad cells' checks."""
    values, faults = [], []
    for cells, (kind, blank) in zip(columns, kinds):
        column, fault = (cells, None) if kind is str else _column(cells, kind, blank)
        values.append(column)
        faults += [fault] if fault else []
    return values, faults


def _plain_columns(text, width):
    """(header, columns of cells, line of each row) of CSV text that csv.reader would split at
    its commas alone, blank rows skipped as _parse_rows skips them; None unless the text has
    no quote and no NUL (which Python 3.10's csv refuses), no line is longer than csv's field
    size limit, and every row after the header has width fields. header is the first row as
    csv reads it, None for no row."""
    if '"' in text or "\0" in text:
        return None
    lines = split_lines(text)
    if max(map(len, lines), default=0) > csv.field_size_limit():
        return None
    header = (lines[0].split(",") if lines[0] else []) if lines else None
    body, line_nums = lines[1:], range(2, len(lines) + 1)
    del lines
    if "" in body:
        line_nums = [n for n, line in zip(line_nums, body) if line]
        body = list(filter(None, body))
    if not body:
        return header, [[]] * width, line_nums
    if set(map(str.count, body, repeat(","))) != {width - 1}:
        return None
    joined = ",".join(body)
    del body  # before the split: the cells take four times the lines' memory
    cells = joined.split(",")
    return header, [cells[j::width] for j in range(width)], line_nums


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
    A file with a quote, or one that _plain_columns refuses, is read row by row
    through csv.reader; both ways read the same values and faults.
    """
    text = read_text(path)
    kinds = ((str, ""), (int, ""), (float, "0"), (int, "0"), (float, "0"))
    plain = _plain_columns(text, len(kinds))
    if plain:
        header, cells, line_nums = plain
        _check_header(path, header, TIMELINE_COLUMNS)
        del text, plain  # and the cells once read: 75,000 of a 0.27 MB file hold 3 MB
        (cids, *columns), faults = _parse_columns(cells, kinds)
        del cells
    else:
        rows = _csv_rows(path, split_lines(text))
        _check_header(path, next(rows, (1, None))[1], TIMELINE_COLUMNS)
        del text
        (cids, *columns), line_nums, faults = _parse_rows(rows, kinds, skip_blank=True)
    n = min(map(len, columns))  # the rows before the first faulty one
    period, action = _int64(columns[0][:n]), _int64(columns[2][:n])
    amount = np.array(columns[1][:n], dtype=np.float64)
    acont = np.array(columns[3][:n], dtype=np.float64)
    index = {cid: k for k, cid in enumerate(dict.fromkeys(cids[:n]))}  # by first row
    codes = np.fromiter(map(index.__getitem__, cids[:n]), np.int64, n)
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


def read_transitions(path) -> Transitions:
    """Reads a transition CSV, rejecting malformed rows with DataError("path:line: ...").

    Every row has 13 numbers; every value must be finite, the action an
    integer in 0..N_ACTIONS-1 and every state component non-negative. A file
    with no row, a line over csv's field size limit or anything np.loadtxt
    refuses (a quote too) is read row by row, through csv.reader.
    """
    lines = split_lines(read_text(path))
    rows = _csv_rows(path, lines)
    _check_header(path, next(rows, (1, None))[1], TRANSITION_COLUMNS)
    body, line_nums = lines[1:], range(2, len(lines) + 1)  # the line of each row
    try:
        _check_plain("".join(body))
        # np.loadtxt warns on only blank lines, and no row of 13 numbers is under 25 characters
        if not 25 <= max(map(len, body), default=0) <= csv.field_size_limit():
            raise ValueError("no row of 13 numbers, or a line over csv's field size limit")
        vals = np.loadtxt(body, delimiter=",", comments=None, ndmin=2)
        if vals.shape != (len(body), 13):
            raise ValueError("not 13 numbers on every line")
    except ValueError:
        columns, line_nums, faults = _parse_rows(rows, ((float, ""),) * 13, skip_blank=False)
        i, message = _first_fault(faults)
        if message:
            raise DataError(f"{path}:{line_nums[i]}: {message}") from None
        vals = np.column_stack(columns)  # np.loadtxt refused numbers that float() reads
    del lines, body, rows  # the text is parsed: the checks below need only the table
    actions = vals[:, 5]
    faults = (  # checked in this order, so a row's first fault is the one reported
        (~np.isfinite(vals).all(axis=1), "non-finite value"),
        ((actions != np.floor(actions)) | (actions < 0) | (actions >= N_ACTIONS),
         f"action must be an integer in 0..{N_ACTIONS - 1}"),
        ((vals[:, 0:5] < 0).any(axis=1) | (vals[:, 7:12] < 0).any(axis=1),
         "negative state value"),
    )
    row, message = _first_fault(faults)
    if message:
        raise DataError(f"{path}:{line_nums[row]}: {message}")
    return Transitions(vals)
