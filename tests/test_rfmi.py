import csv
import io
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from clvdqn.rfmi import (
    TIMELINE_COLUMNS,
    TRANSITION_COLUMNS,
    DataError,
    NormStats,
    Timelines,
    Transitions,
    apply_norm,
    build_transitions,
    compute_norm_stats,
    csv_text,
    read_timelines,
    read_transitions,
    write_csv,
    write_transitions,
)
from oracles import (
    apply_norm_rows,
    norm_stats_rows,
    read_timelines_rows,
    read_transitions_rows,
    timeline_states_rows,
    transitions_from,
    write_csv_rows,
    write_transitions_rows,
)


@st.composite
def ragged_timelines(draw):
    """1-6 timelines of 2-20 periods each, gifts and contacts scattered with gaps."""
    timelines = []
    for c in range(draw(st.integers(1, 6))):
        periods = draw(st.integers(2, 20))

        def column(elements):
            return draw(st.lists(elements, min_size=periods, max_size=periods))

        timelines.append(timeline(column(st.one_of(st.just(0.0), st.floats(0.01, 1e4))),
                                  column(st.integers(0, 11)), column(st.floats(-50.0, 50.0)),
                                  cid=f"c{c}"))
    return timelines


def timeline(amounts, actions=None, aconts=None, cid="c1"):
    """Timelines of one customer."""
    n = len(amounts)
    return Timelines([cid], [n], amounts, actions if actions is not None else [0] * n,
                     aconts if aconts is not None else [0.0] * n)


def joined(parts):
    """One Timelines of one-customer Timelines, in order."""
    def column(name):
        return np.concatenate([getattr(tl, name) for tl in parts]) if parts else []

    return Timelines([tl.customer_ids[0] for tl in parts], [tl.lengths[0] for tl in parts],
                     column("amounts"), column("actions"), column("aconts"))


def states_of(tl):
    """The states at indices 0..periods-1 of one timeline, as build_transitions makes
    them, after checking them against the row oracle."""
    t = build_transitions(tl)
    states = np.vstack([t.states, t.next_states[-1:]])
    assert states.tolist() == timeline_states_rows(tl.amounts, tl.actions)[:tl.lengths[0]]
    return states


class TestComputeState:
    # The state at index p summarizes periods 0..p-1, so each case gives its
    # timeline one trailing period beyond the state it reads.
    def test_empty_history(self):
        assert states_of(timeline([0] * 6))[5].tolist() == [5, 0, 0, 5, 0]

    def test_transactions_hand_count(self):
        recency, frequency, monetary, _, _ = states_of(timeline([0, 10, 0, 20, 0]))[4]
        assert recency == 1  # donation in period 3, counted at its end
        assert frequency == 2
        assert monetary == 15

    def test_contacts_hand_count(self):
        state = states_of(timeline([0, 0, 0, 0], actions=[3, 0, 5, 0], aconts=[1, 0, 2, 0]))[3]
        assert state[3] == 1
        assert state[4] == 2

    def test_period_zero_is_all_zero(self):
        assert states_of(timeline([5, 5]))[0].tolist() == [0, 0, 0, 0, 0]

    def test_causality_ignores_future(self):
        base = timeline([0, 10, 0, 0])
        altered = timeline([0, 10, 99, 99], actions=[0, 0, 4, 4], aconts=[0, 0, 1, 1])
        np.testing.assert_array_equal(states_of(base)[:3], states_of(altered)[:3])

    def test_counters_monotone(self):
        tl = timeline([0, 3, 0, 7, 2, 0], actions=[1, 0, 2, 0, 3, 0], aconts=[1, 0, 1, 0, 1, 0])
        states = states_of(tl)
        assert np.all(np.diff(states[:, [1, 4]], axis=0) >= 0)

    def test_monetary_is_gift_sum_over_frequency(self):
        # the gifts added in period order, over 4; a running mean gives 18.8625
        assert states_of(timeline([28.18, 16.59, 0, 10.37, 20.31, 0]))[5, 2] == 18.862499999999997


class TestBuildTransitions:
    def test_count_is_periods_minus_one(self):
        assert len(build_transitions(timeline([0] * 23))) == 22

    def test_all_empty_two_periods(self):
        t = build_transitions(timeline([0, 0]))
        assert len(t) == 1
        assert t.actions[0] == 0
        assert t.rewards[0] == 0
        assert t.states[0, 0] == 0
        assert t.next_states[0, 0] == 1

    def test_hand_walked_fixture(self):
        tl = timeline([0, 10, 0], actions=[0, 4, 0], aconts=[0, 6, 0])
        t = build_transitions(tl)
        assert len(t) == 2
        assert (t.actions[0], t.aconts[0], t.rewards[0]) == (0, 0.0, 0.0)
        assert (t.actions[1], t.aconts[1], t.rewards[1]) == (4, 6.0, 10.0)
        np.testing.assert_array_equal(t.states[1], [1, 0, 0, 1, 0])
        np.testing.assert_array_equal(t.next_states[1], [1, 1, 10, 1, 1])

    @pytest.mark.parametrize("amounts, actions, aconts, message", [
        ([1, np.nan, 0], [0, 0, 0], [0, 0, 0], "non-finite amount or acont"),
        ([1, 0, 0], [0, 0, 0], [0, np.inf, 0], "non-finite amount or acont"),
        ([1, -2, 0], [0, 0, 0], [0, 0, 0], "negative amount"),
        ([1, 0, 0], [99, 0, 0], [0, 0, 0], "action must be an integer in 0..11"),
        ([1, 0, 0], [0, -1, 0], [0, 0, 0], "action must be an integer in 0..11"),
    ])
    def test_invalid_timeline_values_rejected(self, amounts, actions, aconts, message):
        with pytest.raises(DataError, match=f"^{message} in timeline x$"):
            Timelines(["x"], [3], amounts, actions, aconts)

    def test_too_short(self):
        with pytest.raises(DataError, match="timeline c2 needs >= 2 periods"):
            Timelines(["c1", "c2"], [2, 1], np.zeros(3), np.zeros(3), np.zeros(3))

    @pytest.mark.parametrize("lengths, periods", [([4, -1], 3), ([2, 2], 3), ([2, 2], 5)],
                             ids=["negative-length", "short-columns", "long-columns"])
    def test_lengths_must_match_the_columns(self, lengths, periods):
        with pytest.raises(DataError, match="lengths must be >= 0, and each column hold"):
            Timelines(["c1", "c2"], lengths, np.zeros(periods), np.zeros(periods),
                      np.zeros(periods))

    def test_recency_reset_after_donation(self):
        states = states_of(timeline([0, 0, 8, 0, 0]))
        assert states[3, 0] == 1
        assert states[4, 0] == 2

    def test_no_timelines_no_rows(self):
        assert len(build_transitions(joined([]))) == 0

    def test_memory_follows_the_periods_not_customers_times_the_longest(self, tmp_path):
        # 300 customers of 2 periods and one of 3,001: a (customers, longest) grid per
        # column would take about 100 times the bytes of the 3,300 transitions
        path = tmp_path / "sparse.csv"
        lines = [",".join(TIMELINE_COLUMNS), "sparse,0,1.0,,", "sparse,3000,2.0,3,1.5"]
        lines += [f"c{c},{p},{5.0 * p},{c % 12 or ''}," for c in range(300) for p in range(2)]
        path.write_text("\n".join(lines) + "\n")

        def traced_peak(call, *args):  # (result, peak bytes above those held before the call)
            tracemalloc.reset_peak()
            before, _ = tracemalloc.get_traced_memory()
            result = call(*args)
            return result, tracemalloc.get_traced_memory()[1] - before

        tracemalloc.start()
        try:
            timelines, read_peak = traced_peak(read_timelines, path)
            data, build_peak = traced_peak(build_transitions, timelines)
        finally:
            tracemalloc.stop()
        assert len(data) == 3300
        size = sum(column.nbytes for column in (data.states, data.actions, data.aconts,
                                                data.next_states, data.rewards))
        assert read_peak < 4 * size
        assert build_peak < 4 * size

    @settings(deadline=None)
    @given(ragged_timelines())
    def test_ragged_timelines_match_row_oracle(self, timelines):
        got = build_transitions(joined(timelines))
        want = [timeline_states_rows(tl.amounts, tl.actions)[:tl.lengths[0]] for tl in timelines]
        assert got.states.tolist() == [row for states in want for row in states[:-1]]
        assert got.next_states.tolist() == [row for states in want for row in states[1:]]
        for name, column in (("actions", got.actions), ("aconts", got.aconts),
                             ("amounts", got.rewards)):
            np.testing.assert_array_equal(
                column, np.concatenate([getattr(tl, name)[:-1] for tl in timelines]))


def rows(states, actions, aconts, next_states, rewards=None):
    n = len(actions)
    return transitions_from(states, actions, aconts, next_states,
                            np.zeros(n) if rewards is None else rewards)


@st.composite
def random_transitions(draw):
    n = draw(st.integers(1, 40))
    values = st.floats(0.0, 1e4, allow_nan=False, allow_infinity=False)
    return rows(
        draw(arrays(np.float64, (n, 5), elements=values)),
        draw(arrays(np.int64, n, elements=st.integers(0, 11))),
        draw(arrays(np.float64, n, elements=st.floats(-50.0, 50.0))),
        draw(arrays(np.float64, (n, 5), elements=values)),
        draw(arrays(np.float64, n, elements=values)),
    )


class TestTransitions:
    @pytest.mark.parametrize("shape", [(13,), (4, 12), (4, 14), (0, 5), (2, 13, 1)])
    def test_table_must_be_n_by_13(self, shape):
        with pytest.raises(DataError, match=r"shape \(n, 13\), not"):
            Transitions(np.zeros(shape))

    def test_actions_are_a_read_only_int64_copy_of_the_table(self):
        data = rows(np.zeros((3, 5)), [0, 4, 11], np.zeros(3), np.zeros((3, 5)))
        with pytest.raises(ValueError, match="read-only"):
            data.actions[:] = 7
        assert data.actions.dtype == np.int64 and data.actions.tolist() == [0, 4, 11]
        assert data.table[:, 5].tolist() == [0.0, 4.0, 11.0]


class TestNormalize:
    def test_single_tuple_constant_dims_to_zero(self):
        data = build_transitions(timeline([0, 0]))
        arr = apply_norm(compute_norm_stats(data), data).states[0]
        # dims constant across state/next_state pool come out exactly 0
        assert arr[1] == 0 and arr[2] == 0 and arr[4] == 0

    def test_two_point_dimension_normalizes_to_unit(self):
        states = np.array([[0.0, 0, 0, 0, 0], [10.0, 0, 0, 0, 0]])
        data = rows(states, [1, 1], [0.0, 0.0], states)
        stats = compute_norm_stats(data)
        normed = apply_norm(stats, data)
        assert stats.state_mean[0] == 5
        assert stats.state_std[0] == 5  # population std
        assert normed.states[0, 0] == -1
        assert normed.states[1, 0] == 1

    def test_reapplying_stats_is_bit_exact(self):
        rng = np.random.default_rng(0)
        data = rows(rng.uniform(0, 10, (20, 5)), rng.integers(12, size=20), rng.normal(size=20),
                    rng.uniform(0, 10, (20, 5)), rng.uniform(0, 5, 20))
        normed = apply_norm(compute_norm_stats(data), data)
        again = apply_norm(compute_norm_stats(data), data)
        np.testing.assert_array_equal(normed.states, again.states)
        np.testing.assert_array_equal(normed.aconts, again.aconts)

    def test_inaction_rows_excluded_from_acont_stats(self):
        stats = compute_norm_stats(rows(np.zeros((3, 5)), [1, 1, 0], [2.0, 4.0, 100.0],
                                        np.zeros((3, 5))))
        assert stats.acont_mean == 3.0
        assert stats.acont_std == 1.0

    def test_empty_input_rejected(self):
        with pytest.raises(DataError):
            compute_norm_stats(transitions_from(np.empty((0, 5)), [], [], np.empty((0, 5)),
                                                []))

    @pytest.mark.parametrize("acont_std", [0.0, 9.2])
    def test_zero_stds_divide_by_one_bit_for_bit(self, acont_std):
        # one zero state std, and a zero acont std, against Python float arithmetic; the
        # action and reward columns keep their bits, a -0.0 reward included
        rng = np.random.default_rng(3)
        data = rows(rng.uniform(0, 10, (200, 5)), rng.integers(12, size=200),
                    rng.normal(0, 9, 200), rng.uniform(0, 10, (200, 5)), rng.uniform(0, 5, 200))
        data.rewards[::3] = -0.0
        stats = NormStats(rng.normal(size=5), np.array([2.5, 0.0, 0.3, 7.0, 1.1]), 1.7, acont_std)
        normed = apply_norm(stats, data)
        states, aconts, next_states = apply_norm_rows(stats, data)
        assert normed.states.tobytes() == states.tobytes()
        assert normed.aconts.tobytes() == aconts.tobytes()
        assert normed.next_states.tobytes() == next_states.tobytes()
        want = np.column_stack([states, data.actions, aconts, next_states, data.rewards])
        assert normed.table.tobytes() == want.tobytes()
        div = acont_std or 1.0
        assert stats.normalize_acont(data.aconts).tobytes() == aconts.tobytes()
        assert [stats.normalize_acont(a) for a in data.aconts.tolist()] == aconts.tolist()
        back = np.array([a * div + 1.7 for a in aconts.tolist()])
        assert stats.denormalize_acont(aconts).tobytes() == back.tobytes()
        assert [stats.denormalize_acont(a) for a in aconts.tolist()] == back.tolist()

    @settings(deadline=None)
    @given(random_transitions())
    def test_vectorized_matches_row_by_row_reference(self, data):
        stats = compute_norm_stats(data)
        mean, std, acont_mean, acont_std = norm_stats_rows(data)
        np.testing.assert_array_equal(stats.state_mean, mean)
        np.testing.assert_array_equal(stats.state_std, std)
        assert (stats.acont_mean, stats.acont_std) == (acont_mean, acont_std)
        normed = apply_norm(stats, data)
        states, aconts, next_states = apply_norm_rows(stats, data)
        np.testing.assert_array_equal(normed.states, states)
        np.testing.assert_array_equal(normed.aconts, aconts)
        np.testing.assert_array_equal(normed.next_states, next_states)
        np.testing.assert_array_equal(normed.actions, data.actions)
        np.testing.assert_array_equal(normed.rewards, data.rewards)


class TestCsv:
    def test_timeline_round_trip(self, tmp_path):
        tls = joined([
            timeline([0, 10, 0], actions=[0, 4, 0], aconts=[0, 6, 0], cid="a"),
            timeline([5, 0], actions=[1, 0], aconts=[2, 0], cid="b"),
        ])
        path = tmp_path / "timelines.csv"
        with open(path, "w", newline="", encoding="utf-8") as f:
            writer = csv.writer(f)
            writer.writerow(TIMELINE_COLUMNS)
            periods = zip(tls.amounts, tls.actions, tls.aconts)
            for cid, length in zip(tls.customer_ids, tls.lengths):
                for p in range(length):
                    amount, action, acont = next(periods)
                    writer.writerow([cid, p, repr(float(amount)), action or "",
                                     repr(float(acont)) if action else ""])
        back = read_timelines(path)
        assert back.customer_ids == tls.customer_ids
        for name in ("lengths", "amounts", "actions", "aconts"):
            assert_bit_equal(getattr(back, name), getattr(tls, name))

    def test_transition_round_trip(self, tmp_path):
        data = build_transitions(timeline([0, 10, 0, 3], actions=[2, 0, 4, 0],
                                          aconts=[1, 0, 7, 0]))
        path = tmp_path / "transitions.csv"
        write_transitions(data, path)
        back = read_transitions(path)
        assert len(back) == len(data)
        np.testing.assert_array_equal(back.states, data.states)
        np.testing.assert_array_equal(back.next_states, data.next_states)
        np.testing.assert_array_equal(back.actions, data.actions)
        np.testing.assert_array_equal(back.aconts, data.aconts)
        np.testing.assert_array_equal(back.rewards, data.rewards)

    def test_malformed_row_reports_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("r,f,m,ir,if,a,acont,r2,f2,m2,ir2,if2,reward\n1,2,3\n")
        with pytest.raises(DataError, match=":2"):
            read_transitions(path)

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x,y\n1,2\n")
        with pytest.raises(DataError):
            read_transitions(path)


# ---------------------------------------------------------------------------
# The columnar CSV readers and writer against the row-by-row references in
# oracles.py. They differ only where the columnar readers reject more: a
# timeline row without exactly 5 fields, and a number with an underscore or a
# non-ASCII digit, which Python's int() and float() read.


@pytest.fixture(scope="module")
def csv_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("csv")


def csv_line(cells):
    """One CSV record as csv.writer quotes it, without its line end."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="").writerow(cells)
    return buf.getvalue()


def write_lines(path, lines, eol):
    with open(path, "w", newline="", encoding="utf-8") as f:
        f.write("".join(line + eol for line in lines))


def spelt(values):
    """A number as repr() writes it, or in another spelling that float() reads."""
    return values.flatmap(lambda v: st.sampled_from([repr(v), f" {v!r}", f"{v!r}\t", f"{v:e}"]))


CUSTOMER_IDS = st.text(st.characters(codec="utf-8", exclude_characters="\r\n\x00"), max_size=8)


@st.composite
def timeline_rows(draw):
    """The rows of a valid timeline CSV: 1-5 customers of 2-20 periods each, some
    periods missing, in a random order."""
    rows = []
    for cid in draw(st.lists(CUSTOMER_IDS, min_size=1, max_size=5, unique=True)):
        last = draw(st.integers(1, 19))
        for p in sorted(draw(st.sets(st.integers(0, last - 1))) | {last}):
            rows.append([
                cid,
                draw(st.sampled_from([str(p), f" {p}", f"+{p}", f"0{p}"])),
                draw(st.one_of(st.just(""), st.just("-0.0"), spelt(st.floats(0.0, 1e6)))),
                draw(st.one_of(st.just(""), st.integers(0, 11).map(str))),
                draw(st.one_of(st.just(""), spelt(st.floats(-1e6, 1e6)))),
            ])
    return [list(row) for row in draw(st.permutations(rows))]


def with_blank_lines(draw, header, rows):
    """The CSV lines of a header and rows, with up to 3 blank lines after the header."""
    lines = [csv_line(header)] + [csv_line(row) for row in rows]
    for k in draw(st.lists(st.integers(1, len(lines)), max_size=3)):
        lines.insert(k, "")
    return lines


def assert_bit_equal(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


TIMELINE_FAULTS = [  # (field, value) that both timeline readers reject alike
    (1, "x"), (1, "1.5"), (1, ""), (1, "-1"), (2, "x"), (2, "nan"), (2, "-inf"), (2, "-2.5"),
    (3, "12"), (3, "-1"), (3, "2.0"), (3, "99999999999999999999"), (4, "inf"), (4, "1.5x"),
]

NEW_TIMELINE_REJECTIONS = [  # (edit of a row, message) rejected now, read by the reference
    (lambda row: row[:2] + ["1_0"] + row[3:], "malformed row ('_' in a number)"),
    (lambda row: row[:4] + ["٣"], "malformed row ('٣' in a number)"),
    (lambda row: row + ["EXTRA"], "expected 5 columns, got 6"),
    (lambda row: row[:4], "expected 5 columns, got 4"),
]


class TestTimelineCsvMatchesRowReference:
    @settings(deadline=None, max_examples=60)
    @given(timeline_rows(), st.sampled_from(["\r\n", "\n"]), st.data())
    def test_valid_files(self, csv_dir, rows, eol, data):
        path = csv_dir / "valid.csv"
        write_lines(path, with_blank_lines(data.draw, TIMELINE_COLUMNS, rows), eol)
        got, want = read_timelines(path), read_timelines_rows(path)
        assert got.customer_ids == want.customer_ids
        for name in ("lengths", "amounts", "actions", "aconts"):
            assert_bit_equal(getattr(got, name), getattr(want, name))

    @settings(deadline=None, max_examples=80)
    @given(timeline_rows(), st.sampled_from(["\r\n", "\n"]), st.data())
    def test_one_fault_is_reported_alike(self, csv_dir, rows, eol, data):
        i = data.draw(st.integers(0, len(rows) - 1))
        kind = data.draw(st.sampled_from(["field", "duplicate", "single period"]))
        if kind == "field":
            field, value = data.draw(st.sampled_from(TIMELINE_FAULTS))
            rows[i][field] = value
        elif kind == "duplicate":
            rows.insert(data.draw(st.integers(i + 1, len(rows))), list(rows[i]))
        else:  # a customer id longer than CUSTOMER_IDS draws
            rows.insert(i, ["single-period customer", "0", "", "", ""])
        path = csv_dir / "fault.csv"
        write_lines(path, with_blank_lines(data.draw, TIMELINE_COLUMNS, rows), eol)
        with pytest.raises(DataError) as want:
            read_timelines_rows(path)
        with pytest.raises(DataError) as got:
            read_timelines(path)
        assert str(got.value) == str(want.value)

    @settings(deadline=None, max_examples=40)
    @given(timeline_rows(), st.sampled_from(NEW_TIMELINE_REJECTIONS), st.data())
    def test_new_rejections(self, csv_dir, rows, rejection, data):
        edit, message = rejection
        i = data.draw(st.integers(0, len(rows) - 1))
        rows[i] = edit(rows[i])
        path = csv_dir / "new.csv"
        write_lines(path, [csv_line(TIMELINE_COLUMNS)] + [csv_line(row) for row in rows], "\n")
        read_timelines_rows(path)
        with pytest.raises(DataError) as got:
            read_timelines(path)
        assert str(got.value) == f"{path}:{i + 2}: {message}"


def transitions_of(values, actions, states=None):
    """Transitions of 0-30 rows: actions drawn from actions, states and next states
    from states (values when not given), aconts and rewards from values."""
    states = values if states is None else states
    return st.integers(0, 30).flatmap(lambda n: st.builds(
        transitions_from,
        arrays(np.float64, (n, 5), elements=states),
        arrays(np.int64, n, elements=actions),
        arrays(np.float64, n, elements=values),
        arrays(np.float64, (n, 5), elements=states),
        arrays(np.float64, n, elements=values),
    ))


VALID_TRANSITIONS = transitions_of(st.floats(allow_nan=False, allow_infinity=False),
                                   st.integers(0, 11), st.floats(0.0, 1e300))


def reference_lines(csv_dir, data):
    """The lines of data as the row-by-row writer writes them."""
    path = csv_dir / "reference.csv"
    write_transitions_rows(data, path)
    return path.read_bytes().decode("utf-8").split("\r\n")[:-1]


TRANSITION_FAULTS = [  # (column, value) that both transition readers reject alike
    (0, "x"), (3, ""), (12, "1.5.5"), (6, "é"), (2, "nan"), (12, "-inf"), (0, "-1.0"),
    (9, "-0.5"), (5, "2.5"), (5, "12"), (5, "-1"), (6, "inf"),
]


class TestTransitionCsvMatchesRowReference:
    @settings(deadline=None, max_examples=60)
    @given(transitions_of(st.floats(), st.integers(-2**53, 2**53)))  # exact in a float64 column
    @example(rows(np.zeros((4, 5)), [0, 1, 2, 3], [0.0, -0.0, np.nan, -np.inf],
                  np.full((4, 5), -0.0), [-0.0, 0.0, 1e-300, 0.1]))
    def test_writer_bytes(self, csv_dir, data):
        write_transitions(data, csv_dir / "columnar.csv")
        write_transitions_rows(data, csv_dir / "rows.csv")
        assert (csv_dir / "columnar.csv").read_bytes() == (csv_dir / "rows.csv").read_bytes()

    @settings(deadline=None, max_examples=60)
    @given(VALID_TRANSITIONS, st.sampled_from(["\r\n", "\n"]), st.data())
    def test_valid_files(self, csv_dir, data, eol, draw):
        written = reference_lines(csv_dir, data)
        lines = list(written)
        for _ in range(draw.draw(st.integers(0, 5)) if len(data) else 0):
            row, col = draw.draw(st.integers(1, len(data))), draw.draw(st.integers(0, 12))
            cells, cell = lines[row].split(","), written[row].split(",")[col]
            cells[col] = draw.draw(st.sampled_from([f" {cell}", f'"{cell}"', f"{float(cell):e}"]))
            lines[row] = ",".join(cells)
        path = csv_dir / "valid.csv"
        write_lines(path, lines, eol)
        got, want = read_transitions(path), read_transitions_rows(path)
        for name in ("states", "actions", "aconts", "next_states", "rewards"):
            assert_bit_equal(getattr(got, name), getattr(want, name))

    @settings(deadline=None, max_examples=80)
    @given(VALID_TRANSITIONS.filter(len), st.sampled_from(["\r\n", "\n"]), st.data())
    def test_one_fault_is_reported_alike(self, csv_dir, data, eol, draw):
        lines = reference_lines(csv_dir, data)
        row = draw.draw(st.integers(1, len(data)))
        cells = lines[row].split(",")
        kind = draw.draw(st.sampled_from(["field", "blank line", "missing", "extra"]))
        if kind == "field":
            col, value = draw.draw(st.sampled_from(TRANSITION_FAULTS))
            cells[col] = value
        elif kind == "missing":
            del cells[draw.draw(st.integers(0, 12))]
        elif kind == "extra":
            cells.append("0.0")
        lines[row] = "" if kind == "blank line" else ",".join(cells)
        path = csv_dir / "fault.csv"
        write_lines(path, lines, eol)
        with pytest.raises(DataError) as want:
            read_transitions_rows(path)
        with pytest.raises(DataError) as got:
            read_transitions(path)
        # np.loadtxt words a malformed number otherwise than float(); the rest is alike
        assert str(got.value).split(" (")[0] == str(want.value).split(" (")[0]

    @settings(deadline=None, max_examples=40)
    @given(VALID_TRANSITIONS.filter(len), st.sampled_from([("1_0", "_"), ("٣", "٣")]), st.data())
    def test_new_rejections(self, csv_dir, data, rejection, draw):
        value, char = rejection
        lines = reference_lines(csv_dir, data)
        row, col = draw.draw(st.integers(1, len(data))), draw.draw(st.integers(0, 12))
        cells = lines[row].split(",")
        cells[col] = value
        lines[row] = ",".join(cells)
        path = csv_dir / "new.csv"
        write_lines(path, lines, "\r\n")
        read_transitions_rows(path)
        with pytest.raises(DataError) as got:
            read_transitions(path)
        assert str(got.value) == f"{path}:{row + 1}: malformed row ({char!r} in a number)"


# A str cell holds no comma, quote or line break. A row that is one empty cell
# is the one csv.writer quotes, so a lone column's cells are never empty.
CELL_TEXT = st.characters(blacklist_categories=("Cs",), blacklist_characters=',"\r\n')
SPECIAL_FLOATS = [np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, 2.2e-308, 1e300, -1e300]


@st.composite
def csv_tables(draw):
    """(header, columns): float64, int64 and str columns of one length, zero rows allowed.
    300 rows take the writer's path for long columns."""
    n, width = draw(st.integers(0, 8) | st.just(300)), draw(st.integers(1, 4))
    text = st.text(CELL_TEXT, min_size=1 if width == 1 else 0, max_size=6)
    kinds = {
        "float64": arrays(np.float64, n, elements=st.floats() | st.sampled_from(SPECIAL_FLOATS)),
        "int64": arrays(np.int64, n, elements=st.integers(-2**63, 2**63 - 1)),
        "str": st.lists(text, min_size=n, max_size=n),
    }
    columns = [draw(kinds[draw(st.sampled_from(list(kinds)))]) for _ in range(width)]
    return draw(st.lists(text, min_size=width, max_size=width)), columns


class TestCsvWriterMatchesRowReference:
    @settings(deadline=None, max_examples=150)
    @given(csv_tables())
    @example((["x", "n", "s"], [np.array(SPECIAL_FLOATS), np.arange(-4, 5), [""] * 9]))
    @example((["x"], [np.empty(0)]))
    def test_writer_bytes(self, csv_dir, table):
        header, columns = table
        write_csv(csv_dir / "columnar.csv", header, columns)
        cells = [c.tolist() if isinstance(c, np.ndarray) else c for c in columns]
        write_csv_rows(csv_dir / "rows.csv", header, zip(*cells))
        want = (csv_dir / "rows.csv").read_bytes()
        assert (csv_dir / "columnar.csv").read_bytes() == want
        assert csv_text(header, columns).encode("utf-8") == want


NUMBER_PIECES = [*"0123456789.eE+- \t\x0b\x1c_", "\u0663", "\u2003", "inf", "nan"]


@settings(deadline=None, max_examples=200)
@given(st.lists(st.sampled_from(NUMBER_PIECES), min_size=1, max_size=8).map("".join))
def test_both_readers_read_one_number_grammar(csv_dir, cell):
    """A cell reads as the same acont in a timeline and in a transition, or neither reads it."""
    timelines = csv_dir / "grammar_timelines.csv"
    write_lines(timelines, [",".join(TIMELINE_COLUMNS), f"c,0,,1,{cell}", "c,1,,,"], "\n")
    transitions = csv_dir / "grammar_transitions.csv"
    write_lines(transitions, [",".join(TRANSITION_COLUMNS), f"0,0,0,0,0,1,{cell},0,0,0,0,0,0"],
                "\n")

    def acont(read, path, column):
        try:
            return column(read(path))
        except DataError:
            return None

    got = (acont(read_timelines, timelines, lambda t: t.aconts[:1]),
           acont(read_transitions, transitions, lambda t: t.aconts))
    if got[0] is None or got[1] is None:
        assert got[0] is None and got[1] is None
    else:
        assert_bit_equal(*got)
