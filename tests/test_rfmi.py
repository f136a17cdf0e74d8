import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from clvdqn.rfmi import (
    CustomerTimeline,
    DataError,
    Transitions,
    apply_norm,
    build_transitions,
    compute_norm_stats,
    read_timelines,
    read_transitions,
    write_timelines,
    write_transitions,
)
from oracles import apply_norm_rows, norm_stats_rows, timeline_states_rows


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
    n = len(amounts)
    return CustomerTimeline(
        cid,
        np.array(amounts, dtype=float),
        np.array(actions if actions is not None else [0] * n),
        np.array(aconts if aconts is not None else [0.0] * n),
    )


def states_of(tl):
    """The states at indices 0..periods-1 of one timeline, as build_transitions makes
    them, after checking them against the row oracle."""
    t = build_transitions([tl])
    states = np.vstack([t.states, t.next_states[-1:]])
    assert states.tolist() == timeline_states_rows(tl.amounts, tl.actions)[:tl.periods]
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
        assert len(build_transitions([timeline([0] * 23)])) == 22

    def test_all_empty_two_periods(self):
        t = build_transitions([timeline([0, 0])])
        assert len(t) == 1
        assert t.actions[0] == 0
        assert t.rewards[0] == 0
        assert t.states[0, 0] == 0
        assert t.next_states[0, 0] == 1

    def test_hand_walked_fixture(self):
        tl = timeline([0, 10, 0], actions=[0, 4, 0], aconts=[0, 6, 0])
        t = build_transitions([tl])
        assert len(t) == 2
        assert (t.actions[0], t.aconts[0], t.rewards[0]) == (0, 0.0, 0.0)
        assert (t.actions[1], t.aconts[1], t.rewards[1]) == (4, 6.0, 10.0)
        np.testing.assert_array_equal(t.states[1], [1, 0, 0, 1, 0])
        np.testing.assert_array_equal(t.next_states[1], [1, 1, 10, 1, 1])

    def test_too_short(self):
        with pytest.raises(DataError, match="timeline c2 needs >= 2 periods"):
            build_transitions([timeline([0, 0]), timeline([0], cid="c2")])

    def test_recency_reset_after_donation(self):
        states = states_of(timeline([0, 0, 8, 0, 0]))
        assert states[3, 0] == 1
        assert states[4, 0] == 2

    def test_no_timelines_no_rows(self):
        assert len(build_transitions([])) == 0

    @settings(deadline=None)
    @given(ragged_timelines())
    def test_ragged_timelines_match_row_oracle(self, timelines):
        got = build_transitions(timelines)
        want = [timeline_states_rows(tl.amounts, tl.actions)[:tl.periods] for tl in timelines]
        assert got.states.tolist() == [row for states in want for row in states[:-1]]
        assert got.next_states.tolist() == [row for states in want for row in states[1:]]
        for name, column in (("actions", got.actions), ("aconts", got.aconts),
                             ("amounts", got.rewards)):
            np.testing.assert_array_equal(
                column, np.concatenate([getattr(tl, name)[:-1] for tl in timelines]))


def rows(states, actions, aconts, next_states, rewards=None):
    n = len(actions)
    return Transitions(states, actions, aconts, next_states,
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


class TestNormalize:
    def test_single_tuple_constant_dims_to_zero(self):
        data = build_transitions([timeline([0, 0])])
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
            compute_norm_stats(Transitions.empty(0))

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
        tls = [
            timeline([0, 10, 0], actions=[0, 4, 0], aconts=[0, 6, 0], cid="a"),
            timeline([5, 0], actions=[1, 0], aconts=[2, 0], cid="b"),
        ]
        path = tmp_path / "timelines.csv"
        write_timelines(tls, path)
        back = {tl.customer_id: tl for tl in read_timelines(path)}
        for tl in tls:
            got = back[tl.customer_id]
            np.testing.assert_array_equal(got.amounts, tl.amounts)
            np.testing.assert_array_equal(got.actions, tl.actions)
            np.testing.assert_array_equal(got.aconts, tl.aconts)

    def test_transition_round_trip(self, tmp_path):
        data = build_transitions([timeline([0, 10, 0, 3], actions=[2, 0, 4, 0],
                                           aconts=[1, 0, 7, 0])])
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
