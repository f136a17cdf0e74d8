import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from clvdqn.rfmi import (
    CustomerTimeline,
    DataError,
    RfmiState,
    Transitions,
    apply_norm,
    build_transitions,
    compute_norm_stats,
    compute_state,
    read_timelines,
    read_transitions,
    write_timelines,
    write_transitions,
)
from oracles import apply_norm_rows, norm_stats_rows


def timeline(amounts, actions=None, aconts=None, cid="c1"):
    n = len(amounts)
    return CustomerTimeline(
        cid,
        np.array(amounts, dtype=float),
        np.array(actions if actions is not None else [0] * n),
        np.array(aconts if aconts is not None else [0.0] * n),
    )


class TestComputeState:
    def test_empty_history(self):
        state = compute_state(timeline([0] * 5), 5)
        assert state == RfmiState(5, 0, 0, 5, 0)

    def test_transactions_hand_count(self):
        state = compute_state(timeline([0, 10, 0, 20]), 4)
        assert state.recency == 1  # donation in period 3, counted at its end
        assert state.frequency == 2
        assert state.monetary == 15

    def test_contacts_hand_count(self):
        state = compute_state(timeline([0, 0, 0], actions=[3, 0, 5], aconts=[1, 0, 2]), 3)
        assert state.i_recency == 1
        assert state.i_frequency == 2

    def test_period_zero_is_all_zero(self):
        state = compute_state(timeline([5, 5]), 0)
        assert state == RfmiState(0, 0, 0, 0, 0)

    def test_out_of_range(self):
        with pytest.raises(DataError):
            compute_state(timeline([0, 0]), 3)

    def test_causality_ignores_future(self):
        base = timeline([0, 10, 0, 0])
        altered = timeline([0, 10, 99, 99], actions=[0, 0, 4, 4], aconts=[0, 0, 1, 1])
        assert compute_state(base, 2) == compute_state(altered, 2)

    def test_counters_monotone(self):
        tl = timeline([0, 3, 0, 7, 2], actions=[1, 0, 2, 0, 3], aconts=[1, 0, 1, 0, 1])
        freqs = [compute_state(tl, p).frequency for p in range(6)]
        ifreqs = [compute_state(tl, p).i_frequency for p in range(6)]
        assert freqs == sorted(freqs)
        assert ifreqs == sorted(ifreqs)


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

    def test_too_short(self):
        with pytest.raises(DataError):
            build_transitions(timeline([0]))

    def test_recency_reset_after_donation(self):
        tl = timeline([0, 0, 8, 0, 0])
        states = [compute_state(tl, p) for p in range(6)]
        assert states[3].recency == 1
        assert states[4].recency == 2


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
        data = build_transitions(timeline([0, 10, 0, 3], actions=[2, 0, 4, 0], aconts=[1, 0, 7, 0]))
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
