import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clvdqn.action_space import AcontRange, action_values
from clvdqn.nn_core import ConfigError, forward_batch, init_mlp
from clvdqn.policy_eval import (
    SweepError,
    SweepSpec,
    estimate_clv,
    evaluate,
    export_value_curves,
    recommend_batch,
    report_csv_rows,
    report_text,
    write_curves_csv,
)
from clvdqn.qlearn import network_spec
from clvdqn.rfmi import NormStats
from oracles import layered_net, transitions_from


def zero_net(mode="discrete_only"):
    net = init_mlp(network_spec(mode), seed=0)
    for w in net.weights:
        w[:] = 0.0
    return net


def logged(actions, rewards, states=None, aconts=None):
    """Logged transitions whose next state equals the state."""
    n = len(actions)
    states = np.zeros((n, 5)) if states is None else states
    return transitions_from(states, actions, np.zeros(n) if aconts is None else aconts, states,
                            rewards)


def biased_net(action, bias=7.0):
    net = zero_net()
    net.biases[-1][action] = bias
    return net


class TestRecommendBatch:
    def test_zero_net_recommends_inaction(self):
        actions, _, _ = recommend_batch(zero_net(), np.zeros((4, 5)), NormStats.identity())
        assert actions.tolist() == [0, 0, 0, 0]

    def test_dominant_biased_neuron(self):
        states = np.random.default_rng(0).normal(size=(6, 5))
        actions, _, _ = recommend_batch(biased_net(4), states, NormStats.identity())
        assert actions.tolist() == [4] * 6


class TestRawUnits:
    @settings(deadline=None, max_examples=40)
    @given(seed=st.integers(0, 2**32 - 1), mixed=st.booleans(),
           zero_std=st.lists(st.booleans(), min_size=6, max_size=6), n=st.integers(1, 12))
    def test_entry_points_match_the_hand_composition(self, seed, mixed, zero_std, n):
        rng = np.random.default_rng(seed)
        net = init_mlp(network_spec("mixed" if mixed else "discrete_only"), seed)
        std = np.where(zero_std, 0.0, rng.uniform(0.1, 10.0, 6))
        stats = NormStats(rng.normal(0.0, 5.0, 5), std[:5], float(rng.normal(0.0, 5.0)), std[5])
        acont_range = AcontRange(-1.5, 1.0, stats.normalize_acont(0.0)) if mixed else None
        raw = rng.uniform(0.0, 20.0, (n, 5))

        def by_hand(states):
            aconts, qs = action_values(net, stats.normalize_state(states), acont_range)
            if mixed:
                aconts = stats.denormalize_acont(aconts)
                aconts[:, 0] = 0.0
            return aconts, qs

        aconts, qs = by_hand(raw)
        actions, best_aconts, best_qs = recommend_batch(net, raw, stats, acont_range)
        rows = np.arange(n)
        assert actions.tolist() == np.argmax(qs, axis=1).tolist()
        assert best_aconts.tobytes() == aconts[rows, actions].tobytes()
        assert best_qs.tobytes() == qs[rows, actions].tobytes()
        aconts, qs = by_hand(raw[0])
        est = estimate_clv(net, raw[0], stats, acont_range)
        assert est.aconts.tobytes() == aconts[0].tobytes()
        assert est.values.tobytes() == qs[0].tobytes()


class TestEvaluate:
    def test_total_match(self):
        # policy that recommends exactly the logged action for every transition
        transitions = logged([4, 4, 4], [10.0, 0.0, 3.0])
        report = evaluate(transitions, biased_net(4), NormStats.identity())
        assert report.matched.n == 3
        assert report.deviated.n == 0
        assert not report.deviated.defined
        assert report.matched.mean_reward == report.dataset_mean.mean_reward
        assert report.matched.response_rate == report.dataset_mean.response_rate

    def test_four_row_hand_fixture(self):
        # rewards 10,0,5,0; policy (always action 4) matches rows 1 and 2
        transitions = logged([4, 4, 2, 3], [10.0, 0.0, 5.0, 0.0])
        report = evaluate(transitions, biased_net(4), NormStats.identity())
        assert report.matched.n == 2 and report.deviated.n == 2
        assert report.matched.response_rate == 0.5
        assert report.matched.mean_reward == 5.0
        assert report.deviated.response_rate == 0.5
        assert report.deviated.mean_reward == 2.5

    def test_partition_and_weighted_mean(self):
        rng = np.random.default_rng(1)
        draws = [(int(rng.integers(12)), float(rng.uniform(0, 20)), rng.normal(size=5))
                 for _ in range(200)]
        actions, rewards, states = (np.array(col) for col in zip(*draws))
        transitions = logged(actions, rewards, states)
        net = init_mlp(network_spec("discrete_only"), 3)
        report = evaluate(transitions, net, NormStats.identity())
        assert report.matched.n + report.deviated.n == 200
        total = sum(rewards.tolist())
        acc = 0.0
        if report.matched.defined:
            acc += report.matched.n * report.matched.mean_reward
        if report.deviated.defined:
            acc += report.deviated.n * report.deviated.mean_reward
        assert acc == pytest.approx(total, rel=1e-12)

    def test_random_baseline_deterministic(self):
        transitions = logged([i % 12 for i in range(50)], np.arange(50.0))
        net = init_mlp(network_spec("discrete_only"), 0)
        a = evaluate(transitions, net, NormStats.identity(), baseline_seed=9)
        b = evaluate(transitions, net, NormStats.identity(), baseline_seed=9)
        assert a.random_baseline == b.random_baseline

    def test_best_single_action_from_logged_data(self):
        transitions = logged([4] * 3 + [2] * 3 + [7] * 3, [10.0] * 3 + [1.0] * 3 + [4.0] * 3)
        report = evaluate(transitions, zero_net(), NormStats.identity())
        assert report.best_single_action == 4
        assert report.best_single_action_stats.mean_reward == 10.0

    def test_mixed_mode_rounds_acont_for_matching(self):
        # recommended acont differs by < 0.5 from logged: still matched after rounding
        net = zero_net("mixed")
        net.biases[-1][5] = 3.0
        acont_range = AcontRange(5.6, 6.4)  # flat in acont
        # row 0 logs acont 5.8 (matches), row 1 logs 9.0 (differs)
        transitions = logged([5, 5], [1.0, 1.0], aconts=[5.8, 9.0])
        report = evaluate(transitions, net, NormStats.identity(), acont_range)
        assert report.matched.n == 1
        assert report.deviated.n == 1

    def test_empty_rejected(self):
        with pytest.raises(ConfigError):
            evaluate(transitions_from(np.empty((0, 5)), [], [], np.empty((0, 5)), []), zero_net(),
                     NormStats.identity())

    def test_mixed_net_needs_a_range(self):
        with pytest.raises(ConfigError, match="acont range"):
            evaluate(logged([5], [1.0]), zero_net("mixed"), NormStats.identity())


class TestEstimateClv:
    def test_zero_net_gives_zero_clv(self):
        est = estimate_clv(zero_net(), np.zeros(5), NormStats.identity())
        np.testing.assert_array_equal(est.values, np.zeros(12))
        assert est.best_value == 0.0

    def test_negative_state_rejected(self):
        with pytest.raises(ConfigError):
            estimate_clv(zero_net(), np.array([1, -1, 0, 0, 0.0]), NormStats.identity())

    def test_output_scaling_scales_clv_not_argmax(self):
        net = init_mlp(network_spec("discrete_only"), seed=5)
        est = estimate_clv(net, np.array([1.0, 2, 3, 4, 5]), NormStats.identity())
        scaled = net.copy()
        scaled.weights[-1][...] *= 3.0
        scaled.biases[-1][...] *= 3.0
        est2 = estimate_clv(scaled, np.array([1.0, 2, 3, 4, 5]), NormStats.identity())
        np.testing.assert_allclose(est2.values, 3.0 * est.values, rtol=1e-12)
        assert est2.best_action == est.best_action

    def test_normalization_applied_to_input(self):
        net = init_mlp(network_spec("discrete_only"), seed=6)
        stats = NormStats(np.array([2.0] * 5), np.array([4.0] * 5), 0.0, 1.0)
        est = estimate_clv(net, np.full(5, 6.0), stats)
        direct, _ = forward_batch(net, np.full((1, 5), 1.0))  # (6-2)/4 = 1
        np.testing.assert_array_equal(est.values, direct[0])

    def test_discrete_aconts_are_zero_whatever_the_acont_stats(self):
        stats = NormStats(np.zeros(5), np.ones(5), 10.0, 2.0)
        est = estimate_clv(init_mlp(network_spec("discrete_only"), seed=7), np.ones(5), stats)
        assert est.aconts.tolist() == [0.0] * 12

    def test_mixed_aconts_are_raw_and_inaction_sits_at_zero(self):
        net = zero_net("mixed")
        net.biases[-1][:] = 1.5  # flat in acont: every action peaks at the lower bound
        stats = NormStats(np.zeros(5), np.ones(5), 10.0, 2.0)
        acont_range = AcontRange(-1.0, 1.0, inaction=stats.normalize_acont(0.0))
        est = estimate_clv(net, np.ones(5), stats, acont_range)
        assert est.aconts.tolist() == [0.0] + [8.0] * 11  # 10 + 2 * -1
        assert est.values.tolist() == [1.5] * 12


class TestValueCurves:
    def test_ignored_dimension_gives_flat_rows(self):
        net = zero_net()
        net.biases[-1][:] = 1.5
        sweep = SweepSpec(dims=("recency",), ranges=((0.0, 10.0),), resolution=7)
        rows = export_value_curves(net, sweep, NormStats.identity())
        assert rows.shape == (7, 13)
        assert np.all(rows[:, 1:] == rows[0, 1:])

    def test_two_dim_sweep_row_count(self):
        sweep = SweepSpec(dims=("recency", "frequency"), ranges=((0, 5), (0, 5)), resolution=50)
        rows = export_value_curves(zero_net(), sweep, NormStats.identity())
        assert rows.shape == (2500, 14)

    def test_tent_fixture_interior_peak(self):
        # net with Q[2] peaked at recency=1 via two hidden units
        from clvdqn.nn_core import LayerSpec

        specs = (LayerSpec(5, 2, "relu"), LayerSpec(2, 12, "linear"))
        w1 = np.zeros((2, 5))
        w1[0, 0] = 1.0
        w1[1, 0] = 1.0
        b1 = np.array([0.0, -1.0])
        w2 = np.zeros((12, 2))
        w2[2, 0] = 1.0
        w2[2, 1] = -2.0
        net = layered_net(specs, [w1, w2], [b1, np.zeros(12)])
        sweep = SweepSpec(dims=("recency",), ranges=((0.0, 2.0),), resolution=201)
        rows = export_value_curves(net, sweep, NormStats.identity())
        peak_idx = int(np.argmax(rows[:, 1 + 2]))
        assert rows[peak_idx, 0] == pytest.approx(1.0, abs=0.01)

    def test_mixed_net_holds_acont_at_raw_zero(self):
        net = init_mlp(network_spec("mixed"), seed=4)
        stats = NormStats(np.zeros(5), np.ones(5), 4.0, 2.0)
        sweep = SweepSpec(dims=("recency",), ranges=((0.0, 3.0),), resolution=4)
        rows = export_value_curves(net, sweep, stats)
        inputs = np.zeros((4, 6))
        inputs[:, 0] = [0.0, 1.0, 2.0, 3.0]
        inputs[:, 5] = -2.0  # (0 - 4) / 2
        np.testing.assert_array_equal(rows[:, 1:], forward_batch(net, inputs)[0])

    def test_unknown_dimension_rejected(self):
        with pytest.raises(ConfigError):
            SweepSpec(dims=("bogus",), ranges=((0, 1),))

    @pytest.mark.parametrize("kwargs, field", [
        ({"dims": ("recency", "recency"), "ranges": ((0, 1), (5, 6))}, "dims"),
        ({"dims": ("recency",), "ranges": ((0, np.nan),)}, "ranges"),
        ({"dims": ("recency",), "ranges": ((-np.inf, 1),)}, "ranges"),
        ({"dims": ("recency",), "ranges": ((0, 1),), "reference": {"frequency": np.inf}},
         "reference"),
        ({"dims": ("recency",), "ranges": ((0, 1),), "reference": {"bogus": 1.0}}, "reference"),
    ])
    def test_bad_field_rejected_naming_it(self, kwargs, field):
        with pytest.raises(SweepError) as info:
            SweepSpec(**kwargs)
        assert info.value.field == field

    def test_csv_export(self, tmp_path):
        sweep = SweepSpec(dims=("monetary",), ranges=((0, 1),), resolution=3)
        rows = export_value_curves(zero_net(), sweep, NormStats.identity())
        path = tmp_path / "curves.csv"
        write_curves_csv(rows, sweep, path)
        lines = path.read_text().splitlines()
        assert lines[0].startswith("monetary,q0,q1")
        assert len(lines) == 4


class TestReportFormats:
    def test_text_report_mentions_caveat_and_respects_timestamp_flag(self):
        transitions = logged([4, 3], [1.0, 0.0])
        report = evaluate(transitions, biased_net(4), NormStats.identity())
        text = report_text(report, timestamp=False)
        assert "biased off-policy" in text
        assert "matched" in text and "deviated" in text
        text_ts = report_text(report, timestamp=True)
        assert len(text_ts.splitlines()) == len(text.splitlines()) + 1

    def test_csv_rows_shape(self):
        transitions = logged([4], [1.0])
        report = evaluate(transitions, biased_net(4), NormStats.identity())
        rows = report_csv_rows(report)
        assert rows[0] == ["group", "action", "n", "response_rate", "mean_reward"]
        assert len(rows) == 6
        deviated = rows[2]
        assert deviated[2] == "0" and deviated[3] == ""  # undefined rate flagged empty
