import tracemalloc
import warnings
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    advance_state_row,
    choose_actions_rows,
    response_probability_row,
    run_autonomous_rows,
    timeline_states_rows,
    transitions_from,
)

import clvdqn.env as env_module
import clvdqn.qlearn as qlearn_module
from clvdqn.action_space import AcontRange
from clvdqn.env import (
    AgentConfig,
    DonorModel,
    EpisodeRecord,
    ReplayRing,
    _allowed_mask,
    _choose_actions,
    response_probabilities,
    run_autonomous,
)
from clvdqn.nn_core import ConfigError, TrainingDiverged
from clvdqn.qlearn import TrainConfig
from clvdqn.rfmi import (N_ACTIONS, NormStats, Timelines, Transitions, advance_states,
                         build_transitions, compute_norm_stats, write_records)


def small_train_cfg(seed=0):
    return TrainConfig(seed=seed, batch_size=50, target_clone_period=100)


class TestEnvStep:
    def test_floor_behavior(self):
        model = DonorModel(base_rate=0.001, action_effects=(0.0,) * 12,
                           thankyou_boost=0.0, fatigue_coeff=0.0, recency_decay=0.0)
        rng = np.random.default_rng(0)
        states = np.tile([3.0, 0, 0, 3, 0], (100_000, 1))
        p = response_probabilities(model, states, np.ones(100_000, dtype=np.int64))
        responses = np.sum(rng.random(100_000) < p)
        assert 0 <= responses / 100_000 <= 0.01

    def test_fatigue_lowers_response_rate(self):
        model = DonorModel(fatigue_coeff=0.02, thankyou_boost=0.0, recency_decay=0.0)
        rng = np.random.default_rng(1)
        states = np.repeat([[3.0, 0, 0, 3, 0], [3.0, 0, 0, 3, 10]], 50_000, axis=0)  # fresh, tired
        hits = rng.random(100_000) < response_probabilities(model, states, np.full(100_000, 4))
        assert hits[50_000:].sum() < hits[:50_000].sum()

    def test_invalid_action(self):
        for action in (-1, 12):
            with pytest.raises(ValueError):
                response_probabilities(DonorModel(), np.zeros((2, 5)), np.array([0, action]))

    def test_thankyou_boost_requires_recent_transaction(self):
        model = DonorModel(fatigue_coeff=0.0, recency_decay=0.0)
        recent_and_stale = np.array([[1.0, 1, 5, 1, 1], [6.0, 1, 5, 1, 1]])
        p_recent, p_stale = response_probabilities(model, recent_and_stale,
                                                   np.full(2, model.thankyou_action))
        assert p_recent == pytest.approx(p_stale + model.thankyou_boost)

    def test_probability_clamped(self):
        model = DonorModel(base_rate=5.0)
        assert response_probabilities(model, np.zeros((1, 5)), np.array([4])).tolist() == [0.999]
        model = DonorModel(base_rate=-5.0)
        assert response_probabilities(model, np.zeros((1, 5)), np.array([0])).tolist() == [0.001]


@st.composite
def action_reward_histories(draw):
    """(actions, rewards), both (customers, periods); a zero reward is no response."""
    n, periods = draw(st.integers(1, 5)), draw(st.integers(1, 25))
    actions = np.array(draw(st.lists(st.integers(0, 11), min_size=n * periods,
                                     max_size=n * periods))).reshape(n, periods)
    amounts = draw(st.lists(st.one_of(st.just(0.0), st.floats(0.01, 1e4)),
                            min_size=n * periods, max_size=n * periods))
    return actions, np.array(amounts).reshape(n, periods)


state_values = st.one_of(st.integers(0, 5).map(float), st.floats(0.0, 500.0))


class TestPopulationStep:
    @settings(deadline=None)
    @given(action_reward_histories())
    def test_advance_states_matches_row_oracle(self, history):
        actions, rewards = history
        n, periods = actions.shape
        states, gift_sums = np.zeros((n, 5)), np.zeros(n)
        rows = [([0.0] * 5, 0.0)] * n
        wants = [timeline_states_rows(rewards[i], actions[i]) for i in range(n)]
        for p in range(periods):
            states, gift_sums = advance_states(states, gift_sums, actions[:, p], rewards[:, p])
            for i in range(n):
                rows[i] = advance_state_row(*rows[i], actions[i, p], rewards[i, p])
                assert (states[i].tolist(), gift_sums[i]) == rows[i]
                assert states[i].tolist() == wants[i][p + 1]

    @settings(deadline=None)
    @given(base_rate=st.floats(-0.5, 1.5),
           effects=st.lists(st.floats(-0.5, 0.5), min_size=12, max_size=12),
           coeffs=st.tuples(st.floats(0.0, 0.1), st.floats(0.0, 0.1), st.floats(0.0, 1.0)),
           thankyou_action=st.integers(0, 11),
           rows=st.lists(st.tuples(st.integers(0, 11), st.lists(state_values, min_size=5,
                                                                max_size=5)),
                         min_size=1, max_size=20))
    def test_response_probabilities_match_scalar_formula(self, base_rate, effects, coeffs,
                                                         thankyou_action, rows):
        fatigue, decay, boost = coeffs
        model = DonorModel(base_rate=base_rate, action_effects=tuple(effects),
                           fatigue_coeff=fatigue, recency_decay=decay, thankyou_boost=boost,
                           thankyou_action=thankyou_action)
        actions = np.array([a for a, _ in rows])
        states = np.array([s for _, s in rows])
        got = response_probabilities(model, states, actions).tolist()
        assert got == [response_probability_row(model, s, a) for a, s in rows]

    @settings(deadline=None, max_examples=200)
    @given(seed=st.integers(0, 2**32 - 1),
           n=st.integers(1, 60),
           eps=st.floats(0.0, 1.0),
           forbid=st.floats(0.0, 1.0),
           mixed=st.booleans(),
           has_greedy=st.booleans())
    def test_choose_actions_matches_row_reference(self, seed, n, eps, forbid, mixed, has_greedy):
        rng = np.random.default_rng(seed)
        raw = rng.random((n, N_ACTIONS)) >= forbid
        raw[rng.random(n) < 0.2] = False  # all forbidden: inaction is the fallback
        dropped = set(rng.choice(np.arange(1, N_ACTIONS), rng.integers(0, 4),
                                 replace=False).tolist())
        allowed = _allowed_mask(AgentConfig(constraints=[lambda s, a: raw[:, a]]),
                                np.zeros((n, 5)), dropped)
        # greedy picks include out-of-range actions and ones the mask forbids
        greedy = rng.integers(-2, N_ACTIONS + 2, n) if has_greedy else None
        greedy_aconts = rng.normal(size=n)
        acont_range = AcontRange(-1.5, 2.5) if mixed else None
        stats = NormStats(np.zeros(5), np.ones(5), 3.0, 2.0)
        got_rng, want_rng = np.random.default_rng([seed, 1]), np.random.default_rng([seed, 1])
        actions, aconts = _choose_actions(allowed, greedy, greedy_aconts, eps, acont_range,
                                          stats, got_rng)
        want_actions, want_aconts = choose_actions_rows(allowed, greedy, greedy_aconts, eps,
                                                        acont_range, stats, want_rng)
        assert actions.tolist() == want_actions.tolist()
        assert aconts.tolist() == want_aconts.tolist()
        assert got_rng.random() == want_rng.random()  # same stream position


def rows_with_rewards(rewards):
    n = len(rewards)
    return transitions_from(np.zeros((n, 5)), np.zeros(n), np.zeros(n), np.zeros((n, 5)),
                            rewards)


class TestReplayRing:
    def test_fifo_by_episode(self):
        # 8 episodes of 4 rows into 3 slots wrap the ring twice; it holds the newest whole
        # episodes, oldest first
        replay = ReplayRing(3, 4)
        for e in range(8):
            replay.add(rows_with_rewards(np.arange(4 * e, 4 * e + 4, dtype=float)))
            held = min(e + 1, 3)
            assert len(replay) == 4 * held
            np.testing.assert_array_equal(replay.contents().rewards,
                                          np.arange(4 * (e + 1 - held), 4 * (e + 1)))
            np.testing.assert_array_equal(replay.contents().states, np.zeros((4 * held, 5)))

    def test_merged_moments_match_the_stored_rows(self):
        # After each of 8 adds of random 6-row episodes into 3 slots: the merge of the
        # episodes' moments holds np.mean and np.std of the stored rows to a relative 1e-9.
        # Only episodes 0, 1, 6 and 7 act on a donor, so after adds 4 and 5 the ring holds no
        # acted row; state dim 3 is 0 throughout.
        rng = np.random.default_rng(7)
        replay = ReplayRing(3, 6)
        for k in range(8):
            states, next_states = rng.uniform(0.0, 10.0, (2, 6, 5)) * [1, 1, 1, 0, 1]
            actions = rng.integers(1, N_ACTIONS, 6) * (k in (0, 1, 6, 7))
            replay.add(transitions_from(states, actions, rng.normal(2.0, 4.0, 6), next_states,
                                        rng.random(6)))
            data, stats = replay.contents(), replay.norm_stats()
            pooled = np.concatenate([data.states, data.next_states])
            np.testing.assert_allclose(stats.state_mean, pooled.mean(axis=0), rtol=1e-9)
            np.testing.assert_allclose(stats.state_std, pooled.std(axis=0), rtol=1e-9)
            assert stats.state_mean[3] == 0.0 and stats.state_std[3] == 0.0
            acted = data.aconts[data.actions != 0]
            if k in (4, 5):
                assert acted.size == 0 and (stats.acont_mean, stats.acont_std) == (0.0, 0.0)
            else:
                np.testing.assert_allclose([stats.acont_mean, stats.acont_std],
                                           [acted.mean(), acted.std()], rtol=1e-9)
            if k == 0:  # one episode: compute_norm_stats' bits
                want = compute_norm_stats(data)
                assert (stats.state_mean.tolist(), stats.state_std.tolist(), stats.acont_mean,
                        stats.acont_std) == (want.state_mean.tolist(), want.state_std.tolist(),
                                             want.acont_mean, want.acont_std)

    @pytest.mark.parametrize("rows", [0, 1, 4, 6])
    def test_add_of_another_size_is_value_error(self, rows):
        # a one-row batch would broadcast over the slot
        replay = ReplayRing(3, 5)
        with pytest.raises(ValueError, match=f"an episode holds 5 rows, got {rows}"):
            replay.add(rows_with_rewards(np.ones(rows)))
        assert len(replay) == 0


class TestAgentConfig:
    def test_epsilon_schedule_exact(self):
        cfg = AgentConfig(epsilon_floor=0.05, epsilon_decay=0.9)
        for e in range(50):
            assert cfg.epsilon(e) == max(0.05, 0.9**e)

    @pytest.mark.parametrize("cls, setting", [
        (DonorModel, {"action_effects": (0.0,) * 11}), (DonorModel, {"thankyou_action": 12}),
        (DonorModel, {"thankyou_action": -1}), (DonorModel, {"amount_mean": -0.5}),
        (DonorModel, {"amount_mean": float("nan")}), (DonorModel, {"amount_mean": np.inf}),
        (DonorModel, {"base_rate": np.nan}), (DonorModel, {"action_effects": (np.inf,) * 12}),
        (DonorModel, {"thankyou_boost": -np.inf}), (AgentConfig, {"episodes": -1}),
        (AgentConfig, {"train_every": 0}), (AgentConfig, {"steps_per_burst": -1}),
        (AgentConfig, {"epsilon_floor": np.nan}),
    ])
    def test_bad_setting_is_config_error(self, cls, setting):
        with pytest.raises(ConfigError):
            cls(**setting)

    @pytest.mark.parametrize("population", [0, -2, np.zeros((0, 5))])
    def test_empty_population_is_config_error(self, population):
        with pytest.raises(ConfigError, match="population must contain at least one customer"):
            run_autonomous(population, DonorModel(), AgentConfig(episodes=1), TrainConfig())


class TestRunAutonomous:
    def test_deterministic(self):
        res1 = run_autonomous(20, DonorModel(seed=5), AgentConfig(seed=5, episodes=20),
                              small_train_cfg(5))
        res2 = run_autonomous(20, DonorModel(seed=5), AgentConfig(seed=5, episodes=20),
                              small_train_cfg(5))
        assert res1.history == res2.history
        for a, b in zip(res1.net.weights, res2.net.weights):
            np.testing.assert_array_equal(a, b)

    def test_replay_counts_every_customer_episode(self):
        res = run_autonomous(15, DonorModel(seed=1), AgentConfig(seed=1, episodes=12),
                             small_train_cfg(1))
        assert len(res.replay) == 15 * 12
        assert [r.replay_size for r in res.history] == [15 * (e + 1) for e in range(12)]

    def test_pure_random_reward_is_flat(self):
        # decay 1.0 keeps epsilon at 1; with a stationary model there is no trend
        model = DonorModel(fatigue_coeff=0.0, recency_decay=0.0, thankyou_boost=0.0, seed=2)
        cfg = AgentConfig(seed=2, epsilon_decay=1.0, episodes=200, train_every=10**9)
        res = run_autonomous(100, model, cfg, small_train_cfg(2))
        assert all(r.epsilon == 1.0 for r in res.history)
        rewards = np.array([r.mean_reward for r in res.history])
        x = np.arange(len(rewards))
        slope = np.polyfit(x, rewards, 1)[0]
        assert abs(slope) * len(rewards) < 0.5  # total drift well under the reward scale

    def test_constraint_is_hard_filter(self):
        thankyou = DonorModel().thankyou_action
        rule = lambda states, action: (action != thankyou) | (states[:, 0] <= 1)
        cfg = AgentConfig(seed=3, episodes=30, constraints=[rule])
        res = run_autonomous(30, DonorModel(seed=3), cfg, small_train_cfg(3))
        data = res.replay.contents()
        violations = (data.actions == thankyou) & (data.states[:, 0] > 1)
        assert violations.sum() == 0

    def test_action_dropping(self):
        cfg = AgentConfig(seed=4, episodes=40, drop_threshold=1000.0, drop_min_observations=20)
        res = run_autonomous(30, DonorModel(seed=4), cfg, small_train_cfg(4))
        assert res.dropped_actions  # everything underperforms an absurd floor
        late = res.replay.contents().actions[-30 * 5:]
        assert not set(late) & res.dropped_actions

    def test_divergence_reinitializes(self, monkeypatch, caplog):
        calls = {"n": 0}
        real = qlearn_module.td_step

        def flaky(*args, **kwargs):
            calls["n"] += 1
            if calls["n"] == 1:
                raise TrainingDiverged(0, 0, float("nan"))
            return real(*args, **kwargs)

        monkeypatch.setattr(qlearn_module, "td_step", flaky)
        with caplog.at_level("WARNING"):
            res = run_autonomous(20, DonorModel(seed=6), AgentConfig(seed=6, episodes=15),
                                 small_train_cfg(6))
        assert any("diverged" in r.message for r in caplog.records)
        assert len(res.history) == 15  # exploration continued

    @pytest.mark.parametrize("mode", ["discrete_only", "mixed"])
    @pytest.mark.parametrize("steps_per_burst, reinits", [(400, 6), (1, 5)])
    def test_overflowing_learning_rate_reinitializes_without_a_warning(self, mode, caplog,
                                                                       steps_per_burst, reinits):
        # each burst's first step makes weights of about 1e200, whose Q-values overflow: in
        # the burst's next Bellman target, or else in the next episode's greedy recommendation
        # (which the last of six bursts never meets)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with caplog.at_level("WARNING"):
                res = run_autonomous(50, DonorModel(),
                                     AgentConfig(episodes=30, steps_per_burst=steps_per_burst),
                                     TrainConfig(lr0=1e200, mode=mode))
        assert [r.message for r in caplog.records] == [
            f"training diverged; re-initializing network with seed {seed}"
            for seed in range(1, reinits + 1)]
        assert len(res.history) == 30

    def test_gradient_divergence_reinitializes(self, monkeypatch, caplog):
        # the first step's gradient turns non-finite; rmsprop_step's own check raises
        steps = []
        real = qlearn_module.rmsprop_step

        def overflowing(net, grads, cache, lr):
            steps.append(net)
            if len(steps) == 1:
                grads.flat[0] = np.inf
            return real(net, grads, cache, lr)

        monkeypatch.setattr(qlearn_module, "rmsprop_step", overflowing)
        with caplog.at_level("WARNING"):
            res = run_autonomous(20, DonorModel(seed=6), AgentConfig(seed=6, episodes=15),
                                 small_train_cfg(6))
        assert [r.message for r in caplog.records] == [
            "training diverged; re-initializing network with seed 7"]
        assert steps[1] is not steps[0] and res.net is steps[-1]
        assert len(res.history) == 15

    def test_initial_policy_hook(self):
        cfg = AgentConfig(seed=7, episodes=6, epsilon0=0.0, epsilon_floor=0.0,
                          train_every=10**9,
                          initial_policy=lambda states: np.full(len(states), 9))
        res = run_autonomous(10, DonorModel(seed=7), cfg, small_train_cfg(7))
        assert set(res.replay.contents().actions) == {9}

    def test_bursts_on_a_wrapped_ring_copy_no_replay(self, monkeypatch):
        # 200 donors x 150 episodes wrap a 20,000-row ring 1.5 times; its 30 bursts draw their
        # batches from the ring in place, so the run never holds a second copy of the ring
        monkeypatch.setattr(env_module, "REPLAY_CAPACITY", 20_000)
        agent = AgentConfig(seed=4, episodes=150, steps_per_burst=5)
        tracemalloc.start()
        try:
            res = run_autonomous(200, DonorModel(seed=4), agent, small_train_cfg(4))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(res.replay) == 20_000
        assert peak < 2 * res.replay.contents().table.nbytes

    def test_population_above_the_capacity_keeps_every_donor(self, monkeypatch):
        # 25 donors over a 20-row capacity: the ring holds one whole episode, and the burst's
        # norm stats are those of all 25 rows
        monkeypatch.setattr(env_module, "REPLAY_CAPACITY", 20)
        population = np.column_stack([np.arange(25.0), np.ones(25), np.arange(1.0, 26.0),
                                      np.zeros(25), np.arange(25) % 3])
        agent = AgentConfig(seed=5, episodes=1, train_every=1, steps_per_burst=2)
        res = run_autonomous(population, DonorModel(seed=5), agent,
                             TrainConfig(seed=5, batch_size=10))
        data = res.replay.contents()
        assert len(res.replay) == res.history[0].replay_size == 25
        np.testing.assert_array_equal(data.states, population)
        want = compute_norm_stats(data)
        assert (res.norm_stats.state_mean.tolist(), res.norm_stats.state_std.tolist()) == (
            want.state_mean.tolist(), want.state_std.tolist())

    def test_explorers_draw_acont_from_the_bounds(self):
        # untrained, so the stats stay the identity and the bounds are raw units too
        agent = AgentConfig(seed=9, episodes=40, train_every=10**9)
        train = TrainConfig(seed=9, mode="mixed", bounds_lo=3.0, bounds_hi=4.0)
        data = run_autonomous(25, DonorModel(seed=9), agent, train).replay.contents()
        acted = data.aconts[data.actions != 0]
        assert acted.size > 500
        assert np.all((acted >= 3.0) & (acted <= 4.0))
        assert np.all(data.aconts[data.actions == 0] == 0.0)

    def test_replay_rebuilds_from_timelines(self):
        # each customer's simulated history, read back as a logged timeline, gives
        # back the replay's states exactly; one trailing period closes the last one
        n = 200
        res = run_autonomous(n, DonorModel(seed=3), AgentConfig(seed=3), small_train_cfg(3))
        data = res.replay.contents()

        def by_customer(column):  # the replay is episode-major
            return np.swapaxes(column.reshape(-1, n, *column.shape[1:]), 0, 1)

        def flat(values):  # customer by customer, one trailing empty period each
            return np.pad(by_customer(values), ((0, 0), (0, 1))).ravel()

        periods = len(data) // n + 1
        timelines = Timelines([str(i) for i in range(n)], np.full(n, periods),
                              flat(data.rewards), flat(data.actions), flat(data.aconts))
        rebuilt = build_transitions(timelines)
        np.testing.assert_array_equal(rebuilt.states, by_customer(data.states).reshape(-1, 5))
        np.testing.assert_array_equal(rebuilt.next_states,
                                      by_customer(data.next_states).reshape(-1, 5))

    def test_history_csv(self, tmp_path):
        res = run_autonomous(5, DonorModel(seed=8), AgentConfig(seed=8, episodes=4),
                             small_train_cfg(8))
        path = tmp_path / "history.csv"
        write_records(path, EpisodeRecord, res.history)
        lines = path.read_text().splitlines()
        assert lines[0] == "episode,epsilon,mean_reward,response_rate,replay_size"
        assert len(lines) == 5


def allow_only(actions):
    return lambda states, action: np.full(len(states), action in actions)


ROW_CASES = {
    "plain": {},
    "constraint": {"constraints": [
        lambda states, action: (action != DonorModel().thankyou_action) | (states[:, 0] <= 1)]},
    "drop-threshold": {"drop_threshold": 1.0, "drop_min_observations": 10},
    "initial-policy": {"initial_policy": lambda states: np.where(states[:, 0] > 2, 7, 4)},
    # the initial policy's pick is never allowed, so untrained episodes all take the fallback
    "greedy-fallback": {"epsilon0": 0.0, "epsilon_floor": 0.0,
                        "constraints": [allow_only({0, 3, 7})],
                        "initial_policy": lambda states: np.full(len(states), 5)},
    "start-states": {"population": np.array([[0, 0, 0, 0, 0], [3, 4, 12.5, 1, 6],
                                             [1, 1, 7.25, 9, 0], [20, 3, 2.0, 2, 30]] * 6)},
    "numpy-count": {"population": np.int64(25)},
    # 15 episodes of 25 rows under a 110-row capacity: a ring of 4 whole episodes, which
    # every burst (one per 5 episodes) meets wrapped, and the drop rule reads its contents
    "wrapped-ring": {"replay_capacity": 110, "drop_threshold": 1.0, "drop_min_observations": 10},
}


class TestRowReference:
    @pytest.mark.parametrize("mode", ["discrete_only", "mixed"])
    @pytest.mark.parametrize("case", list(ROW_CASES))
    def test_matches_row_reference(self, mode, case, monkeypatch):
        kwargs = dict(ROW_CASES[case])
        population = kwargs.pop("population", 25)
        if "replay_capacity" in kwargs:
            monkeypatch.setattr(env_module, "REPLAY_CAPACITY", kwargs.pop("replay_capacity"))
        agent = AgentConfig(seed=11, episodes=15, epsilon_decay=0.8, train_every=5,
                            steps_per_burst=20, **kwargs)
        train = TrainConfig(seed=11, batch_size=50, target_clone_period=25, mode=mode)
        got = run_autonomous(population, DonorModel(seed=11), agent, train)
        want = run_autonomous_rows(population, DonorModel(seed=11), agent, train)
        assert got.history == want.history
        assert got.dropped_actions == want.dropped_actions
        for f in fields(Transitions):
            np.testing.assert_array_equal(getattr(got.replay.contents(), f.name),
                                          getattr(want.replay.contents(), f.name))
        for a, b in zip(got.net.weights + got.net.biases, want.net.weights + want.net.biases):
            np.testing.assert_array_equal(a, b)
        if case in ("drop-threshold", "wrapped-ring"):
            assert got.dropped_actions
        if case == "wrapped-ring":
            assert len(got.replay) == 100
        if case == "greedy-fallback":
            assert set(got.replay.contents().actions) <= {0, 3, 7}
