import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clvdqn.nn_core import ConfigError, LayerSpec, forward_batch, init_mlp
import clvdqn.qlearn as qlearn_module
from clvdqn.qlearn import (
    EpochRecord,
    Learner,
    TrainConfig,
    TrainingDiverged,
    bellman_target,
    load_checkpoint,
    network_spec,
    read_sidecar,
    save_checkpoint,
    td_step,
    td_steps,
    train,
    write_sidecar,
)
from clvdqn.policy_eval import evaluate
from clvdqn.rfmi import (NormStats, Transitions, compute_norm_stats, read_transitions,
                         write_records, write_transitions)
from oracles import (apply_norm_rows, layered_net, td_steps_arrays, transitions_from,
                     value_iteration)

# 3-state 2-action deterministic MDP shared with the acceptance suite
TOY_R = [[1.0, 0.0], [2.0, 0.0], [0.0, 5.0]]
TOY_T = [[0, 1], [2, 0], [1, 0]]
GAMMA = 0.9


def onehot_state(s):
    v = np.zeros(5)
    v[s] = 1.0
    return v


def toy_data(copies=100):
    rows = [(s, a) for s in range(3) for a in range(2) for _ in range(copies)]
    return transitions_from(
        np.array([onehot_state(s) for s, _ in rows]),
        np.array([a for _, a in rows]),
        np.zeros(len(rows)),
        np.array([onehot_state(TOY_T[s][a]) for s, a in rows]),
        np.array([TOY_R[s][a] for s, a in rows]),
    )


def make_batch(reward=0.0, action=0, s=None, s2=None, n=1):
    s = s if s is not None else np.zeros(5)
    s2 = s2 if s2 is not None else np.zeros(5)
    return transitions_from(np.tile(s, (n, 1)), np.full(n, action), np.zeros(n),
                            np.tile(s2, (n, 1)), np.full(n, reward))


def zero_net(mode="discrete_only"):
    net = init_mlp(network_spec(mode), seed=0)
    for w in net.weights:
        w[:] = 0.0
    return net


class TestFlatTraining:
    @settings(deadline=None, max_examples=40)
    @given(seed=st.integers(0, 2**32 - 1),
           mixed=st.booleans(),
           widths=st.lists(st.integers(1, 24), min_size=0, max_size=2),
           output=st.sampled_from(["relu", "linear"]),
           n_steps=st.integers(1, 8),
           batch_size=st.one_of(st.integers(1, 40), st.integers(41, 300)),
           clone_period=st.integers(1, 4),
           lr=st.floats(1e-4, 0.5))
    def test_td_steps_match_per_array_reference(self, seed, mixed, widths, output, n_steps,
                                                batch_size, clone_period, lr):
        rng = np.random.default_rng(seed)
        dims = [6 if mixed else 5, *widths, 12]
        specs = [LayerSpec(i, o, "relu" if k < len(widths) else output)
                 for k, (i, o) in enumerate(zip(dims, dims[1:]))]
        net = layered_net(specs, [rng.normal(size=(o, i)) for i, o in zip(dims, dims[1:])],
                          [rng.normal(size=o) for o in dims[1:]])
        n = 30
        data = transitions_from(rng.normal(size=(n, 5)), rng.integers(0, 12, n),
                                rng.normal(size=n), rng.normal(size=(n, 5)),
                                rng.exponential(size=n))
        cfg = TrainConfig(batch_size=batch_size, target_clone_period=clone_period,
                          mode="mixed" if mixed else "discrete_only", bounds_lo=-1.5,
                          bounds_hi=2.0)
        stats = NormStats.identity()  # data already normalized: identity leaves every bit
        want_losses, weights, biases = td_steps_arrays(net, data, n_steps, cfg, seed, lr,
                                                       cfg.acont_range(stats))
        learner = Learner.fresh(net, np.random.default_rng(seed))
        losses = td_steps(learner, data, n_steps, cfg, stats, lr)
        assert losses.tolist() == want_losses.tolist()
        for got, want in zip(net.weights + net.biases, weights + biases):
            assert got.tolist() == want.tolist()

    @settings(deadline=None, max_examples=40)
    @given(seed=st.integers(0, 2**32 - 1),
           mixed=st.booleans(),
           n_steps=st.integers(1, 6),
           batch_size=st.integers(1, 60),
           zero_stds=st.lists(st.booleans(), min_size=5, max_size=5),
           acont_mean=st.floats(0.5, 20.0) | st.floats(-20.0, -0.5),
           acont_std=st.just(0.0) | st.floats(0.1, 10.0))
    def test_td_steps_on_raw_data_match_reference_on_data_normalized_whole(
            self, seed, mixed, n_steps, batch_size, zero_stds, acont_mean, acont_std):
        # each drawn batch is normalized, which gives the bits of drawing from the whole set
        # normalized once; a nonzero acont_mean moves inaction's input off 0
        rng = np.random.default_rng(seed)
        n = 40
        raw = transitions_from(rng.uniform(0, 50, (n, 5)), rng.integers(0, 12, n),
                               rng.uniform(0, 30, n), rng.uniform(0, 50, (n, 5)),
                               rng.exponential(5.0, n))
        stats = NormStats(rng.uniform(0, 20, 5), np.where(zero_stds, 0.0, rng.uniform(0.5, 9, 5)),
                          acont_mean, acont_std)
        cfg = TrainConfig(batch_size=batch_size, target_clone_period=3,
                          mode="mixed" if mixed else "discrete_only")
        net = init_mlp(network_spec(cfg.mode), seed)
        states, aconts, next_states = apply_norm_rows(stats, raw)
        normalized = transitions_from(states, raw.actions, aconts, next_states, raw.rewards)
        want_losses, weights, biases = td_steps_arrays(net, normalized, n_steps, cfg, seed,
                                                       cfg.lr0, cfg.acont_range(stats))
        learner = Learner.fresh(net, np.random.default_rng(seed))
        losses = td_steps(learner, raw, n_steps, cfg, stats)
        assert losses.tolist() == want_losses.tolist()
        for got, want in zip(net.weights + net.biases, weights + biases):
            assert got.tolist() == want.tolist()

    @pytest.mark.parametrize("mode", ["discrete_only", "mixed"])
    def test_td_steps_on_column_views_match_a_contiguous_copy(self, tmp_path, mode):
        # read_transitions' own table against a column-major copy: the named columns are
        # strided views of the first and contiguous columns of the second
        rng = np.random.default_rng(2)
        n = 60
        path = tmp_path / "transitions.csv"
        write_transitions(transitions_from(rng.uniform(0, 50, (n, 5)), rng.integers(0, 12, n),
                                           rng.uniform(0, 30, n), rng.uniform(0, 50, (n, 5)),
                                           rng.exponential(5.0, n)), path)
        read = read_transitions(path)
        stats = compute_norm_stats(read)
        cfg = TrainConfig(batch_size=20, target_clone_period=3, mode=mode)
        runs = []
        for table in (read.table, np.asfortranarray(read.table)):
            learner = Learner.fresh(init_mlp(network_spec(mode), 0), np.random.default_rng(0))
            losses = td_steps(learner, Transitions(table), 6, cfg, stats)
            runs.append((losses.tobytes(), learner.net.flat.tobytes()))
        assert runs[0] == runs[1]

    def test_td_steps_peak_memory_is_far_below_one_copy_of_the_data(self):
        # td_steps gathers each batch's rows alone: no copy of the replay
        rng = np.random.default_rng(0)
        n = 50_000
        data = transitions_from(rng.normal(size=(n, 5)), rng.integers(0, 12, n), np.zeros(n),
                                rng.normal(size=(n, 5)), rng.exponential(size=n))
        learner = Learner.fresh(init_mlp(network_spec("discrete_only"), 0),
                                np.random.default_rng(0))
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            td_steps(learner, data, 5, TrainConfig(batch_size=200), NormStats.identity())
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        packed = n * 12 * 8  # one (n, 12) float64 block: 4.8 MB
        assert peak < 1_000_000 < packed


class TestBellmanTarget:
    def test_gamma_zero_is_reward(self):
        cfg = TrainConfig(gamma=0.0)
        net = init_mlp(network_spec("discrete_only"), seed=1)
        assert bellman_target(make_batch(reward=3.5), net, cfg)[0] == 3.5

    def test_zero_network(self):
        cfg = TrainConfig(gamma=0.9)
        assert bellman_target(make_batch(reward=5.0), zero_net(), cfg)[0] == 5.0

    def test_qstar_is_fixed_point(self):
        # A net hard-wired to output tabular Q* reproduces Q* through the target.
        qstar = value_iteration(TOY_R, TOY_T, GAMMA)
        specs = (LayerSpec(5, 12, "linear"),)
        w = np.zeros((12, 5))
        w[:2, :3] = qstar.T  # Q[a] = qstar[s][a] for one-hot s, a in {0,1}
        w[2:, :3] = -100.0  # park unused neurons far below
        net = layered_net(specs, [w], [np.zeros(12)])
        cfg = TrainConfig(gamma=GAMMA)
        for s in range(3):
            for a in range(2):
                batch = make_batch(TOY_R[s][a], a, np.eye(3, 5)[s], np.eye(3, 5)[TOY_T[s][a]])
                assert bellman_target(batch, net, cfg)[0] == pytest.approx(qstar[s][a], abs=1e-9)

    def test_mixed_mode_uses_continuous_max(self):
        cfg = TrainConfig(gamma=0.9, mode="mixed", bounds_lo=-2.0, bounds_hi=2.0)
        net = init_mlp(network_spec("mixed"), seed=2)
        acont_range = cfg.acont_range(NormStats.identity())
        y = bellman_target(make_batch(reward=1.0), net, cfg, acont_range)[0]
        # must bootstrap off at least the best fixed-acont scan
        grid = np.linspace(-2, 2, 101)
        x = np.concatenate([np.tile(np.zeros(5), (101, 1)), grid[:, None]], axis=1)
        q, _ = forward_batch(net, x)
        assert y >= 1.0 + 0.9 * q.max() - 1e-6


class TestTdStep:
    def test_fixed_point_has_zero_loss(self):
        # zero net, zero rewards: every target is already met
        net = zero_net()
        target = net.copy()
        opt = np.zeros_like(net.flat)
        before = [w.copy() for w in net.weights]
        loss = td_step(make_batch(n=10), net, target, opt, TrainConfig())
        assert loss == 0.0
        for w, b4 in zip(net.weights, before):
            np.testing.assert_array_equal(w, b4)

    def test_hand_differentiated_gradient(self):
        # Q_0 = w*s_0 with s=[1,0,0,0,0], w=0, y=1: loss (y-Q)^2 = 1, dloss/dw = -2
        specs = (LayerSpec(5, 12, "linear"),)
        net = layered_net(specs, [np.zeros((12, 5))], [np.zeros(12)])
        target = net.copy()
        opt = np.zeros_like(net.flat)
        cfg = TrainConfig(gamma=0.0, lr0=0.001, batch_size=1)
        batch = make_batch(reward=1.0, action=0, s=np.eye(5)[0], s2=np.eye(5)[0])
        loss = td_step(batch, net, target, opt, cfg)
        assert loss == 1.0
        g = -2.0
        expected = 0.0 - cfg.lr0 * g / (np.sqrt(0.1 * g * g) + 1e-8)
        assert net.weights[0][0, 0] == pytest.approx(expected)

    def test_loss_eventually_monotone_on_fixed_tuple(self):
        net = init_mlp(network_spec("discrete_only"), seed=4)
        target = net.copy()
        opt = np.zeros_like(net.flat)
        cfg = TrainConfig(gamma=0.9, lr0=0.001)
        batch = make_batch(reward=2.0, action=3, s=np.arange(5.0) / 5)
        losses = [td_step(batch, net, target, opt, cfg) for _ in range(40)]
        tail = losses[5:]
        assert all(b <= a for a, b in zip(tail, tail[1:]))

    def test_off_action_gradient_isolation(self):
        net = init_mlp(network_spec("discrete_only"), seed=6)
        target = net.copy()
        opt = np.zeros_like(net.flat)
        before = net.weights[-1].copy()
        td_step(make_batch(reward=10.0, action=3, s=np.ones(5)), net, target, opt, TrainConfig())
        changed = np.any(net.weights[-1] != before, axis=1)
        assert changed[3]
        assert not changed[[a for a in range(12) if a != 3]].any()

    def test_mixed_net_trains_on_logged_acont(self):
        # a 6-input net reads the logged acont as its last input: with a zero state
        # and acont 0.5, only output 3's acont weight (and bias) gets gradient
        specs = (LayerSpec(6, 12, "linear"),)
        net = layered_net(specs, [np.zeros((12, 6))], [np.zeros(12)])
        cfg = TrainConfig(gamma=0.0, mode="mixed")
        batch = make_batch(reward=1.0, action=3)
        batch.aconts[:] = 0.5
        td_step(batch, net, net.copy(), np.zeros_like(net.flat), cfg,
                acont_range=cfg.acont_range(NormStats.identity()))
        assert np.argwhere(net.weights[0] != 0.0).tolist() == [[3, 5]]

    def test_nonfinite_loss_raises(self):
        net = zero_net()
        net.biases[-1][0] = np.inf
        target = net.copy()
        opt = np.zeros_like(net.flat)
        with pytest.raises(TrainingDiverged):
            td_step(make_batch(reward=1.0), net, target, opt, TrainConfig())

    def test_nonfinite_gradient_with_a_finite_loss_raises(self):
        # hidden unit 0 sits at 1e308 with no outgoing weight: Q and the loss stay finite,
        # while the output layer's weight gradient, 1e308 times the output gradient, overflows
        specs = (LayerSpec(5, 2, "relu"), LayerSpec(2, 12, "linear"))
        net = layered_net(specs, [np.zeros((2, 5)), np.zeros((12, 2))],
                          [np.array([1e308, 0.0]), np.zeros(12)])
        before, opt = net.flat.copy(), np.zeros_like(net.flat)
        with pytest.raises(TrainingDiverged) as exc:  # td_step raises without a warning
            td_step(make_batch(reward=10.0, action=3), net, net.copy(), opt,
                    TrainConfig(gamma=0.0, batch_size=1))
        assert exc.value.loss is None
        assert str(exc.value) == "non-finite gradient at epoch -1, step -1"
        assert net.flat.tobytes() == before.tobytes() and not opt.any()


class TestReplaySampling:
    def test_uniformity(self, monkeypatch):
        # td_steps draws each batch uniformly with replacement from the whole data set
        drawn = []
        monkeypatch.setattr(qlearn_module, "td_step",
                            lambda batch, *args: drawn.extend(batch.rewards) or 0.0)
        data = transitions_from(np.zeros((10, 5)), np.zeros(10), np.zeros(10),
                                np.zeros((10, 5)), np.arange(10.0))
        learner = Learner.fresh(zero_net(), np.random.default_rng(0))
        td_steps(learner, data, 1000, TrainConfig(batch_size=100), NormStats.identity())
        counts = np.bincount(np.array(drawn, dtype=int), minlength=10)
        freqs = counts / 100_000
        assert np.abs(freqs - 0.1).max() < 0.03
        assert learner.step == 1000


class TestCloneTarget:
    def test_isolation(self):
        net = init_mlp(network_spec("discrete_only"), seed=1)
        probe = np.ones(5)
        cloned = net.copy()
        expected, _ = forward_batch(cloned, probe[None, :])
        net.weights[0][:] += 1.0
        after, _ = forward_batch(cloned, probe[None, :])
        np.testing.assert_array_equal(expected, after)

    def test_bit_identical_outputs(self):
        net = init_mlp(network_spec("discrete_only"), seed=2)
        cloned = net.copy()
        rng = np.random.default_rng(0)
        for _ in range(100):
            x = rng.normal(size=5)
            ya, _ = forward_batch(net, x[None, :])
            yb, _ = forward_batch(cloned, x[None, :])
            np.testing.assert_array_equal(ya, yb)

    def test_serialized_clone_identical(self, tmp_path):
        from clvdqn.nn_core import save_mlp

        net = init_mlp(network_spec("discrete_only"), seed=3)
        save_mlp(net, tmp_path / "a")
        save_mlp(net.copy(), tmp_path / "b")
        assert (tmp_path / "a").read_bytes() == (tmp_path / "b").read_bytes()


class TestTrain:
    def test_zero_epochs_is_noop(self):
        cfg = TrainConfig(epochs=0, seed=5)
        net, history = train(toy_data(2), toy_data(1), cfg, NormStats.identity())
        reference = init_mlp(network_spec("discrete_only"), 5)
        for a, b in zip(net.weights, reference.weights):
            np.testing.assert_array_equal(a, b)
        assert history == []

    def test_deterministic(self):
        cfg = TrainConfig(epochs=3, batch_size=50, seed=7)
        data = toy_data(20)
        net1, h1 = train(data, data, cfg, NormStats.identity())
        net2, h2 = train(data, data, cfg, NormStats.identity())
        for a, b in zip(net1.weights, net2.weights):
            np.testing.assert_array_equal(a, b)
        assert h1 == h2

    def test_divergence_reports_the_loss_that_overflowed(self):
        # rewards of 1e200 square to inf in the first step's loss
        data = toy_data(20)
        data.rewards[:] = 1e200
        with pytest.raises(TrainingDiverged) as exc:  # td_step raises without a warning
            train(data, data, TrainConfig(epochs=2, batch_size=50, seed=7), NormStats.identity())
        assert exc.value.loss == math.inf
        assert (exc.value.epoch, exc.value.step) == (0, 0)
        assert str(exc.value) == "non-finite loss inf at epoch 0, step 0"

    @pytest.mark.parametrize("mode, what", [("discrete_only", "loss nan"),
                                            ("mixed", "target Q-value")])
    def test_overflowing_target_diverges_without_a_warning(self, mode, what):
        # the first step's weights of about 1e200, cloned into the target, overflow its Q-values
        cfg = TrainConfig(epochs=2, batch_size=50, seed=7, lr0=1e200, target_clone_period=1,
                          mode=mode)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(TrainingDiverged) as exc:
                train(toy_data(20), toy_data(20), cfg, NormStats.identity())
        assert str(exc.value) == f"non-finite {what} at epoch 0, step 1"

    def test_epoch_accounting_and_history_shape(self):
        data = toy_data(20)  # 120 rows -> ceil(120/50) = 3 steps per epoch
        cfg = TrainConfig(epochs=4, batch_size=50, seed=7, target_clone_period=5)
        _, history = train(data, data, cfg, NormStats.identity())
        assert len(history) == 4
        assert [r.epoch for r in history] == [0, 1, 2, 3]
        lrs = [r.lr for r in history]
        assert lrs[1] == pytest.approx(lrs[0] * cfg.lr_decay_per_epoch)

    def test_no_matched_epoch_returns_last_trained_net(self):
        # validation aconts far outside the bounds never match a recommendation
        cfg = TrainConfig(epochs=3, batch_size=50, seed=4, mode="mixed")
        data = toy_data(20)
        val = toy_data(5)
        val.table[:, 5] = 1
        val.aconts[:] = 1e6
        net, history = train(data, val, cfg, NormStats.identity())
        assert all(math.isnan(r.val_mean_reward) for r in history)
        # the same epochs, replayed by hand
        learner = Learner.fresh(init_mlp(network_spec("mixed"), 4), np.random.default_rng(4))
        lr = cfg.lr0
        for _ in range(cfg.epochs):
            td_steps(learner, data, math.ceil(len(data) / cfg.batch_size), cfg,
                     NormStats.identity(), lr)
            lr *= cfg.lr_decay_per_epoch
        for a, b in zip(net.weights + net.biases, learner.net.weights + learner.net.biases):
            np.testing.assert_array_equal(a, b)

    def test_mixed_selection_matches_raw_aconts_as_evaluate_does(self, caplog):
        rng = np.random.default_rng(1)
        n = 400
        actions = rng.integers(0, 3, n)
        aconts = np.where(actions != 0, rng.integers(0, 8, n), 0).astype(float)
        raw = transitions_from(rng.uniform(0, 5, (n, 5)), actions, aconts,
                               rng.uniform(0, 5, (n, 5)),
                               rng.exponential(5.0, n) * (rng.random(n) < 0.5))
        stats = compute_norm_stats(raw)
        cfg = TrainConfig(epochs=2, batch_size=50, seed=1, mode="mixed")
        with caplog.at_level("WARNING", logger="clvdqn.qlearn"):
            net, history = train(raw, raw, cfg, stats)
        assert caplog.records == []  # a matched group exists: nothing to report
        best = max(r.val_mean_reward for r in history)
        report = evaluate(raw, net, stats, cfg.acont_range(stats), baseline_seed=cfg.seed)
        assert report.matched.mean_reward == best

    def test_target_staleness_between_clones(self):
        # target-based y must not change while only the online net updates
        net = init_mlp(network_spec("discrete_only"), seed=8)
        target = net.copy()
        opt = np.zeros_like(net.flat)
        cfg = TrainConfig(gamma=0.9)
        batch = make_batch(reward=1.0, s=np.ones(5), s2=np.ones(5))
        y0 = bellman_target(batch, target, cfg)
        for _ in range(5):
            td_step(batch, net, target, opt, cfg)
        np.testing.assert_array_equal(bellman_target(batch, target, cfg), y0)

    def test_sidecar_round_trip(self, tmp_path):
        cfg = TrainConfig(gamma=0.85, lr0=0.002, epochs=7, seed=3, mode="mixed",
                          bounds_lo=-0.75, bounds_hi=3.5)
        stats = NormStats(
            state_mean=np.array([1.0, 2.0, 3.0, 4.0, 5.0]),
            state_std=np.array([1.0, 0.5, 2.0, 1.0, 3.0]),
            acont_mean=6.5,
            acont_std=2.25,
        )
        path = tmp_path / "net.meta"
        write_sidecar(path, cfg, stats)
        cfg2, stats2 = read_sidecar(path)
        assert cfg2 == cfg
        np.testing.assert_array_equal(stats2.state_mean, stats.state_mean)
        np.testing.assert_array_equal(stats2.state_std, stats.state_std)
        assert (stats2.acont_mean, stats2.acont_std) == (6.5, 2.25)
        assert (cfg2.bounds_lo, cfg2.bounds_hi) == (-0.75, 3.5)

    @pytest.mark.parametrize("mode", ["discrete_only", "mixed"])
    def test_checkpoint_round_trip(self, tmp_path, mode):
        cfg = TrainConfig(gamma=0.5, lr0=0.003, batch_size=7, epochs=2, seed=11, mode=mode,
                          bounds_lo=-1.25, bounds_hi=0.5)
        stats = NormStats(np.array([0.1, 2.0, -3.5, 1e300, 5e-324]),
                          np.array([0.0, 0.5, 2.0, 1.0, 3.0]), -0.0, 0.0)
        net = init_mlp(network_spec(mode), seed=4)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, net, cfg, stats)
        net2, cfg2, stats2 = load_checkpoint(path)
        assert net2.flat.tobytes() == net.flat.tobytes()
        assert net2.specs == net.specs
        assert cfg2 == cfg
        assert stats2.state_mean.tobytes() == stats.state_mean.tobytes()
        assert stats2.state_std.tobytes() == stats.state_std.tobytes()
        assert (stats2.acont_mean, stats2.acont_std) == (0.0, 0.0)
        assert math.copysign(1, stats2.acont_mean) == -1

    @pytest.mark.parametrize("lr0", [math.nan, math.inf, -math.inf, 0.0, -0.001])
    def test_lr0_must_be_finite_and_positive(self, lr0):
        with pytest.raises(ConfigError, match=f"lr0 must be finite and > 0, got {lr0}"):
            TrainConfig(lr0=lr0)

    def test_history_csv(self, tmp_path):
        data = toy_data(5)
        cfg = TrainConfig(epochs=2, batch_size=30, seed=1)
        _, history = train(data, data, cfg, NormStats.identity())
        path = tmp_path / "history.csv"
        write_records(path, EpochRecord, history)
        lines = path.read_text().splitlines()
        assert lines[0] == "epoch,loss,val_response_rate,val_mean_reward,lr"
        assert len(lines) == 3
