import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clvdqn.action_space import (SCORE_ROWS, AcontRange, action_values,
                                 maximize_continuous_batch, net_qs)
from clvdqn.nn_core import ConfigError, LayerSpec, NetworkOverflow, forward_batch, init_mlp
from clvdqn.policy_eval import recommend_batch
from clvdqn.qlearn import network_spec
from clvdqn.rfmi import NormStats
from oracles import (grid_scan_max, layered_net, padded_kink_points,
                     padded_maximize_continuous_batch)

MIXED_RANGE = AcontRange(-2.0, 2.0)
BOUNDS = (MIXED_RANGE.lo, MIXED_RANGE.hi)


def zero_net(mode="discrete_only"):
    net = init_mlp(network_spec(mode), seed=0)
    for w in net.weights:
        w[:] = 0.0
    return net


def tent_net(base=0.0, neuron=7, others_bias=0.0):
    """Q[neuron] = base + relu(acont) - 2*relu(acont - 1): peak of 1 at acont=1."""
    specs = (LayerSpec(6, 2, "relu"), LayerSpec(2, 12, "linear"))
    w1 = np.zeros((2, 6))
    w1[0, 5] = 1.0
    w1[1, 5] = 1.0
    b1 = np.array([0.0, -1.0])
    w2 = np.zeros((12, 2))
    w2[neuron, 0] = 1.0
    w2[neuron, 1] = -2.0
    b2 = np.full(12, others_bias)
    b2[neuron] = base
    return layered_net(specs, [w1, w2], [b1, b2])


def spike_net(center, half_width, neuron=5):
    """Q[neuron] = 1 + a spike of height 1 at acont=center, zero beyond +-half_width."""
    specs = (LayerSpec(6, 3, "relu"), LayerSpec(3, 12, "linear"))
    w1 = np.zeros((3, 6))
    w1[:, 5] = 1.0
    b1 = -center + np.array([half_width, 0.0, -half_width])
    w2 = np.zeros((12, 3))
    w2[neuron] = np.array([1.0, -2.0, 1.0]) / half_width
    b2 = np.zeros(12)
    b2[neuron] = 1.0
    return layered_net(specs, [w1, w2], [b1, b2])


def maximize(net, state, acont_range=MIXED_RANGE):
    """(aconts, qs) rows of maximize_continuous_batch for a single state."""
    aconts, qs = maximize_continuous_batch(net, np.asarray(state)[None, :], acont_range)
    return aconts[0], qs[0]


def best(net, state, acont_range=None):
    """(action, acont, q) of recommend_batch for a single state."""
    actions, aconts, qs = recommend_batch(net, np.asarray(state)[None, :], NormStats.identity(),
                                          acont_range)
    return int(actions[0]), float(aconts[0]), float(qs[0])


def random_relu_net(rng, widths, n_out):
    dims = [6, *widths, n_out]
    specs = tuple(LayerSpec(i, o, "relu" if k < len(widths) else "linear")
                  for k, (i, o) in enumerate(zip(dims, dims[1:])))
    return layered_net(specs, [rng.normal(size=(o, i)) for i, o in zip(dims, dims[1:])],
                       [rng.normal(size=o) for o in dims[1:]])


def assert_matches_padded_oracle(net, states):
    """Checks maximize_continuous_batch against the padded oracle: every q to a relative 1e-12,
    aconts inside the bounds, and to 1e-12 where the oracle's maximum is unique (returned)."""
    aconts, qs = maximize_continuous_batch(net, states, MIXED_RANGE)
    want_aconts, want_qs = padded_maximize_continuous_batch(net, states, MIXED_RANGE)
    np.testing.assert_allclose(qs, want_qs, rtol=1e-12, atol=0)
    assert np.all((BOUNDS[0] <= aconts[:, 1:]) & (aconts[:, 1:] <= BOUNDS[1]))
    unique = np.zeros(qs.shape, dtype=bool)
    for i, state in enumerate(states):
        points = padded_kink_points(net, state[None, :], *BOUNDS)[0]
        q, _ = forward_batch(net, np.column_stack([np.tile(state, (len(points), 1)), points]))
        far = np.abs(points[:, None] - want_aconts[i]) > 1e-9  # (points, actions)
        runner_up = np.where(far, q, -np.inf).max(axis=0)
        unique[i] = want_qs[i] - runner_up > 1e-12 * np.abs(want_qs[i])
    unique[:, 0] = False  # inaction is not maximized
    np.testing.assert_allclose(aconts[unique], want_aconts[unique], rtol=0, atol=1e-12)
    np.testing.assert_array_equal(aconts[:, 0], MIXED_RANGE.inaction)
    return unique


class TestBestDiscrete:
    def test_zero_net_tie_breaks_to_action_zero(self):
        action, _, q = best(zero_net(), np.zeros(5))
        assert action == 0
        assert q == 0.0

    def test_bias_only_net(self):
        net = zero_net()
        net.biases[-1][4] = 7.0
        action, _, q = best(net, np.ones(5))
        assert (action, q) == (4, 7.0)

    def test_matches_exhaustive_scan(self):
        net = init_mlp(network_spec("discrete_only"), seed=3)
        rng = np.random.default_rng(3)
        for _ in range(20):
            state = rng.normal(size=5)
            q, _ = forward_batch(net, state[None, :])
            q = q[0]
            action, _, best_q = best(net, state)
            assert action == int(np.argmax(q))
            assert best_q == q[action]

    def test_shape_mismatch(self):
        with pytest.raises(ConfigError):
            best(zero_net(), np.zeros(4))


class TestMaximizeContinuous:
    def test_flat_objective(self):
        net = zero_net("mixed")
        net.biases[-1][3] = 2.5  # constant in acont
        aconts, qs = maximize(net, np.zeros(5))
        assert qs[3] == 2.5
        assert BOUNDS[0] <= aconts[3] <= BOUNDS[1]

    def test_tent_peak(self):
        aconts, qs = maximize(tent_net(), np.zeros(5), AcontRange(0.0, 2.0))
        assert aconts[7] == 1.0
        assert qs[7] == 1.0

    def test_against_grid_oracle(self):
        for seed in range(10):
            net = init_mlp(network_spec("mixed"), seed=seed)
            rng = np.random.default_rng(100 + seed)
            state = rng.normal(size=5)
            action = int(rng.integers(1, 12))
            _, qs = maximize(net, state)
            _, grid_q = grid_scan_max(net, state, action, BOUNDS)
            assert qs[action] >= grid_q - 1e-12

    def test_inaction_column_is_not_maximized(self):
        net = tent_net(neuron=0)  # Q[0] peaks at acont=1
        aconts, qs = maximize(net, np.zeros(5), AcontRange(-2.0, 2.0, inaction=0.5))
        assert (aconts[0], qs[0]) == (0.5, 0.5)

    def test_result_within_bounds(self):
        for seed in range(10):
            net = init_mlp(network_spec("mixed"), seed=seed)
            states = np.random.default_rng(seed).normal(size=(4, 5))
            aconts, _ = maximize_continuous_batch(net, states, MIXED_RANGE)
            assert np.all((BOUNDS[0] <= aconts) & (aconts <= BOUNDS[1]))

    def test_narrow_spike_is_found(self):
        center = 0.0007  # 7e-4 from the nearest point of the 2001-point grid
        net = spike_net(center, half_width=1e-4)
        _, grid_q = grid_scan_max(net, np.zeros(5), 5, BOUNDS)
        assert grid_q < 1.001  # the grid misses the spike
        aconts, qs = maximize(net, np.zeros(5))
        assert aconts[5] == pytest.approx(center, abs=1e-12)
        assert qs[5] == pytest.approx(2.0, abs=1e-9)

    @pytest.mark.parametrize("overflow", ["infinite_output_bias", "huge_weights"])
    def test_non_finite_q_rejected(self, overflow):
        if overflow == "infinite_output_bias":
            net = zero_net("mixed")
            net.biases[-1][2] = np.inf
            states = np.zeros((1, 5))
        else:  # finite weights of +-1e300 overflow the kink search and the forward pass
            net = init_mlp(network_spec("mixed"), seed=0)
            for w in net.weights:
                w[:] = np.copysign(1e300, w)
            states = np.random.default_rng(0).normal(size=(20, 5))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NetworkOverflow, match="non-finite Q-value"):
                maximize_continuous_batch(net, states, MIXED_RANGE)

    @settings(deadline=None)
    @given(seed=st.integers(0, 2**32 - 1),
           widths=st.lists(st.integers(1, 8), min_size=1, max_size=2),
           n_out=st.integers(2, 5),
           n_states=st.integers(1, 20),
           lo=st.floats(-5.0, 5.0),
           width=st.floats(0.01, 5.0))
    def test_exact_on_random_relu_nets(self, seed, widths, n_out, n_states, lo, width):
        rng = np.random.default_rng(seed)
        net = random_relu_net(rng, widths, n_out)
        acont_range = AcontRange(lo, lo + width)
        states = rng.normal(size=(n_states, 5))
        aconts, qs = maximize_continuous_batch(net, states, acont_range)
        assert aconts.shape == qs.shape == (n_states, n_out)
        for a in range(n_out):  # the bits of one forward over the batch's chosen inputs
            q, _ = forward_batch(net, np.column_stack([states, aconts[:, a]]))
            np.testing.assert_array_equal(qs[:, a], q[:, a])
        grid = np.linspace(acont_range.lo, acont_range.hi, 20001)
        for state, state_aconts, state_qs in zip(states, aconts, qs):
            grid_q, _ = forward_batch(net, np.column_stack([np.tile(state, (len(grid), 1)),
                                                            grid]))
            assert np.all((acont_range.lo <= state_aconts[1:])
                          & (state_aconts[1:] <= acont_range.hi))
            assert np.all(state_qs[1:] >= grid_q[:, 1:].max(axis=0) - 1e-12)

    @pytest.mark.parametrize("seed", range(3))
    def test_matches_padded_oracle(self, seed):
        # 200 states: 17 blocks of the flat candidate list, 67 of the padded table
        net = init_mlp(network_spec("mixed"), seed=seed)
        states = np.random.default_rng(300 + seed).normal(size=(200, 5))
        unique = assert_matches_padded_oracle(net, states)
        assert unique[:, 1:].mean() > 0.9  # the acont check is not vacuous

    def test_closed_form_edge_cases_match_padded_oracle(self):
        # layer 0: u == 0 with c != 0 (c / u is infinite), u == 0 with c == 0 (0 / 0), kinks
        # exactly on lo and on hi, and one kink inside; then a linear hidden layer
        rng = np.random.default_rng(7)
        w0 = np.zeros((5, 6))
        w0[2:, 5] = 1.0
        w0[4, :5] = rng.normal(size=5)
        b0 = np.array([1.5, 0.0, -BOUNDS[0], -BOUNDS[1], 0.3])
        specs = (LayerSpec(6, 5, "relu"), LayerSpec(5, 3, "linear"), LayerSpec(3, 4, "linear"))
        net = layered_net(specs, [w0, rng.normal(size=(3, 5)), rng.normal(size=(4, 3))],
                          [b0, rng.normal(size=3), rng.normal(size=4)])
        states = rng.normal(size=(30, 5)) * 0.3
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            unique = assert_matches_padded_oracle(net, states)
        assert unique[:, 1:].mean() > 0.9

    def test_peak_memory_is_bounded_by_the_block(self):
        # on these 3,000 states the padded search peaks at 6.8 MB, one unblocked list at 180+ MB
        net = init_mlp(network_spec("mixed"), seed=12)
        states = np.random.default_rng(12).normal(size=(3000, 5))
        maximize_continuous_batch(net, states[:10], MIXED_RANGE)  # first-call allocations
        tracemalloc.start()
        try:
            maximize_continuous_batch(net, states, MIXED_RANGE)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 6.8e6


class TestBestMixed:
    def test_zero_net(self):
        action, _, q = best(zero_net("mixed"), np.zeros(5), MIXED_RANGE)
        assert action == 0
        assert q == 0.0

    def test_tent_neuron_dominates(self):
        net = tent_net(base=5.0, neuron=7, others_bias=4.0)  # others flat at 4 < peak 6
        action, acont, _ = best(net, np.zeros(5), AcontRange(0.0, 2.0))
        assert action == 7
        assert abs(acont - 1.0) <= 0.01

    def test_against_per_neuron_grid_oracle(self):
        for seed in range(5):
            net = init_mlp(network_spec("mixed"), seed=seed)
            state = np.random.default_rng(200 + seed).normal(size=5)
            action, _, q = best(net, state, MIXED_RANGE)
            oracle_q = np.empty(12)
            q0, _ = forward_batch(net, np.concatenate([state, [0.0]])[None, :])
            oracle_q[0] = q0[0, 0]
            for a in range(1, 12):
                _, oracle_q[a] = grid_scan_max(net, state, a, BOUNDS)
            assert q >= oracle_q.max() - 1e-3
            assert action == int(np.argmax(oracle_q)) or q >= oracle_q.max() - 1e-3

    def test_q_consistent_with_forward(self):
        net = init_mlp(network_spec("mixed"), seed=8)
        state = np.random.default_rng(8).normal(size=5)
        action, acont, best_q = best(net, state, MIXED_RANGE)
        q, _ = forward_batch(net, np.concatenate([state, [acont]])[None, :])
        assert q[0, action] == best_q

    def test_bias_shift_leaves_argmax(self):
        net = init_mlp(network_spec("mixed"), seed=9)
        state = np.random.default_rng(9).normal(size=5)
        before = best(net, state, MIXED_RANGE)
        shifted = net.copy()
        shifted.biases[-1][...] += 3.25
        after = best(shifted, state, MIXED_RANGE)
        assert after[0] == before[0]
        assert after[1] == before[1]
        assert after[2] == pytest.approx(before[2] + 3.25, rel=1e-12)


class TestNetQs:
    @pytest.mark.parametrize("mode", ["discrete_only", "mixed"])
    @pytest.mark.parametrize("n", [0, 1, 1023, 1024, 1025, 1543, 20_000])
    def test_blocks_match_one_forward(self, mode, n):
        net = init_mlp(network_spec(mode), seed=n)
        inputs = np.random.default_rng(n).normal(size=(n, net.input_dim))
        want, _ = forward_batch(net, inputs)
        np.testing.assert_allclose(net_qs(net, inputs), want, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("mode", ["discrete_only", "mixed"])
    @pytest.mark.parametrize("output", ["linear", "relu"])
    @pytest.mark.parametrize("n", [1, 80, 81, 200, 1023, 1025])
    def test_cache_free_forward_is_forward_batch_bit_for_bit(self, mode, output, n):
        # on a strided column view of a transitions-like table; 1, 2-80 and 81+ rows are
        # the batch sizes whose row bits can differ, and 1,025 rows are two blocks
        specs = network_spec(mode)
        specs[-1] = LayerSpec(specs[-1].input_dim, specs[-1].output_dim, output)
        net = init_mlp(specs, seed=n)
        table = np.random.default_rng(n).normal(size=(n, 13))
        inputs = table[:, 7:7 + net.input_dim]
        want, _ = forward_batch(net, inputs)
        assert net_qs(net, inputs).tobytes() == want.tobytes()

    def test_overflow_in_the_last_block_is_caught(self):
        n = 3 * SCORE_ROWS + 7  # blocks of 512, 512 and 519 rows
        net = init_mlp(network_spec("discrete_only"), seed=0)
        for w in net.weights:
            w[...] = np.abs(w) + 1.0  # every product of a 1e308 input is at least 1e308
        inputs = np.zeros((n, 5))
        inputs[-1] = 1e308
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NetworkOverflow, match="non-finite Q-value"):
                net_qs(net, inputs)

    @pytest.mark.parametrize("bad", ["width", "non_finite"])
    def test_bad_input_error_names_the_whole_shape(self, bad):
        net = init_mlp(network_spec("discrete_only"), seed=0)
        inputs = np.zeros((2 * SCORE_ROWS + 100, 4 if bad == "width" else 5))
        if bad == "non_finite":
            inputs[-1, 0] = np.nan  # in the last block
        with pytest.raises(ConfigError) as want:
            forward_batch(net, inputs)
        assert str(inputs.shape) in str(want.value)
        with pytest.raises(ConfigError) as got:
            net_qs(net, inputs)
        assert str(got.value) == str(want.value)

    def test_one_block_cache_is_live_at_a_time(self):
        # a scoring forward keeps no cache, only a block's 40 + 15 hidden activations, 440 B
        # a row: the last block, 544 rows, adds about 0.24 MB over the output (measured:
        # 0.243 MB), two live blocks about 0.48 MB
        net = init_mlp(network_spec("discrete_only"), seed=0)
        inputs = np.random.default_rng(0).normal(size=(20_000, 5))
        net_qs(net, inputs[:10])  # first-call allocations
        tracemalloc.start()
        try:
            qs = net_qs(net, inputs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - qs.nbytes < 0.35e6


class TestActionValues:
    def test_discrete_net_scores_its_outputs_at_acont_zero(self):
        net = init_mlp(network_spec("discrete_only"), seed=10)
        states = np.random.default_rng(10).normal(size=(6, 5))
        aconts, qs = action_values(net, states)
        want, _ = forward_batch(net, states)
        np.testing.assert_array_equal(qs, want)
        np.testing.assert_array_equal(aconts, np.zeros((6, 12)))

    def test_mixed_net_is_maximized(self):
        net = init_mlp(network_spec("mixed"), seed=11)
        states = np.random.default_rng(11).normal(size=(6, 5))
        got = action_values(net, states, MIXED_RANGE)
        want = maximize_continuous_batch(net, states, MIXED_RANGE)
        for g, w in zip(got, want):
            np.testing.assert_array_equal(g, w)

    @pytest.mark.parametrize("n_in", [4, 7])
    def test_other_input_widths_rejected(self, n_in):
        net = init_mlp([LayerSpec(n_in, 12, "linear")], seed=0)
        with pytest.raises(ConfigError, match="5 inputs .discrete. or 6 .mixed."):
            action_values(net, np.zeros((1, 5)), MIXED_RANGE)

    def test_mixed_net_needs_a_range(self):
        with pytest.raises(ConfigError, match="acont range"):
            action_values(zero_net("mixed"), np.zeros((1, 5)))

    @pytest.mark.parametrize("lo, hi", [(1.0, 1.0), (2.0, -2.0), (0.0, np.inf), (np.nan, 1.0),
                                        (-1e308, 1e308), (np.float64(-1e308), np.float64(1e308))])
    def test_degenerate_range_rejected(self, lo, hi):
        with pytest.raises(ConfigError, match="degenerate bounds"):
            AcontRange(lo, hi)
