import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clvdqn.action_space import (
    ActionSpec,
    best_discrete,
    best_mixed,
    maximize_continuous_batch,
)
from clvdqn.nn_core import ConfigError, LayerSpec, Mlp, forward, forward_batch, init_mlp
from clvdqn.qlearn import network_spec
from oracles import grid_scan_max

MIXED_SPEC = ActionSpec(continuous_dims=1, bounds=(-2.0, 2.0))


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
    return Mlp(specs=specs, weights=[w1, w2], biases=[b1, b2])


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
    return Mlp(specs=specs, weights=[w1, w2], biases=[b1, b2])


def maximize(net, state, spec=MIXED_SPEC, inaction_acont=0.0):
    """(aconts, qs) rows of maximize_continuous_batch for a single state."""
    aconts, qs = maximize_continuous_batch(net, np.asarray(state)[None, :], spec, inaction_acont)
    return aconts[0], qs[0]


def random_relu_net(rng, widths, n_out):
    dims = [6, *widths, n_out]
    specs = tuple(LayerSpec(i, o, "relu" if k < len(widths) else "linear")
                  for k, (i, o) in enumerate(zip(dims, dims[1:])))
    return Mlp(specs=specs,
               weights=[rng.normal(size=(o, i)) for i, o in zip(dims, dims[1:])],
               biases=[rng.normal(size=o) for o in dims[1:]])


class TestBestDiscrete:
    def test_zero_net_tie_breaks_to_action_zero(self):
        result = best_discrete(zero_net(), np.zeros(5))
        assert result.action == 0
        assert result.q_value == 0.0

    def test_bias_only_net(self):
        net = zero_net()
        net.biases[-1][4] = 7.0
        result = best_discrete(net, np.ones(5))
        assert (result.action, result.q_value) == (4, 7.0)

    def test_matches_exhaustive_scan(self):
        net = init_mlp(network_spec("discrete_only"), seed=3)
        rng = np.random.default_rng(3)
        for _ in range(20):
            state = rng.normal(size=5)
            q, _ = forward(net, state)
            result = best_discrete(net, state)
            assert result.action == int(np.argmax(q))
            assert result.q_value == q[result.action]

    def test_shape_mismatch(self):
        with pytest.raises(ConfigError):
            best_discrete(zero_net(), np.zeros(4))


class TestMaximizeContinuous:
    def test_flat_objective(self):
        net = zero_net("mixed")
        net.biases[-1][3] = 2.5  # constant in acont
        aconts, qs = maximize(net, np.zeros(5))
        assert qs[3] == 2.5
        assert MIXED_SPEC.bounds[0] <= aconts[3] <= MIXED_SPEC.bounds[1]

    def test_tent_peak(self):
        spec = ActionSpec(continuous_dims=1, bounds=(0.0, 2.0))
        aconts, qs = maximize(tent_net(), np.zeros(5), spec)
        assert aconts[7] == 1.0
        assert qs[7] == 1.0

    def test_against_grid_oracle(self):
        for seed in range(10):
            net = init_mlp(network_spec("mixed"), seed=seed)
            rng = np.random.default_rng(100 + seed)
            state = rng.normal(size=5)
            action = int(rng.integers(1, 12))
            _, qs = maximize(net, state)
            _, grid_q = grid_scan_max(net, state, action, MIXED_SPEC.bounds)
            assert qs[action] >= grid_q - 1e-12

    def test_inaction_column_is_not_maximized(self):
        net = tent_net(neuron=0)  # Q[0] peaks at acont=1
        aconts, qs = maximize(net, np.zeros(5), inaction_acont=0.5)
        assert (aconts[0], qs[0]) == (0.5, 0.5)

    def test_result_within_bounds(self):
        for seed in range(10):
            net = init_mlp(network_spec("mixed"), seed=seed)
            states = np.random.default_rng(seed).normal(size=(4, 5))
            aconts, _ = maximize_continuous_batch(net, states, MIXED_SPEC)
            assert np.all((MIXED_SPEC.bounds[0] <= aconts) & (aconts <= MIXED_SPEC.bounds[1]))

    def test_narrow_spike_is_found(self):
        center = 0.0007  # 7e-4 from the nearest point of the 2001-point grid
        net = spike_net(center, half_width=1e-4)
        _, grid_q = grid_scan_max(net, np.zeros(5), 5, MIXED_SPEC.bounds)
        assert grid_q < 1.001  # the grid misses the spike
        aconts, qs = maximize(net, np.zeros(5))
        assert aconts[5] == pytest.approx(center, abs=1e-12)
        assert qs[5] == pytest.approx(2.0, abs=1e-9)

    def test_non_finite_q_rejected(self):
        net = zero_net("mixed")
        net.biases[-1][2] = np.inf
        with pytest.raises(ConfigError):
            maximize(net, np.zeros(5))

    @settings(deadline=None)
    @given(seed=st.integers(0, 2**32 - 1),
           widths=st.lists(st.integers(1, 8), min_size=1, max_size=2),
           n_out=st.integers(2, 5),
           lo=st.floats(-5.0, 5.0),
           width=st.floats(0.01, 5.0))
    def test_exact_on_random_relu_nets(self, seed, widths, n_out, lo, width):
        rng = np.random.default_rng(seed)
        net = random_relu_net(rng, widths, n_out)
        spec = ActionSpec(n_discrete=n_out, continuous_dims=1, bounds=(lo, lo + width))
        state = rng.normal(size=5)
        aconts, qs = maximize(net, state, spec)
        grid = np.linspace(*spec.bounds, 20001)
        grid_q, _ = forward_batch(net, np.column_stack([np.tile(state, (len(grid), 1)), grid]))
        for a in range(1, n_out):
            assert spec.bounds[0] <= aconts[a] <= spec.bounds[1]
            assert qs[a] >= grid_q[:, a].max() - 1e-12
            q, _ = forward(net, np.concatenate([state, [aconts[a]]]))
            assert q[a] == qs[a]


class TestBestMixed:
    def test_zero_net(self):
        result = best_mixed(zero_net("mixed"), np.zeros(5), MIXED_SPEC)
        assert result.action == 0
        assert result.q_value == 0.0

    def test_tent_neuron_dominates(self):
        spec = ActionSpec(continuous_dims=1, bounds=(0.0, 2.0))
        net = tent_net(base=5.0, neuron=7, others_bias=4.0)  # others flat at 4 < peak 6
        result = best_mixed(net, np.zeros(5), spec)
        assert result.action == 7
        assert abs(result.acont - 1.0) <= 0.01

    def test_against_per_neuron_grid_oracle(self):
        for seed in range(5):
            net = init_mlp(network_spec("mixed"), seed=seed)
            state = np.random.default_rng(200 + seed).normal(size=5)
            result = best_mixed(net, state, MIXED_SPEC)
            oracle_q = np.empty(12)
            q0, _ = forward(net, np.concatenate([state, [0.0]]))
            oracle_q[0] = q0[0]
            for a in range(1, 12):
                _, oracle_q[a] = grid_scan_max(net, state, a, MIXED_SPEC.bounds)
            assert result.q_value >= oracle_q.max() - 1e-3
            assert result.action == int(np.argmax(oracle_q)) or result.q_value >= oracle_q.max() - 1e-3

    def test_q_consistent_with_forward(self):
        net = init_mlp(network_spec("mixed"), seed=8)
        state = np.random.default_rng(8).normal(size=5)
        result = best_mixed(net, state, MIXED_SPEC)
        q, _ = forward(net, np.concatenate([state, [result.acont]]))
        assert q[result.action] == result.q_value

    def test_bias_shift_leaves_argmax(self):
        net = init_mlp(network_spec("mixed"), seed=9)
        state = np.random.default_rng(9).normal(size=5)
        before = best_mixed(net, state, MIXED_SPEC)
        shifted = net.copy()
        shifted.biases[-1] += 3.25
        after = best_mixed(shifted, state, MIXED_SPEC)
        assert after.action == before.action
        assert after.acont == before.acont
        assert after.q_value == pytest.approx(before.q_value + 3.25, rel=1e-12)
