import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clvdqn.nn_core import (
    ACTIVATIONS,
    ConfigError,
    Gradients,
    LayerSpec,
    Mlp,
    TrainingDiverged,
    backward_batch,
    forward_batch,
    init_mlp,
    load_mlp,
    n_params,
    rmsprop_step,
    save_mlp,
)
from clvdqn.qlearn import Learner
from oracles import finite_difference_grads, layered_net, max_mixed_error


def zero_net(specs):
    net = init_mlp(specs, seed=0)
    for w in net.weights:
        w[:] = 0.0
    return net


class TestInit:
    def test_biases_zero(self):
        net = init_mlp([LayerSpec(1, 1, "linear")], seed=123)
        assert net.biases[0].tolist() == [0.0]

    def test_deterministic_for_seed(self):
        specs = [LayerSpec(3, 4, "relu"), LayerSpec(4, 2, "linear")]
        a = init_mlp(specs, seed=7)
        b = init_mlp(specs, seed=7)
        for wa, wb in zip(a.weights, b.weights):
            np.testing.assert_array_equal(wa, wb)

    def test_param_count_default_architecture(self):
        net = init_mlp(
            [LayerSpec(5, 40, "relu"), LayerSpec(40, 15, "relu"), LayerSpec(15, 12, "linear")],
            seed=0,
        )
        assert net.flat.size == 1047

    def test_weight_scale(self):
        net = init_mlp([LayerSpec(100, 50, "relu")], seed=0)
        assert np.abs(net.weights[0]).max() <= 1 / np.sqrt(100)

    def test_inconsistent_dims_rejected(self):
        with pytest.raises(ConfigError):
            init_mlp([LayerSpec(3, 4, "relu"), LayerSpec(5, 2, "linear")], seed=0)

    def test_empty_spec_rejected(self):
        with pytest.raises(ConfigError):
            init_mlp([], seed=0)


class TestForward:
    def test_zero_net_maps_to_zero(self):
        net = zero_net([LayerSpec(3, 4, "relu"), LayerSpec(4, 2, "linear")])
        y, _ = forward_batch(net, [[1.0, -2.0, 3.0]])
        np.testing.assert_array_equal(y[0], [0.0, 0.0])

    def test_relu_clamps_negative(self):
        net = zero_net([LayerSpec(1, 1, "relu")])
        net.weights[0][:] = [[-2.0]]
        y, _ = forward_batch(net, [[3.0]])
        assert y[0, 0] == 0.0

    def test_two_layer_absolute_value(self):
        # relu(x) + relu(-x) = |x|
        net = zero_net([LayerSpec(1, 2, "relu"), LayerSpec(2, 1, "linear")])
        net.weights[0][:] = [[1.0], [-1.0]]
        net.weights[1][:] = [[1.0, 1.0]]
        for x, expected in [(-2.0, 2.0), (3.5, 3.5), (0.0, 0.0)]:
            y, _ = forward_batch(net, [[x]])
            assert y[0, 0] == expected

    def test_deterministic(self):
        net = init_mlp([LayerSpec(4, 6, "relu"), LayerSpec(6, 3, "linear")], seed=1)
        x = np.random.default_rng(0).normal(size=4)
        y1, _ = forward_batch(net, x[None, :])
        y2, _ = forward_batch(net, x[None, :])
        np.testing.assert_array_equal(y1, y2)

    def test_relu_identity_against_manual_composition(self):
        net = init_mlp([LayerSpec(3, 5, "relu"), LayerSpec(5, 2, "linear")], seed=3)
        x = np.array([0.3, -1.2, 0.8])
        h = np.maximum(net.weights[0] @ x + net.biases[0], 0.0)
        expected = net.weights[1] @ h + net.biases[1]
        y, _ = forward_batch(net, x[None, :])
        np.testing.assert_allclose(y[0], expected, rtol=1e-12)

    def test_dimension_mismatch(self):
        net = init_mlp([LayerSpec(3, 2, "linear")], seed=0)
        with pytest.raises(ConfigError):
            forward_batch(net, [[1.0, 2.0]])

    def test_nonfinite_input_rejected(self):
        net = init_mlp([LayerSpec(2, 2, "linear")], seed=0)
        with pytest.raises(ConfigError):
            forward_batch(net, [[1.0, np.nan]])


class TestBackward:
    def test_zero_output_grad(self):
        net = init_mlp([LayerSpec(3, 4, "relu"), LayerSpec(4, 2, "linear")], seed=5)
        _, cache = forward_batch(net, [[1.0, 2.0, 3.0]])
        grads = backward_batch(net, cache, [[0.0, 0.0]])
        for g in grads.weight_grads + grads.bias_grads:
            assert not np.any(g)
        assert not np.any(grads.input_grads)

    def test_single_linear_layer_derivatives(self):
        net = zero_net([LayerSpec(2, 1, "linear")])
        net.weights[0][:] = [[0.5, -1.5]]
        x = np.array([2.0, 3.0])
        _, cache = forward_batch(net, x[None, :])
        grads = backward_batch(net, cache, [[1.0]])
        np.testing.assert_array_equal(grads.weight_grads[0], [[2.0, 3.0]])
        np.testing.assert_array_equal(grads.bias_grads[0], [1.0])
        np.testing.assert_array_equal(grads.input_grads[0], [0.5, -1.5])

    def test_gradients_match_finite_differences(self):
        specs = [LayerSpec(5, 30, "relu"), LayerSpec(30, 12, "linear")]
        net = init_mlp(specs, seed=11)
        rng = np.random.default_rng(11)
        x = rng.normal(size=5)
        gy = rng.normal(size=12)
        _, cache = forward_batch(net, x[None, :])
        grads = backward_batch(net, cache, gy[None, :])
        fd_w, fd_b, fd_x = finite_difference_grads(net, x, gy)
        for analytic, fd in zip(grads.weight_grads + grads.bias_grads, fd_w + fd_b):
            assert max_mixed_error(analytic, fd) < 1e-4
        assert max_mixed_error(grads.input_grads[0], fd_x) < 1e-4

    def test_batch_param_grads_sum_over_rows(self):
        net = init_mlp([LayerSpec(3, 4, "relu"), LayerSpec(4, 2, "linear")], seed=2)
        rng = np.random.default_rng(2)
        xs = rng.normal(size=(4, 3))
        gys = rng.normal(size=(4, 2))
        _, cache = forward_batch(net, xs)
        batched = backward_batch(net, cache, gys)
        summed = [np.zeros_like(w) for w in net.weights]
        for x, gy in zip(xs, gys):
            _, c = forward_batch(net, x[None, :])
            g = backward_batch(net, c, gy[None, :])
            for acc, wg in zip(summed, g.weight_grads):
                acc += wg
        for got, expected in zip(batched.weight_grads, summed):
            np.testing.assert_allclose(got, expected, rtol=1e-10)

    @settings(deadline=None, max_examples=60)
    @given(seed=st.integers(0, 2**32 - 1),
           widths=st.lists(st.integers(1, 24), min_size=1, max_size=4),
           activations=st.lists(st.sampled_from(ACTIVATIONS), min_size=4, max_size=4),
           rows=st.integers(1, 300))
    def test_param_grads_do_not_depend_on_input_grads(self, seed, widths, activations, rows):
        # td_step skips layer 0's input matmul and reuses one Gradients buffer
        rng = np.random.default_rng(seed)
        specs = [LayerSpec(i, o, act) for i, o, act in zip(widths, widths[1:] + [12], activations)]
        net = layered_net(specs, [rng.normal(size=(s.output_dim, s.input_dim)) for s in specs],
                          [rng.normal(size=s.output_dim) for s in specs])
        _, cache = forward_batch(net, rng.normal(size=(rows, widths[0])))
        output_grads = rng.normal(size=(rows, 12))
        upstream = output_grads.copy()
        full = backward_batch(net, cache, output_grads)
        out = Gradients.like(net)
        out.flat[:] = np.nan
        lean = backward_batch(net, cache, output_grads, out, input_grads=False)
        assert lean is out and lean.input_grads is None
        assert lean.flat.tobytes() == full.flat.tobytes()
        assert full.input_grads.shape == (rows, widths[0])
        assert output_grads.tobytes() == upstream.tobytes()

    def test_relu_mask_has_the_bits_of_a_bool_mask(self):
        # a cached ReLU output of NaN or +-0.0 masks to a 0 subgradient, of g's sign
        specs = [LayerSpec(3, 4, "relu"), LayerSpec(4, 2, "relu")]
        net = init_mlp(specs, seed=3)
        rng = np.random.default_rng(3)
        x = rng.normal(size=(5, 3))
        hidden = np.maximum(rng.normal(size=(5, 4)), 0.0)
        hidden[0, :3] = [np.nan, 0.0, -0.0]
        out = np.array([[1.0, 0.0], [np.nan, 2.0], [-0.0, 3.0], [4.0, 0.0], [0.0, 5.0]])
        gy = -np.abs(rng.normal(size=(5, 2)))
        grads = backward_batch(net, [x, hidden, out], gy)
        g = gy * (out > 0.0)
        w1, b1 = g.T @ hidden, g.sum(axis=0)
        g = (g @ net.weights[1]) * (hidden > 0.0)
        w0, b0 = g.T @ x, g.sum(axis=0)
        for got, want in zip(grads.weight_grads + grads.bias_grads, (w0, w1, b0, b1)):
            assert got.tobytes() == np.ascontiguousarray(want).tobytes()
        assert grads.input_grads.tobytes() == (g @ net.weights[0]).tobytes()


class TestRmsprop:
    def test_zero_gradient_leaves_params(self):
        net = init_mlp([LayerSpec(2, 2, "linear")], seed=0)
        before = [w.copy() for w in net.weights]
        cache = np.zeros_like(net.flat)
        cache[:net.weights[0].size] = 1.0  # layer 0 weights lead the flat layout
        grads = Gradients(net.specs, np.zeros(net.flat.size), np.zeros(2))
        rmsprop_step(net, grads, cache, lr=0.1)
        for w, b4 in zip(net.weights, before):
            np.testing.assert_array_equal(w, b4)
        assert cache[0] == pytest.approx(0.9)  # decayed toward 0

    def test_single_param_update_rule(self):
        net = zero_net([LayerSpec(1, 1, "linear")])
        net.weights[0][:] = 1.0
        cache = np.zeros_like(net.flat)
        grads = Gradients(net.specs, np.array([2.0, 0.0]), np.zeros(1))  # weight, bias
        rmsprop_step(net, grads, cache, lr=0.001)
        assert cache[0] == pytest.approx(0.4)
        assert net.weights[0][0, 0] == pytest.approx(1 - 0.001 * 2 / (np.sqrt(0.4) + 1e-8))

    def test_constant_gradient_step_approaches_lr(self):
        net = zero_net([LayerSpec(1, 1, "linear")])
        cache = np.zeros_like(net.flat)
        grads = Gradients(net.specs, np.array([3.0, 0.0]), np.zeros(1))
        lr = 0.01
        prev = net.weights[0][0, 0]
        for _ in range(200):
            rmsprop_step(net, grads, cache, lr)
        step = prev - 200 * lr  # would hold if every step had magnitude lr
        assert net.weights[0][0, 0] == pytest.approx(step, abs=0.2)
        last = net.weights[0][0, 0]
        rmsprop_step(net, grads, cache, lr)
        assert last - net.weights[0][0, 0] == pytest.approx(lr, rel=1e-3)

    def test_cache_stays_nonnegative(self):
        net = init_mlp([LayerSpec(3, 3, "relu"), LayerSpec(3, 1, "linear")], seed=9)
        rms_cache = np.zeros_like(net.flat)
        rng = np.random.default_rng(9)
        for _ in range(50):
            x = rng.normal(size=3)
            _, cache = forward_batch(net, x[None, :])
            grads = backward_batch(net, cache, rng.normal(size=(1, 1)))
            rmsprop_step(net, grads, rms_cache, lr=0.01)
        assert rms_cache.shape == (net.flat.size,)
        assert np.all(rms_cache >= 0)

    def test_nonfinite_gradient_raises(self):
        net = init_mlp([LayerSpec(1, 1, "linear")], seed=0)
        cache = np.zeros_like(net.flat)
        grads = Gradients(net.specs, np.array([np.nan, 0.0]), np.zeros(1))
        with pytest.raises(TrainingDiverged):
            rmsprop_step(net, grads, cache, lr=0.1)

    def test_nan_learning_rate_rejected(self):
        net = init_mlp([LayerSpec(1, 1, "linear")], seed=0)
        before = net.flat.copy()
        grads = Gradients(net.specs, np.array([1.0, 0.0]), np.zeros(1))
        with pytest.raises(ConfigError, match="learning rate must be positive"):
            rmsprop_step(net, grads, np.zeros_like(net.flat), math.nan)
        np.testing.assert_array_equal(net.flat, before)


class TestFlatParameters:
    SPECS = [LayerSpec(5, 7, "relu"), LayerSpec(7, 3, "relu"), LayerSpec(3, 12, "linear")]

    def test_layers_view_row_major_in_out_blocks(self):
        net = init_mlp(self.SPECS, seed=4)
        assert net.flat.shape == (net.flat.size,) and net.flat.dtype == np.float64
        expected = np.concatenate([a.ravel() for pair in zip(net.weights, net.biases)
                                   for a in (pair[0].T, pair[1])])
        np.testing.assert_array_equal(net.flat, expected)
        for spec, w in zip(self.SPECS, net.weights):
            assert w.shape == (spec.output_dim, spec.input_dim) and w.T.flags.c_contiguous
        for p in net.weights + net.biases:
            assert np.shares_memory(p, net.flat)
        net.flat[1] = 9.5  # layer 0's block is (5, 7): its second value is input 0, output 1
        assert net.weights[0][1, 0] == 9.5

    def test_layers_cannot_be_rebound(self):
        net = init_mlp(self.SPECS, seed=4)
        with pytest.raises(TypeError):
            net.weights[0] = np.zeros((7, 5))
        with pytest.raises(TypeError):
            net.biases[-1] += 1.0

    def test_constructor_wraps_its_flat_vector(self):
        flat = np.random.default_rng(0).normal(size=n_params(self.SPECS))
        given_ = flat.copy()
        net = Mlp(self.SPECS, flat)
        assert net.flat is flat and net.specs == tuple(self.SPECS)
        assert (net.input_dim, net.output_dim) == (5, 12)
        expected = np.concatenate([a.ravel() for pair in zip(net.weights, net.biases)
                                   for a in (pair[0].T, pair[1])])
        np.testing.assert_array_equal(expected, given_)
        np.testing.assert_array_equal(net.weights[1], given_[42:63].reshape(7, 3).T)
        net.weights[1][...] = 0.0
        assert not flat[5 * 7 + 7:5 * 7 + 7 + 7 * 3].any()
        assert flat[:42].all() and flat[63:].all()

    def test_constructor_rejects_a_wrong_size_or_specs(self):
        with pytest.raises(ConfigError):
            Mlp([LayerSpec(2, 3, "linear")], np.zeros(8))
        with pytest.raises(ConfigError):
            Mlp([LayerSpec(2, 3, "linear")], np.zeros((1, 9)))
        with pytest.raises(ConfigError):
            Mlp([LayerSpec(2, 3, "linear"), LayerSpec(2, 1, "linear")], np.zeros(12))

    def test_copy_shares_no_memory(self):
        net = init_mlp(self.SPECS, seed=4)
        clone = net.copy()
        np.testing.assert_array_equal(clone.flat, net.flat)
        for a in (clone.flat, *clone.weights, *clone.biases):
            for b in (net.flat, *net.weights, *net.biases):
                assert not np.shares_memory(a, b)
        for w in clone.weights:
            assert np.shares_memory(w, clone.flat)
        clone.flat[:] = 0.0
        assert np.any(net.flat != 0.0)

    def test_gradients_and_cache_share_the_layout(self):
        net = init_mlp(self.SPECS, seed=4)
        _, cache = forward_batch(net, np.random.default_rng(1).normal(size=(6, 5)))
        grads = backward_batch(net, cache, np.random.default_rng(2).normal(size=(6, 12)))
        assert grads.flat.shape == net.flat.shape
        for g, p in zip(grads.weight_grads + grads.bias_grads, net.weights + net.biases):
            assert g.shape == p.shape and np.shares_memory(g, grads.flat)
        assert Learner.fresh(net, rng=None).opt.shape == net.flat.shape

    @pytest.mark.parametrize("value", [np.inf, 1e200], ids=["inf", "square-overflows"])
    def test_nonfinite_gradient_leaves_the_net_and_cache(self, value):
        net = init_mlp(self.SPECS, seed=4)
        before = net.flat.copy()
        cache = np.zeros_like(net.flat)
        grad = np.ones(net.flat.size)
        grad[-1] = value  # the last output bias
        with pytest.raises(TrainingDiverged, match="non-finite gradient"):
            rmsprop_step(net, Gradients(net.specs, grad, None), cache, lr=0.1)
        np.testing.assert_array_equal(net.flat, before)
        assert not np.any(cache)

    # SHA-256 of the CLVDQN1 file of init_mlp(SPECS, seed=4), as save_mlp wrote it when
    # Mlp.flat held the file order itself.
    FILE_SHA256 = "4870c4d662c97972ba0ce1b372624fae76b45901fb46e958fbc713eacc29d2bb"
    HEADER = b"CLVDQN1\n3\n5 7 relu\n7 3 relu\n3 12 linear\n"

    def file_bytes(self, net):
        """The CLVDQN1 bytes of net: the header, then per layer its (out, in) weights
        row-major and its biases, as float64 LE."""
        return self.HEADER + b"".join(np.ascontiguousarray(a, dtype="<f8").tobytes()
                                      for pair in zip(net.weights, net.biases) for a in pair)

    def test_save_writes_header_then_file_order_le_bytes(self, tmp_path):
        net = init_mlp(self.SPECS, seed=4)
        path = tmp_path / "net.clvdqn"
        save_mlp(net, path)
        written = path.read_bytes()
        assert written == self.file_bytes(net)
        assert hashlib.sha256(written).hexdigest() == self.FILE_SHA256
        loaded = load_mlp(path)
        assert loaded.flat.flags.writeable and loaded.flat.flags.c_contiguous
        np.testing.assert_array_equal(loaded.flat, net.flat)

    def test_file_of_the_old_layout_loads_and_saves_back_unchanged(self, tmp_path):
        net = init_mlp(self.SPECS, seed=4)
        path = tmp_path / "old.clvdqn"
        path.write_bytes(self.file_bytes(net))  # written without save_mlp
        assert hashlib.sha256(path.read_bytes()).hexdigest() == self.FILE_SHA256
        loaded = load_mlp(path)
        for a, b in zip(loaded.weights + loaded.biases, net.weights + net.biases):
            assert a.tobytes() == b.tobytes()
        save_mlp(loaded, tmp_path / "again.clvdqn")
        assert (tmp_path / "again.clvdqn").read_bytes() == path.read_bytes()


class TestSaveLoad:
    def test_round_trip(self, tmp_path):
        net = init_mlp(
            [LayerSpec(5, 40, "relu"), LayerSpec(40, 15, "relu"), LayerSpec(15, 12, "linear")],
            seed=42,
        )
        path = tmp_path / "net.clvdqn"
        save_mlp(net, path)
        loaded = load_mlp(path)
        assert loaded.specs == net.specs
        for a, b in zip(loaded.weights + loaded.biases, net.weights + net.biases):
            np.testing.assert_array_equal(a, b)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bogus"
        path.write_bytes(b"NOTANET\n1\n")
        with pytest.raises(ConfigError):
            load_mlp(path)
