import hashlib
import math
import threading
import warnings

import numpy as np
import pytest
from conftest import assert_grads_close, central_diff

from faultfusion import layers
from faultfusion.errors import ShapeError
from faultfusion.layers import (
    LSTM,
    Conv1D,
    Dense,
    Flatten,
    MaxPool1D,
    ReLULayer,
    concat,
    relu,
    relu_backward,
    softmax,
)
from faultfusion.tensor import Rng


class TestConv1D:
    def test_edge_detector_kernel(self):
        layer = Conv1D(np.array([1.0, 0.0, -1.0]).reshape(3, 1, 1), np.zeros(1))
        y, _ = layer.forward(np.array([1.0, 2.0, 3.0, 4.0]).reshape(1, 4, 1))
        assert np.array_equal(y[0, :, 0], [-2.0, -2.0])

    def test_identity_kernel(self):
        layer = Conv1D(np.array([[[1.0]]]), np.zeros(1))
        x = Rng(0).normal((1, 9, 1))
        y, _ = layer.forward(x)
        assert np.array_equal(y, x)

    def test_window_shorter_than_kernel(self):
        layer = Conv1D(np.zeros((7, 1, 2)), np.zeros(2))
        with pytest.raises(ShapeError, match="shorter than kernel"):
            layer.forward(np.zeros((1, 6, 1)))

    def test_input_grad_false_keeps_parameter_grads(self):
        rng = Rng(40)
        layer = Conv1D.init(7, 1, 8, rng)
        _, cache = layer.forward(rng.normal((3, 50, 1)))
        g = rng.normal((3, 44, 8))
        _, full = layer.backward(cache, g)
        gx, grads = layer.backward(cache, g, input_grad=False)
        assert gx is None
        for name in ("kernels", "bias"):
            assert grads[name].tobytes() == full[name].tobytes()

    def test_against_quadruple_loop(self):
        rng = Rng(3)
        x = rng.normal((1, 10, 2))
        kernels = rng.normal((3, 2, 4))
        bias = rng.normal(4)
        layer = Conv1D(kernels, bias)
        y, _ = layer.forward(x)
        want = np.zeros((8, 4))
        for t in range(8):
            for o in range(4):
                acc = bias[o]
                for k in range(3):
                    for c in range(2):
                        acc += x[0, t + k, c] * kernels[k, c, o]
                want[t, o] = acc
        assert np.abs(y[0] - want).max() < 1e-12

    def test_backward_zero_grad(self):
        layer = Conv1D(Rng(1).normal((3, 2, 4)), np.zeros(4))
        _, cache = layer.forward(Rng(2).normal((1, 10, 2)))
        gx, grads = layer.backward(cache, np.zeros((1, 8, 4)))
        assert not gx.any() and not grads["kernels"].any() and not grads["bias"].any()

    def test_backward_identity_kernel(self):
        layer = Conv1D(np.array([[[1.0]]]), np.zeros(1))
        _, cache = layer.forward(Rng(3).normal((1, 6, 1)))
        g = Rng(4).normal((1, 6, 1))
        gx, _ = layer.backward(cache, g)
        assert np.array_equal(gx, g)

    def test_backward_matches_finite_differences(self):
        rng = Rng(5)
        x = rng.normal((1, 9, 2))
        layer = Conv1D(rng.normal((3, 2, 3)), rng.normal(3))
        probe = rng.normal((1, 7, 3))  # fixed projection makes the output scalar

        def loss():
            y, _ = layer.forward(x)
            return float((y * probe).sum())

        y, cache = layer.forward(x)
        gx, grads = layer.backward(cache, probe)
        # purely linear layer: tight tolerance
        assert_grads_close(gx, central_diff(loss, x), rtol=1e-6, label="conv grad_x")
        assert_grads_close(
            grads["kernels"], central_diff(loss, layer.kernels), rtol=1e-6, label="conv grad_k"
        )
        assert_grads_close(
            grads["bias"], central_diff(loss, layer.bias), rtol=1e-6, label="conv grad_b"
        )

    def test_batched_matches_loop(self):
        rng = Rng(6)
        xs = rng.normal((5, 12, 2))
        layer = Conv1D(rng.normal((4, 2, 3)), rng.normal(3))
        batched, _ = layer.forward(xs)
        for b in range(5):
            single, _ = layer.forward(xs[b : b + 1])
            assert np.array_equal(batched[b], single[0])

    def test_batched_matches_loop_single_channel(self):
        rng = Rng(7)
        xs = rng.normal((5, 40, 1))
        layer = Conv1D(rng.normal((7, 1, 4)), rng.normal(4))
        batched, _ = layer.forward(xs)
        for b in range(5):
            single, _ = layer.forward(xs[b : b + 1])
            assert np.array_equal(batched[b], single[0])

    # each layout builds the input as a view of a contiguous base array; the
    # finite differences perturb the base, the analytic grad_x is written back
    # through the same view
    LAYOUTS = {
        "single_channel": ((2, 11, 1), lambda base: base),
        "strided_time": ((2, 22, 2), lambda base: base[:, ::2, :]),
        "transposed": ((2, 2, 11), lambda base: base.transpose(0, 2, 1)),
        "new_axis_channel": ((2, 11), lambda base: base[:, :, None]),
    }

    @pytest.mark.parametrize("layout", sorted(LAYOUTS))
    def test_backward_matches_finite_differences_on_views(self, layout):
        shape, view = self.LAYOUTS[layout]
        rng = Rng(8)
        base = rng.normal(shape)
        cin = view(base).shape[2]
        layer = Conv1D(rng.normal((4, cin, 3)), rng.normal(3))
        probe = rng.normal((2, 8, 3))

        def loss():
            y, _ = layer.forward(view(base))
            return float((y * probe).sum())

        _, cache = layer.forward(view(base))
        gx, grads = layer.backward(cache, probe)
        gbase = np.zeros_like(base)
        view(gbase)[...] = gx
        assert_grads_close(gbase, central_diff(loss, base), rtol=1e-6, label=f"{layout} grad_x")
        assert_grads_close(
            grads["kernels"], central_diff(loss, layer.kernels), rtol=1e-6, label=f"{layout} grad_k"
        )
        assert_grads_close(
            grads["bias"], central_diff(loss, layer.bias), rtol=1e-6, label=f"{layout} grad_b"
        )

    def test_split_into_blocks_matches_one_block(self, monkeypatch):
        rng = Rng(9)
        x = rng.normal((6, 30, 3))
        layer = Conv1D(rng.normal((5, 3, 4)), rng.normal(4))
        probe = rng.normal((6, 26, 4))
        y_one, cache = layer.forward(x)
        _, grads_one = layer.backward(cache, probe)
        monkeypatch.setattr(layers, "_BLOCK_ROWS", 1)  # one window per block
        y_split, cache = layer.forward(x)
        _, grads_split = layer.backward(cache, probe)
        assert np.array_equal(y_split, y_one)
        assert np.allclose(grads_split["kernels"], grads_one["kernels"], rtol=1e-12, atol=1e-12)


class TestMaxPool:
    def test_basic(self):
        y, _ = MaxPool1D(2).forward(np.array([1.0, 3.0, 2.0, 5.0]).reshape(1, 4, 1))
        assert np.array_equal(y[0, :, 0], [3.0, 5.0])

    def test_remainder_dropped(self):
        y, _ = MaxPool1D(2).forward(np.array([1.0, 3.0, 2.0]).reshape(1, 3, 1))
        assert np.array_equal(y[0, :, 0], [3.0])

    def test_tie_goes_to_first_index(self):
        layer = MaxPool1D(2)
        _, cache = layer.forward(np.ones((1, 4, 1)))
        gx, _ = layer.backward(cache, np.ones((1, 2, 1)))
        assert np.array_equal(gx[0, :, 0], [1.0, 0.0, 1.0, 0.0])

    def test_backward_routing(self):
        layer = MaxPool1D(2)
        _, cache = layer.forward(np.array([1.0, 3.0, 2.0, 5.0]).reshape(1, 4, 1))
        gx, _ = layer.backward(cache, np.ones((1, 2, 1)))
        assert np.array_equal(gx[0, :, 0], [0.0, 1.0, 0.0, 1.0])

    def test_backward_zero(self):
        layer = MaxPool1D(3)
        _, cache = layer.forward(Rng(0).normal((1, 9, 2)))
        gx, _ = layer.backward(cache, np.zeros((1, 3, 2)))
        assert not gx.any()

    def test_backward_matches_finite_differences(self):
        rng = Rng(1)
        x = rng.normal((1, 8, 2))  # continuous draws: ties have measure zero
        layer = MaxPool1D(2)
        probe = rng.normal((1, 4, 2))

        def loss():
            y, _ = layer.forward(x)
            return float((y * probe).sum())

        _, cache = layer.forward(x)
        gx, _ = layer.backward(cache, probe)
        assert_grads_close(gx, central_diff(loss, x), rtol=1e-5, label="pool grad_x")

    def test_output_length(self):
        for T, p in [(10, 2), (11, 2), (9, 4), (12, 3)]:
            y, _ = MaxPool1D(p).forward(Rng(T).normal((1, T, 1)))
            assert y.shape[1] == T // p

    def test_ties_route_to_first_tied_tap(self):
        # windows of 4 tied at taps {1, 2, 3}, {2, 3}, {0, 3}, {0, 1, 2, 3}
        x = np.array([0, 5, 5, 5, 1, 0, 7, 7, 2, 1, 0, 2, 3, 3, 3, 3], dtype=float)
        layer = MaxPool1D(4)
        y, cache = layer.forward(x.reshape(1, 16, 1))
        assert np.array_equal(y[0, :, 0], [5.0, 7.0, 2.0, 3.0])
        gx, _ = layer.backward(cache, np.ones((1, 4, 1)))
        assert np.flatnonzero(gx[0, :, 0]).tolist() == [1, 6, 8, 12]

    @staticmethod
    def _argmax_pool(x, p, grad_out):
        """The argmax + take_along_axis formula MaxPool1D used before the
        strided max, kept as the oracle."""
        B, T, C = x.shape
        To = T // p
        windows = x[:, : To * p, :].reshape(B, To, p, C)
        argmax = windows.argmax(axis=2)
        y = np.take_along_axis(windows, argmax[:, :, None, :], axis=2)[:, :, 0, :]
        grad_windows = np.zeros((B, To, p, C))
        np.put_along_axis(grad_windows, argmax[:, :, None, :], grad_out[:, :, None, :], axis=2)
        gx = np.zeros((B, T, C))
        gx[:, : To * p, :] = grad_windows.reshape(B, To * p, C)
        return y, gx

    @pytest.mark.parametrize("p", [2, 3, 4])
    def test_bit_identical_to_argmax_oracle_on_relu_zeros(self, p):
        rng = Rng(p)
        x = relu(rng.normal((3, 4 * p + 1, 5)))  # about half zeros: many tied windows
        grad_out = rng.normal((3, 4, 5))  # negative entries would expose a -0.0
        layer = MaxPool1D(p)
        y, cache = layer.forward(x)
        gx, _ = layer.backward(cache, grad_out)
        want_y, want_gx = self._argmax_pool(x, p, grad_out)
        assert y.tobytes() == want_y.tobytes()
        assert gx.tobytes() == want_gx.tobytes()

    def test_pool_wider_than_a_byte(self):
        p = 300
        x = np.zeros((1, 2 * p + 7, 2))
        x[0, 299, 0] = 1.0  # last tap of the first window
        x[0, p + 256, 0] = 1.0  # tap 256 would wrap to 0 in a uint8 index
        layer = MaxPool1D(p)
        _, cache = layer.forward(x)
        gx, _ = layer.backward(cache, np.ones((1, 2, 2)))
        assert np.flatnonzero(gx[0, :, 0]).tolist() == [299, p + 256]
        assert np.flatnonzero(gx[0, :, 1]).tolist() == [0, p]  # all-zero windows tie
        assert gx.tobytes() == self._argmax_pool(x, p, np.ones((1, 2, 2)))[1].tobytes()


class TestReLU:
    def test_forward(self):
        assert np.array_equal(relu(np.array([-1.0, 0.0, 2.0])), [0.0, 0.0, 2.0])

    def test_backward_mask_and_zero_at_zero(self):
        x = np.array([-1.0, 0.0, 2.0])
        assert np.array_equal(relu_backward(x, np.array([5.0, 5.0, 5.0])), [0.0, 0.0, 5.0])

    def test_idempotent(self):
        x = Rng(2).normal(100)
        assert np.array_equal(relu(relu(x)), relu(x))

    def test_layer_wrapper(self):
        layer = ReLULayer()
        x = Rng(3).normal((1, 4, 2))
        y, cache = layer.forward(x)
        assert np.array_equal(y, relu(x))
        gx, _ = layer.backward(cache, np.ones_like(x))
        assert np.array_equal(gx, (x > 0).astype(float))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_layer_caches_a_one_byte_mask_and_backward_keeps_its_bytes(self, dtype):
        rng = Rng(4)
        x = relu(rng.normal((3, 7, 5))) - relu(rng.normal((3, 7, 5)))  # with exact zeros
        x = x.astype(dtype)
        x[0, 0, :2] = (-0.0, np.nan)
        g = rng.normal(x.shape).astype(dtype)
        g[0, 1, 0] = -1.0  # a masked negative gradient gives -0.0
        before = x.tobytes()
        y, cache = ReLULayer().forward(x)
        assert list(cache) == ["mask"]
        mask = cache["mask"]
        assert mask.dtype == np.bool_ and mask.shape == x.shape and mask.nbytes == x.size
        assert x.tobytes() == before and y.tobytes() == relu(x).tobytes()
        gx, grads = ReLULayer().backward(cache, g)
        assert grads == {} and gx.dtype == dtype
        assert gx.tobytes() == relu_backward(x, g).tobytes()


class TestDense:
    def test_identity_weights(self):
        layer = Dense(np.eye(4), np.zeros(4))
        x = Rng(0).normal((1, 4))
        y, _ = layer.forward(x)
        assert np.array_equal(y, x)

    def test_hand_case(self):
        layer = Dense(np.array([[1.0], [1.0]]), np.array([3.0]))
        y, _ = layer.forward(np.array([[1.0, 2.0]]))
        assert np.array_equal(y, [[6.0]])

    def test_dimension_mismatch(self):
        layer = Dense(np.zeros((3, 2)), np.zeros(2))
        with pytest.raises(ShapeError, match="input dim"):
            layer.forward(np.zeros((1, 4)))

    def test_backward_matches_finite_differences(self):
        rng = Rng(1)
        x = rng.normal((1, 5))
        layer = Dense(rng.normal((5, 3)), rng.normal(3))
        probe = rng.normal((1, 3))

        def loss():
            y, _ = layer.forward(x)
            return float((y * probe).sum())

        _, cache = layer.forward(x)
        gx, grads = layer.backward(cache, probe)
        assert_grads_close(gx, central_diff(loss, x), rtol=1e-6, label="dense grad_x")
        assert_grads_close(
            grads["weights"], central_diff(loss, layer.weights), rtol=1e-6, label="dense grad_w"
        )
        assert_grads_close(
            grads["bias"], central_diff(loss, layer.bias), rtol=1e-6, label="dense grad_b"
        )


class TestSoftmax:
    def test_uniform_on_zeros(self):
        assert np.allclose(softmax(np.zeros(9)), 1.0 / 9.0, rtol=0, atol=1e-15)

    def test_closed_form(self):
        assert np.allclose(softmax(np.array([math.log(2.0), 0.0])), [2 / 3, 1 / 3], atol=1e-15)

    def test_shift_invariance(self):
        z = Rng(5).normal(9)
        assert np.abs(softmax(z + 123.456) - softmax(z)).max() < 1e-12

    def test_valid_distribution(self):
        for seed in range(5):
            p = softmax(Rng(seed).normal(11) * 5)
            assert (p > 0).all() and (p < 1).all()
            assert abs(p.sum() - 1.0) < 1e-12

    def test_overflow_safe(self):
        p = softmax(np.array([1e6, 0.0, -1e6]))
        assert np.isfinite(p).all() and abs(p.sum() - 1.0) < 1e-12


class TestLSTM:
    def _tiny(self, rng, cin=2, units=3):
        return LSTM.init(cin, units, rng)

    def test_zero_parameters_emit_zero(self):
        layer = LSTM(np.zeros((2, 12)), np.zeros((3, 12)), np.zeros(12))
        y, _ = layer.forward(Rng(0).normal((1, 7, 2)))
        assert not y.any()
        assert y.shape == (1, 7, 3)

    def test_hand_scalar_recurrence(self):
        # units = 1, Cin = 1, fixed scalar weights, T = 2; evaluated step by
        # step with plain math below as the independent oracle
        W = np.array([[0.5, -0.3, 0.8, 0.2]])
        U = np.array([[0.1, 0.4, -0.2, 0.3]])
        b = np.array([0.05, 1.0, -0.1, 0.0])
        x = np.array([[[0.7], [-1.2]]])
        layer = LSTM(W, U, b)
        y, _ = layer.forward(x)

        def sig(v):
            return 1.0 / (1.0 + math.exp(-v))

        h = c = 0.0
        hs = []
        for xt in (0.7, -1.2):
            zi = xt * 0.5 + h * 0.1 + 0.05
            zf = xt * -0.3 + h * 0.4 + 1.0
            zg = xt * 0.8 + h * -0.2 + -0.1
            zo = xt * 0.2 + h * 0.3 + 0.0
            c = sig(zf) * c + sig(zi) * math.tanh(zg)
            h = sig(zo) * math.tanh(c)
            hs.append(h)
        assert np.allclose(y[0, :, 0], hs, rtol=0, atol=1e-14)

    def test_empty_sequence(self):
        layer = self._tiny(Rng(3))
        with pytest.raises(ShapeError, match="empty sequence"):
            layer.forward(np.zeros((1, 0, 2)))

    def test_backward_zero_grad(self):
        layer = self._tiny(Rng(4))
        _, cache = layer.forward(Rng(5).normal((1, 5, 2)))
        gx, grads = layer.backward(cache, np.zeros((1, 5, 3)))
        assert not gx.any()
        assert all(not g.any() for g in grads.values())

    @pytest.mark.parametrize("T,rtol", [(1, 1e-5), (5, 1e-4)])
    def test_backward_matches_finite_differences(self, T, rtol):
        rng = Rng(6 + T)
        x = rng.normal((1, T, 2))
        layer = self._tiny(rng)
        probe = rng.normal((1, T, 3))

        def loss():
            y, _ = layer.forward(x)
            return float((y * probe).sum())

        _, cache = layer.forward(x)
        gx, grads = layer.backward(cache, probe)
        assert_grads_close(gx, central_diff(loss, x), rtol=rtol, label=f"lstm T={T} grad_x")
        for name, arr in (("W", layer.W), ("U", layer.U), ("b", layer.b)):
            assert_grads_close(
                grads[name], central_diff(loss, arr), rtol=rtol, label=f"lstm T={T} grad_{name}"
            )

    def test_batched_matches_loop(self):
        layer = self._tiny(Rng(9))
        xs = Rng(10).normal((4, 6, 2))
        batched, _ = layer.forward(xs)
        for b in range(4):
            single, _ = layer.forward(xs[b : b + 1])
            assert np.abs(batched[b] - single[0]).max() < 1e-15

    def test_forget_bias_initialized_open(self):
        layer = LSTM.init(2, 3, Rng(0))
        assert np.array_equal(layer.b[3:6], np.ones(3))
        assert not layer.b[:3].any() and not layer.b[6:].any()

    def test_saturated_inputs_stay_finite(self):
        layer = self._tiny(Rng(11))
        y, _ = layer.forward(np.full((1, 5, 2), 1e6))
        assert np.isfinite(y).all()


def _lstm_per_step(layer, x):
    """The LSTM forward as a per-step loop with fresh arrays, kept as an oracle.

    Same operations in the same order as the layer: z = xW + hU, 1/(1+exp(-z))
    on i/f/o, tanh on g, c = f*c + i*g, h = o*tanh(c). The layer negates the
    i/f/o columns of W, U and b instead of z, which gives the same bits. It
    computes in the dtype of x, as the layer does.
    """
    B, T, _ = x.shape
    u = layer.units
    W, U, b = (p.astype(x.dtype, copy=False) for p in (layer.W, layer.U, layer.b))
    xW = x @ W + b
    h = np.zeros((B, u), dtype=x.dtype)
    c = np.zeros((B, u), dtype=x.dtype)
    hs = []
    for t in range(T):
        z = xW[:, t, :] + h @ U
        i = 1.0 / (1.0 + np.exp(-z[:, :u]))
        f = 1.0 / (1.0 + np.exp(-z[:, u : 2 * u]))
        g = np.tanh(z[:, 2 * u : 3 * u])
        o = 1.0 / (1.0 + np.exp(-z[:, 3 * u :]))
        c = f * c + i * g
        h = o * np.tanh(c)
        hs.append(h)
    return np.stack(hs, axis=1)


class TestLSTMSlabs:
    # The slab permutes and negates the gate columns of W, U and b, so the
    # model-sized shapes check that a column-permuted GEMM gives the same bits
    # per column: u=24 is the reduced spec's LSTM, Cin=32/u=64 the reference's.
    @pytest.mark.parametrize(
        "shape,units",
        [
            ((1, 9, 4), 5), ((3, 9, 4), 5), ((3, 1, 4), 5), ((1, 1, 4), 5),
            ((1, 61, 16), 24), ((96, 61, 16), 24), ((1, 246, 32), 64), ((64, 246, 32), 64),
        ],
        ids=[
            "B1_unbatched", "B3", "B3_T1", "T1_unbatched",
            "Cin16_u24_B1", "Cin16_u24_B96", "Cin32_u64_B1", "Cin32_u64_B64",
        ],
    )
    def test_forward_bytes_equal_per_step_formula(self, shape, units):
        rng = Rng(30)
        layer = LSTM.init(shape[2], units, rng)
        layer.b = rng.normal(4 * units)  # every gate bias nonzero
        x = rng.normal(shape) * 2.0
        y, _ = layer.forward(x)
        expected = _lstm_per_step(layer, x)
        assert y.shape == expected.shape
        assert y.tobytes() == expected.tobytes()

    def test_batched_backward_matches_finite_differences(self):
        rng = Rng(31)
        layer = LSTM.init(2, 3, rng)
        layer.b = rng.normal(12) * 0.5
        x = rng.normal((3, 4, 2))
        probe = rng.normal((3, 4, 3))

        def loss():
            y, _ = layer.forward(x)
            return float((y * probe).sum())

        _, cache = layer.forward(x)
        gx, grads = layer.backward(cache, probe)
        assert_grads_close(gx, central_diff(loss, x), rtol=1e-4, label="lstm B=3 grad_x")
        for name, arr in (("W", layer.W), ("U", layer.U), ("b", layer.b)):
            assert_grads_close(
                grads[name], central_diff(loss, arr), rtol=1e-4, label=f"lstm B=3 grad_{name}"
            )

    @pytest.mark.parametrize("steps_per_block", [1, 2])
    def test_backward_independent_of_step_blocking(self, monkeypatch, steps_per_block):
        rng = Rng(34)
        layer = LSTM.init(2, 3, rng)
        x = rng.normal((3, 7, 2))  # T = 7 leaves a short last block at 2 steps
        probe = rng.normal((3, 7, 3))
        _, cache = layer.forward(x)
        gx_one, grads_one = layer.backward(cache, probe)  # one block covers all steps
        monkeypatch.setattr(layers, "_LSTM_BLOCK", steps_per_block * 3 * 3)
        gx, grads = layer.backward(cache, probe)
        assert gx.tobytes() == gx_one.tobytes()
        for name in ("W", "U", "b"):
            assert grads[name].tobytes() == grads_one[name].tobytes()

    def test_forward_and_backward_leave_parameters_unchanged(self):
        rng = Rng(35)
        layer = LSTM.init(3, 4, rng)
        layer.b = rng.normal(16)
        before = {name: arr.tobytes() for name, arr in layer.params().items()}
        y, cache = layer.forward(rng.normal((2, 6, 3)))
        layer.backward(cache, y)
        assert {name: arr.tobytes() for name, arr in layer.params().items()} == before

    def test_cache_holds_no_tanh_slab(self):
        """Backward recomputes tanh(c_t) from C, so the kept cache is the
        input, the gate slab A and the state slabs C and H, and no array of
        it has the [T, B, u] shape of a per-step tanh(c_t) slab."""
        rng = Rng(36)
        B, T, u = 3, 7, 4
        layer = LSTM.init(2, u, rng)
        x = rng.normal((B, T, 2))
        _, cache = layer.forward(x)
        assert sorted(cache) == ["A", "C", "H", "x"]
        assert cache["A"].shape == (T, 4, B, u)
        assert cache["C"].shape == cache["H"].shape == (T + 1, B, u)
        assert all(arr.shape != (T, B, u) for arr in cache.values())

    def test_caches_are_not_shared_across_calls(self):
        rng = Rng(32)
        layer = LSTM.init(2, 3, rng)
        x1, x2 = rng.normal((3, 6, 2)), rng.normal((3, 6, 2))
        probe = rng.normal((3, 6, 3))
        _, cache1 = layer.forward(x1)
        gx_alone, grads_alone = layer.backward(cache1, probe)
        _, cache1 = layer.forward(x1)
        layer.forward(x2)
        gx, grads = layer.backward(cache1, probe)
        assert np.array_equal(gx, gx_alone)
        for name in ("W", "U", "b"):
            assert np.array_equal(grads[name], grads_alone[name])

    def test_saturated_input_is_silent_and_restores_error_state(self):
        layer = LSTM.init(2, 3, Rng(33))
        before = np.geterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            y, cache = layer.forward(np.full((2, 5, 2), 1e6))
            assert np.geterr() == before
            gx, grads = layer.backward(cache, np.ones((2, 5, 3)))
        assert np.isfinite(y).all() and np.isfinite(gx).all()
        assert all(np.isfinite(g).all() for g in grads.values())


class TestForwardWithoutCaches:
    """keep=False: no cache, the same output bytes."""

    @pytest.mark.parametrize(
        "layer,shape",
        [
            (Conv1D.init(5, 2, 3, Rng(40)), (3, 20, 2)),
            (MaxPool1D(3), (3, 20, 2)),
            (ReLULayer(), (3, 20, 2)),
            (Flatten(), (3, 20, 2)),
            (Dense.init(6, 4, Rng(41)), (3, 6)),
            (LSTM.init(2, 3, Rng(42)), (3, 20, 2)),
        ],
        ids=["Conv1D", "MaxPool1D", "ReLULayer", "Flatten", "Dense", "LSTM"],
    )
    def test_every_layer_returns_no_cache_and_the_same_output(self, layer, shape):
        x = Rng(43).normal(shape)
        y, cache = layer.forward(x)
        y_free, none = layer.forward(x, keep=False)
        assert cache is not None and none is None
        assert y_free.shape == y.shape and y_free.tobytes() == y.tobytes()

    # at B = 2 the steps run in blocks of _LSTM_BLOCK // (B * u), so one step
    # more leaves a one-step last block; B = 1 runs all steps as one block
    @pytest.mark.parametrize("B", [2, 1])
    def test_lstm_matches_with_a_one_step_last_block(self, B):
        rng = Rng(44)
        layer = LSTM.init(4, 64, rng)
        layer.b = rng.normal(4 * 64)
        T = layers._LSTM_BLOCK // (2 * 64) + 1
        x = rng.normal((B, T, 4)) * 2.0
        y, cache = layer.forward(x)
        y_free, none = layer.forward(x, keep=False)
        assert none is None
        assert y_free.tobytes() == y.tobytes()
        assert y.tobytes() == _lstm_per_step(layer, x).tobytes()

    def test_lstm_saturated_input_is_silent_and_restores_error_state(self):
        layer = LSTM.init(2, 3, Rng(33))
        before = np.geterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            y, cache = layer.forward(np.full((2, 5, 2), 1e6), keep=False)
            assert np.geterr() == before
        assert cache is None and np.isfinite(y).all()


@pytest.fixture
def two_halves(monkeypatch):
    """Every LSTM forward whose batch halves hold at least 2 windows runs them
    on two threads; the list counts the forwards that did."""
    splits = []
    run = layers._on_two_threads

    def counted(*args):
        splits.append(args[1:])
        run(*args)

    monkeypatch.setattr(layers, "_LSTM_SPLIT", 0)
    monkeypatch.setattr(layers, "_cpus", lambda: 2)
    monkeypatch.setattr(layers, "_on_two_threads", counted)
    return splits


class TestLSTMTwoThreads:
    """The batch halves of a large forward step on two threads over their
    rows of the caller's slabs: the same bytes, no thread left behind."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("T", [1, 9])
    @pytest.mark.parametrize("B", [4, 5, 7])
    def test_forward_bytes_equal_per_step_formula(self, two_halves, monkeypatch, B, T, dtype):
        rng = Rng(60 + B)
        layer = LSTM.init(4, 5, rng)
        layer.b = rng.normal(20)
        x = (rng.normal((B, T, 4)) * 2.0).astype(dtype)
        with monkeypatch.context() as m:
            m.setattr(layers, "_cpus", lambda: 1)
            y_one, _ = layer.forward(x)
        y, _ = layer.forward(x)
        y_free, _ = layer.forward(x, keep=False)
        assert two_halves == [(slice(0, B // 2), slice(B // 2, B))] * 2
        assert y.dtype == dtype
        assert y.tobytes() == y_free.tobytes() == y_one.tobytes()
        expected = _lstm_per_step(layer, x)
        if T > 1:
            assert y.tobytes() == expected.tobytes()
        else:
            # at T = 1 each window's input is projected on its own, a GEMV,
            # which need not round as the oracle's [B, Cin] GEMM does, split
            # or not
            np.testing.assert_allclose(y, expected, rtol=16 * np.finfo(dtype).eps, atol=0)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_kept_forward_and_backward_match_one_thread(self, monkeypatch, dtype):
        rng = Rng(67)
        layer = LSTM.init(3, 4, rng)
        layer.b = rng.normal(16)
        x = rng.normal((6, 11, 3)).astype(dtype)
        probe = rng.normal((6, 11, 4)).astype(dtype)
        monkeypatch.setattr(layers, "_LSTM_SPLIT", 10**9)
        y_one, cache_one = layer.forward(x)
        gx_one, grads_one = layer.backward(cache_one, probe)
        monkeypatch.setattr(layers, "_LSTM_SPLIT", 0)
        monkeypatch.setattr(layers, "_cpus", lambda: 2)
        y, cache = layer.forward(x)
        gx, grads = layer.backward(cache, probe)
        assert y.tobytes() == y_one.tobytes()
        for name in ("A", "C", "H"):
            assert cache[name].tobytes() == cache_one[name].tobytes()
        assert gx.tobytes() == gx_one.tobytes()
        for name in ("W", "U", "b"):
            assert grads[name].tobytes() == grads_one[name].tobytes()

    @pytest.mark.parametrize("keep", [True, False])
    def test_saturated_input_is_silent_and_restores_error_state(self, two_halves, keep):
        layer = LSTM.init(2, 3, Rng(33))
        before = np.geterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            y, _ = layer.forward(np.full((4, 5, 2), 1e6), keep=keep)
            assert np.geterr() == before
        assert len(two_halves) == 1 and np.isfinite(y).all()

    def test_worker_keeps_the_callers_error_state(self, two_halves):
        layer = LSTM.init(2, 3, Rng(34))
        with warnings.catch_warnings(), np.errstate(all="ignore"):
            warnings.simplefilter("error")
            y, _ = layer.forward(np.full((4, 5, 2), np.inf), keep=False)
        assert len(two_halves) == 1 and np.isnan(y).any()

    def test_no_thread_outlives_the_call(self, two_halves):
        before = threading.active_count()
        layer = LSTM.init(2, 3, Rng(68))
        layer.forward(Rng(69).normal((4, 6, 2)))
        assert len(two_halves) == 1
        assert threading.active_count() == before

    def test_worker_exception_reaches_the_caller(self, two_halves, monkeypatch):
        steps = layers._lstm_steps
        caller = threading.current_thread()

        def fail_off_the_caller(*args):
            if threading.current_thread() is not caller:
                raise FloatingPointError("worker half")
            steps(*args)

        monkeypatch.setattr(layers, "_lstm_steps", fail_off_the_caller)
        before = threading.active_count()
        layer = LSTM.init(2, 3, Rng(70))
        with pytest.raises(FloatingPointError, match="worker half"):
            layer.forward(Rng(71).normal((4, 6, 2)))
        assert threading.active_count() == before

    def test_one_cpu_never_splits(self, two_halves, monkeypatch):
        monkeypatch.setattr(layers, "_cpus", lambda: 1)
        layer = LSTM.init(2, 3, Rng(72))
        layer.forward(Rng(73).normal((8, 6, 2)))
        assert two_halves == []

    @pytest.mark.parametrize("B", [1, 2, 3])
    def test_halves_of_fewer_than_two_windows_never_split(self, two_halves, B):
        layer = LSTM.init(2, 3, Rng(74))
        y, _ = layer.forward(Rng(75).normal((B, 6, 2)))
        assert two_halves == []

    def test_cpu_count_follows_the_affinity_mask(self, monkeypatch):
        monkeypatch.setattr(layers.os, "sched_getaffinity", lambda pid: {3}, raising=False)
        assert layers._cpus() == 1
        monkeypatch.delattr(layers.os, "sched_getaffinity")
        monkeypatch.setattr(layers.os, "cpu_count", lambda: None)
        assert layers._cpus() == 1

    @pytest.mark.parametrize("threads", ["default", "one"])
    def test_reference_size_forward_golden_digest(self, monkeypatch, threads):
        """A reference-size (256, 246, 32) -> 64-unit float64 forward keeps
        the bytes it had before the halves ran on two threads."""
        if threads == "one":
            monkeypatch.setattr(layers, "_LSTM_SPLIT", 10**9)
        rng = Rng(37)
        layer = LSTM.init(32, 64, rng)
        layer.b = rng.normal(4 * 64)
        x = rng.normal((256, 246, 32)) * 2.0
        y, _ = layer.forward(x, keep=False)
        assert (
            hashlib.sha256(y.tobytes()).hexdigest()
            == "46e5ba23b4a79f3d2a48d804b4e33ec9e68dca66888239ecd9fcd5374cd77691"
        )


class TestFlattenConcat:
    def test_row_major(self):
        assert np.array_equal(
            Flatten().forward(np.array([[[1.0, 2.0], [3.0, 4.0]]]))[0], [[1.0, 2.0, 3.0, 4.0]]
        )

    def test_roundtrip(self):
        x = Rng(0).normal((1, 5, 3))
        assert np.array_equal(Flatten().forward(x)[0].reshape(1, 5, 3), x)

    def test_layer_backward_restores_shape(self):
        layer = Flatten()
        x = Rng(1).normal((1, 4, 3))
        y, cache = layer.forward(x)
        gx, _ = layer.backward(cache, y)
        assert np.array_equal(gx, x)

    def test_concat(self):
        assert np.array_equal(concat(np.array([1.0]), np.array([2.0, 3.0])), [1.0, 2.0, 3.0])

    def test_helpers_keep_float32_and_make_anything_else_float64(self):
        x32 = np.array([[-1.0, 2.0]], dtype=np.float32)
        for out in (relu(x32), relu_backward(x32, x32), softmax(x32), concat(x32, x32)):
            assert out.dtype == np.float32
        for out in (relu([-1, 2]), relu_backward([-1, 2], [1, 1]), softmax([[1, 2]]),
                    concat([1], np.array([2], dtype=np.int32))):
            assert out.dtype == np.float64

    def test_concat_order_fixed(self):
        a, b = np.array([1.0, 2.0]), np.array([3.0])
        assert np.array_equal(concat(a, b), [1.0, 2.0, 3.0])
        assert np.array_equal(concat(b, a), [3.0, 1.0, 2.0])
