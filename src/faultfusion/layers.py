"""Forward and backward passes for every layer in the three networks.

Layers accept a single window ([T, channels] for sequence layers, [d] for
dense) or a batch with one extra leading axis. The backward pass of each
layer returns the gradient w.r.t. its input plus parameter gradients summed
over the batch; finite-difference tests pin every formula here.

Conventions: cross-correlation (no kernel flip), valid padding, stride 1,
pool stride == pool size with first-index tie-break, ReLU derivative 0 at 0,
LSTM gate blocks ordered (i, f, g, o).

Layout: Conv1D reads a C-contiguous [B, T, Cin] batch as windows: row (b, t)
of the im2col matrix is x[b, t:t+K, :], a contiguous run of K*Cin values, and
kernels [K, Cin, Cout] reshape for free to the matching [K*Cin, Cout] matrix.
Forward and the kernel gradient are one GEMM per block of windows. MaxPool1D
takes the elementwise max over its p strided taps x[:, j::p, :] and caches,
per output, the index of the first tap equal to the max in the smallest
unsigned dtype that holds p - 1; backward routes the gradient to that tap.
"""

from __future__ import annotations

import numpy as np

from .errors import ShapeError
from .tensor import DTYPE, Rng, glorot_uniform


def _ensure_batch(x: np.ndarray, rank: int, name: str) -> tuple[np.ndarray, bool]:
    """Promote an unbatched input of the given rank to a batch of one."""
    x = np.asarray(x, dtype=DTYPE)
    if x.ndim == rank:
        return x[None, ...], False
    if x.ndim == rank + 1:
        return x, True
    raise ShapeError(f"{name}: expected rank {rank} or {rank + 1} input, got shape {x.shape}")


def _debatch(y: np.ndarray, batched: bool) -> np.ndarray:
    return y if batched else y[0]


# im2col rows per GEMM block: small enough that a block stays in cache, so the
# copy that builds it is not a trip to main memory. On a 2-vCPU Xeon with
# single-threaded OpenBLAS, the reference second acoustic conv at B=256 took
# 28 ms in 8192-row blocks and 71 ms as one whole-batch window matrix.
_BLOCK_ROWS = 8192


def _window_blocks(xb: np.ndarray, K: int):
    """im2col of a C-contiguous [B, T, Cin] batch, To = T - K + 1.

    Yields (batch slice, [n*To, K*Cin] matrix) over blocks of n windows. Row
    (b, t) is x[b, t:t+K, :] flattened, one contiguous run of K*Cin values,
    so a strided view reads it in place; the reshape copies one block.
    """
    B, T, Cin = xb.shape
    To = T - K + 1
    # the last stride is the item size, not xb.strides[2]: a length-1 axis
    # (Cin = 1) may carry any stride, e.g. 0 after x[:, :, None]
    view = np.lib.stride_tricks.as_strided(
        xb, shape=(B, To, K * Cin), strides=(*xb.strides[:2], xb.itemsize), writeable=False
    )
    step = max(1, _BLOCK_ROWS // To)
    for start in range(0, B, step):
        rows = slice(start, start + step)
        yield rows, view[rows].reshape(-1, K * Cin)


def _sigmoid(x: np.ndarray) -> np.ndarray:
    # exp overflow saturates to 0.0 / 1.0, which is the correct limit
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-x))


def relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(np.asarray(x, dtype=DTYPE), 0.0)


def relu_backward(x: np.ndarray, grad_out: np.ndarray) -> np.ndarray:
    """Mask gradient where the forward input was <= 0."""
    return np.asarray(grad_out, dtype=DTYPE) * (np.asarray(x) > 0)


def softmax(z: np.ndarray) -> np.ndarray:
    """Row-wise stable softmax for [C] or [B, C] inputs."""
    z = np.asarray(z, dtype=DTYPE)
    shifted = z - z.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def flatten_forward(x: np.ndarray) -> np.ndarray:
    """Row-major flatten of [T, C] -> [T*C] (batched: [B, T, C] -> [B, T*C])."""
    x = np.asarray(x, dtype=DTYPE)
    if x.ndim == 2:
        return x.reshape(-1)
    return x.reshape(x.shape[0], -1)


def concat(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Concatenate feature vectors along the last axis."""
    return np.concatenate([np.asarray(a, dtype=DTYPE), np.asarray(b, dtype=DTYPE)], axis=-1)


class Conv1D:
    """Valid cross-correlation over time, stride 1.

    y[t, o] = bias[o] + sum_{k, c} x[t + k, c] * kernels[k, c, o]
    """

    def __init__(self, kernels: np.ndarray, bias: np.ndarray):
        self.kernels = np.asarray(kernels, dtype=DTYPE)  # [K, Cin, Cout]
        self.bias = np.asarray(bias, dtype=DTYPE)  # [Cout]
        if self.kernels.ndim != 3 or self.bias.shape != (self.kernels.shape[2],):
            raise ShapeError(
                f"conv1d: kernels {self.kernels.shape} / bias {self.bias.shape} do not compose"
            )

    @classmethod
    def init(cls, kernel_size: int, in_channels: int, out_channels: int, rng: Rng) -> "Conv1D":
        k = glorot_uniform(kernel_size * in_channels, out_channels, rng)
        return cls(k.reshape(kernel_size, in_channels, out_channels), np.zeros(out_channels))

    def params(self) -> dict[str, np.ndarray]:
        return {"kernels": self.kernels, "bias": self.bias}

    def forward(self, x: np.ndarray):
        xb, batched = _ensure_batch(x, 2, "conv1d")
        K, Cin, Cout = self.kernels.shape
        B, T, C = xb.shape
        if C != Cin:
            raise ShapeError(f"conv1d: input has {C} channels, kernels expect {Cin}")
        if T < K:
            raise ShapeError(f"conv1d: window shorter than kernel ({T} < {K})")
        xb = np.ascontiguousarray(xb)
        flat_kernels = self.kernels.reshape(K * Cin, Cout)
        y = np.empty((B, T - K + 1, Cout), dtype=DTYPE)
        for rows, cols in _window_blocks(xb, K):
            np.matmul(cols, flat_kernels, out=y[rows].reshape(-1, Cout))
        y += self.bias
        cache = {"x": xb, "batched": batched}
        return _debatch(y, batched), cache

    def backward(self, cache, grad_out: np.ndarray):
        xb = cache["x"]
        batched = cache["batched"]
        gb, _ = _ensure_batch(grad_out, 2, "conv1d grad")
        K, Cin, Cout = self.kernels.shape
        B, T, _ = xb.shape
        To = T - K + 1
        if gb.shape != (B, To, Cout):
            raise ShapeError(f"conv1d: grad shape {gb.shape} != {(B, To, Cout)}")
        grad_x = np.zeros_like(xb)
        for k in range(K):
            grad_x[:, k : k + To, :] += gb @ self.kernels[k].T
        grad_k = np.zeros((K * Cin, Cout), dtype=DTYPE)  # rows in [K, Cin] order
        for rows, cols in _window_blocks(xb, K):
            grad_k += cols.T @ gb[rows].reshape(-1, Cout)
        grad_b = gb.sum(axis=(0, 1))
        grads = {"kernels": grad_k.reshape(K, Cin, Cout), "bias": grad_b}
        return _debatch(grad_x, batched), grads


class MaxPool1D:
    """Non-overlapping window maxima per channel; trailing remainder dropped."""

    def __init__(self, pool_size: int):
        if pool_size < 2:
            raise ShapeError(f"maxpool: pool_size must be >= 2, got {pool_size}")
        self.pool_size = pool_size

    def params(self) -> dict[str, np.ndarray]:
        return {}

    def forward(self, x: np.ndarray):
        xb, batched = _ensure_batch(x, 2, "maxpool")
        B, T, C = xb.shape
        p = self.pool_size
        if T < p:
            raise ShapeError(f"maxpool: window shorter than pool ({T} < {p})")
        L = (T // p) * p
        taps = [xb[:, j:L:p, :] for j in range(p)]
        y = taps[0].copy()
        for tap in taps[1:]:
            np.maximum(y, tap, out=y)
        # idx counts the taps before the first one equal to the max, which is
        # the first-index tie-break; its dtype only has to hold p - 1
        miss = taps[0] != y
        idx = miss.astype(np.min_scalar_type(p - 1))
        for tap in taps[1:-1]:
            miss &= tap != y
            idx += miss
        cache = {"idx": idx, "in_shape": xb.shape, "batched": batched}
        return _debatch(y, batched), cache

    def backward(self, cache, grad_out: np.ndarray):
        gb, _ = _ensure_batch(grad_out, 2, "maxpool grad")
        B, T, C = cache["in_shape"]
        p = self.pool_size
        To = T // p
        if gb.shape != (B, To, C):
            raise ShapeError(f"maxpool: grad shape {gb.shape} != {(B, To, C)}")
        idx = cache["idx"]
        grad_x = np.zeros((B, T, C), dtype=DTYPE)
        for j in range(p):
            np.multiply(gb, idx == j, out=grad_x[:, j : To * p : p, :])
        # g * False is -0.0 for negative g; adding +0.0 makes every unrouted
        # entry +0.0, so the result is bit-identical to a scatter into zeros
        grad_x += 0.0
        return _debatch(grad_x, cache["batched"]), {}


class ReLULayer:
    """Elementwise max(0, x) as a stack element."""

    def params(self) -> dict[str, np.ndarray]:
        return {}

    def forward(self, x: np.ndarray):
        x = np.asarray(x, dtype=DTYPE)
        return relu(x), {"x": x}

    def backward(self, cache, grad_out: np.ndarray):
        return relu_backward(cache["x"], grad_out), {}


class Dense:
    """Affine map y = x W + b."""

    def __init__(self, weights: np.ndarray, bias: np.ndarray):
        self.weights = np.asarray(weights, dtype=DTYPE)  # [in, out]
        self.bias = np.asarray(bias, dtype=DTYPE)  # [out]
        if self.weights.ndim != 2 or self.bias.shape != (self.weights.shape[1],):
            raise ShapeError(
                f"dense: weights {self.weights.shape} / bias {self.bias.shape} do not compose"
            )

    @classmethod
    def init(cls, in_dim: int, out_dim: int, rng: Rng) -> "Dense":
        return cls(glorot_uniform(in_dim, out_dim, rng), np.zeros(out_dim))

    def params(self) -> dict[str, np.ndarray]:
        return {"weights": self.weights, "bias": self.bias}

    def forward(self, x: np.ndarray):
        xb, batched = _ensure_batch(x, 1, "dense")
        if xb.shape[1] != self.weights.shape[0]:
            raise ShapeError(
                f"dense: input dim {xb.shape[1]} != weight rows {self.weights.shape[0]}"
            )
        y = xb @ self.weights + self.bias
        return _debatch(y, batched), {"x": xb, "batched": batched}

    def backward(self, cache, grad_out: np.ndarray):
        xb = cache["x"]
        gb, _ = _ensure_batch(grad_out, 1, "dense grad")
        if gb.shape != (xb.shape[0], self.weights.shape[1]):
            raise ShapeError(f"dense: grad shape {gb.shape} does not match forward")
        grad_w = xb.T @ gb
        grad_b = gb.sum(axis=0)
        grad_x = gb @ self.weights.T
        return _debatch(grad_x, cache["batched"]), {"weights": grad_w, "bias": grad_b}


class Flatten:
    """Row-major [T, C] -> [T*C]."""

    def params(self) -> dict[str, np.ndarray]:
        return {}

    def forward(self, x: np.ndarray):
        xb, batched = _ensure_batch(x, 2, "flatten")
        y = xb.reshape(xb.shape[0], -1)
        return _debatch(y, batched), {"in_shape": xb.shape, "batched": batched}

    def backward(self, cache, grad_out: np.ndarray):
        gb, _ = _ensure_batch(grad_out, 1, "flatten grad")
        grad_x = gb.reshape(cache["in_shape"])
        return _debatch(grad_x, cache["batched"]), {}


class LSTM:
    """Single LSTM layer unrolled over time, h0 = c0 = 0.

    Per step t, with gate blocks (i, f, g, o) in that column order:
        z   = x_t W + h_{t-1} U + b
        i, f, o = sigmoid(z_i), sigmoid(z_f), sigmoid(z_o);  g = tanh(z_g)
        c_t = f * c_{t-1} + i * g
        h_t = o * tanh(c_t)
    """

    def __init__(self, W: np.ndarray, U: np.ndarray, b: np.ndarray, return_sequences: bool = True):
        self.W = np.asarray(W, dtype=DTYPE)  # [Cin, 4*units]
        self.U = np.asarray(U, dtype=DTYPE)  # [units, 4*units]
        self.b = np.asarray(b, dtype=DTYPE)  # [4*units]
        self.units = self.U.shape[0]
        self.return_sequences = return_sequences
        if self.W.shape[1] != 4 * self.units or self.b.shape != (4 * self.units,):
            raise ShapeError(
                f"lstm: W {self.W.shape}, U {self.U.shape}, b {self.b.shape} do not compose"
            )

    @classmethod
    def init(cls, in_channels: int, units: int, rng: Rng, return_sequences: bool = True) -> "LSTM":
        W = glorot_uniform(in_channels, 4 * units, rng)
        U = glorot_uniform(units, 4 * units, rng)
        b = np.zeros(4 * units)
        b[units : 2 * units] = 1.0  # forget-gate bias starts open
        return cls(W, U, b, return_sequences)

    def params(self) -> dict[str, np.ndarray]:
        return {"W": self.W, "U": self.U, "b": self.b}

    def forward(self, x: np.ndarray, return_sequences: bool | None = None):
        xb, batched = _ensure_batch(x, 2, "lstm")
        B, T, Cin = xb.shape
        if T == 0:
            raise ShapeError("lstm: empty sequence")
        if Cin != self.W.shape[0]:
            raise ShapeError(f"lstm: input has {Cin} channels, W expects {self.W.shape[0]}")
        seq = self.return_sequences if return_sequences is None else return_sequences
        u = self.units
        xW = xb @ self.W + self.b  # [B, T, 4u]
        h = np.zeros((B, u), dtype=DTYPE)
        c = np.zeros((B, u), dtype=DTYPE)
        gates, cells, tanh_cells, h_prev = [], [], [], []
        h_all = np.empty((B, T, u), dtype=DTYPE)
        for t in range(T):
            z = xW[:, t, :] + h @ self.U
            i = _sigmoid(z[:, :u])
            f = _sigmoid(z[:, u : 2 * u])
            g = np.tanh(z[:, 2 * u : 3 * u])
            o = _sigmoid(z[:, 3 * u :])
            h_prev.append(h)
            c = f * c + i * g
            tc = np.tanh(c)
            h = o * tc
            gates.append((i, f, g, o))
            cells.append(c)
            tanh_cells.append(tc)
            h_all[:, t, :] = h
        cache = {
            "x": xb,
            "gates": gates,
            "cells": cells,
            "tanh_cells": tanh_cells,
            "h_prev": h_prev,
            "seq": seq,
            "batched": batched,
        }
        y = h_all if seq else h_all[:, -1, :]
        return _debatch(y, batched), cache

    def backward(self, cache, grad_out: np.ndarray):
        xb = cache["x"]
        B, T, Cin = xb.shape
        u = self.units
        if cache["seq"]:
            gseq, _ = _ensure_batch(grad_out, 2, "lstm grad")
            if gseq.shape != (B, T, u):
                raise ShapeError(f"lstm: grad shape {gseq.shape} != {(B, T, u)}")
        else:
            glast, _ = _ensure_batch(grad_out, 1, "lstm grad")
            gseq = np.zeros((B, T, u), dtype=DTYPE)
            gseq[:, -1, :] = glast
        gates, cells, tanh_cells, h_prev = (
            cache["gates"],
            cache["cells"],
            cache["tanh_cells"],
            cache["h_prev"],
        )
        dZ = np.empty((B, T, 4 * u), dtype=DTYPE)
        dh = np.zeros((B, u), dtype=DTYPE)
        dc = np.zeros((B, u), dtype=DTYPE)
        for t in range(T - 1, -1, -1):
            i, f, g, o = gates[t]
            tc = tanh_cells[t]
            dht = gseq[:, t, :] + dh
            dc = dc + dht * o * (1.0 - tc * tc)
            c_prev = cells[t - 1] if t > 0 else 0.0
            dz = dZ[:, t, :]
            dz[:, :u] = dc * g * i * (1.0 - i)
            dz[:, u : 2 * u] = dc * c_prev * f * (1.0 - f) if t > 0 else 0.0
            dz[:, 2 * u : 3 * u] = dc * i * (1.0 - g * g)
            dz[:, 3 * u :] = dht * tc * o * (1.0 - o)
            dh = dz @ self.U.T
            dc = dc * f
        H_prev = np.stack(h_prev, axis=1)  # [B, T, u], entry t is h_{t-1}
        grad_W = np.tensordot(xb, dZ, axes=([0, 1], [0, 1]))
        grad_U = np.tensordot(H_prev, dZ, axes=([0, 1], [0, 1]))
        grad_b = dZ.sum(axis=(0, 1))
        grad_x = dZ @ self.W.T
        return _debatch(grad_x, cache["batched"]), {"W": grad_W, "U": grad_U, "b": grad_b}
