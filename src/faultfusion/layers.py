"""Forward and backward passes for every layer in the three networks.

Layers take and return batches only: [B, T, channels] for sequence layers,
[B, d] for dense ones. ``Model.forward`` is the one place a single window
becomes a batch of one. Every ``forward(x, keep=True)`` returns (y, cache);
with keep=False no backward follows, the cache is None and nothing is kept
for it, and y is the same bytes. The backward pass of each layer returns the
gradient w.r.t. its input plus parameter gradients summed over the batch;
finite-difference tests pin every formula here.

Each layer computes in the dtype of its input. The parameters stay float64;
a float32 input makes the layer read them cast to float32 (for float64 the
cast is a no-op), and every output, cache and gradient is allocated in the
dtype of the input or of the incoming gradient, so a float32 pass stays
float32. Bias gradients are ones-vector GEMVs, which are faster than a sum
over the batch and time axes and, in float32, more accurate.

Conventions: cross-correlation (no kernel flip), valid padding, stride 1,
pool stride == pool size with first-index tie-break, ReLU derivative 0 at 0,
LSTM gate blocks of the stored W, U, b (and so of FMDL1 and the gradients)
ordered (i, f, g, o).

Layout: Conv1D reads a C-contiguous [B, T, Cin] batch as windows: row (b, t)
of the im2col matrix is x[b, t:t+K, :], a contiguous run of K*Cin values, and
kernels [K, Cin, Cout] reshape for free to the matching [K*Cin, Cout] matrix.
Forward and the kernel gradient are one GEMM per block of windows. MaxPool1D
takes the elementwise max over its p strided taps x[:, j::p, :] and, when
it keeps a cache, stores per output the index of the first tap equal to the
max in the smallest unsigned dtype that holds p - 1; backward routes the
gradient to that tap.

LSTM works on time-major slabs allocated once per call, so that every gate of
every step is one contiguous [B, u] block: A [T, 4, B, u] holds the gates (the
input projection xW + b is written straight into it, then each step adds
h_{t-1} U and activates in place), and C and H [T + 1, B, u] hold the cell and
hidden states with C[0] = H[0] = 0. One [B, u] row holds tanh(c_t) for every
step, since only h_t reads it. The slab
orders the gates (i, f, o, g) and holds -z for the three sigmoid gates: the
forward multiplies W, U and b per call by a gate permutation and sign, which
is exact, so one contiguous [3, B, u] block takes the sigmoid as exp, add 1,
divide. A step is one GEMM and 10 in-place ufunc calls on those blocks;
nothing is allocated per step.

The steps run in blocks of about _LSTM_BLOCK elements per gate, and each
block first projects its own input: for B > 1 and T > 1 one [B, Cin] x
[Cin, u] GEMM per (step, gate), which writes each gate block contiguously and
gives the same bits as a [T, Cin] x [Cin, u] GEMM per (window, gate), only
faster. At B = 1 that would be a GEMV (slower, and not the same bits) and at
T = 1 a single step, so there all T steps are one block projected per
window. With keep=True every block is a view of the whole A and C slabs,
which the backward reads. With keep=False one block-sized A is reused, one
[B, u] row holds c for every step (a step stride of 0), and only H, the
output, spans the sequence. Backward recomputes tanh(c_t) a block at a time
from C (the same function on the same values, so the same bits), writes
dL/dz into a [T, B, 4u] slab in the stored (i, f, g, o) order, and forms the
W, U, b and input gradients as 2-D GEMMs over its T*B rows.

A large batch runs its recurrence on two cores: when each half of the batch
holds at least 2 windows, each half's [B // 2, u] gate block has at least
_LSTM_SPLIT elements and the process may use more than one CPU, a worker
thread steps rows [0, B // 2) while the caller steps rows [B // 2, B). Both
run the same step loop on views of their rows of the slabs above, which the
caller allocates for the whole batch as it would for one thread: the worker
allocates no array buffer, so no allocation changes size and the worker's
malloc arena stays small. Every GEMM keeps its K and every half at least 2
rows, so each row gets the bits of a one-thread pass; a 1-row half would
take GEMV paths, which round differently. The thread is started and joined
inside the call (nothing outlives it, a forked child inherits no pool),
runs under the caller's numpy error state (which is per thread) with
overflow ignored, as the caller's half does, and an exception it raises is
raised again in the caller. Batches of B=64 at 64 units or of B=256 at 24
units stay below the threshold and run on one thread.

A kept cache holds only what its backward reads: the LSTM's slabs above, a
Conv1D's or Dense's input, a MaxPool1D's tap indices and a ReLU's mask
x > 0, one byte per element.
"""

from __future__ import annotations

import os
import threading

import numpy as np

from .errors import ShapeError
from .tensor import DTYPE, Rng, as_float, glorot_uniform


# im2col rows per GEMM block: small enough that a block stays in cache, so the
# copy that builds it is not a trip to main memory. On a 2-vCPU Xeon with
# single-threaded OpenBLAS, the reference second acoustic conv at B=256 took
# 28 ms in 8192-row blocks and 71 ms as one whole-batch window matrix.
_BLOCK_ROWS = 8192

# LSTM: elements per gate in one block of steps (steps x B x u). A block's
# input projection (forward) or step-independent gradient factors (backward)
# are formed together and read back while still in cache: at B=64, T=246,
# u=64 the backward factors took 27 ms as whole-sequence passes and 12 ms in
# blocks of this size.
_LSTM_BLOCK = 16384

# LSTM: smallest per-step gate block (half-batch rows x units) at which the
# forward runs the two halves of the batch on two threads. On a 2-vCPU Xeon
# with single-threaded OpenBLAS a forward with half blocks of 8192 elements
# (B=256, u=64) took 0.6x the one-thread time and one of 4096 (B=128) 0.76x;
# 3072 (B=256, u=24) ran level and 2304 (B=72, u=64) or less ran slower.
_LSTM_SPLIT = 4096

# LSTM slab gate order (i, f, o, g): slab gate k is stored gate _SLAB_GATES[k]
# of the stored order (i, f, g, o), and the three sigmoid gates are negated.
_SLAB_GATES = [0, 1, 3, 2]
_SLAB_SIGNS = np.array([-1.0, -1.0, -1.0, 1.0], dtype=DTYPE)[:, None]


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


def _column_sums(g: np.ndarray) -> np.ndarray:
    """Sum over every axis but the last, as a ones-vector GEMV."""
    rows = g.reshape(-1, g.shape[-1])
    return np.ones(rows.shape[0], dtype=rows.dtype) @ rows


def relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(as_float(x), 0.0)


def relu_backward(x: np.ndarray, grad_out: np.ndarray) -> np.ndarray:
    """Mask gradient where the forward input was <= 0; x is that input or its
    bool mask x > 0, which is used as is (mask > 0 would compare in int64)."""
    x = np.asarray(x)
    return as_float(grad_out) * (x if x.dtype == np.bool_ else x > 0)


def softmax(z: np.ndarray) -> np.ndarray:
    """Row-wise stable softmax for [C] or [B, C] inputs."""
    z = as_float(z)
    shifted = z - z.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def concat(*parts: np.ndarray) -> np.ndarray:
    """Concatenate feature vectors along the last axis; one part is returned as is."""
    if len(parts) == 1:
        return parts[0]
    return np.concatenate([as_float(p) for p in parts], axis=-1)


class Conv1D:
    """Valid cross-correlation over time, stride 1.

    y[b, t, o] = bias[o] + sum_{k, c} x[b, t + k, c] * kernels[k, c, o]
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

    def forward(self, x: np.ndarray, keep: bool = True):
        K, Cin, Cout = self.kernels.shape
        B, T, C = x.shape
        if C != Cin:
            raise ShapeError(f"conv1d: input has {C} channels, kernels expect {Cin}")
        if T < K:
            raise ShapeError(f"conv1d: window shorter than kernel ({T} < {K})")
        x = np.ascontiguousarray(x)
        flat_kernels = self.kernels.astype(x.dtype, copy=False).reshape(K * Cin, Cout)
        y = np.empty((B, T - K + 1, Cout), dtype=x.dtype)
        for rows, cols in _window_blocks(x, K):
            np.matmul(cols, flat_kernels, out=y[rows].reshape(-1, Cout))
        y += self.bias.astype(x.dtype, copy=False)
        return y, ({"x": x} if keep else None)

    def backward(self, cache, grad_out: np.ndarray, input_grad: bool = True):
        """(grad_x, parameter grads); grad_x is None when input_grad is False."""
        x = cache["x"]
        K, Cin, Cout = self.kernels.shape
        B, T, _ = x.shape
        To = T - K + 1
        if grad_out.shape != (B, To, Cout):
            raise ShapeError(f"conv1d: grad shape {grad_out.shape} != {(B, To, Cout)}")
        grad_x = None
        if input_grad:
            kernels = self.kernels.astype(grad_out.dtype, copy=False)
            grad_x = np.zeros_like(x)
            for k in range(K):
                grad_x[:, k : k + To, :] += grad_out @ kernels[k].T
        grad_k = np.zeros((K * Cin, Cout), dtype=grad_out.dtype)  # rows in [K, Cin] order
        for rows, cols in _window_blocks(x, K):
            grad_k += cols.T @ grad_out[rows].reshape(-1, Cout)
        grad_b = _column_sums(grad_out)
        grads = {"kernels": grad_k.reshape(K, Cin, Cout), "bias": grad_b}
        return grad_x, grads


class MaxPool1D:
    """Non-overlapping window maxima per channel; trailing remainder dropped."""

    def __init__(self, pool_size: int):
        if pool_size < 2:
            raise ShapeError(f"maxpool: pool_size must be >= 2, got {pool_size}")
        self.pool_size = pool_size

    def params(self) -> dict[str, np.ndarray]:
        return {}

    def forward(self, x: np.ndarray, keep: bool = True):
        B, T, C = x.shape
        p = self.pool_size
        if T < p:
            raise ShapeError(f"maxpool: window shorter than pool ({T} < {p})")
        L = (T // p) * p
        taps = [x[:, j:L:p, :] for j in range(p)]
        y = taps[0].copy()
        for tap in taps[1:]:
            np.maximum(y, tap, out=y)
        if not keep:
            return y, None
        # idx counts the taps before the first one equal to the max, which is
        # the first-index tie-break; its dtype only has to hold p - 1
        miss = taps[0] != y
        idx = miss.astype(np.min_scalar_type(p - 1))
        for tap in taps[1:-1]:
            miss &= tap != y
            idx += miss
        return y, {"idx": idx, "in_shape": x.shape}

    def backward(self, cache, grad_out: np.ndarray):
        B, T, C = cache["in_shape"]
        p = self.pool_size
        To = T // p
        if grad_out.shape != (B, To, C):
            raise ShapeError(f"maxpool: grad shape {grad_out.shape} != {(B, To, C)}")
        idx = cache["idx"]
        grad_x = np.zeros((B, T, C), dtype=grad_out.dtype)
        for j in range(p):
            np.multiply(grad_out, idx == j, out=grad_x[:, j : To * p : p, :])
        # g * False is -0.0 for negative g; adding +0.0 makes every zero of
        # grad_x +0.0, routed or not (a scatter into zeros would keep a
        # routed -0.0 gradient as -0.0)
        grad_x += 0.0
        return grad_x, {}


class ReLULayer:
    """Elementwise max(0, x) as a stack element."""

    def params(self) -> dict[str, np.ndarray]:
        return {}

    def forward(self, x: np.ndarray, keep: bool = True):
        return relu(x), ({"mask": np.asarray(x) > 0} if keep else None)

    def backward(self, cache, grad_out: np.ndarray):
        return relu_backward(cache["mask"], grad_out), {}


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

    def forward(self, x: np.ndarray, keep: bool = True):
        if x.shape[1] != self.weights.shape[0]:
            raise ShapeError(
                f"dense: input dim {x.shape[1]} != weight rows {self.weights.shape[0]}"
            )
        y = x @ self.weights.astype(x.dtype, copy=False) + self.bias.astype(x.dtype, copy=False)
        return y, ({"x": x} if keep else None)

    def backward(self, cache, grad_out: np.ndarray):
        x = cache["x"]
        if grad_out.shape != (x.shape[0], self.weights.shape[1]):
            raise ShapeError(f"dense: grad shape {grad_out.shape} does not match forward")
        grad_w = x.T @ grad_out
        grad_b = _column_sums(grad_out)
        grad_x = grad_out @ self.weights.astype(grad_out.dtype, copy=False).T
        return grad_x, {"weights": grad_w, "bias": grad_b}


class Flatten:
    """Row-major [B, T, C] -> [B, T*C]."""

    def params(self) -> dict[str, np.ndarray]:
        return {}

    def forward(self, x: np.ndarray, keep: bool = True):
        return x.reshape(x.shape[0], -1), ({"in_shape": x.shape} if keep else None)

    def backward(self, cache, grad_out: np.ndarray):
        return grad_out.reshape(cache["in_shape"]), {}


def _cpus() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no sched_getaffinity on this platform
        return os.cpu_count() or 1


def _on_two_threads(work, first, second) -> None:
    """work(first) on a new thread while this one runs work(second); the
    thread runs under this thread's numpy error state (a new thread starts
    from numpy's defaults), is joined before returning, and an exception it
    raised is raised again here once work(second) is done."""
    errors = []
    state = np.geterr()

    def run():
        try:
            with np.errstate(**state):
                work(first)
        except BaseException as exc:  # raised again in the caller
            errors.append(exc)

    worker = threading.Thread(target=run, name="lstm-half")
    worker.start()
    try:
        work(second)
    finally:
        worker.join()
    if errors:
        raise errors[0]


def _lstm_steps(x, W, bias, U, A, C, H, hU, ig, tc, n: int, per_window: bool) -> None:
    """The LSTM recurrence of the b windows x [b, T, Cin] over slabs the
    caller allocated: A [T or n, 4, b, u], C and H [T + 1, b, u] with C[0] =
    H[0] = 0, hU [b, 4u], ig and tc [b, u]. Steps run in blocks of n, each
    first projecting its own input; no array buffer is allocated here."""
    T = x.shape[1]
    keep = len(A) == T  # a kept A spans the sequence, else it holds one block
    hU4 = hU.reshape(len(hU), 4, -1).transpose(1, 0, 2)
    # exp(-z) overflow saturates the sigmoid to 0.0, the correct limit
    with np.errstate(over="ignore"):
        for t0 in range(0, T, n):
            t1 = min(t0 + n, T)
            blk = A[t0:t1] if keep else A[: t1 - t0]
            if per_window:
                np.matmul(x[:, None, t0:t1], W, out=blk.transpose(2, 1, 0, 3))
            else:
                np.matmul(x.transpose(1, 0, 2)[t0:t1, None], W, out=blk)
            blk += bias
            now, nxt = slice(t0, t1), slice(t0 + 1, t1 + 1)
            steps = zip(blk, blk[:, :3], blk[:, 3], H[now], H[nxt], C[now], C[nxt])
            for a, s, g, h_prev, h, c_prev, c in steps:
                np.matmul(h_prev, U, out=hU)
                np.add(a, hU4, out=a)
                np.exp(s, out=s)  # sigmoid on i, f and o: s holds -z
                np.add(1.0, s, out=s)
                np.divide(1.0, s, out=s)
                np.tanh(g, out=g)
                np.multiply(s[1], c_prev, out=c)
                np.multiply(s[0], g, out=ig)
                np.add(c, ig, out=c)
                np.tanh(c, out=tc)
                np.multiply(s[2], tc, out=h)


class LSTM:
    """Single LSTM layer unrolled over time, h0 = c0 = 0: [B, T, Cin] in,
    the hidden state of every step [B, T, units] out.

    Per step t, with gate blocks (i, f, g, o) in that column order (the
    forward's slab reorders them, see the module docstring):
        z   = x_t W + h_{t-1} U + b
        i, f, o = sigmoid(z_i), sigmoid(z_f), sigmoid(z_o);  g = tanh(z_g)
        c_t = f * c_{t-1} + i * g
        h_t = o * tanh(c_t)
    """

    def __init__(self, W: np.ndarray, U: np.ndarray, b: np.ndarray):
        self.W = np.asarray(W, dtype=DTYPE)  # [Cin, 4*units]
        self.U = np.asarray(U, dtype=DTYPE)  # [units, 4*units]
        self.b = np.asarray(b, dtype=DTYPE)  # [4*units]
        self.units = self.U.shape[0]
        if self.W.shape[1] != 4 * self.units or self.b.shape != (4 * self.units,):
            raise ShapeError(
                f"lstm: W {self.W.shape}, U {self.U.shape}, b {self.b.shape} do not compose"
            )

    @classmethod
    def init(cls, in_channels: int, units: int, rng: Rng) -> "LSTM":
        W = glorot_uniform(in_channels, 4 * units, rng)
        U = glorot_uniform(units, 4 * units, rng)
        b = np.zeros(4 * units)
        b[units : 2 * units] = 1.0  # forget-gate bias starts open
        return cls(W, U, b)

    def params(self) -> dict[str, np.ndarray]:
        return {"W": self.W, "U": self.U, "b": self.b}

    def forward(self, x: np.ndarray, keep: bool = True):
        B, T, Cin = x.shape
        if T == 0:
            raise ShapeError("lstm: empty sequence")
        if Cin != self.W.shape[0]:
            raise ShapeError(f"lstm: input has {Cin} channels, W expects {self.W.shape[0]}")
        u = self.units

        # slab copies of W, U and b: gates reordered to (i, f, o, g), sigmoid
        # columns negated (exact in IEEE arithmetic, so the slab gets exactly
        # -z for i, f and o). Built per call, in the input's dtype, because
        # Adam updates the stored arrays in place.
        dt = x.dtype
        signs = _SLAB_SIGNS.astype(dt, copy=False)

        def slab(m):
            return m.astype(dt, copy=False).reshape(-1, 4, u)[:, _SLAB_GATES] * signs

        W = slab(self.W).transpose(1, 0, 2)  # [4, Cin, u]
        bias = slab(self.b).reshape(4, 1, u)
        U = slab(self.U).reshape(u, 4 * u)
        # Steps run in blocks of n, each projecting its own input straight
        # into its gate slots (see the module docstring): per (step, gate),
        # or at B = 1 and T = 1 per (window, gate), in one block.
        per_window = B == 1 or T == 1
        n = T if per_window else min(T, max(1, _LSTM_BLOCK // (B * u)))
        # A[t, k] is slab gate k of step t: -z (i, f, o) or z (g) before the
        # loop reaches step t, the activated gate after.
        H = np.empty((T + 1, B, u), dtype=dt)  # H[t + 1] = h_t, H[0] = h_{-1} = 0
        if keep:
            A = np.empty((T, 4, B, u), dtype=dt)
            C = np.empty((T + 1, B, u), dtype=dt)  # C[t + 1] = c_t, C[0] = c_{-1} = 0
        else:
            # no backward follows: one block of gates is reused, and one row
            # holds c for every step (a step stride of 0)
            A = np.empty((n, 4, B, u), dtype=dt)
            c_row = np.empty((B, u), dtype=dt)
            C = np.lib.stride_tricks.as_strided(c_row, (T + 1, B, u), (0, *c_row.strides))
        C[0] = 0.0
        H[0] = 0.0
        hU = np.empty((B, 4 * u), dtype=dt)
        ig = np.empty((B, u), dtype=dt)
        tc = np.empty((B, u), dtype=dt)  # tanh(c_t); backward recomputes it

        def steps(rows):
            _lstm_steps(
                x[rows], W, bias, U, A[:, :, rows], C[:, rows], H[:, rows],
                hU[rows], ig[rows], tc[rows], n, per_window,
            )

        # a large batch runs its halves on two threads, each over its rows of
        # the slabs above (see the module docstring)
        half = B // 2
        if half >= 2 and half * u >= _LSTM_SPLIT and _cpus() > 1:
            _on_two_threads(steps, slice(0, half), slice(half, B))
        else:
            steps(slice(0, B))
        y = H[1:].transpose(1, 0, 2)
        return y, ({"x": x, "A": A, "C": C, "H": H} if keep else None)

    def backward(self, cache, grad_out: np.ndarray):
        x, A, C, H = cache["x"], cache["A"], cache["C"], cache["H"]
        B, T, Cin = x.shape
        u = self.units
        if grad_out.shape != (B, T, u):
            raise ShapeError(f"lstm: grad shape {grad_out.shape} != {(B, T, u)}")
        G = grad_out.transpose(1, 0, 2)
        dt = grad_out.dtype
        # dZ[t] is dL/dz_t as [B, 4u] rows, the layout of the GEMMs below;
        # dZ4 views it gate-major. Per step:
        #   dh_t = G_t + dz_{t+1} U^T      dc_t = dc_{t+1} f_{t+1} + dh_t Q_t
        #   dz_i = dc_t P_i   dz_f = dc_t P_f   dz_g = dc_t P_g   dz_o = dh_t P_o
        # where P and Q do not depend on the recursion:
        #   P_i = (1 - i) i g    P_f = (1 - f) f c_{t-1}    P_g = (1 - g^2) i
        #   P_o = (1 - o) o tanh(c_t)                       Q = (1 - tanh(c_t)^2) o
        # They are formed for a block of steps at a time, gate-major, so the
        # block is still in cache when the steps read it; so is TC, tanh(c_t)
        # of the block, recomputed from C.
        dZ = np.empty((T, B, 4 * u), dtype=dt)
        dZ4 = dZ.reshape(T, B, 4, u).transpose(0, 2, 1, 3)
        n = min(T, max(1, _LSTM_BLOCK // (B * u)))
        P = np.empty((n, 4, B, u), dtype=dt)
        Q = np.empty((n, B, u), dtype=dt)
        TC = np.empty((n, B, u), dtype=dt)
        UT = self.U.astype(dt, copy=False).T
        dh = np.zeros((B, u), dtype=dt)
        dc = np.zeros((B, u), dtype=dt)
        for stop in range(T, 0, -n):
            start = max(0, stop - n)
            a, p, q = A[start:stop], P[: stop - start], Q[: stop - start]
            tc = np.tanh(C[start + 1 : stop + 1], out=TC[: stop - start])
            i, f, o, g = a[:, 0], a[:, 1], a[:, 2], a[:, 3]
            for k, s, other in ((0, i, g), (1, f, C[start:stop]), (3, o, tc)):
                np.subtract(1.0, s, out=p[:, k])
                p[:, k] *= s
                p[:, k] *= other
            np.multiply(g, g, out=p[:, 2])
            np.subtract(1.0, p[:, 2], out=p[:, 2])
            p[:, 2] *= i
            np.multiply(tc, tc, out=q)
            np.subtract(1.0, q, out=q)
            q *= o
            steps = zip(G[start:stop], p, q, dZ[start:stop], dZ4[start:stop], f)
            for g_t, p_t, q_t, dz, dz4, f_t in reversed(list(steps)):
                np.add(g_t, dh, out=dh)
                q_t *= dh
                dc += q_t
                np.multiply(p_t[:3], dc, out=dz4[:3])
                np.multiply(p_t[3], dh, out=dz4[3])
                np.matmul(dz, UT, out=dh)
                dc *= f_t
        dZ2 = dZ.reshape(T * B, 4 * u)
        grad_W = x.transpose(1, 0, 2).reshape(T * B, Cin).T @ dZ2
        grad_U = H[:T].reshape(T * B, u).T @ dZ2
        grad_b = _column_sums(dZ2)
        grad_x = (dZ2 @ self.W.astype(dt, copy=False).T).reshape(T, B, Cin).transpose(1, 0, 2)
        return grad_x, {"W": grad_W, "U": grad_U, "b": grad_b}
