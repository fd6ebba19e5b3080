"""Shared test helpers: central finite differences and gradient comparison.

BLAS runs on one thread: pytest loads this file before anything imports
numpy, and at these sizes a second OpenBLAS thread costs a core for no gain.
Subprocesses the tests start inherit the setting.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

from faultfusion.model import (  # noqa: E402
    VIBRATION_CNN,
    ModelSpec,
    build_model,
    conv_pool_chain,
    save_model,
)
from faultfusion.tensor import Rng  # noqa: E402


def small_spec(kind: str, num_classes: int = 3, input_len: int = 64) -> ModelSpec:
    """Miniature spec used by gradient checks and smoke tests."""
    return ModelSpec(
        kind=kind,
        num_classes=num_classes,
        input_len=input_len,
        conv_channels=(3, 4),
        conv_kernels=(5, 3),
        pool_sizes=(2, 2),
        ac_conv_channels=(3,),
        ac_conv_kernels=(5,),
        ac_pool_sizes=(4,),
        lstm_units=5,
        lstm_layers=2,
        dense_units=8,
    )


def central_diff(f, x, h=1e-6):
    """Numeric d f / d x via central differences, perturbing x in place.

    f is a zero-argument callable that recomputes the scalar output from the
    current contents of x.
    """
    grad = np.zeros_like(x, dtype=np.float64)
    flat = x.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        saved = flat[i]
        flat[i] = saved + h
        f_plus = f()
        flat[i] = saved - h
        f_minus = f()
        flat[i] = saved
        gflat[i] = (f_plus - f_minus) / (2.0 * h)
    return grad


def sampled_central_diff(f, x, indices, h=1e-6):
    """central_diff restricted to the given flat indices of x."""
    flat = x.reshape(-1)
    out = np.zeros(len(indices), dtype=np.float64)
    for j, i in enumerate(indices):
        saved = flat[i]
        flat[i] = saved + h
        f_plus = f()
        flat[i] = saved - h
        f_minus = f()
        flat[i] = saved
        out[j] = (f_plus - f_minus) / (2.0 * h)
    return out


def assert_grads_close(analytic, numeric, rtol, atol=1e-8, label=""):
    analytic = np.asarray(analytic, dtype=np.float64)
    numeric = np.asarray(numeric, dtype=np.float64)
    assert analytic.shape == numeric.shape, f"{label}: {analytic.shape} vs {numeric.shape}"
    err = np.abs(analytic - numeric) - (atol + rtol * np.abs(numeric))
    worst = float(err.max()) if err.size else 0.0
    assert worst <= 0.0, f"{label}: gradient mismatch, worst excess {worst:.3e}"


def huge_head_header(path, input_len=4 * 10**6):
    """Rewrite a small vibration model's header to this input_len, manifest
    included. At the default the spec, inside the model size budget, implies
    a head of 256 MB over a tiny payload."""
    save_model(build_model(small_spec(VIBRATION_CNN), Rng(13)), path)
    blob = path.read_bytes()
    header_end = blob.index(b"\nend\n")
    header = blob[:header_end].decode("ascii")
    old_in, new_in = (
        conv_pool_chain(n, (5, 3), (2, 2), "vibration")[-1] * 4 for n in (64, input_len)
    )
    assert new_in * 8 * 8 >= 200 * 2**20
    for old, new in (
        ("input_len=64", f"input_len={input_len}"),
        (f"tensor head.0.weights {old_in},8", f"tensor head.0.weights {new_in},8"),
    ):
        assert header.count(old) == 1
        header = header.replace(old, new)
    path.write_bytes(header.encode("ascii") + blob[header_end:])
