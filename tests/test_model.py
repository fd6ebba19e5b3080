import os
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from conftest import assert_grads_close, huge_head_header, sampled_central_diff, small_spec

from faultfusion.errors import ConfigError, DataError, ShapeError
from faultfusion.layers import softmax
from faultfusion.model import (
    _MAX_HEADER_BYTES,
    ACOUSTIC_CNN_LSTM,
    BRANCHES,
    FUSION,
    MAX_PARAMS,
    MODEL_KINDS,
    VIBRATION_CNN,
    ModelSpec,
    build_model,
    conv_pool_chain,
    load_model,
    reduced_spec,
    save_model,
)
from faultfusion.tensor import Rng
from faultfusion.training import batch_cross_entropy


class TestSpecAndChains:
    def test_default_vibration_chain(self):
        chain = conv_pool_chain(1000, (7, 5, 3), (2, 2, 2), "vibration")
        assert chain == [1000, 994, 497, 493, 246, 244, 122]

    def test_acoustic_lstm_sees_246_steps(self):
        chain = conv_pool_chain(1000, (7, 5), (2, 2), "acoustic")
        assert chain[-1] == 246

    def test_chain_error_names_layer(self):
        with pytest.raises(ShapeError, match="vibration conv1"):
            conv_pool_chain(6, (7, 5), (2, 2), "vibration")

    def test_bad_kind(self):
        with pytest.raises(ConfigError, match="unknown model kind"):
            ModelSpec(kind="mlp")

    def test_bad_num_classes(self):
        with pytest.raises(ConfigError, match="num_classes"):
            ModelSpec(kind=VIBRATION_CNN, num_classes=1)

    def test_mismatched_conv_lists(self):
        with pytest.raises(ConfigError, match="align"):
            ModelSpec(kind=VIBRATION_CNN, conv_channels=(4, 8), conv_kernels=(3,))


class TestBuilders:
    def test_vibration_output_shape_and_flatten_width(self):
        model = build_model(ModelSpec(kind=VIBRATION_CNN), Rng(0))
        probs, _ = model.forward(x_vib=np.zeros((1000, 1)))
        assert probs.shape == (9,)
        assert abs(probs.sum() - 1.0) < 1e-9
        assert model.head_layers[0].weights.shape == (7808, 32)  # 122 * 64

    def test_vibration_build_error_short_input(self):
        with pytest.raises(ShapeError, match="conv1"):
            build_model(ModelSpec(kind=VIBRATION_CNN, input_len=6), Rng(0))

    def test_acoustic_lstm_input_channels(self):
        model = build_model(ModelSpec(kind=ACOUSTIC_CNN_LSTM), Rng(0))
        first_lstm = model.ac_layers[6]
        assert first_lstm.W.shape == (32, 256)  # conv out-channels feed the LSTM
        assert model.head_layers[0].weights.shape == (246 * 64, 32)

    def test_acoustic_probability_output(self):
        model = build_model(ModelSpec(kind=ACOUSTIC_CNN_LSTM), Rng(1))
        probs, _ = model.forward(x_ac=Rng(2).normal((1000, 1)))
        assert probs.shape == (9,)
        assert abs(probs.sum() - 1.0) < 1e-9

    def test_fusion_concat_width(self):
        model = build_model(ModelSpec(kind=FUSION), Rng(0))
        assert model.head_layers[0].weights.shape == (7808 + 15744, 32)

    def test_fusion_zeroed_acoustic_branch_ignores_acoustic_input(self):
        model = build_model(small_spec(FUSION), Rng(3))
        for name, arr in model.parameters().items():
            if name.startswith("ac."):
                arr[:] = 0.0
        x_vib = Rng(4).normal((64, 1))
        p1, _ = model.forward(x_vib=x_vib, x_ac=Rng(5).normal((64, 1)))
        p2, _ = model.forward(x_vib=x_vib, x_ac=Rng(6).normal((64, 1)) * 10)
        assert np.array_equal(p1, p2)

    def test_fusion_forward_sums_to_one(self):
        model = build_model(small_spec(FUSION), Rng(7))
        probs, _ = model.forward(x_vib=Rng(8).normal((64, 1)), x_ac=Rng(9).normal((64, 1)))
        assert abs(probs.sum() - 1.0) < 1e-9


class TestForward:
    def test_missing_modality_errors(self):
        fusion = build_model(small_spec(FUSION), Rng(0))
        with pytest.raises(DataError, match="fusion requires both"):
            fusion.forward(x_vib=np.zeros((64, 1)))
        vib = build_model(small_spec(VIBRATION_CNN), Rng(0))
        with pytest.raises(DataError, match="vibration"):
            vib.forward(x_ac=np.zeros((64, 1)))

    def test_untrained_deterministic(self):
        x = Rng(1).normal((64, 1))
        p1, _ = build_model(small_spec(VIBRATION_CNN), Rng(42)).forward(x_vib=x)
        p2, _ = build_model(small_spec(VIBRATION_CNN), Rng(42)).forward(x_vib=x)
        assert np.array_equal(p1, p2)

    def test_argmax_in_range(self):
        model = build_model(small_spec(ACOUSTIC_CNN_LSTM), Rng(2))
        probs, _ = model.forward(x_ac=Rng(3).normal((64, 1)))
        assert 0 <= int(probs.argmax()) < 3

    def test_fusion_head_sees_vibration_features_first(self):
        model = build_model(small_spec(FUSION), Rng(21))
        xv = Rng(22).normal((3, 64, 1))
        xa = Rng(23).normal((3, 64, 1))

        def run(layers, x):
            for layer in layers:
                x, _ = layer.forward(x)
            return x

        feats = np.concatenate([run(model.vib_layers, xv), run(model.ac_layers, xa)], axis=-1)
        probs, _ = model.forward(x_vib=xv, x_ac=xa)
        assert np.array_equal(probs, softmax(run(model.head_layers, feats)))
        # FMDL1 files store the tensors in this order
        assert list(model.parameters()) == [
            "vib.0.kernels", "vib.0.bias", "vib.3.kernels", "vib.3.bias",
            "ac.0.kernels", "ac.0.bias", "ac.3.W", "ac.3.U", "ac.3.b", "ac.4.W", "ac.4.U", "ac.4.b",
            "head.0.weights", "head.0.bias", "head.2.weights", "head.2.bias",
        ]

    def test_batched_matches_single(self):
        model = build_model(small_spec(FUSION), Rng(4))
        xv = Rng(5).normal((3, 64, 1))
        xa = Rng(6).normal((3, 64, 1))
        batched, _ = model.forward(x_vib=xv, x_ac=xa)
        for b in range(3):
            single, _ = model.forward(x_vib=xv[b], x_ac=xa[b])
            assert np.abs(batched[b] - single).max() < 1e-12

    @pytest.mark.parametrize("kind", MODEL_KINDS)
    def test_single_window_is_its_batch_of_one(self, kind):
        model = build_model(small_spec(kind), Rng(10))
        rng = Rng(11)
        batch = {f"x_{branch}": rng.normal((1, 64, 1)) for branch in BRANCHES[kind]}
        probs_b1, caches_b1 = model.forward(**batch)
        probs, caches = model.forward(**{key: x[0] for key, x in batch.items()})
        assert probs.shape == (3,) and probs.tobytes() == probs_b1[0].tobytes()
        grad_logits = probs.copy()
        grad_logits[1] -= 1.0
        grads = model.backward(caches, grad_logits)
        grads_b1 = model.backward(caches_b1, grad_logits[None])
        assert list(grads) == list(grads_b1)
        for name, grad in grads.items():
            assert grad.tobytes() == grads_b1[name].tobytes(), name

    @pytest.mark.parametrize(
        "vib_shape,ac_shape",
        [((64, 1), (2, 64, 1)), ((3, 64, 1), (2, 64, 1)), ((2, 60, 1), (2, 60, 1)),
         ((64, 2), (64, 2))],
        ids=["window_and_batch", "unequal_batches", "wrong_window_length", "two_channels"],
    )
    def test_bad_input_shape_is_one_shape_error(self, vib_shape, ac_shape):
        model = build_model(small_spec(FUSION), Rng(12))
        with pytest.raises(ShapeError, match=r"fusion takes a \[64, 1\] window"):
            model.forward(x_vib=np.zeros(vib_shape), x_ac=np.zeros(ac_shape))


SPECS = {"small": small_spec, "reduced": lambda kind: reduced_spec(kind, 9), "reference": ModelSpec}


@pytest.mark.parametrize("batch", [None, 3, 256], ids=["window", "B3", "B256"])
@pytest.mark.parametrize("size", SPECS)
@pytest.mark.parametrize("kind", MODEL_KINDS)
def test_forward_without_caches_gives_the_same_bytes(kind, size, batch):
    spec = SPECS[size](kind)
    model = build_model(spec, Rng(50))
    rng = Rng(51)
    shape = (spec.input_len, 1) if batch is None else (batch, spec.input_len, 1)
    inputs = {f"x_{branch}": rng.normal(shape) for branch in BRANCHES[kind]}
    kept = model.forward(**inputs)
    assert type(kept) is tuple and len(kept) == 2 and kept[1] is not None
    probs = kept[0]
    del kept  # a reference B = 256 cache is about 740 MiB
    free = model.forward(**inputs, keep=False)
    assert type(free) is tuple and len(free) == 2 and free[1] is None
    assert free[0].shape == probs.shape and free[0].tobytes() == probs.tobytes()


def _float_arrays(tree):
    """Every float array in a nest of dicts and lists (caches, gradients)."""
    if isinstance(tree, np.ndarray):
        return [tree] if tree.dtype.kind == "f" else []
    items = tree.values() if isinstance(tree, dict) else tree if isinstance(tree, list) else []
    return [arr for item in items for arr in _float_arrays(item)]


@pytest.mark.parametrize("size", SPECS)
@pytest.mark.parametrize("kind", MODEL_KINDS)
def test_float32_pass_stays_float32(kind, size):
    """A float32 batch runs float32 throughout: no cache, gradient or
    probability is upcast, and the float64 weights are left as they are.
    Its posteriors and gradients stay close to the float64 pass's (measured:
    3.0e-6 relative on the worst gradient)."""
    spec = SPECS[size](kind)
    model = build_model(spec, Rng(52))
    rng = Rng(53)
    inputs = {f"x_{branch}": rng.normal((4, spec.input_len, 1)) for branch in BRANCHES[kind]}
    targets = np.arange(4) % 3
    probs64, caches64 = model.forward(**inputs)
    grads64 = model.backward(caches64, batch_cross_entropy(probs64, targets)[1])
    del caches64
    probs, caches = model.forward(**{k: x.astype(np.float32) for k, x in inputs.items()})
    grads = model.backward(caches, batch_cross_entropy(probs, targets)[1])
    floats = _float_arrays(caches) + list(grads.values())
    assert len(floats) > len(grads)
    assert probs.dtype == np.float32 and {arr.dtype for arr in floats} == {np.dtype(np.float32)}
    assert np.abs(probs - probs64).max() < 1e-5
    for name, grad in grads.items():
        assert np.linalg.norm(grad - grads64[name]) <= 1e-4 * np.linalg.norm(grads64[name]), name
    assert {arr.dtype for arr in model.parameters().values()} == {np.dtype(np.float64)}


def _whole_net_loss(model, inputs, target):
    probs, _ = model.forward(**inputs)
    picked = max(float(probs[target]), 1e-12)
    return -np.log(picked)


@pytest.mark.parametrize("kind", [VIBRATION_CNN, ACOUSTIC_CNN_LSTM, FUSION])
def test_whole_network_gradients_match_finite_differences(kind):
    spec = small_spec(kind)
    model = build_model(spec, Rng(100))
    rng = Rng(200)
    inputs = {}
    if kind in (VIBRATION_CNN, FUSION):
        inputs["x_vib"] = rng.normal((64, 1))
    if kind in (ACOUSTIC_CNN_LSTM, FUSION):
        inputs["x_ac"] = rng.normal((64, 1))
    target = 1

    probs, caches = model.forward(**inputs)
    grad_logits = probs.copy()
    grad_logits[target] -= 1.0
    grads = model.backward(caches, grad_logits)

    check_rng = Rng(300)
    for name, param in model.parameters().items():
        k = min(4, param.size)
        idx = np.unique((check_rng.uniform(k) * param.size).astype(int))
        numeric = sampled_central_diff(lambda: _whole_net_loss(model, inputs, target), param, idx)
        analytic = grads[name].reshape(-1)[idx]
        assert_grads_close(analytic, numeric, rtol=1e-4, atol=1e-7, label=f"{kind}:{name}")


def test_zero_loss_gradient_gives_zero_param_grads():
    model = build_model(small_spec(VIBRATION_CNN), Rng(1))
    probs, caches = model.forward(x_vib=Rng(2).normal((64, 1)))
    grads = model.backward(caches, np.zeros_like(probs))
    assert all(not g.any() for g in grads.values())


def test_backward_batch_grad_is_sum_of_samples():
    model = build_model(small_spec(VIBRATION_CNN), Rng(3))
    xs = Rng(4).normal((3, 64, 1))
    targets = np.array([0, 1, 2])
    probs, caches = model.forward(x_vib=xs)
    _, grad_logits = batch_cross_entropy(probs, targets)
    batched = model.backward(caches, grad_logits)
    summed = None
    for b in range(3):
        p, c = model.forward(x_vib=xs[b])
        g = p.copy()
        g[targets[b]] -= 1.0
        single = model.backward(c, g / 3.0)
        if summed is None:
            summed = single
        else:
            summed = {k: summed[k] + single[k] for k in single}
    for k in batched:
        assert np.abs(batched[k] - summed[k]).max() < 1e-12, k


class TestSerialization:
    def test_roundtrip_bit_identical_forward(self, tmp_path):
        model = build_model(small_spec(FUSION), Rng(5))
        path = tmp_path / "model.fmdl"
        save_model(model, path)
        loaded = load_model(path)
        xv, xa = Rng(6).normal((64, 1)), Rng(7).normal((64, 1))
        p1, _ = model.forward(x_vib=xv, x_ac=xa)
        p2, _ = loaded.forward(x_vib=xv, x_ac=xa)
        assert np.array_equal(p1, p2)

    def test_forward_and_backward_leave_saved_bytes_unchanged(self, tmp_path):
        model = build_model(small_spec(FUSION), Rng(17))
        save_model(model, tmp_path / "before.fmdl")
        xv, xa = Rng(18).normal((3, 64, 1)), Rng(19).normal((3, 64, 1))
        probs, caches = model.forward(x_vib=xv, x_ac=xa)
        model.backward(caches, probs)
        save_model(model, tmp_path / "after.fmdl")
        assert (tmp_path / "after.fmdl").read_bytes() == (tmp_path / "before.fmdl").read_bytes()

    def test_roundtrip_parameters_identical(self, tmp_path):
        model = build_model(ModelSpec(kind=VIBRATION_CNN, input_len=64, num_classes=4,
                                      conv_channels=(2,), conv_kernels=(3,), pool_sizes=(2,)),
                            Rng(8))
        path = tmp_path / "m.fmdl"
        save_model(model, path)
        loaded = load_model(path)
        for (n1, a1), (n2, a2) in zip(model.parameters().items(), loaded.parameters().items()):
            assert n1 == n2
            assert np.array_equal(a1, a2)
        assert loaded.spec == model.spec

    def test_bad_magic(self, tmp_path):
        model = build_model(small_spec(VIBRATION_CNN), Rng(9))
        path = tmp_path / "m.fmdl"
        save_model(model, path)
        blob = bytearray(path.read_bytes())
        blob[:5] = b"XXXXX"
        path.write_bytes(bytes(blob))
        with pytest.raises(DataError, match="bad magic"):
            load_model(path)

    def test_truncated_blob(self, tmp_path):
        model = build_model(small_spec(VIBRATION_CNN), Rng(10))
        path = tmp_path / "m.fmdl"
        save_model(model, path)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) - 64])
        with pytest.raises(DataError, match="truncated"):
            load_model(path)

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "m.fmdl"
        path.write_bytes(b"FMDL1\nkind=vibration_cnn\n")
        with pytest.raises(DataError, match="truncated|header"):
            load_model(path)

    def test_trailing_garbage(self, tmp_path):
        model = build_model(small_spec(VIBRATION_CNN), Rng(11))
        path = tmp_path / "m.fmdl"
        save_model(model, path)
        path.write_bytes(path.read_bytes() + b"\x00" * 8)
        with pytest.raises(DataError, match="trailing"):
            load_model(path)

    def test_header_shape_mismatch(self, tmp_path):
        from faultfusion.errors import FaultFusionError

        model = build_model(small_spec(VIBRATION_CNN), Rng(12))
        path = tmp_path / "m.fmdl"
        save_model(model, path)
        blob = path.read_bytes()
        header_end = blob.index(b"\nend\n")
        header = blob[:header_end].decode("ascii")
        first_tensor = next(l for l in header.splitlines() if l.startswith("tensor "))
        name, shape = first_tensor.split(" ")[1], first_tensor.split(" ")[2]
        bad = header.replace(first_tensor, f"tensor {name} 1,{shape}")
        path.write_bytes(bad.encode("ascii") + blob[header_end:])
        with pytest.raises(FaultFusionError):
            load_model(path)


class TestLoadValidatesBeforeAllocating:
    def test_huge_head_over_tiny_payload(self, tmp_path):
        path = tmp_path / "m.fmdl"
        huge_head_header(path)
        tracemalloc.start()
        try:
            with pytest.raises(DataError, match="truncated"):
                load_model(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20, peak

    def test_large_sparse_tail_is_rejected_unread(self, tmp_path):
        path = tmp_path / "m.fmdl"
        save_model(build_model(small_spec(VIBRATION_CNN), Rng(16)), path)
        os.truncate(path, path.stat().st_size + 2**28)
        tracemalloc.start()
        try:
            with pytest.raises(DataError, match="trailing bytes") as info:
                load_model(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert "\n" not in str(info.value)
        assert peak < 4 * 2**20, peak

    def test_header_end_past_the_read_cap(self, tmp_path):
        path = tmp_path / "m.fmdl"
        path.write_bytes(b"FMDL1\n" + b"#" * _MAX_HEADER_BYTES + b"\nend\n")
        with pytest.raises(DataError, match="header never ends"):
            load_model(path)

    def test_manifest_shape_checked_against_spec(self, tmp_path):
        path = tmp_path / "m.fmdl"
        save_model(build_model(small_spec(VIBRATION_CNN), Rng(14)), path)
        blob = path.read_bytes()
        path.write_bytes(blob.replace(b"tensor vib.0.bias 3\n", b"tensor vib.0.bias 4\n"))
        with pytest.raises(DataError, match="manifest does not match"):
            load_model(path)

    @pytest.mark.parametrize(
        "fields",
        [
            ("pool_sizes=1,2",),
            ("conv_kernels=0,3",),
            ("dense_units=0",),
            ("conv_channels=", "conv_kernels=", "pool_sizes="),
        ],
        ids=["pool_1", "kernel_0", "dense_0", "no_conv_block"],
    )
    def test_out_of_range_spec_field(self, tmp_path, fields):
        path = tmp_path / "m.fmdl"
        save_model(build_model(small_spec(VIBRATION_CNN), Rng(15)), path)
        blob = path.read_bytes()
        for field in fields:
            start = blob.index(f"\n{field.split('=')[0]}=".encode()) + 1
            end = blob.index(b"\n", start)
            blob = blob[:start] + field.encode() + blob[end:]
        path.write_bytes(blob)
        with pytest.raises(DataError, match="corrupt header"):
            load_model(path)


class TestSizeBudget:
    """A spec is checked against MAX_PARAMS and MAX_WINDOW_VALUES by
    arithmetic, before any layer list or array exists."""

    def test_reference_specs_are_far_inside_the_budget(self):
        for kind in MODEL_KINDS:
            model = build_model(ModelSpec(kind=kind), Rng(20))
            assert sum(a.size for a in model.parameters().values()) * 80 < MAX_PARAMS

    @pytest.mark.parametrize(
        "kind,fields,what",
        [
            (FUSION, {"dense_units": 10**9}, "parameters"),
            (ACOUSTIC_CNN_LSTM, {"lstm_layers": 10**9}, "parameters"),
            (  # under the parameter cap, over the values cap
                VIBRATION_CNN,
                {"dense_units": 1, "input_len": 8 * 10**6},
                "layer output values per window",
            ),
        ],
        ids=["dense_units", "lstm_layers", "window_values"],
    )
    def test_over_budget_spec_fails_before_allocating(self, kind, fields, what):
        spec = replace(ModelSpec(kind=kind), **fields)
        tracemalloc.start()
        try:
            with pytest.raises(ConfigError, match=rf"model spec has \d+ {what}, above the limit"):
                build_model(spec, Rng(21))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20, peak

    @pytest.mark.parametrize(
        "kind,field",
        [(FUSION, "dense_units=1000000000"), (ACOUSTIC_CNN_LSTM, "lstm_layers=1000000000")],
        ids=["dense_units", "lstm_layers"],
    )
    def test_over_budget_weight_file_is_data_error(self, tmp_path, kind, field):
        path = tmp_path / "m.fmdl"
        save_model(build_model(small_spec(kind), Rng(22)), path)
        blob = path.read_bytes()
        start = blob.index(f"\n{field.split('=')[0]}=".encode()) + 1
        path.write_bytes(blob[:start] + field.encode() + blob[blob.index(b"\n", start) :])
        tracemalloc.start()
        try:
            with pytest.raises(DataError, match="corrupt header: model spec has"):
                load_model(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20, peak

    def test_huge_head_above_the_budget_is_rejected_before_the_payload_check(self, tmp_path):
        path = tmp_path / "m.fmdl"
        huge_head_header(path, input_len=10**8)
        with pytest.raises(DataError, match="800000029 parameters, above the limit"):
            load_model(path)
