"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with ``pytest tests/test_acceptance.py -v -s``).

Criterion 7 (exact reproduction of the published result tables) needs the
real recorded datasets and is delegated to the environment-gated
integration module, excluded from CI by default.
"""

import os
import time

import numpy as np
from conftest import assert_grads_close, central_diff, sampled_central_diff, small_spec

from faultfusion.cli import main
from faultfusion.data import SynthSpec, synth_dataset
from faultfusion.layers import LSTM, Conv1D, Dense, MaxPool1D, softmax
from faultfusion.metrics import ConfusionMatrix, per_class_metrics
from faultfusion.model import (
    ACOUSTIC_CNN_LSTM,
    FUSION,
    VIBRATION_CNN,
    build_model,
    load_model,
    reduced_spec,
)
from faultfusion.tensor import Rng
from faultfusion.training import TrainConfig, fit
from test_metrics import VIB_PRECISION_PCT, brute_force_metrics

LINEAR_RTOL = 1e-6
NONLINEAR_RTOL = 1e-4


def _report(n, detail):
    print(f"\nACCEPTANCE {n} PASS: {detail}")


def test_criterion_1_gradient_correctness():
    """Finite differences confirm every analytic gradient."""
    t0 = time.perf_counter()
    rng = Rng(1001)

    # Conv1D (linear)
    x = rng.normal((1, 12, 2))
    conv = Conv1D(rng.normal((3, 2, 4)), rng.normal(4))
    probe = rng.normal((1, 10, 4))

    def conv_loss():
        y, _ = conv.forward(x)
        return float((y * probe).sum())

    _, cache = conv.forward(x)
    gx, grads = conv.backward(cache, probe)
    assert_grads_close(gx, central_diff(conv_loss, x), LINEAR_RTOL, label="conv x")
    assert_grads_close(grads["kernels"], central_diff(conv_loss, conv.kernels), LINEAR_RTOL)
    assert_grads_close(grads["bias"], central_diff(conv_loss, conv.bias), LINEAR_RTOL)

    # MaxPool (piecewise linear, away from ties)
    xp = rng.normal((1, 8, 3))
    pool = MaxPool1D(2)
    probe_p = rng.normal((1, 4, 3))

    def pool_loss():
        y, _ = pool.forward(xp)
        return float((y * probe_p).sum())

    _, cache = pool.forward(xp)
    gx, _ = pool.backward(cache, probe_p)
    assert_grads_close(gx, central_diff(pool_loss, xp), NONLINEAR_RTOL, label="pool x")

    # Dense (linear)
    xd = rng.normal((1, 6))
    dense = Dense(rng.normal((6, 4)), rng.normal(4))
    probe_d = rng.normal((1, 4))

    def dense_loss():
        y, _ = dense.forward(xd)
        return float((y * probe_d).sum())

    _, cache = dense.forward(xd)
    gx, grads = dense.backward(cache, probe_d)
    assert_grads_close(gx, central_diff(dense_loss, xd), LINEAR_RTOL, label="dense x")
    assert_grads_close(grads["weights"], central_diff(dense_loss, dense.weights), LINEAR_RTOL)
    assert_grads_close(grads["bias"], central_diff(dense_loss, dense.bias), LINEAR_RTOL)

    # ReLU + softmax + cross-entropy, fused gradient in logit space
    xr = rng.normal((1, 5))
    head = Dense(rng.normal((5, 4)), rng.normal(4))
    target = 2

    def fused_loss():
        z, _ = head.forward(xr)
        z = np.maximum(z, 0.0)
        return float(-np.log(max(softmax(z)[0, target], 1e-12)))

    z, cache = head.forward(xr)
    relu_mask = z > 0
    probs = softmax(np.maximum(z, 0.0))
    grad_logits = probs.copy()
    grad_logits[0, target] -= 1.0
    gx, grads = head.backward(cache, grad_logits * relu_mask)
    assert_grads_close(gx, central_diff(fused_loss, xr), NONLINEAR_RTOL, label="fused x")
    assert_grads_close(
        grads["weights"], central_diff(fused_loss, head.weights), NONLINEAR_RTOL, label="fused W"
    )

    # LSTM at T = 1 and T = 5
    for T in (1, 5):
        xl = rng.normal((1, T, 2))
        lstm = LSTM.init(2, 3, rng)
        probe_l = rng.normal((1, T, 3))

        def lstm_loss():
            y, _ = lstm.forward(xl)
            return float((y * probe_l).sum())

        _, cache = lstm.forward(xl)
        gx, grads = lstm.backward(cache, probe_l)
        assert_grads_close(gx, central_diff(lstm_loss, xl), NONLINEAR_RTOL, label=f"lstm{T} x")
        for name, arr in (("W", lstm.W), ("U", lstm.U), ("b", lstm.b)):
            assert_grads_close(
                grads[name], central_diff(lstm_loss, arr), NONLINEAR_RTOL, label=f"lstm{T} {name}"
            )

    # whole networks at input_len 64, sampled parameter coordinates
    for kind in (VIBRATION_CNN, ACOUSTIC_CNN_LSTM, FUSION):
        model = build_model(small_spec(kind, input_len=64), Rng(1100))
        data_rng = Rng(1200)
        inputs = {}
        if kind in (VIBRATION_CNN, FUSION):
            inputs["x_vib"] = data_rng.normal((64, 1))
        if kind in (ACOUSTIC_CNN_LSTM, FUSION):
            inputs["x_ac"] = data_rng.normal((64, 1))

        def model_loss():
            probs, _ = model.forward(**inputs)
            return float(-np.log(max(probs[1], 1e-12)))

        probs, caches = model.forward(**inputs)
        grad_logits = probs.copy()
        grad_logits[1] -= 1.0
        grads = model.backward(caches, grad_logits)
        pick = Rng(1300)
        for name, param in model.parameters().items():
            idx = np.unique((pick.uniform(min(4, param.size)) * param.size).astype(int))
            numeric = sampled_central_diff(model_loss, param, idx)
            analytic = grads[name].reshape(-1)[idx]
            assert_grads_close(analytic, numeric, NONLINEAR_RTOL, atol=1e-7, label=f"{kind}:{name}")

    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0, f"gradient checks took {elapsed:.1f}s"
    _report(1, f"all analytic gradients match finite differences ({elapsed:.1f}s)")


def test_criterion_2_metric_oracle():
    """per_class_metrics agrees exactly with brute-force recounts; the
    reference precision column reproduces its stated macro average."""
    rng = Rng(2001)
    for trial in range(1000):
        C = 2 + int(rng.uniform() * 8)
        n = 10 + int(rng.uniform() * 150)
        true = (rng.uniform(n) * C).astype(int)
        predicted = (rng.uniform(n) * C).astype(int)
        cm = ConfusionMatrix.from_pairs(true, predicted, [str(i) for i in range(C)])
        m = per_class_metrics(cm)
        p, r, f1, ovr, acc = brute_force_metrics(true.tolist(), predicted.tolist(), C)
        assert m.precision.tolist() == p
        assert m.recall.tolist() == r
        assert m.f1.tolist() == f1
        assert m.ovr_accuracy.tolist() == ovr
        assert m.multiclass_accuracy == acc

    macro = float(np.mean(VIB_PRECISION_PCT))
    assert abs(macro - 90.92) <= 0.01
    _report(2, f"1000 matrices recounted exactly; macro precision {macro:.4f} vs 90.92")


def test_criterion_3_overfit_smoke():
    """A reduced vibration net memorizes 32 training windows quickly with a
    near-monotone loss curve."""
    t0 = time.perf_counter()
    ds = synth_dataset(SynthSpec(num_classes=4, windows_per_class=10, seed=7))
    config = TrainConfig(seed=5, epochs=200, batch_size=32, learning_rate=1e-3)
    model = build_model(reduced_spec(VIBRATION_CNN, 4), Rng(config.seed).derive(0x1217))
    report = fit(model, ds, config)

    train_sizes = int(0.8 * len(ds))
    assert train_sizes == 32
    accs = [e.train_accuracy for e in report.epochs]
    first_perfect = next((i + 1 for i, a in enumerate(accs) if a == 1.0), None)
    assert first_perfect is not None and first_perfect <= 200, "never reached 100% train accuracy"

    losses = [e.train_loss for e in report.epochs]
    non_increasing = sum(1 for a, b in zip(losses, losses[1:]) if b <= a)
    frac = non_increasing / (len(losses) - 1)
    assert frac >= 0.90, f"loss non-increasing in only {frac:.2%} of transitions"

    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0, f"overfit smoke took {elapsed:.1f}s"
    _report(
        3,
        f"100% train accuracy at epoch {first_perfect}, "
        f"loss non-increasing in {frac:.1%} of transitions ({elapsed:.0f}s)",
    )


def test_criterion_4_fusion_ordering():
    """The central claim at desk scale: fusion >= vibration >= acoustic."""
    t0 = time.perf_counter()
    ds = synth_dataset(SynthSpec(num_classes=9, windows_per_class=200, seed=0))
    assert ds.mode == "paired" and len(ds) == 1800
    spec0 = SynthSpec()
    assert spec0.ac_noise_sigma == 2 * spec0.vib_noise_sigma

    seeds = (11, 22, 33)
    results = {}
    for seed in seeds:
        config = TrainConfig(seed=seed, epochs=24, batch_size=96, learning_rate=1e-3)
        row = {}
        for kind in (VIBRATION_CNN, ACOUSTIC_CNN_LSTM, FUSION):
            model = build_model(reduced_spec(kind, 9), Rng(config.seed).derive(0x1217))
            row[kind] = fit(model, ds, config).epochs[-1].val_accuracy
        results[seed] = row
        print(
            f"\n  seed {seed}: vibration {row[VIBRATION_CNN]:.4f}  "
            f"acoustic {row[ACOUSTIC_CNN_LSTM]:.4f}  fusion {row[FUSION]:.4f}"
        )

    ordered = sum(
        1
        for row in results.values()
        if row[FUSION] >= row[VIBRATION_CNN] >= row[ACOUSTIC_CNN_LSTM]
    )
    assert ordered >= 2, f"ordering held in only {ordered}/3 seeds"
    for seed, row in results.items():
        margin = row[FUSION] - max(row[VIBRATION_CNN], row[ACOUSTIC_CNN_LSTM])
        assert margin >= -0.005, f"seed {seed}: fusion trails best single sensor by {-margin:.4f}"

    elapsed = time.perf_counter() - t0
    assert elapsed < 900.0, f"fusion-ordering experiment took {elapsed:.1f}s"
    _report(4, f"ordering held in {ordered}/3 seeds, fusion never trails ({elapsed:.0f}s)")


TRAIN_INI = """\
[model]
kind = vibration_cnn
conv_channels = 8,16
conv_kernels = 7,5
pool_sizes = 4,4
dense_units = 16

[train]
seed = 9
epochs = 2
batch_size = 32
split_ratio = 0.8

[data]
source = synth

[synth]
num_classes = 3
windows_per_class = 10
window_len = 500
seed = 4
"""


def test_criterion_5_cli_determinism(tmp_path):
    """cmd_train twice with one config: bit-identical weights and tables."""
    config = tmp_path / "run.ini"
    config.write_text(TRAIN_INI)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["train", "--config", str(config), "--out", str(out_a)]) == 0
    assert main(["train", "--config", str(config), "--out", str(out_b)]) == 0
    weights_equal = (out_a / "model.fmdl").read_bytes() == (out_b / "model.fmdl").read_bytes()
    assert weights_equal, "weight files differ between identical runs"
    for table in ("metrics.csv", "metrics.txt"):
        assert (out_a / table).read_text() == (out_b / table).read_text(), table
    # the epoch report is idempotent apart from its trailing timing section
    report_a = (out_a / "train_report.txt").read_text().split("[timing]")[0]
    report_b = (out_b / "train_report.txt").read_text().split("[timing]")[0]
    assert report_a == report_b
    _report(5, "repeated cmd_train gives bit-identical weights and metrics tables")


def test_criterion_6_serialization_roundtrip(tmp_path):
    """save/load preserves forward outputs bit-exactly on 100 random inputs."""
    model = build_model(small_spec(FUSION, input_len=64), Rng(61))
    path = tmp_path / "model.fmdl"
    from faultfusion.model import save_model

    save_model(model, path)
    loaded = load_model(path)
    rng = Rng(62)
    for trial in range(100):
        xv = rng.normal((64, 1))
        xa = rng.normal((64, 1))
        p1, _ = model.forward(x_vib=xv, x_ac=xa)
        p2, _ = loaded.forward(x_vib=xv, x_ac=xa)
        assert np.array_equal(p1, p2), f"outputs diverged on input {trial}"
    _report(6, "100/100 forward outputs bit-identical after save/load")


def test_criterion_7_table_reproduction_is_integration_only():
    """The published result tables need the real recordings; that run is
    optional, environment-gated and excluded from CI."""
    here = os.path.dirname(__file__)
    integration = os.path.join(here, "test_integration_real_data.py")
    assert os.path.isfile(integration)
    source = open(integration).read()
    assert "integration" in source and "FAULTFUSION_REAL_DATA" in source
    gated = os.environ.get("FAULTFUSION_REAL_DATA") is None
    state = "skipped (no real dataset configured)" if gated else "enabled by environment"
    _report(7, f"real-data table reproduction is integration-gated: {state}")
