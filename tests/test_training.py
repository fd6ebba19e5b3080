import hashlib
import math
import tracemalloc

import numpy as np
import pytest
from conftest import assert_grads_close, central_diff, small_spec

from faultfusion import training
from faultfusion.data import PAIRED, VIB_ONLY, WindowedDataset, normalize_window
from faultfusion.errors import ConfigError, DataError, NumericError
from faultfusion.layers import softmax
from faultfusion.model import (
    ACOUSTIC_CNN_LSTM,
    BRANCHES,
    FUSION,
    VIBRATION_CNN,
    ModelSpec,
    build_model,
    reduced_spec,
    save_model,
)
from faultfusion.tensor import Rng
from faultfusion.training import (
    AdamState,
    TrainConfig,
    adam_step,
    batch_cross_entropy,
    evaluate,
    fit,
    predict_proba,
    render_report,
    stratified_split,
)


def toy_dataset(n_per_class=8, n_classes=2, T=64, seed=0, paired=False, sources_per_class=1):
    """Separable windows: class c is a sine at its own frequency plus noise."""
    rng = Rng(seed)
    t = np.arange(T) / T
    windows, labels, sources = [], [], []
    for c in range(n_classes):
        for i in range(n_per_class):
            w = np.sin(2 * np.pi * (2 + 3 * c) * t + rng.uniform() * 2 * np.pi)
            w = w + 0.1 * rng.normal(T)
            windows.append(w[:, None])
            labels.append(c)
            sources.append(f"src-{c}-{i % sources_per_class}")
    vib = normalize_window(np.stack(windows))
    names = [f"c{j}" for j in range(n_classes)]
    if paired:
        ac = normalize_window(vib + 0.3 * rng.normal(vib.shape))
        return WindowedDataset(vib=vib, ac=ac, labels=np.array(labels),
                               source_ids=sources, class_names=names, mode=PAIRED)
    return WindowedDataset(vib=vib, ac=None, labels=np.array(labels),
                           source_ids=sources, class_names=names, mode=VIB_ONLY)


def _arrays(nest):
    """The distinct arrays in a nest of dicts and lists, such as a cache."""
    found = {}
    stack = [nest]
    while stack:
        item = stack.pop()
        if isinstance(item, np.ndarray):
            found[id(item)] = item
        elif isinstance(item, dict):
            stack.extend(item.values())
        elif isinstance(item, (list, tuple)):
            stack.extend(item)
    return list(found.values())


def cross_entropy(probs, true_class):
    """Per-window oracle: loss -ln(max(p[true], floor)), logit gradient p - onehot."""
    loss = -np.log(max(float(probs[true_class]), 1e-12))
    grad = probs.copy()
    grad[true_class] -= 1.0
    return loss, grad


def single_ce(probs, true_class):
    """batch_cross_entropy at B=1, unbatched."""
    loss, grad = batch_cross_entropy(probs[None], np.array([true_class]))
    return loss, grad[0]


class TestCrossEntropy:
    def test_uniform_nine_classes(self):
        loss, _ = single_ce(np.full(9, 1.0 / 9.0), 4)
        assert abs(loss - math.log(9.0)) < 1e-12

    def test_half_half(self):
        loss, _ = single_ce(np.array([0.5, 0.5]), 0)
        assert abs(loss - math.log(2.0)) < 1e-12

    def test_grad_sums_to_zero(self):
        for seed in range(5):
            probs = softmax(Rng(seed).normal(7))
            _, grad = single_ce(probs, seed % 7)
            assert abs(grad.sum()) < 1e-12

    def test_out_of_range_class(self):
        for bad in (3, -1):
            with pytest.raises(DataError, match="true class"):
                single_ce(np.full(3, 1 / 3), bad)
        with pytest.raises(DataError, match="true class 3"):
            batch_cross_entropy(np.full((2, 3), 1 / 3), np.array([0, 3]))

    def test_fused_grad_matches_finite_differences(self):
        logits = Rng(31).normal(6)
        target = 2

        def loss():
            return float(-np.log(softmax(logits)[target]))

        _, grad = single_ce(softmax(logits), target)
        assert_grads_close(grad, central_diff(loss, logits), rtol=1e-6, label="fused CE")

    def test_batch_matches_single(self):
        rng = Rng(32)
        probs = softmax(rng.normal((4, 5)))
        targets = np.array([0, 3, 1, 4])
        loss_b, grad_b = batch_cross_entropy(probs, targets)
        singles = [cross_entropy(probs[i], targets[i]) for i in range(4)]
        assert abs(loss_b - np.mean([s[0] for s in singles])) < 1e-12
        for i in range(4):
            assert np.abs(grad_b[i] - singles[i][1] / 4.0).max() < 1e-15

    def test_clipped_log_stays_finite(self):
        probs = np.array([1.0, 0.0])
        loss, _ = single_ce(probs, 1)
        assert np.isfinite(loss)


class TestStratifiedSplit:
    def test_420_windows_split_336_84(self):
        ds = toy_dataset(n_per_class=420, n_classes=2, T=4)
        train, val = stratified_split(ds, 0.8, seed=0)
        labels = ds.labels
        for c in range(2):
            assert (labels[train] == c).sum() == 336
            assert (labels[val] == c).sum() == 84

    def test_deterministic(self):
        ds = toy_dataset(20, 3, T=4)
        a = stratified_split(ds, 0.8, seed=5)
        b = stratified_split(ds, 0.8, seed=5)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])
        c = stratified_split(ds, 0.8, seed=6)
        assert not np.array_equal(a[0], c[0])

    def test_partition(self):
        ds = toy_dataset(13, 3, T=4)
        train, val = stratified_split(ds, 0.7, seed=1)
        assert len(np.intersect1d(train, val)) == 0
        assert np.array_equal(np.union1d(train, val), np.arange(len(ds)))

    def test_min_one_validation_unit(self):
        ds = toy_dataset(3, 2, T=4)
        train, val = stratified_split(ds, 0.99, seed=0)
        for c in range(2):
            assert (ds.labels[val] == c).sum() >= 1

    def test_val_fraction_within_one_unit(self):
        for n, ratio in [(10, 0.8), (17, 0.6), (5, 0.5)]:
            ds = toy_dataset(n, 2, T=4)
            _, val = stratified_split(ds, ratio, seed=3)
            for c in range(2):
                n_val = (ds.labels[val] == c).sum()
                assert abs(n_val - (1 - ratio) * n) <= 1

    def test_class_with_too_few_units(self):
        ds = toy_dataset(1, 2, T=4)
        with pytest.raises(DataError, match="'c0'"):
            stratified_split(ds, 0.8, seed=0)

    def test_file_granularity_keeps_recordings_together(self):
        ds = toy_dataset(12, 2, T=4, sources_per_class=4)
        train, val = stratified_split(ds, 0.75, seed=2, granularity="file")
        train_sources = {ds.source_ids[i] for i in train}
        val_sources = {ds.source_ids[i] for i in val}
        assert not train_sources & val_sources

    def test_file_granularity_single_file_per_class_errors(self):
        ds = toy_dataset(6, 2, T=4, sources_per_class=1)
        with pytest.raises(DataError, match="file granularity"):
            stratified_split(ds, 0.8, seed=0, granularity="file")


class TestAdam:
    def test_zero_grad_keeps_params(self):
        params = {"w": Rng(0).normal((3, 3))}
        before = params["w"].copy()
        state = AdamState(params)
        adam_step(params, {"w": np.zeros((3, 3))}, state, TrainConfig())
        assert np.array_equal(params["w"], before)

    def test_first_step_magnitude_is_about_lr(self):
        # t=1: m_hat = g, v_hat = g^2, update = lr * g / (|g| + eps) ~ lr * sign(g)
        config = TrainConfig(learning_rate=1e-3)
        for g0 in (0.5, -2.0, 1e-4):
            params = {"w": np.array([1.0])}
            state = AdamState(params)
            adam_step(params, {"w": np.array([g0])}, state, config)
            delta = params["w"][0] - 1.0
            assert abs(abs(delta) - config.learning_rate) < 1e-6
            assert math.copysign(1, -delta) == math.copysign(1, g0)

    def test_bias_corrected_second_step_hand_formula(self):
        config = TrainConfig(learning_rate=0.01, beta1=0.9, beta2=0.999, eps=1e-8)
        params = {"w": np.array([0.0])}
        state = AdamState(params)
        g1, g2 = 0.3, -0.1
        adam_step(params, {"w": np.array([g1])}, state, config)
        adam_step(params, {"w": np.array([g2])}, state, config)
        m2 = 0.9 * (0.1 * g1) + 0.1 * g2
        v2 = 0.999 * (0.001 * g1 * g1) + 0.001 * g2 * g2
        w_after_1 = -config.learning_rate * (0.1 * g1 / 0.1) / (
            math.sqrt(0.001 * g1 * g1 / 0.001) + config.eps
        )
        want = w_after_1 - config.learning_rate * (m2 / (1 - 0.9**2)) / (
            math.sqrt(v2 / (1 - 0.999**2)) + config.eps
        )
        assert abs(params["w"][0] - want) < 1e-12

    def test_deterministic_across_runs(self):
        def run():
            params = {"w": Rng(1).normal((4, 2))}
            state = AdamState(params)
            rng = Rng(2)
            for _ in range(10):
                adam_step(params, {"w": rng.normal((4, 2))}, state, TrainConfig())
            return params["w"]

        assert np.array_equal(run(), run())

    def test_shape_mismatch(self):
        params = {"w": np.zeros((2, 2))}
        with pytest.raises(DataError, match="shape"):
            adam_step(params, {"w": np.zeros(3)}, AdamState(params), TrainConfig())


class TestConfig:
    def test_zero_epochs_forbidden(self):
        with pytest.raises(ConfigError, match="epochs"):
            TrainConfig(epochs=0)

    def test_bad_ratio(self):
        with pytest.raises(ConfigError, match="split_ratio"):
            TrainConfig(split_ratio=1.0)

    def test_bad_granularity(self):
        with pytest.raises(ConfigError, match="granularity"):
            TrainConfig(split_granularity="shard")


class TestFit:
    def test_overfits_small_set(self):
        ds = toy_dataset(n_per_class=8, n_classes=2)
        model = build_model(small_spec(VIBRATION_CNN, num_classes=2), Rng(0))
        config = TrainConfig(seed=0, epochs=150, batch_size=16, split_ratio=0.75,
                             learning_rate=3e-3)
        report = fit(model, ds, config)
        assert max(e.train_accuracy for e in report.epochs) == 1.0

    def test_deterministic_reports(self):
        ds = toy_dataset(6, 2)
        config = TrainConfig(seed=3, epochs=5, batch_size=8, split_ratio=0.75)
        r1 = fit(build_model(small_spec(VIBRATION_CNN, 2), Rng(1)), ds, config)
        r2 = fit(build_model(small_spec(VIBRATION_CNN, 2), Rng(1)), ds, config)
        assert [e.train_loss for e in r1.epochs] == [e.train_loss for e in r2.epochs]
        assert [e.val_accuracy for e in r1.epochs] == [e.val_accuracy for e in r2.epochs]
        assert np.array_equal(r1.final_confusion.counts, r2.final_confusion.counts)

    def test_identical_models_stay_identical(self):
        ds = toy_dataset(6, 2)
        config = TrainConfig(seed=3, epochs=3, batch_size=8, split_ratio=0.75)
        m1 = build_model(small_spec(VIBRATION_CNN, 2), Rng(7))
        m2 = build_model(small_spec(VIBRATION_CNN, 2), Rng(7))
        fit(m1, ds, config)
        fit(m2, ds, config)
        for (n1, a1), (n2, a2) in zip(m1.parameters().items(), m2.parameters().items()):
            assert n1 == n2 and np.array_equal(a1, a2), n1

    def test_float32_passes_update_float64_weights(self, monkeypatch, tmp_path):
        """fit trains on float32 passes, while the weights, the Adam moments
        and the saved payload stay float64."""
        seen = []

        def recording_step(params, grads, state, config):
            seen.append(({g.dtype for g in grads.values()}, state))
            adam_step(params, grads, state, config)

        monkeypatch.setattr(training, "adam_step", recording_step)
        ds = toy_dataset(6, 2, paired=True)
        model = build_model(small_spec(FUSION, 2), Rng(8))
        fit(model, ds, TrainConfig(seed=3, epochs=2, batch_size=4, split_ratio=0.75))
        assert seen and all(dtypes == {np.dtype(np.float32)} for dtypes, _ in seen)
        f64 = np.dtype(np.float64)
        state = seen[-1][1]
        for buffers in (model.parameters(), state.m, state.v):
            assert {arr.dtype for arr in buffers.values()} == {f64}
        path = tmp_path / "m.fmdl"
        save_model(model, path)
        blob = path.read_bytes()
        payload = blob[blob.index(b"\nend\n") + len(b"\nend\n") :]
        params = model.parameters()
        assert payload == b"".join(arr.astype("<f8").tobytes() for arr in params.values())

    def test_each_batch_frees_its_caches_before_the_next_forward(self):
        """A step's backward caches are most of fit's memory, so three batches
        must peak about where one does, not with two batches' caches alive."""
        config = TrainConfig(seed=4, epochs=1, batch_size=24, split_ratio=0.75)
        peaks = []
        for n_per_class in (16, 48):  # one training batch of 24, then three
            ds = toy_dataset(n_per_class, 2, T=1000, paired=True)
            model = build_model(reduced_spec(FUSION, 2), Rng(12))
            tracemalloc.start()
            try:
                fit(model, ds, config)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        _, caches = model.forward(x_vib=ds.vib[:24].astype(np.float32),
                                  x_ac=ds.ac[:24].astype(np.float32))
        step = sum(arr.nbytes for arr in _arrays(caches))
        assert peaks[1] - peaks[0] < 0.4 * step, (peaks, step)

    def test_modality_mismatch(self):
        ds = toy_dataset(6, 2)  # vibration-only
        model = build_model(small_spec(FUSION, 2), Rng(0))
        with pytest.raises(DataError, match="acoustic"):
            fit(model, ds, TrainConfig(epochs=1, split_ratio=0.75))

    def test_empty_dataset(self):
        ds = toy_dataset(6, 2)
        empty = WindowedDataset(vib=ds.vib[:0], ac=None, labels=ds.labels[:0],
                                source_ids=[], class_names=ds.class_names, mode=VIB_ONLY)
        with pytest.raises(DataError, match="empty"):
            fit(build_model(small_spec(VIBRATION_CNN, 2), Rng(0)), empty, TrainConfig())

    def test_nan_weights_raise_numeric_error(self):
        ds = toy_dataset(6, 2)
        model = build_model(small_spec(VIBRATION_CNN, 2), Rng(0))
        model.head_layers[0].weights[0, 0] = np.nan
        with pytest.raises(
            NumericError, match=r"^epoch 1, batch 1: non-finite values in model output$"
        ):
            fit(model, ds, TrainConfig(epochs=1, split_ratio=0.75))

    @pytest.mark.parametrize(
        "poison_after,where",
        [(1, "epoch 1, batch 2"), (3, "epoch 1, validation"), (5, "epoch 2, batch 3")],
    )
    def test_numeric_failure_names_epoch_and_batch(self, monkeypatch, poison_after, where):
        """8 training windows in batches of 3 make 3 batches per epoch; a NaN
        weight written by Adam step poison_after shows in the next pass."""

        def poisoning_step(params, grads, state, config):
            adam_step(params, grads, state, config)
            if state.step == poison_after:
                params["head.0.weights"][0, 0] = np.nan

        monkeypatch.setattr(training, "adam_step", poisoning_step)
        ds = toy_dataset(6, 2)
        model = build_model(small_spec(VIBRATION_CNN, 2), Rng(0))
        with pytest.raises(NumericError, match=rf"^{where}: non-finite values in model output$"):
            fit(model, ds, TrainConfig(epochs=2, batch_size=3, split_ratio=0.75))

    def test_render_report_sections(self):
        ds = toy_dataset(6, 2)
        report = fit(build_model(small_spec(VIBRATION_CNN, 2), Rng(1)), ds,
                     TrainConfig(epochs=2, batch_size=8, split_ratio=0.75))
        text = render_report(report)
        assert "epoch" in text.splitlines()[0]
        assert "[timing]" in text
        assert "confusion" in text


def _digest(named):
    h = hashlib.sha256()
    for name, arr in named.items():
        h.update(name.encode() + b"\0" + np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


class TestGoldenDigests:
    """Bytes of a float32 training step's gradients and of a short fit's
    weights, computed before the backward caches were slimmed (ReLU keeps a
    mask, LSTM recomputes tanh(c)); the change must not move a bit. Like
    every weight digest, they hold for one platform and BLAS thread count."""

    @pytest.mark.parametrize(
        "spec,seed,digest",
        [
            (reduced_spec(FUSION, 3), 50,
             "c7d8b7be382f32b1cb7739bf0d611624af712f73a56bd3d19143a7551aef09ee"),
            (small_spec(ACOUSTIC_CNN_LSTM), 51,
             "aded90ff58c9d663a769a79ddd69082614a20d1f5ee70f70c8003600d0af34cb"),
        ],
        ids=["reduced_fusion", "small_acoustic"],
    )
    def test_float32_step_gradients(self, spec, seed, digest):
        model = build_model(spec, Rng(seed))
        rng = Rng(seed + 1)
        inputs = {
            f"x_{branch}": rng.normal((8, spec.input_len, 1)).astype(np.float32)
            for branch in BRANCHES[spec.kind]
        }
        probs, caches = model.forward(**inputs)
        _, grad_logits = batch_cross_entropy(probs, np.arange(8) % spec.num_classes)
        assert _digest(model.backward(caches, grad_logits)) == digest

    def test_weights_after_a_two_epoch_fit(self):
        ds = toy_dataset(16, 2, T=1000, paired=True)
        model = build_model(reduced_spec(FUSION, 2), Rng(52))
        fit(model, ds, TrainConfig(seed=5, epochs=2, batch_size=8, split_ratio=0.75))
        assert _digest(model.parameters()) == (
            "b29e738f65b87e049d4c6de340c493ba594348a503f22ed8291818eb4bc415c7"
        )


def test_training_step_caches_hold_only_what_backward_reads():
    """A reduced fusion float32 step at B=24 kept 5,442,816 bytes of backward
    cache when each ReLU kept its float input and each LSTM a [T, B, u]
    tanh(c) slab; a one-byte mask and a recomputed tanh(c) keep under 0.7x."""
    ds = toy_dataset(16, 2, T=1000, paired=True)
    model = build_model(reduced_spec(FUSION, 2), Rng(12))
    _, caches = model.forward(x_vib=ds.vib[:24].astype(np.float32),
                              x_ac=ds.ac[:24].astype(np.float32))
    kept = sum(arr.nbytes for arr in _arrays(caches))
    assert kept <= 0.7 * 5_442_816, kept


class TestEvaluate:
    def test_perfect_predictor_is_diagonal(self):
        model = build_model(small_spec(VIBRATION_CNN, num_classes=3), Rng(5))
        ds = toy_dataset(5, 3)
        idx = np.arange(len(ds))
        probs, _ = model.forward(x_vib=ds.vib)
        ds.labels = probs.argmax(axis=1)  # label by the model itself
        acc, cm = evaluate(model, ds, idx)
        assert acc == 1.0
        assert np.array_equal(cm.counts, np.diag(np.diag(cm.counts)))

    def test_counts_sum_to_index_count(self):
        model = build_model(small_spec(VIBRATION_CNN, num_classes=2), Rng(6))
        ds = toy_dataset(7, 2)
        idx = np.arange(3, 11)
        _, cm = evaluate(model, ds, idx)
        assert cm.total == len(idx)

    def test_accuracy_equals_trace_over_total(self):
        model = build_model(small_spec(VIBRATION_CNN, num_classes=2), Rng(7))
        ds = toy_dataset(9, 2)
        acc, cm = evaluate(model, ds, np.arange(len(ds)))
        assert acc == np.trace(cm.counts) / cm.total

    def test_empty_indices(self):
        model = build_model(small_spec(VIBRATION_CNN, num_classes=2), Rng(8))
        ds = toy_dataset(4, 2)
        with pytest.raises(DataError, match="empty index"):
            evaluate(model, ds, np.array([], dtype=int))

    def test_each_chunk_is_freed_before_the_next(self):
        model = build_model(small_spec(VIBRATION_CNN, num_classes=2, input_len=256), Rng(9))
        ds = toy_dataset(32, 2, T=256)
        peaks = []
        for batch_size in (64, 32):  # one chunk, then two
            tracemalloc.start()
            try:
                evaluate(model, ds, np.arange(64), batch_size=batch_size)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] < 0.75 * peaks[0], peaks

    def test_reference_fusion_batch_keeps_no_backward_caches(self):
        # with every backward cache kept, this forward peaks near 750 MiB
        model = build_model(ModelSpec(kind=FUSION), Rng(10))
        rng = Rng(11)
        n = 256
        ds = WindowedDataset(vib=rng.normal((n, 1000, 1)), ac=rng.normal((n, 1000, 1)),
                             labels=np.arange(n) % 9, source_ids=["s"] * n,
                             class_names=[f"c{j}" for j in range(9)], mode=PAIRED)
        tracemalloc.start()
        try:
            probs = predict_proba(model, ds, np.arange(n))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert probs.shape == (n, 9)
        assert peak <= 150 * 2**20, f"{peak / 2**20:.1f} MiB"
