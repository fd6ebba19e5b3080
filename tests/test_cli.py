import dataclasses
import hashlib
import os
import re
import subprocess
import sys
import textwrap
import tracemalloc
import warnings

import numpy as np
import pytest
from conftest import huge_head_header, small_spec

import faultfusion
from faultfusion.cli import _read_config, _section, main
from faultfusion.data import MAX_SYNTH_CLASSES, SynthSpec, read_manifest
from faultfusion.model import (
    VIBRATION_CNN,
    ModelSpec,
    build_model,
    load_model,
    save_model,
)
from faultfusion.tensor import Rng
from faultfusion.training import TrainConfig

TINY_SYNTH = """
    [synth]
    num_classes = 3
    windows_per_class = 8
    window_len = 200
    seed = 3
"""

TINY_TRAIN = """
    [model]
    kind = vibration_cnn
    conv_channels = 4,8
    conv_kernels = 5,3
    pool_sizes = 2,2
    dense_units = 8
    ac_conv_channels = 4
    ac_conv_kernels = 5
    ac_pool_sizes = 4
    lstm_units = 4
    lstm_layers = 1

    [train]
    seed = 1
    epochs = 2
    batch_size = 16
    split_ratio = 0.75

    [data]
    source = synth
""" + TINY_SYNTH


def write_config(tmp_path, text, name="run.ini"):
    path = tmp_path / name
    path.write_text(textwrap.dedent(text))
    return str(path)


def assert_one_line_error(capsys, prefix):
    err = capsys.readouterr().err
    assert err.startswith(prefix), err
    assert err.count("\n") == 1 and "Traceback" not in err, err


class TestGenerate:
    def test_writes_recordings_and_manifest(self, tmp_path):
        config = write_config(tmp_path, TINY_SYNTH)
        out = tmp_path / "dataset"
        assert main(["generate", "--config", config, "--out", str(out)]) == 0
        files = sorted(p.name for p in out.iterdir())
        assert "manifest.csv" in files
        assert sum(1 for f in files if f.endswith(".f32")) == 6  # 3 classes x 2 modalities
        manifest = read_manifest(out / "manifest.csv")
        assert len(manifest.rows) == 6
        assert len(manifest.class_names) == 3

    def test_same_seed_byte_identical(self, tmp_path):
        config = write_config(tmp_path, TINY_SYNTH)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["generate", "--config", config, "--out", str(out_a)]) == 0
        assert main(["generate", "--config", config, "--out", str(out_b)]) == 0
        for p in sorted(out_a.iterdir()):
            assert p.read_bytes() == (out_b / p.name).read_bytes(), p.name

    def test_golden_digest(self, tmp_path):
        config = write_config(tmp_path, TINY_SYNTH)
        out = tmp_path / "dataset"
        assert main(["generate", "--config", config, "--out", str(out)]) == 0
        digest = hashlib.sha256()
        for p in sorted(out.iterdir()):
            digest.update(p.name.encode() + b"\0" + p.read_bytes())
        expected = "d95d1c96017a0e6bf5e691baf04f5cf42fd092f63a8ce52631f95cf5dd5aa373"
        assert digest.hexdigest() == expected

    def test_nine_paired_classes_write_eighteen_recordings(self, tmp_path):
        config = write_config(
            tmp_path,
            "[synth]\nnum_classes = 9\nwindows_per_class = 2\nwindow_len = 500\nseed = 1\n",
        )
        out = tmp_path / "nine"
        assert main(["generate", "--config", config, "--out", str(out)]) == 0
        assert sum(1 for p in out.iterdir() if p.suffix == ".f32") == 18
        assert (out / "manifest.csv").exists()

    def test_zero_classes_is_usage_error(self, tmp_path, capsys):
        config = write_config(tmp_path, "[synth]\nnum_classes = 0\n")
        assert main(["generate", "--config", config, "--out", str(tmp_path / "o")]) == 1
        assert "usage error" in capsys.readouterr().err

    def test_samples_beyond_float32_are_usage_error(self, tmp_path, capsys):
        """As reproduced: exit 0, and 01_class-2_acoustic.f32 held 12 inf of its
        200 samples."""
        text = "[synth]\nnum_classes = 2\nwindows_per_class = 2\nwindow_len = 100\n"
        config = write_config(tmp_path, text + "impulse_amplitude = 1e300\n")
        out = tmp_path / "d"
        assert main(["generate", "--config", config, "--out", str(out)]) == 1
        assert_one_line_error(
            capsys, "usage error: [synth] signal of 01_class-2_acoustic.f32 exceeds the float32"
        )
        for path in out.iterdir():
            assert np.isfinite(np.fromfile(path, dtype="<f4")).all(), path.name

    def test_unknown_command_is_usage_error(self):
        assert main(["transmogrify"]) == 1

    def test_resonance_and_class_names_reach_the_output(self, tmp_path):
        plain = write_config(tmp_path, TINY_SYNTH, "plain.ini")
        tuned = write_config(
            tmp_path,
            TINY_SYNTH + "    vib_resonance_base_hz = 100\n    class_names = a,b,c\n",
            "tuned.ini",
        )
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["generate", "--config", plain, "--out", str(out_a)]) == 0
        assert main(["generate", "--config", tuned, "--out", str(out_b)]) == 0
        assert read_manifest(out_b / "manifest.csv").class_names == ["a", "b", "c"]
        for modality, changed in (("vibration", True), ("acoustic", False)):
            pairs = zip(
                sorted(out_a.glob(f"*_{modality}.f32")), sorted(out_b.glob(f"*_{modality}.f32"))
            )
            for a, b in pairs:
                assert (a.read_bytes() != b.read_bytes()) == changed, (a.name, b.name)


class TestTrain:
    def test_outputs_exist_and_parse(self, tmp_path):
        config = write_config(tmp_path, TINY_TRAIN)
        out = tmp_path / "run"
        assert main(["train", "--config", config, "--out", str(out)]) == 0
        model = load_model(out / "model.fmdl")
        assert model.kind == "vibration_cnn"
        report = (out / "train_report.txt").read_text()
        assert report.splitlines()[0].startswith("epoch")
        assert "[timing]" in report
        table = (out / "metrics.txt").read_text()
        assert table.splitlines()[0].startswith("Classes")
        csv_lines = (out / "metrics.csv").read_text().strip().splitlines()
        assert len(csv_lines) == 1 + 3 + 1  # header + classes + Overall

    def test_fusion_kind_from_flag(self, tmp_path):
        config = write_config(tmp_path, TINY_TRAIN)
        out = tmp_path / "run"
        code = main(["train", "--config", config, "--out", str(out), "--kind", "fusion"])
        assert code == 0
        assert load_model(out / "model.fmdl").kind == "fusion"

    def test_deterministic_outputs(self, tmp_path):
        config = write_config(tmp_path, TINY_TRAIN)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["train", "--config", config, "--out", str(out_a)]) == 0
        assert main(["train", "--config", config, "--out", str(out_b)]) == 0
        assert (out_a / "model.fmdl").read_bytes() == (out_b / "model.fmdl").read_bytes()
        assert (out_a / "metrics.csv").read_text() == (out_b / "metrics.csv").read_text()
        assert (out_a / "metrics.txt").read_text() == (out_b / "metrics.txt").read_text()

    def test_vibration_kind_on_acoustic_only_manifest(self, tmp_path, capsys):
        gen_config = write_config(tmp_path, TINY_SYNTH, "gen.ini")
        data_dir = tmp_path / "dataset"
        assert main(["generate", "--config", gen_config, "--out", str(data_dir)]) == 0
        manifest = data_dir / "manifest.csv"
        lines = manifest.read_text().splitlines()
        acoustic_only = [lines[0]] + [l for l in lines[1:] if ",acoustic," in l]
        manifest.write_text("\n".join(acoustic_only) + "\n")
        config = write_config(tmp_path, TINY_TRAIN, "train.ini")
        code = main(
            ["train", "--config", config, "--out", str(tmp_path / "r"),
             "--manifest", str(manifest), "--kind", "vibration_cnn"]
        )
        assert code == 2
        assert "vibration" in capsys.readouterr().err

    def test_missing_kind_is_usage_error(self, tmp_path):
        config = write_config(tmp_path, TINY_SYNTH)
        assert main(["train", "--config", config, "--out", str(tmp_path / "r")]) == 1

    @pytest.mark.parametrize(
        "text",
        [
            "kind = fusion\n",
            "[model]\nkind = fusion\n[model]\ndense_units = 8\n",
        ],
        ids=["missing_section_header", "duplicate_section"],
    )
    def test_malformed_ini_is_usage_error(self, tmp_path, capsys, text):
        config = write_config(tmp_path, text)
        assert main(["train", "--config", config, "--out", str(tmp_path / "r")]) == 1
        assert_one_line_error(capsys, "usage error: config file")

    @pytest.mark.parametrize("value", ["three", "3%"])  # '%' breaks interpolation
    def test_unparseable_num_classes_is_usage_error(self, tmp_path, capsys, value):
        config = write_config(
            tmp_path, TINY_TRAIN.replace("[model]", f"[model]\n    num_classes = {value}")
        )
        assert main(["train", "--config", config, "--out", str(tmp_path / "r")]) == 1
        assert_one_line_error(capsys, "usage error: [model] num_classes")

    @pytest.mark.parametrize(
        "old,new",
        [("pool_sizes = 2,2", "pool_sizes = 0,2"), ("dense_units = 8", "dense_units = 0")],
        ids=["zero_pool", "zero_dense_units"],
    )
    def test_out_of_range_model_field_is_usage_error(self, tmp_path, capsys, old, new):
        config = write_config(tmp_path, TINY_TRAIN.replace(old, new))
        assert main(["train", "--config", config, "--out", str(tmp_path / "r")]) == 1
        assert_one_line_error(capsys, f"usage error: {new.split()[0]}")

    @pytest.mark.parametrize(
        "kind,old,new",
        [
            ("fusion", "dense_units = 8", "dense_units = 1000000000"),
            ("acoustic_cnn_lstm", "lstm_layers = 1", "lstm_layers = 1000000000"),
        ],
        ids=["dense_units", "lstm_layers"],
    )
    def test_model_above_the_size_budget_is_usage_error(self, tmp_path, capsys, kind, old, new):
        """As reproduced under an address-space limit: the first ended in a numpy
        _ArrayMemoryError traceback, the second in a MemoryError traceback."""
        text = TINY_TRAIN.replace("vibration_cnn", kind).replace(old, new)
        config = write_config(tmp_path, text)
        tracemalloc.start()
        try:
            code = main(["train", "--config", config, "--out", str(tmp_path / "r")])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 1
        err = capsys.readouterr().err
        assert re.fullmatch(
            r"usage error: model spec has \d+ parameters, above the limit of 67108864\n", err
        ), err
        assert peak < 4 * 2**20, peak

    def test_model_above_the_layer_cap_is_usage_error(self, tmp_path, capsys):
        """A million 1-unit LSTMs stay under the parameter and value caps."""
        text = TINY_TRAIN.replace("vibration_cnn", "acoustic_cnn_lstm")
        text = text.replace("lstm_units = 4", "lstm_units = 1")
        config = write_config(tmp_path, text.replace("lstm_layers = 1", "lstm_layers = 1000000"))
        assert main(["train", "--config", config, "--out", str(tmp_path / "r")]) == 1
        assert capsys.readouterr().err == (
            "usage error: model spec has 1000007 layers, above the limit of 512\n"
        )

    @pytest.mark.parametrize("kind,prefix", [("vibration_cnn", ""), ("acoustic_cnn_lstm", "ac_")])
    def test_empty_conv_branch_is_usage_error(self, tmp_path, capsys, kind, prefix):
        text = TINY_TRAIN.replace("vibration_cnn", kind)
        for name in ("conv_channels", "conv_kernels", "pool_sizes"):
            key = f"\n    {prefix}{name} ="
            text, count = re.subn(re.escape(key) + r" [\d,]+", key, text)
            assert count == 1
        config = write_config(tmp_path, text)
        assert main(["train", "--config", config, "--out", str(tmp_path / "r")]) == 1
        assert_one_line_error(capsys, f"usage error: {kind} needs at least one conv block")

    @pytest.mark.parametrize(
        "section,cls",
        [
            ("model", "ModelSpec"),
            ("train", "TrainConfig"),
            ("synth", "SynthSpec"),
            ("data", "[data]"),
            ("output", "[output]"),
            ("modle", None),
        ],
    )
    def test_unknown_section_key_is_usage_error(self, tmp_path, capsys, section, cls):
        text = TINY_TRAIN if f"[{section}]" in TINY_TRAIN else TINY_TRAIN + f"\n    [{section}]\n"
        config = write_config(
            tmp_path, text.replace(f"[{section}]", f"[{section}]\n    learnig_rate = 0.5")
        )
        assert main(["train", "--config", config, "--out", str(tmp_path / "r")]) == 1
        if cls is None:
            expected = f"[{section}]: unknown section, expected one of model, train, data"
        else:
            expected = f"[{section}] learnig_rate: unknown key, not a {cls} field"
        assert_one_line_error(capsys, f"usage error: {expected}")

    def test_data_sample_rate_is_an_unknown_key(self, tmp_path, capsys):
        config = write_config(
            tmp_path, TINY_TRAIN.replace("[data]", "[data]\n    sample_rate_hz = 42000")
        )
        assert main(["train", "--config", config, "--out", str(tmp_path / "r")]) == 1
        assert_one_line_error(
            capsys, "usage error: [data] sample_rate_hz: unknown key, not a [data] field"
        )

    def test_non_utf8_manifest_is_data_error(self, tmp_path, capsys):
        manifest = tmp_path / "manifest.csv"
        manifest.write_bytes(b"file_path,modality,label_name,pair_key\na.f32,vibration,H\xff,k\n")
        config = write_config(tmp_path, TINY_TRAIN)
        code = main(
            ["train", "--config", config, "--out", str(tmp_path / "r"), "--manifest", str(manifest)]
        )
        assert code == 2
        assert_one_line_error(capsys, f"data error: {manifest}: not UTF-8 text")

    @pytest.mark.parametrize("line", ["beta1 = 1.0", "beta2 = 1.0", "eps = -1e-8"])
    def test_out_of_range_adam_setting_is_usage_error(self, tmp_path, capsys, line):
        config = write_config(tmp_path, TINY_TRAIN.replace("[train]", f"[train]\n    {line}"))
        assert main(["train", "--config", config, "--out", str(tmp_path / "r")]) == 1
        assert_one_line_error(capsys, f"usage error: {line.split()[0]}")

    def test_trains_from_generated_manifest(self, tmp_path):
        gen_config = write_config(tmp_path, TINY_SYNTH, "gen.ini")
        data_dir = tmp_path / "dataset"
        assert main(["generate", "--config", gen_config, "--out", str(data_dir)]) == 0
        config = write_config(
            tmp_path,
            TINY_TRAIN.replace("source = synth", "source = manifest")
            + f"\n[data2]\n",  # keep structure simple; manifest passed by flag
            "train.ini",
        )
        code = main(
            ["train", "--config", config, "--out", str(tmp_path / "r"),
             "--manifest", str(data_dir / "manifest.csv")]
        )
        assert code == 0

    @pytest.mark.parametrize(
        "command,old,new,message",
        [
            ("train", "[data]", "window_len = 0", "[data] window_len must be >= 1, got 0"),
            ("train", "[data]", "window_len = -5", "[data] window_len must be >= 1, got -5"),
            ("train", "[synth]", "window_len = 0", "[synth] window_len must be >= 1, got 0"),
            ("generate", "[synth]", "window_len = 0", "window_len must be >= 1, got 0"),
            ("train", "[synth]", "sample_rate_hz = 0", "sample_rate_hz must be finite and > 0"),
            ("generate", "[synth]", "sample_rate_hz = 0", "sample_rate_hz must be finite and > 0"),
            ("generate", "[synth]", "sample_rate_hz = inf", "sample_rate_hz must be finite"),
            ("generate", "[synth]", "base_repetition_hz = 0", "repetition_hz of class 0 is 0"),
            (
                "generate",
                "[synth]",
                "base_repetition_hz = 34\n    repetition_step_hz = -17",
                "repetition_hz of class 2 is 0",
            ),
        ],
        ids=[
            "data_window_0", "data_window_neg", "synth_window_0_train", "synth_window_0_generate",
            "rate_0_train", "rate_0_generate", "rate_inf_generate", "repetition_0",
            "repetition_0_at_class_2",
        ],
    )
    def test_out_of_range_window_or_rate_is_usage_error(
        self, tmp_path, capsys, command, old, new, message
    ):
        text = TINY_TRAIN.replace("    window_len = 200\n", "").replace(old, f"{old}\n    {new}")
        config = write_config(tmp_path, text, "bad.ini")
        args = [command, "--config", config, "--out", str(tmp_path / "r")]
        if old == "[data]":  # as reproduced: train on a generated manifest
            gen_config = write_config(tmp_path, TINY_SYNTH, "gen.ini")
            assert main(["generate", "--config", gen_config, "--out", str(tmp_path / "d")]) == 0
            capsys.readouterr()
            args += ["--manifest", str(tmp_path / "d" / "manifest.csv")]
        assert main(args) == 1
        assert_one_line_error(capsys, f"usage error: {message}")

    @pytest.mark.parametrize(
        "line,message",
        [
            ("decay_s = 0", "decay_s must be finite and > 0, got 0.0"),
            ("decay_s = 1e12", None),
            ("impulse_amplitude = inf", "impulse_amplitude must be finite, got inf"),
            ("ac_resonance_base_hz = nan", "acoustic resonance_hz of class 0 is nan"),
            ("vib_noise_sigma = nan", "vib_noise_sigma must be finite and >= 0, got nan"),
            ("base_repetition_hz = inf", "repetition_hz of class 0 is inf"),
        ],
        ids=["decay_0", "decay_1e12", "amplitude_inf", "resonance_nan", "sigma_nan",
             "repetition_inf"],
    )
    def test_out_of_range_synth_signal_field(self, tmp_path, capsys, line, message):
        """Each as reproduced: 2 classes, window_len 100, 20 windows per class."""
        text = "[synth]\nnum_classes = 2\nwindows_per_class = 20\nwindow_len = 100\n"
        config = write_config(tmp_path, text + line + "\n")
        out = tmp_path / "d"
        code = main(["generate", "--config", config, "--out", str(out)])
        if message is None:  # a decay far longer than the recording is fine
            assert code == 0
            for path in out.iterdir():
                if path.suffix == ".f32":
                    assert np.isfinite(np.fromfile(path, dtype="<f4")).all()
            return
        assert code == 1
        assert_one_line_error(capsys, f"usage error: {message}")

    @pytest.mark.parametrize(
        "lines,message",
        [
            ("decay_s = 1e12\nbase_repetition_hz = 1e-9", None),
            ("sample_rate_hz = 1e300\nbase_repetition_hz = 1e-10",
             "class 0 repeats every inf samples"),
            ("sample_rate_hz = 1000\nbase_repetition_hz = 1e9",
             "class 0 repeats every 1e-06 samples"),
        ],
        ids=["decay_1e12_at_1e-9_hz", "period_overflows", "period_below_one_sample"],
    )
    def test_slow_impulse_period(self, tmp_path, capsys, lines, message):
        """Each as reproduced: 2 classes, window_len 100, 20 windows per class."""
        text = "[synth]\nnum_classes = 2\nwindows_per_class = 20\nwindow_len = 100\n"
        config = write_config(tmp_path, text + lines + "\n")
        out = tmp_path / "d"
        code = main(["generate", "--config", config, "--out", str(out)])
        if message is None:  # one burst at most, over a recording of 2000 samples
            assert code == 0
            recordings = [path for path in out.iterdir() if path.suffix == ".f32"]
            assert len(recordings) == 4
            for path in recordings:
                samples = np.fromfile(path, dtype="<f4")
                assert samples.size == 2000 and np.isfinite(samples).all()
            return
        assert code == 1
        assert_one_line_error(capsys, f"usage error: {message}")

    @pytest.mark.parametrize(
        "lines,samples",
        [
            ("num_classes = 1000000000000\nwindows_per_class = 1\nwindow_len = 1", 10**12),
            ("num_classes = 2\nwindows_per_class = 1000000000000\nwindow_len = 1000",
             2 * 10**15),
        ],
        ids=["classes", "windows"],
    )
    def test_dataset_above_the_sample_limit(self, tmp_path, capsys, lines, samples):
        """As reproduced: the first spun in SynthSpec's per-class checks, the
        second ended in a numpy _ArrayMemoryError traceback."""
        config = write_config(tmp_path, "[synth]\n" + lines + "\n")
        code = main(["generate", "--config", config, "--out", str(tmp_path / "d")])
        assert code == 1
        assert_one_line_error(
            capsys, f"usage error: num_classes x windows_per_class x window_len is {samples}"
        )

    def test_classes_above_the_class_limit(self, tmp_path, capsys):
        """A million one-sample classes fit under the sample limit; SynthSpec
        took seconds to check them one by one."""
        lines = "num_classes = 1000000\nwindows_per_class = 1\nwindow_len = 1"
        config = write_config(tmp_path, "[synth]\n" + lines + "\n")
        code = main(["generate", "--config", config, "--out", str(tmp_path / "d")])
        assert code == 1
        assert_one_line_error(
            capsys, f"usage error: num_classes is 1000000, above the limit of {MAX_SYNTH_CLASSES}"
        )


# A value other than the default for every field of each dataclass an INI
# section reads, so that a field the codec drops shows up as a default.
NON_DEFAULT = {
    ModelSpec: dict(
        kind="fusion", num_classes=4, input_len=500, conv_channels=(4, 5), conv_kernels=(3, 3),
        pool_sizes=(3, 2), ac_conv_channels=(6,), ac_conv_kernels=(9,), ac_pool_sizes=(5,),
        lstm_units=7, lstm_layers=1, dense_units=11,
    ),
    TrainConfig: dict(
        seed=5, split_ratio=0.7, batch_size=8, epochs=3, learning_rate=0.01, beta1=0.8,
        beta2=0.99, eps=1e-6, split_granularity="file",
    ),
    SynthSpec: dict(
        num_classes=3, windows_per_class=4, seed=9, sample_rate_hz=8000.0, window_len=300,
        base_repetition_hz=40.0, repetition_step_hz=11.0, impulse_amplitude=2.0, decay_s=0.004,
        vib_resonance_base_hz=100.0, vib_resonance_step_hz=50.0, ac_resonance_base_hz=900.0,
        ac_resonance_step_hz=70.0, vib_noise_sigma=0.25, ac_noise_sigma=0.75,
        class_names=("a", "b", "c"),
    ),
}


@pytest.mark.parametrize(
    "section,cls", [("model", ModelSpec), ("train", TrainConfig), ("synth", SynthSpec)]
)
def test_every_field_reads_from_its_section(tmp_path, section, cls):
    values = NON_DEFAULT[cls]
    lines = [f"[{section}]"]
    for f in dataclasses.fields(cls):
        assert f.name in values, f"NON_DEFAULT[{cls.__name__}] lacks {f.name}"
        default = f.default if f.default_factory is dataclasses.MISSING else f.default_factory()
        value = values[f.name]
        assert value != default, f.name
        text = ",".join(map(str, value)) if isinstance(value, tuple) else value
        lines.append(f"{f.name} = {text}")
    parsed = _section(_read_config(write_config(tmp_path, "\n".join(lines) + "\n")), section, cls)
    for f in dataclasses.fields(cls):
        assert getattr(parsed, f.name) == values[f.name], f.name


def test_every_model_field_survives_the_weight_file(tmp_path):
    spec = ModelSpec(**NON_DEFAULT[ModelSpec])
    save_model(build_model(spec, Rng(0)), tmp_path / "m.fmdl")
    assert load_model(tmp_path / "m.fmdl").spec == spec


class TestEvaluate:
    def test_reproduces_training_validation_accuracy(self, tmp_path, capsys):
        config = write_config(tmp_path, TINY_TRAIN)
        out = tmp_path / "run"
        assert main(["train", "--config", config, "--out", str(out)]) == 0
        report_lines = (out / "train_report.txt").read_text().splitlines()
        epoch_rows = []
        for line in report_lines[1:]:  # epoch table ends at the first blank line
            if not line.strip():
                break
            epoch_rows.append(line)
        trained_val_acc = float(epoch_rows[-1].split()[-1])
        capsys.readouterr()
        code = main(
            ["evaluate", str(out / "model.fmdl"), "--config", config,
             "--out", str(tmp_path / "eval")]
        )
        assert code == 0
        stdout = capsys.readouterr().out
        line = [l for l in stdout.splitlines() if l.startswith("validation accuracy")][0]
        assert float(line.split()[-1]) == pytest.approx(trained_val_acc, abs=1e-4)
        assert (tmp_path / "eval" / "evaluate_metrics.txt").exists()
        assert (tmp_path / "eval" / "evaluate_metrics.csv").exists()

    def test_class_count_mismatch(self, tmp_path, capsys):
        config = write_config(tmp_path, TINY_TRAIN)
        out = tmp_path / "run"
        assert main(["train", "--config", config, "--out", str(out)]) == 0
        wrong = write_config(
            tmp_path, TINY_TRAIN.replace("num_classes = 3", "num_classes = 4"), "wrong.ini"
        )
        code = main(["evaluate", str(out / "model.fmdl"), "--config", wrong])
        assert code == 2
        assert "classes" in capsys.readouterr().err

    def test_missing_model_file(self, tmp_path):
        config = write_config(tmp_path, TINY_TRAIN)
        assert main(["evaluate", str(tmp_path / "nope.fmdl"), "--config", config]) == 2

    @pytest.mark.parametrize(
        "good,bad",
        [
            (b"kind=vibration_cnn", "kind=vibratión_cnn".encode("utf-8")),
            (b"tensor vib.0.kernels ", b"tensor vib.0.kernels 1 "),
            (b"num_classes=3", b"num_classes=three"),
            (b"num_classes=3", b"num_classes=1"),
        ],
        ids=["non_ascii", "malformed_tensor_line", "non_integer_field", "out_of_range_field"],
    )
    def test_corrupt_model_header_is_data_error(self, tmp_path, capsys, good, bad):
        path = tmp_path / "m.fmdl"
        save_model(build_model(small_spec(VIBRATION_CNN), Rng(0)), path)
        blob = path.read_bytes()
        assert blob.count(good) == 1
        path.write_bytes(blob.replace(good, bad))
        config = write_config(tmp_path, TINY_TRAIN)
        assert main(["evaluate", str(path), "--config", config]) == 2
        assert_one_line_error(capsys, f"data error: model file {path}: corrupt header")


class TestInfer:
    def _train(self, tmp_path, kind="vibration_cnn"):
        config = write_config(tmp_path, TINY_TRAIN)
        out = tmp_path / "run"
        assert main(["train", "--config", config, "--out", str(out), "--kind", kind]) == 0
        gen_config = write_config(tmp_path, TINY_SYNTH, "gen.ini")
        data_dir = tmp_path / "dataset"
        assert main(["generate", "--config", gen_config, "--out", str(data_dir)]) == 0
        vib = sorted(data_dir.glob("*vibration.f32"))[0]
        ac = sorted(data_dir.glob("*acoustic.f32"))[0]
        return out / "model.fmdl", vib, ac

    def test_posteriors_printed(self, tmp_path, capsys):
        model, vib, _ = self._train(tmp_path)
        capsys.readouterr()
        assert main(["infer", str(model), "--vibration", str(vib)]) == 0
        out = capsys.readouterr().out
        assert out.startswith("predicted: ")
        probs = [float(l.split(":")[1]) for l in out.splitlines()[1:]]
        assert len(probs) == 3
        assert abs(sum(probs) - 1.0) < 5e-4  # 4-decimal rounding

    def test_same_input_same_output(self, tmp_path, capsys):
        model, vib, _ = self._train(tmp_path)
        capsys.readouterr()
        assert main(["infer", str(model), "--vibration", str(vib)]) == 0
        first = capsys.readouterr().out
        assert main(["infer", str(model), "--vibration", str(vib)]) == 0
        assert capsys.readouterr().out == first

    def test_fusion_with_single_file_is_usage_error(self, tmp_path, capsys):
        model, vib, _ = self._train(tmp_path, kind="fusion")
        assert main(["infer", str(model), "--vibration", str(vib)]) == 1
        assert "--acoustic" in capsys.readouterr().err

    def test_fusion_with_both_files(self, tmp_path, capsys):
        model, vib, ac = self._train(tmp_path, kind="fusion")
        assert main(["infer", str(model), "--vibration", str(vib), "--acoustic", str(ac)]) == 0

    def test_huge_head_over_tiny_payload_is_data_error(self, tmp_path, capsys):
        path = tmp_path / "m.fmdl"
        huge_head_header(path)
        vib = tmp_path / "v.f32"
        vib.write_bytes(np.zeros(64, dtype="<f4").tobytes())
        assert main(["infer", str(path), "--vibration", str(vib)]) == 2
        assert_one_line_error(capsys, f"data error: truncated model file {path}")

    def test_non_utf8_csv_recording_is_data_error(self, tmp_path, capsys):
        model, _, _ = self._train(tmp_path)
        recording = tmp_path / "v.csv"
        recording.write_bytes(b"0.5\n1.\xff\n")
        capsys.readouterr()
        assert main(["infer", str(model), "--vibration", str(recording)]) == 2
        assert_one_line_error(capsys, f"data error: {recording}: not UTF-8 text")

    def test_short_file_is_data_error(self, tmp_path):
        model, vib, _ = self._train(tmp_path)
        short = tmp_path / "short.f32"
        short.write_bytes(np.zeros(10, dtype="<f4").tobytes())
        assert main(["infer", str(model), "--vibration", str(short)]) == 2

    def test_class_names_flag(self, tmp_path, capsys):
        model, vib, _ = self._train(tmp_path)
        capsys.readouterr()
        assert main(
            ["infer", str(model), "--vibration", str(vib), "--class-names", "a,b,c"]
        ) == 0
        assert capsys.readouterr().out.splitlines()[0].split(": ")[1] in {"a", "b", "c"}

    def test_class_names_count_mismatch(self, tmp_path):
        model, vib, _ = self._train(tmp_path)
        assert main(["infer", str(model), "--vibration", str(vib), "--class-names", "a,b"]) == 1


def test_numeric_failure_exits_3(tmp_path, monkeypatch, capsys):
    import faultfusion.cli as cli
    from faultfusion.errors import NumericError

    def diverge(*args, **kwargs):
        raise NumericError("epoch 1, batch 1: non-finite training loss")

    monkeypatch.setattr(cli, "fit", diverge)
    config = write_config(tmp_path, TINY_TRAIN)
    assert main(["train", "--config", config, "--out", str(tmp_path / "o")]) == 3
    assert "numeric failure" in capsys.readouterr().err


DIVERGING_TRAIN = """
    [model]
    kind = vibration_cnn
    conv_channels = 4
    conv_kernels = 5
    pool_sizes = 4
    dense_units = 8

    [train]
    epochs = 2
    batch_size = 16
    learning_rate = 1e12

    [synth]
    num_classes = 3
    windows_per_class = 20
    window_len = 200
"""


def test_diverging_training_prints_one_line(tmp_path, capsys):
    config = write_config(tmp_path, DIVERGING_TRAIN)
    assert main(["train", "--config", config, "--out", str(tmp_path / "o")]) == 3
    assert_one_line_error(capsys, "numeric failure: epoch 1, batch ")


def test_overflowing_weights_print_one_line(tmp_path, capsys):
    model = build_model(small_spec(VIBRATION_CNN), Rng(0))
    model.parameters()["head.0.weights"][...] = 1e308
    path = tmp_path / "m.fmdl"
    save_model(model, path)
    vib = tmp_path / "v.f32"
    vib.write_bytes(Rng(1).normal(64).astype("<f4").tobytes())
    assert main(["infer", str(path), "--vibration", str(vib)]) == 3
    assert_one_line_error(capsys, "numeric failure: ")


def _mutated(blob: bytes, rng: Rng) -> bytes:
    """blob with 1-3 edits, each flipping, deleting or inserting one byte."""
    out = bytearray(blob)
    for _ in range(1 + int(rng.uniform() * 3)):
        op, at = int(rng.uniform() * 3), int(rng.uniform() * len(out))
        byte = int(rng.uniform() * 256)
        if op == 0:
            out[at] ^= byte or 0xFF
        elif op == 1:
            del out[at]
        else:
            out.insert(at, byte)
    return bytes(out)


def test_mutated_inputs_keep_the_exit_contract(tmp_path, capsys):
    """300 seeded mutations of a model, two recordings and a manifest: main
    returns 0-3, a failure prints one stderr line, and nothing warns."""
    data = tmp_path / "data"
    synth = "[synth]\nnum_classes = 3\nwindows_per_class = 2\nwindow_len = 64\n"
    assert main(["generate", "--config", write_config(tmp_path, synth), "--out", str(data)]) == 0
    model = tmp_path / "m.fmdl"
    save_model(build_model(small_spec(VIBRATION_CNN), Rng(0)), model)
    samples = Rng(1).normal(70)
    bases = {
        "m.fmdl": model.read_bytes(),
        "v.f32": samples.astype("<f4").tobytes(),
        "v.csv": "".join(f"{v:.6f}\n" for v in samples).encode(),
        "manifest.csv": (data / "manifest.csv").read_bytes(),
    }
    for name, blob in bases.items():
        (tmp_path / name).write_bytes(blob)
    out = str(tmp_path / "o")
    argv = {
        "m.fmdl": ["infer", str(tmp_path / "m.fmdl"), "--vibration", str(tmp_path / "v.f32")],
        "v.f32": ["infer", str(model), "--vibration", str(tmp_path / "v.f32")],
        "v.csv": ["infer", str(model), "--vibration", str(tmp_path / "v.csv")],
        "manifest.csv": ["evaluate", str(model), "--manifest", str(data / "manifest.csv"),
                         "--out", out],
    }
    targets = {**{n: tmp_path / n for n in bases}, "manifest.csv": data / "manifest.csv"}
    capsys.readouterr()
    for name in bases:  # every base file is valid input
        assert main(argv[name]) == 0, capsys.readouterr().err
    capsys.readouterr()
    rng = Rng(2024)
    codes = []
    for case in range(300):
        name = list(bases)[case % len(bases)]
        targets[name].write_bytes(_mutated(bases[name], rng))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(argv[name])
        err = capsys.readouterr().err
        assert code in (0, 1, 2, 3), (case, name)
        if code:
            assert err.count("\n") == 1 and "Traceback" not in err, (case, name, err)
        else:
            assert err == "", (case, name, err)
        codes.append(code)
        targets[name].write_bytes(bases[name])
    assert codes.count(0) and codes.count(2), codes  # mutations both pass and fail


def test_numpy_is_the_only_runtime_dependency():
    """A fresh interpreter that imports the package and runs the CLI loads
    only the standard library, numpy and faultfusion."""
    script = textwrap.dedent(
        """
        import contextlib, io, sys
        before = set(sys.modules)
        import faultfusion
        from faultfusion.cli import main
        with contextlib.redirect_stdout(io.StringIO()), contextlib.suppress(SystemExit):
            main(["--version"])
        top = {name.partition(".")[0] for name in set(sys.modules) - before}
        print(sorted(top - set(sys.stdlib_module_names) - {"numpy", "faultfusion"}))
        """
    )
    src = os.path.dirname(os.path.dirname(faultfusion.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"
