import dataclasses
import textwrap

import numpy as np
import pytest
from conftest import huge_head_header

from faultfusion.cli import _read_config, _section, main
from faultfusion.data import SynthSpec, read_manifest
from faultfusion.model import (
    VIBRATION_CNN,
    ModelSpec,
    build_model,
    load_model,
    save_model,
    small_spec,
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
        "section,cls", [("model", "ModelSpec"), ("train", "TrainConfig"), ("synth", "SynthSpec")]
    )
    def test_unknown_section_key_is_usage_error(self, tmp_path, capsys, section, cls):
        config = write_config(
            tmp_path, TINY_TRAIN.replace(f"[{section}]", f"[{section}]\n    learnig_rate = 0.5")
        )
        assert main(["train", "--config", config, "--out", str(tmp_path / "r")]) == 1
        assert_one_line_error(
            capsys, f"usage error: [{section}] learnig_rate: unknown key, not a {cls} field"
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
        raise NumericError("non-finite training loss at epoch 1")

    monkeypatch.setattr(cli, "fit", diverge)
    config = write_config(tmp_path, TINY_TRAIN)
    assert main(["train", "--config", config, "--out", str(tmp_path / "o")]) == 3
    assert "numeric failure" in capsys.readouterr().err
