import dataclasses
import hashlib
import tracemalloc
import warnings

import numpy as np
import pytest

from faultfusion.data import (
    AC_ONLY,
    ACOUSTIC,
    MAX_SYNTH_CLASSES,
    MAX_SYNTH_SAMPLES,
    PAIRED,
    VIB_ONLY,
    Manifest,
    Recording,
    SynthSpec,
    VIBRATION,
    build_dataset,
    default_class_names,
    load_recording,
    normalize_window,
    read_manifest,
    segment,
    synth_dataset,
    synth_recording,
    write_manifest,
)
from faultfusion.errors import ConfigError, DataError
from faultfusion.tensor import Rng


class TestLoadRecording:
    def test_csv_three_values(self, tmp_path):
        p = tmp_path / "r.csv"
        p.write_text("1.0\n2.0\n3.0\n")
        rec = load_recording(p)
        assert np.array_equal(rec.samples, [1.0, 2.0, 3.0])

    def test_csv_header_skipped(self, tmp_path):
        p = tmp_path / "r.csv"
        p.write_text("amplitude\n1.5\n-2.5\n")
        rec = load_recording(p)
        assert np.array_equal(rec.samples, [1.5, -2.5])

    def test_csv_unparseable_line_reports_number(self, tmp_path):
        p = tmp_path / "r.csv"
        p.write_text("1.0\n2.0\nbogus\n4.0\n")
        with pytest.raises(DataError, match="line 3"):
            load_recording(p)

    def test_empty_file(self, tmp_path):
        p = tmp_path / "r.csv"
        p.write_text("")
        with pytest.raises(DataError, match="empty"):
            load_recording(p)

    def test_nan_rejected(self, tmp_path):
        p = tmp_path / "r.csv"
        p.write_text("1.0\nnan\n")
        with pytest.raises(DataError, match="non-finite"):
            load_recording(p)

    def test_raw_f32le_twelve_bytes(self, tmp_path):
        p = tmp_path / "r.f32"
        p.write_bytes(np.array([0.5, -1.5, 2.0], dtype="<f4").tobytes())
        rec = load_recording(p)
        assert rec.samples.shape == (3,)
        assert np.array_equal(rec.samples, [0.5, -1.5, 2.0])

    def test_raw_partial_value(self, tmp_path):
        p = tmp_path / "r.f32"
        p.write_bytes(b"\x00" * 10)
        with pytest.raises(DataError, match="float32"):
            load_recording(p)

    @pytest.mark.parametrize("name", ["r.csv", "r.f32", "r.dat", "r.csv.f32"])
    def test_name_picks_the_format(self, tmp_path, name):
        p = tmp_path / name
        p.write_bytes(b"1.0\n")  # the text 1.0, or the bytes of one float32
        as_raw = float(np.frombuffer(b"1.0\n", dtype="<f4")[0])
        assert load_recording(p).samples.tolist() == [1.0 if name.endswith(".csv") else as_raw]

    def test_signaling_nan_is_data_error_without_warning(self, tmp_path):
        p = tmp_path / "r.f32"
        p.write_bytes(np.array([0x3F800000, 0x7F800001], dtype="<u4").tobytes())
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DataError, match="non-finite sample"):
                load_recording(p)


class TestSegment:
    def test_table_arithmetic_420k_samples(self):
        rec = Recording(samples=np.zeros(420_000))
        assert segment(rec, 1000).shape == (420, 1000, 1)

    def test_exactly_one_window(self):
        rec = Recording(samples=np.arange(1000.0))
        out = segment(rec, 1000)
        assert out.shape == (1, 1000, 1)

    def test_remainder_dropped(self):
        rec = Recording(samples=np.zeros(1999))
        assert segment(rec, 1000).shape[0] == 1

    def test_too_short(self):
        rec = Recording(samples=np.zeros(999), source_id="short")
        with pytest.raises(DataError, match="short"):
            segment(rec, 1000)

    def test_concatenation_reconstructs_prefix(self):
        samples = Rng(0).normal(4321)
        rec = Recording(samples=samples)
        wins = segment(rec, 100)
        rebuilt = wins[:, :, 0].reshape(-1)
        assert np.array_equal(rebuilt, samples[: 43 * 100])

    def test_windows_never_overlap(self):
        rec = Recording(samples=np.arange(2000.0))
        wins = segment(rec, 500)
        assert wins.shape == (4, 500, 1)
        assert np.array_equal(wins.reshape(-1), np.arange(2000.0))

    @pytest.mark.parametrize("window_len", [0, -5], ids=["window_0", "window_negative"])
    def test_window_or_hop_below_one_is_data_error(self, window_len):
        rec = Recording(samples=np.zeros(300))
        with pytest.raises(DataError, match=f"window_len must be >= 1, got {window_len}$"):
            segment(rec, window_len)


def _two_pass_normalize(w):
    """The z-score as two numpy passes, np.mean then np.std, kept as an oracle."""
    if w.ndim <= 2:
        return (w - w.mean()) / max(w.std(), 1e-8)
    axes = tuple(range(1, w.ndim))
    std = w.std(axis=axes, keepdims=True)
    return (w - w.mean(axis=axes, keepdims=True)) / np.maximum(std, 1e-8)


class TestNormalize:
    @pytest.mark.parametrize(
        "shape", [(29, 1000, 1), (200, 1000, 1), (1000, 1), (1000,), (5, 7, 3), (1, 1000, 1)]
    )
    def test_bytes_equal_two_pass_formula(self, shape):
        rng = Rng(6)
        fortran = np.asfortranarray(rng.normal(shape))
        for w in (rng.normal(shape) * 3.0 + 2.0, np.full(shape, 7.0), fortran):
            expected = _two_pass_normalize(w)
            z = normalize_window(w)
            assert z.shape == expected.shape
            assert z.tobytes() == expected.tobytes()

    def test_constant_window_is_zeroed(self):
        assert not normalize_window(np.full((100, 1), 7.0)).any()

    def test_zero_mean_unit_std(self):
        w = Rng(1).normal((1000, 1))
        z = normalize_window(w)
        assert abs(z.mean()) < 1e-9
        assert abs(z.std() - 1.0) < 1e-6

    def test_positive_scale_invariance(self):
        w = Rng(2).normal((500, 1))
        assert np.abs(normalize_window(3.7 * w) - normalize_window(w)).max() < 1e-9

    def test_idempotent(self):
        w = Rng(3).normal((500, 1))
        z = normalize_window(w)
        assert np.abs(normalize_window(z) - z).max() < 1e-9

    def test_batch_normalizes_per_window(self):
        batch = np.stack([np.full((50, 1), 5.0), Rng(4).normal((50, 1))])
        z = normalize_window(batch)
        assert not z[0].any()
        assert abs(z[1].mean()) < 1e-9


def _write_pair(tmp_path, class_name, pair_key, n=350, seed=0):
    """One csv vibration file and one raw acoustic file with shared length."""
    rng = Rng(seed)
    vib = rng.normal(n)
    ac = rng.normal(n)
    vp = tmp_path / f"{pair_key}_vib.csv"
    vp.write_text("".join(f"{float(v)!r}\n" for v in vib))
    ap = tmp_path / f"{pair_key}_ac.f32"
    ap.write_bytes(ac.astype("<f4").tobytes())
    return [
        {"file_path": vp.name, "modality": VIBRATION, "label_name": class_name, "pair_key": pair_key},
        {"file_path": ap.name, "modality": ACOUSTIC, "label_name": class_name, "pair_key": pair_key},
    ]


class TestManifest:
    def test_write_read_roundtrip(self, tmp_path):
        rows = _write_pair(tmp_path, "healthy", "p0") + _write_pair(tmp_path, "faulty", "p1", seed=1)
        path = tmp_path / "manifest.csv"
        write_manifest(Manifest(rows=rows, class_names=["healthy", "faulty"]), path)
        m = read_manifest(path)
        assert m.class_names == ["healthy", "faulty"]  # first-appearance order
        assert len(m.rows) == 4
        assert m.base_dir == str(tmp_path)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "manifest.csv"
        path.write_text("path,kind\nx,y\n")
        with pytest.raises(DataError, match="header"):
            read_manifest(path)

    def test_bad_modality(self, tmp_path):
        path = tmp_path / "manifest.csv"
        path.write_text("file_path,modality,label_name,pair_key\nf.csv,thermal,a,p0\n")
        with pytest.raises(DataError, match="modality"):
            read_manifest(path)


class TestBuildDataset:
    def _manifest(self, tmp_path):
        rows = _write_pair(tmp_path, "healthy", "p0") + _write_pair(tmp_path, "faulty", "p1", seed=1)
        path = tmp_path / "manifest.csv"
        write_manifest(Manifest(rows=rows, class_names=["healthy", "faulty"]), path)
        return read_manifest(path)

    def test_paired_counts(self, tmp_path):
        ds = build_dataset(self._manifest(tmp_path), PAIRED, window_len=100)
        assert len(ds) == 6  # 2 pairs x floor(350 / 100)
        assert ds.vib.shape == (6, 100, 1) and ds.ac.shape == (6, 100, 1)
        assert sorted(ds.labels.tolist()) == [0, 0, 0, 1, 1, 1]

    def test_window_count_independent_of_mode(self, tmp_path):
        m = self._manifest(tmp_path)
        assert (
            len(build_dataset(m, VIB_ONLY, window_len=100))
            == len(build_dataset(m, PAIRED, window_len=100))
            == 6
        )

    def test_missing_pair_member_names_key(self, tmp_path):
        rows = _write_pair(tmp_path, "healthy", "p0")
        rows += _write_pair(tmp_path, "faulty", "p1", seed=1)[:1]  # drop acoustic of p1
        path = tmp_path / "manifest.csv"
        write_manifest(Manifest(rows=rows, class_names=["healthy", "faulty"]), path)
        with pytest.raises(DataError, match="p1"):
            build_dataset(read_manifest(path), PAIRED, window_len=100)

    def test_conflicting_pair_labels(self, tmp_path):
        rows = _write_pair(tmp_path, "healthy", "p0")
        rows[1]["label_name"] = "faulty"
        path = tmp_path / "manifest.csv"
        write_manifest(Manifest(rows=rows, class_names=["healthy", "faulty"]), path)
        with pytest.raises(DataError, match="conflicting"):
            build_dataset(read_manifest(path), PAIRED, window_len=100)

    def test_paired_windows_cover_identical_ranges(self, tmp_path):
        m = self._manifest(tmp_path)
        ds = build_dataset(m, PAIRED, window_len=100, normalize=False)
        vib_file = tmp_path / "p0_vib.csv"
        raw = np.array([float(line) for line in vib_file.read_text().splitlines()])
        assert np.array_equal(ds.vib[1, :, 0], raw[100:200])

    def test_no_rows_for_modality(self, tmp_path):
        rows = _write_pair(tmp_path, "healthy", "p0")[1:]  # acoustic only
        path = tmp_path / "manifest.csv"
        write_manifest(Manifest(rows=rows, class_names=["healthy"]), path)
        with pytest.raises(DataError, match="vibration"):
            build_dataset(read_manifest(path), VIB_ONLY, window_len=100)


class TestBuildDatasetGoldenDigests:
    """Every array, label, source id and the mode, pinned in each mode.

    The first two pairs' vibration and acoustic files differ in length, so a
    pair keeps the window count both cover; the last has an empty pair_key, so its
    paired windows have source id "" and its single-sensor windows the file's
    path (hashed relative to the manifest's directory).
    """

    @staticmethod
    def _manifest(tmp_path):
        rows = []
        lengths = [("p0", 350, 420), ("p1", 530, 260), ("", 400, 400)]
        for c, (key, n_vib, n_ac) in enumerate(lengths):
            rows += _write_pair(tmp_path, f"class{c}", key or "nokey", n=n_vib, seed=c)
            rows[-2]["pair_key"] = rows[-1]["pair_key"] = key
            ac = Rng(10 + c).normal(n_ac)
            (tmp_path / rows[-1]["file_path"]).write_bytes(ac.astype("<f4").tobytes())
        path = tmp_path / "manifest.csv"
        write_manifest(Manifest(rows=rows, class_names=["class0", "class1", "class2"]), path)
        return read_manifest(path)

    @pytest.mark.parametrize(
        "mode,normalize,digest",
        [
            (VIB_ONLY, True, "e288e023e0369bdbd1f2efe8f97cbe5243ec23f59c93fe79b359d052bdaf04d2"),
            (VIB_ONLY, False, "f6a68c4895cae0c44e9e93771ffaf106e64ce89bd67ef75877b678646fdb61a1"),
            (AC_ONLY, True, "b78a4a35190cc8c3ec90e2d163500c768b735020a2baa10bb5c356a5944fac93"),
            (AC_ONLY, False, "ebfa3fc8051dd499825a2fc162e6cc01710b76bf267b0519cdd8fd4e1f4d71dd"),
            (PAIRED, True, "afc8052718146d2fa72f7552d98e46d102cab8cc074b3f4b14eac8b224261990"),
            (PAIRED, False, "87705365f657f5296d049a6c5d4ecd72be6393b1ade95072e3aca200add89574"),
        ],
        ids=["vib_only", "vib_only_raw", "ac_only", "ac_only_raw", "paired", "paired_raw"],
    )
    def test_dataset(self, tmp_path, mode, normalize, digest):
        ds = build_dataset(self._manifest(tmp_path), mode, window_len=100, normalize=normalize)
        ids = "\n".join(s.replace(str(tmp_path), "<dir>") for s in ds.source_ids)
        blob = b"".join(
            x.tobytes() if x is not None else b"-" for x in (ds.vib, ds.ac, ds.labels)
        )
        blob += ids.encode() + ds.mode.encode()
        assert hashlib.sha256(blob).hexdigest() == digest


class TestSynthRecording:
    def test_zero_amplitude_zero_noise_is_silent(self):
        spec = SynthSpec(windows_per_class=2, impulse_amplitude=0.0,
                         vib_noise_sigma=0.0, ac_noise_sigma=0.0)
        rec = synth_recording(0, spec, Rng(0), VIBRATION)
        assert not rec.samples.any()

    def test_same_seed_identical(self):
        spec = SynthSpec(windows_per_class=3)
        a = synth_recording(2, spec, Rng(5), ACOUSTIC)
        b = synth_recording(2, spec, Rng(5), ACOUSTIC)
        assert np.array_equal(a.samples, b.samples)

    def test_bad_class(self):
        with pytest.raises(DataError, match="class_id"):
            synth_recording(9, SynthSpec(), Rng(0), VIBRATION)

    def test_first_burst_jittered_before_sample_zero(self):
        # seed 558 draws a phase + jitter whose first impulse starts at a
        # negative sample; the burst must be truncated, not wrapped
        spec = SynthSpec(num_classes=2, windows_per_class=2, window_len=500)
        rec = synth_recording(0, spec, Rng(558), VIBRATION)
        assert rec.samples.shape == (1000,)
        assert np.isfinite(rec.samples).all()

    def test_first_burst_ending_before_sample_zero(self):
        # at 0.01 Hz the jitter spans 256 decay tails; seed 689 draws a first
        # burst that ends before sample 0, and it must leave x untouched
        spec = SynthSpec(num_classes=2, windows_per_class=20, window_len=100,
                         base_repetition_hz=0.01, vib_noise_sigma=0.0)
        assert not synth_recording(0, spec, Rng(689), VIBRATION).samples.any()

    def test_first_burst_before_sample_zero_with_a_decay_past_the_recording(self):
        # at 1e-9 Hz the period is 4.2e13 samples, and seed 689 starts the
        # first burst 1.4e10 samples before sample 0; with decay_s = 1e12 it
        # still covers all of x, which takes its values from the burst's own
        # clipped span, not from a tail as long as the jitter
        spec = SynthSpec(num_classes=2, windows_per_class=20, window_len=100,
                         decay_s=1e12, base_repetition_hz=1e-9, vib_noise_sigma=0.0)
        tracemalloc.start()
        try:
            x = synth_recording(0, spec, Rng(689), VIBRATION).samples
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20, peak
        rng = Rng(689)
        period = spec.sample_rate_hz / spec.repetition_hz(0)
        start = round(rng.uniform() * period + (rng.uniform() - 0.5) * 0.02 * period)
        amp = spec.impulse_amplitude * (0.8 + 0.4 * rng.uniform())
        assert start == -14042890845
        t = (np.arange(x.size) - start) / spec.sample_rate_hz
        f_res = spec.resonance_hz(0, VIBRATION)
        expected = amp * np.exp(-t / spec.decay_s) * np.sin(2 * np.pi * f_res * t)
        assert np.allclose(x, expected, rtol=0, atol=1e-6)

    @pytest.mark.parametrize("class_id", [0, 2])
    def test_burst_count_matches_repetition_rate(self, class_id):
        # one second of clean signal; bursts counted by threshold crossings
        # separated by a quiet gap (independent of the generator internals)
        spec = SynthSpec(windows_per_class=42, vib_noise_sigma=0.0,
                         ac_noise_sigma=0.0, decay_s=0.001)
        rec = synth_recording(class_id, spec, Rng(7), VIBRATION)
        x = np.abs(rec.samples)
        threshold = 0.4 * x.max()
        above = np.flatnonzero(x > threshold)
        gap = int(0.003 * spec.sample_rate_hz)  # 3 ms of silence ends a burst
        bursts = 1 + int((np.diff(above) > gap).sum())
        expected = spec.repetition_hz(class_id)
        assert abs(bursts - expected) <= 1


# SHA-256 digests of the generator's output, computed with the scalar
# per-impulse generator (three uniform() calls and one slice add per impulse)
# that the block-drawn one must reproduce bit for bit. A recording
# digest covers its samples, then the next uniform of its stream, so a
# generator that ends its draws one early or late fails it too.
GOLDEN_RECORDINGS = [
    # id, SynthSpec fields, class, seed, modality, digest
    ("defaults_overlapping_bursts", {}, 8, 3, VIBRATION,
     "9bb2dddf7275f23e8092c939a08bee9122fac13939bdfb7de9384f9d025246c0"),
    ("defaults_acoustic", {}, 0, 4, ACOUSTIC,
     "c2f9ea4526b52e426463a4d97c037855aefeb07867471bdef79651ab84caa21f"),
    ("sigma_0", dict(windows_per_class=20, vib_noise_sigma=0.0, ac_noise_sigma=0.0), 4, 5,
     ACOUSTIC, "c4065d42f4b0fdae948339ec46e097beaefdf9d16bcd00b242e93064112135ca"),
    ("one_sample_period", dict(num_classes=1, windows_per_class=4, window_len=250,
                               sample_rate_hz=1000.0, base_repetition_hz=1000.0), 0, 6,
     VIBRATION, "594382c72f8012429950f5de1f59455455c352a8c771c04e05960d8edf185e56"),
    ("negative_start_seed_558", dict(num_classes=2, windows_per_class=2, window_len=500), 0,
     558, VIBRATION, "081bfe86482cf41f735c6672bda146ffd5038684c6b33b7d834eeacf360ce928"),
    ("slow_rate_seed_689", dict(num_classes=2, windows_per_class=20, window_len=100,
                                base_repetition_hz=0.01, vib_noise_sigma=0.0), 0, 689,
     VIBRATION, "be836492678a4e6fbc56c3fc43499589b4a4420241145f00805f246fd7d5bbe5"),
    ("decay_past_the_recording_seed_689",
     dict(num_classes=2, windows_per_class=20, window_len=100, decay_s=1e12,
          base_repetition_hz=1e-9, vib_noise_sigma=0.0), 0, 689, VIBRATION,
     "1fa28d9f26a546561ccb7552eac2733ccfb62b958786c253e344f749984c4548"),
    # a one-sample period with 2001-tap and with 901-tap bursts
    ("dense_long_bursts", dict(num_classes=1, windows_per_class=20, window_len=100,
                               sample_rate_hz=1000.0, base_repetition_hz=1000.0, decay_s=1.0),
     0, 7, ACOUSTIC, "e59aee688cd69ec80e0606305b1e092ed4a2a8118942e0261b291f4c64f547fb"),
    ("dense_short_bursts", dict(num_classes=1, windows_per_class=200, window_len=100,
                                sample_rate_hz=1000.0, base_repetition_hz=1000.0, decay_s=0.15),
     0, 8, ACOUSTIC, "27293388aac1908c5db674b526a55799cc2a00da84cb79d085175cc5d8da1a1a"),
]


class TestSynthGoldenDigests:
    @pytest.mark.parametrize(
        "fields,class_id,seed,modality,digest",
        [case[1:] for case in GOLDEN_RECORDINGS],
        ids=[case[0] for case in GOLDEN_RECORDINGS],
    )
    def test_recording_and_the_next_draw(self, fields, class_id, seed, modality, digest):
        rng = Rng(seed)
        x = synth_recording(class_id, SynthSpec(**fields), rng, modality).samples
        after = np.float64(rng.uniform())
        assert hashlib.sha256(x.tobytes() + after.tobytes()).hexdigest() == digest

    @pytest.mark.parametrize(
        "fields,digest",
        [
            ({}, "786896690b67d2491412766291b543bb708bd18bec699329be3a3e8ce0569185"),
            (dict(num_classes=3, windows_per_class=5, seed=9, vib_noise_sigma=0.0,
                  ac_noise_sigma=0.0),
             "d602bf3599e0e89fcf5eaf4b739d376ea52c516ba2caaea35b64c414cfc42b42"),
        ],
        ids=["defaults", "sigma_0_seed_9"],
    )
    def test_dataset(self, fields, digest):
        ds = synth_dataset(SynthSpec(**fields))
        blob = ds.vib.tobytes() + ds.ac.tobytes() + ds.labels.tobytes()
        assert hashlib.sha256(blob).hexdigest() == digest

    def test_dense_overlap_draws_in_bounded_blocks(self):
        # 20001 impulses, one per sample, each a 901-tap burst: the draws come
        # a block of impulses at a time, and each burst is added on its own
        spec = SynthSpec(num_classes=1, windows_per_class=200, window_len=100,
                         sample_rate_hz=1000.0, base_repetition_hz=1000.0, decay_s=0.15)
        tracemalloc.start()
        try:
            synth_recording(0, spec, Rng(8), ACOUSTIC)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**21, peak


class TestSynthDataset:
    def test_counts_and_balance(self):
        spec = SynthSpec(num_classes=3, windows_per_class=4, window_len=500)
        ds = synth_dataset(spec)
        assert len(ds) == 12
        assert ds.mode == PAIRED
        for c in range(3):
            assert (ds.labels == c).sum() == 4

    def test_bit_identical_across_calls(self):
        spec = SynthSpec(num_classes=2, windows_per_class=3, window_len=500)
        a, b = synth_dataset(spec), synth_dataset(spec)
        assert np.array_equal(a.vib, b.vib)
        assert np.array_equal(a.ac, b.ac)

    def test_different_seeds_differ(self):
        a = synth_dataset(SynthSpec(num_classes=2, windows_per_class=2, window_len=500, seed=0))
        b = synth_dataset(SynthSpec(num_classes=2, windows_per_class=2, window_len=500, seed=1))
        assert (a.vib != b.vib).any()

    def test_vibration_snr_exceeds_acoustic_snr(self):
        spec = SynthSpec(num_classes=2, windows_per_class=10)
        clean = dataclasses.replace(spec, vib_noise_sigma=0.0, ac_noise_sigma=0.0)
        root_a, root_b = Rng(spec.seed), Rng(spec.seed)
        snr = {}
        for modality, tag in ((VIBRATION, 0), (ACOUSTIC, 1)):
            noisy = synth_recording(0, spec, root_a.derive(tag), modality).samples
            signal = synth_recording(0, clean, root_b.derive(tag), modality).samples
            noise = noisy - signal
            snr[modality] = signal.var() / noise.var()
        assert snr[VIBRATION] > snr[ACOUSTIC]

    def test_default_sigma_relation(self):
        spec = SynthSpec()
        assert spec.ac_noise_sigma == 2 * spec.vib_noise_sigma

    def test_class_name_defaults(self):
        assert default_class_names(9)[0] == "Healthy"
        assert default_class_names(8) == [f"Class {i}" for i in range(1, 9)]
        assert len(SynthSpec(num_classes=8).class_names) == 8


class TestSynthSpecValidation:
    def test_zero_classes(self):
        with pytest.raises(ConfigError):
            SynthSpec(num_classes=0)

    def test_zero_repetition_step(self):
        with pytest.raises(ConfigError, match="distinct"):
            SynthSpec(repetition_step_hz=0.0)

    def test_negative_sigma(self):
        with pytest.raises(ConfigError, match="sigma"):
            SynthSpec(vib_noise_sigma=-1.0)

    def test_non_finite_impulse_period(self):
        # 1e300 / 1e-10 overflows: class 0 would repeat every inf samples
        with pytest.raises(ConfigError, match="class 0 repeats every inf samples"):
            SynthSpec(sample_rate_hz=1e300, base_repetition_hz=1e-10)

    def test_impulse_period_below_one_sample(self):
        # synth_recording would loop about f_rep / fs times per sample
        with pytest.raises(ConfigError, match="class 0 repeats every 1e-06 samples"):
            SynthSpec(sample_rate_hz=1000.0, base_repetition_hz=1e9)
        # one sample exactly is the shortest period allowed
        SynthSpec(num_classes=1, sample_rate_hz=1000.0, base_repetition_hz=1000.0)

    @pytest.mark.parametrize(
        "sizes", [(10**12, 1, 1), (2, 10**12, 1000), (2, 4096, 2049)],
        ids=["classes", "windows", "just_over"],
    )
    def test_sample_limit(self, sizes):
        num_classes, windows, window_len = sizes
        with pytest.raises(ConfigError, match=f"above the limit of {MAX_SYNTH_SAMPLES}"):
            SynthSpec(num_classes=num_classes, windows_per_class=windows, window_len=window_len)
        SynthSpec(num_classes=2, windows_per_class=4096, window_len=2048)  # at the limit

    def test_class_limit(self):
        # checked before the per-class loop: at a million classes that loop
        # took seconds
        too_many = MAX_SYNTH_CLASSES + 1
        for num_classes in (too_many, 10**6):
            with pytest.raises(ConfigError, match=f"num_classes is {num_classes}, above the limit"):
                SynthSpec(num_classes=num_classes, windows_per_class=1, window_len=1)
        spec = SynthSpec(num_classes=MAX_SYNTH_CLASSES, windows_per_class=1, window_len=1,
                         repetition_step_hz=0.001)
        assert len(spec.class_names) == MAX_SYNTH_CLASSES

    def test_default_set_is_far_inside_the_sample_limit(self):
        spec = SynthSpec()
        assert spec.num_classes * spec.windows_per_class * spec.window_len * 9 < MAX_SYNTH_SAMPLES
