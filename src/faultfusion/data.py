"""Sensor recordings: file ingestion, windowing, normalization, pairing of
vibration/acoustic channels, and a deterministic synthetic fault dataset.

A window is a contiguous [window_len, 1] slice of one recording; paired
windows with the same index always cover identical sample ranges of the two
pair-key-matched recordings. Synthetic recordings are decaying-impulse
trains: each class repeats impulses at its own rate, each impulse excites a
modality-specific resonance, and the acoustic channel is noisier by default.
"""

from __future__ import annotations

import csv
import io
import os
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DataError, ShapeError
from .tensor import DTYPE, Rng

VIBRATION = "vibration"
ACOUSTIC = "acoustic"
MODALITIES = (VIBRATION, ACOUSTIC)

VIB_ONLY = "vib_only"
AC_ONLY = "ac_only"
PAIRED = "paired"
# The mode of a dataset holding windows for exactly these model branches
# (WindowedDataset attributes), in model feature order.
BRANCH_MODES = {("vib",): VIB_ONLY, ("ac",): AC_ONLY, ("vib", "ac"): PAIRED}

DEFAULT_WINDOW_LEN = 1000
DEFAULT_SAMPLE_RATE = 42000.0

MANIFEST_HEADER = ["file_path", "modality", "label_name", "pair_key"]

BEARING_CLASS_NAMES = [
    "Healthy",
    "Inner-1",
    "Inner-2",
    "Outer-1",
    "Outer-2",
    "Ball-1",
    "Ball-2",
    "Cage-1",
    "Cage-2",
]


def default_class_names(num_classes: int) -> list[str]:
    if num_classes == len(BEARING_CLASS_NAMES):
        return list(BEARING_CLASS_NAMES)
    return [f"Class {i + 1}" for i in range(num_classes)]


@dataclass
class Recording:
    """One labeled single-channel sensor capture."""

    samples: np.ndarray
    sample_rate_hz: float = DEFAULT_SAMPLE_RATE
    label: int = 0
    modality: str = VIBRATION
    source_id: str = ""

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=DTYPE).reshape(-1)
        if self.sample_rate_hz <= 0:
            raise DataError(f"sample rate must be positive, got {self.sample_rate_hz}")
        if self.modality not in MODALITIES:
            raise DataError(f"unknown modality {self.modality!r}")


def load_recording(
    path: str | os.PathLike,
    fmt: str,
    *,
    label: int = 0,
    modality: str = VIBRATION,
    sample_rate_hz: float = DEFAULT_SAMPLE_RATE,
    source_id: str | None = None,
) -> Recording:
    """Read a recording from disk.

    fmt "csv": one numeric value per line, an optional non-numeric header
    line is skipped. fmt "raw_f32le": little-endian IEEE-754 binary32, no
    header. Values are widened to float64.
    """
    path = os.fspath(path)
    if fmt == "csv":
        samples = _read_csv_samples(path)
    elif fmt == "raw_f32le":
        samples = _read_raw_f32le(path)
    else:
        raise DataError(f"unknown recording format {fmt!r} (expected csv or raw_f32le)")
    if samples.size == 0:
        raise DataError(f"empty recording file {path}")
    if not np.all(np.isfinite(samples)):
        raise DataError(f"non-finite sample in {path}")
    return Recording(
        samples=samples,
        sample_rate_hz=sample_rate_hz,
        label=label,
        modality=modality,
        source_id=source_id if source_id is not None else path,
    )


def _utf8_lines(fh, path: str):
    """The lines of a text file opened as UTF-8; DataError at the first byte
    that does not decode."""
    try:
        yield from fh
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text ({exc.reason})") from None


def recording_format(path: str) -> str:
    """The ``load_recording`` format of a file by its name: csv for .csv, else raw_f32le."""
    return "csv" if path.endswith(".csv") else "raw_f32le"


def _read_csv_samples(path: str) -> np.ndarray:
    values: list[float] = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(_utf8_lines(fh, path), start=1):
            text = line.strip()
            if not text:
                continue
            try:
                values.append(float(text))
            except ValueError:
                if lineno == 1:  # header line
                    continue
                raise DataError(f"{path}: unparseable value {text!r} on line {lineno}") from None
    return np.asarray(values, dtype=DTYPE)


def _read_raw_f32le(path: str) -> np.ndarray:
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) % 4 != 0:
        raise DataError(f"{path}: {len(blob)} bytes is not a whole number of float32 values")
    return np.frombuffer(blob, dtype="<f4").astype(DTYPE)


def segment(
    recording: Recording,
    window_len: int = DEFAULT_WINDOW_LEN,
    hop: int = DEFAULT_WINDOW_LEN,
) -> np.ndarray:
    """Consecutive [window_len, 1] windows; the trailing remainder is dropped.

    Returns an array of shape [num_windows, window_len, 1] with
    num_windows = floor((N - window_len) / hop) + 1.
    """
    x = recording.samples
    n = x.shape[0]
    if n < window_len:
        raise DataError(
            f"recording {recording.source_id!r}: {n} samples < window length {window_len}"
        )
    count = (n - window_len) // hop + 1
    out = np.empty((count, window_len, 1), dtype=DTYPE)
    for w in range(count):
        out[w, :, 0] = x[w * hop : w * hop + window_len]
    return out


def normalize_window(w: np.ndarray) -> np.ndarray:
    """Per-window z-score: (w - mean) / max(std, 1e-8).

    Accepts one window ([L] or [L, C]) or a batch [n, L, C]; statistics are
    taken per window over all its values.
    """
    w = np.asarray(w, dtype=DTYPE)
    if w.ndim <= 2:
        mean = w.mean()
        std = w.std()
        return (w - mean) / max(std, 1e-8)
    axes = tuple(range(1, w.ndim))
    mean = w.mean(axis=axes, keepdims=True)
    std = w.std(axis=axes, keepdims=True)
    return (w - mean) / np.maximum(std, 1e-8)


@dataclass
class WindowedDataset:
    """Labeled fixed-length windows, single- or dual-modality."""

    vib: np.ndarray | None
    ac: np.ndarray | None
    labels: np.ndarray
    source_ids: list[str]
    class_names: list[str]
    mode: str

    def __post_init__(self):
        self.labels = np.asarray(self.labels, dtype=np.int64)
        n = len(self.labels)
        if self.mode not in (VIB_ONLY, AC_ONLY, PAIRED):
            raise DataError(f"unknown dataset mode {self.mode!r}")
        if self.mode in (VIB_ONLY, PAIRED) and (self.vib is None or self.vib.shape[0] != n):
            raise ShapeError("vibration windows missing or miscounted")
        if self.mode in (AC_ONLY, PAIRED) and (self.ac is None or self.ac.shape[0] != n):
            raise ShapeError("acoustic windows missing or miscounted")
        if len(self.source_ids) != n:
            raise ShapeError("source_ids length mismatch")
        if n and (self.labels.min() < 0 or self.labels.max() >= len(self.class_names)):
            raise DataError("label outside class table")

    def __len__(self) -> int:
        return len(self.labels)

    @property
    def num_classes(self) -> int:
        return len(self.class_names)

    @property
    def window_len(self) -> int:
        arr = self.vib if self.vib is not None else self.ac
        return arr.shape[1]


@dataclass
class Manifest:
    """Rows describing recording files plus the class-name table."""

    rows: list[dict]
    class_names: list[str]
    base_dir: str = "."


def write_manifest(manifest: Manifest, path: str | os.PathLike) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(MANIFEST_HEADER)
    for row in manifest.rows:
        writer.writerow([row[k] for k in MANIFEST_HEADER])
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(buf.getvalue())


def read_manifest(path: str | os.PathLike) -> Manifest:
    """Parse the manifest CSV; class order is first appearance of label_name."""
    path = os.fspath(path)
    rows: list[dict] = []
    class_names: list[str] = []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(_utf8_lines(fh, path))
        header = next(reader, None)
        if header != MANIFEST_HEADER:
            raise DataError(f"{path}: expected header {','.join(MANIFEST_HEADER)}")
        for lineno, cells in enumerate(reader, start=2):
            if not cells:
                continue
            if len(cells) != len(MANIFEST_HEADER):
                raise DataError(f"{path}: line {lineno} has {len(cells)} columns, expected 4")
            row = dict(zip(MANIFEST_HEADER, cells))
            if row["modality"] not in MODALITIES:
                raise DataError(f"{path}: line {lineno}: unknown modality {row['modality']!r}")
            if row["label_name"] not in class_names:
                class_names.append(row["label_name"])
            rows.append(row)
    if not rows:
        raise DataError(f"{path}: manifest has no rows")
    return Manifest(rows=rows, class_names=class_names, base_dir=os.path.dirname(path) or ".")


def _load_row(manifest: Manifest, row: dict, sample_rate_hz: float) -> Recording:
    file_path = row["file_path"]
    if not os.path.isabs(file_path):
        file_path = os.path.join(manifest.base_dir, file_path)
    return load_recording(
        file_path,
        recording_format(file_path),
        label=manifest.class_names.index(row["label_name"]),
        modality=row["modality"],
        sample_rate_hz=sample_rate_hz,
        source_id=row["pair_key"] or file_path,
    )


def build_dataset(
    manifest: Manifest,
    mode: str,
    window_len: int = DEFAULT_WINDOW_LEN,
    hop: int | None = None,
    sample_rate_hz: float = DEFAULT_SAMPLE_RATE,
    normalize: bool = True,
) -> WindowedDataset:
    """Segment, normalize and label every manifest recording.

    In paired mode each pair_key must resolve to exactly one vibration and
    one acoustic file; paired windows are cut from identical sample ranges.
    """
    hop = window_len if hop is None else hop
    maybe_norm = normalize_window if normalize else (lambda w: w)

    if mode in (VIB_ONLY, AC_ONLY):
        want = VIBRATION if mode == VIB_ONLY else ACOUSTIC
        rows = [r for r in manifest.rows if r["modality"] == want]
        if not rows:
            raise DataError(f"manifest has no {want} rows")
        chunks, labels, sources = [], [], []
        for row in rows:
            rec = _load_row(manifest, row, sample_rate_hz)
            windows = maybe_norm(segment(rec, window_len, hop))
            chunks.append(windows)
            labels.extend([rec.label] * windows.shape[0])
            sources.extend([rec.source_id] * windows.shape[0])
        stacked = np.concatenate(chunks, axis=0)
        return WindowedDataset(
            vib=stacked if mode == VIB_ONLY else None,
            ac=stacked if mode == AC_ONLY else None,
            labels=np.asarray(labels),
            source_ids=sources,
            class_names=list(manifest.class_names),
            mode=mode,
        )

    if mode != PAIRED:
        raise DataError(f"unknown dataset mode {mode!r}")

    by_key: dict[str, dict[str, dict]] = {}
    for row in manifest.rows:
        slot = by_key.setdefault(row["pair_key"], {})
        if row["modality"] in slot:
            raise DataError(f"pair_key {row['pair_key']!r} has duplicate {row['modality']} rows")
        slot[row["modality"]] = row
    vib_chunks, ac_chunks, labels, sources = [], [], [], []
    for key, slot in by_key.items():
        if VIBRATION not in slot or ACOUSTIC not in slot:
            missing = ACOUSTIC if ACOUSTIC not in slot else VIBRATION
            raise DataError(f"pair_key {key!r} is missing its {missing} file")
        if slot[VIBRATION]["label_name"] != slot[ACOUSTIC]["label_name"]:
            raise DataError(f"pair_key {key!r} has conflicting labels")
        rec_v = _load_row(manifest, slot[VIBRATION], sample_rate_hz)
        rec_a = _load_row(manifest, slot[ACOUSTIC], sample_rate_hz)
        win_v = segment(rec_v, window_len, hop)
        win_a = segment(rec_a, window_len, hop)
        n = min(win_v.shape[0], win_a.shape[0])  # identical sample ranges
        vib_chunks.append(maybe_norm(win_v[:n]))
        ac_chunks.append(maybe_norm(win_a[:n]))
        labels.extend([rec_v.label] * n)
        sources.extend([key] * n)
    return WindowedDataset(
        vib=np.concatenate(vib_chunks, axis=0),
        ac=np.concatenate(ac_chunks, axis=0),
        labels=np.asarray(labels),
        source_ids=sources,
        class_names=list(manifest.class_names),
        mode=PAIRED,
    )


@dataclass(frozen=True)
class SynthSpec:
    """Parameters of the synthetic multi-sensor fault dataset.

    Each class c repeats impulses at repetition_hz(c); impulses excite a
    decaying modality-specific resonance. The acoustic channel defaults to
    double the vibration noise, keeping it the weaker modality.
    """

    num_classes: int = 9
    windows_per_class: int = 200
    seed: int = 0
    sample_rate_hz: float = DEFAULT_SAMPLE_RATE
    window_len: int = DEFAULT_WINDOW_LEN
    base_repetition_hz: float = 52.0
    repetition_step_hz: float = 17.0
    impulse_amplitude: float = 3.0
    decay_s: float = 0.002
    vib_resonance_base_hz: float = 3000.0
    vib_resonance_step_hz: float = 120.0
    ac_resonance_base_hz: float = 1400.0
    ac_resonance_step_hz: float = 180.0
    vib_noise_sigma: float = 0.5
    ac_noise_sigma: float = 1.0
    class_names: tuple[str, ...] = field(default_factory=tuple)

    def __post_init__(self):
        if self.num_classes < 1:
            raise ConfigError(f"num_classes must be >= 1, got {self.num_classes}")
        if self.windows_per_class < 1:
            raise ConfigError("windows_per_class must be >= 1")
        if self.window_len < 1:
            raise ConfigError(f"window_len must be >= 1, got {self.window_len}")
        if not 0 < self.sample_rate_hz < np.inf:  # also rejects NaN
            raise ConfigError(f"sample_rate_hz must be finite and > 0, got {self.sample_rate_hz}")
        if self.repetition_step_hz == 0:
            raise ConfigError("repetition_step_hz must be nonzero: classes need distinct rates")
        for c in range(self.num_classes):
            if not self.repetition_hz(c) > 0:
                raise ConfigError(
                    f"repetition_hz of class {c} is {self.repetition_hz(c)}: it must be > 0"
                )
        if self.vib_noise_sigma < 0 or self.ac_noise_sigma < 0:
            raise ConfigError("noise sigma must be >= 0")
        if not self.class_names:
            object.__setattr__(self, "class_names", tuple(default_class_names(self.num_classes)))
        elif len(self.class_names) != self.num_classes:
            raise ConfigError("class_names length must equal num_classes")

    def repetition_hz(self, class_id: int) -> float:
        return self.base_repetition_hz + self.repetition_step_hz * class_id

    def resonance_hz(self, class_id: int, modality: str) -> float:
        if modality == VIBRATION:
            return self.vib_resonance_base_hz + self.vib_resonance_step_hz * class_id
        return self.ac_resonance_base_hz + self.ac_resonance_step_hz * class_id

    def noise_sigma(self, modality: str) -> float:
        return self.vib_noise_sigma if modality == VIBRATION else self.ac_noise_sigma


def synth_recording(class_id: int, spec: SynthSpec, rng: Rng, modality: str) -> Recording:
    """One synthetic recording: a decaying-impulse train plus Gaussian noise.

    x(t) = sum_k A_k exp(-(t - t_k)/tau) sin(2 pi f_res (t - t_k)) + noise,
    with impulses k at rate repetition_hz(class_id).
    """
    if class_id < 0 or class_id >= spec.num_classes:
        raise DataError(f"class_id {class_id} outside [0, {spec.num_classes})")
    if modality not in MODALITIES:
        raise DataError(f"unknown modality {modality!r}")
    fs = spec.sample_rate_hz
    n = spec.windows_per_class * spec.window_len
    f_rep = spec.repetition_hz(class_id)
    f_res = spec.resonance_hz(class_id, modality)
    period = fs / f_rep  # samples between impulses
    x = np.zeros(n, dtype=DTYPE)

    tail = int(6.0 * spec.decay_s * fs) + 1
    t_tail = np.arange(tail, dtype=DTYPE) / fs
    envelope = np.exp(-t_tail / spec.decay_s)
    num_impulses = int(n / period) + 2
    phase = rng.uniform() * period
    for k in range(num_impulses):
        start = int(round(phase + k * period + (rng.uniform() - 0.5) * 0.02 * period))
        if start >= n:
            break
        amp = spec.impulse_amplitude * (0.8 + 0.4 * rng.uniform())
        burst = amp * envelope * np.sin(2.0 * np.pi * f_res * t_tail)
        stop = min(start + tail, n)
        lo = max(start, 0)  # jitter can push the first burst before sample 0
        x[lo:stop] += burst[lo - start : stop - start]
    sigma = spec.noise_sigma(modality)
    if sigma > 0:
        x += sigma * rng.normal(n)
    return Recording(
        samples=x,
        sample_rate_hz=fs,
        label=class_id,
        modality=modality,
        source_id=f"synth-c{class_id}",
    )


def synth_dataset(spec: SynthSpec) -> WindowedDataset:
    """Deterministic paired dataset: windows_per_class windows per class."""
    root = Rng(spec.seed)
    vib_chunks, ac_chunks, labels, sources = [], [], [], []
    for c in range(spec.num_classes):
        rec_v = synth_recording(c, spec, root.derive(2 * c), VIBRATION)
        rec_a = synth_recording(c, spec, root.derive(2 * c + 1), ACOUSTIC)
        vib_chunks.append(normalize_window(segment(rec_v, spec.window_len, spec.window_len)))
        ac_chunks.append(normalize_window(segment(rec_a, spec.window_len, spec.window_len)))
        labels.extend([c] * spec.windows_per_class)
        sources.extend([f"synth-c{c}"] * spec.windows_per_class)
    return WindowedDataset(
        vib=np.concatenate(vib_chunks, axis=0),
        ac=np.concatenate(ac_chunks, axis=0),
        labels=np.asarray(labels),
        source_ids=sources,
        class_names=list(spec.class_names),
        mode=PAIRED,
    )
