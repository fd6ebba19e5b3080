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
import math
import os
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DataError, ShapeError
from .tensor import DTYPE, Rng

VIBRATION = "vibration"
ACOUSTIC = "acoustic"
MODALITIES = (VIBRATION, ACOUSTIC)

# The sensor each model branch reads; a branch name is the WindowedDataset
# attribute that holds its windows.
SENSORS = {"vib": VIBRATION, "ac": ACOUSTIC}

VIB_ONLY = "vib_only"
AC_ONLY = "ac_only"
PAIRED = "paired"
# The mode of a dataset holding windows for exactly these model branches, in
# model feature order.
BRANCH_MODES = {("vib",): VIB_ONLY, ("ac",): AC_ONLY, ("vib", "ac"): PAIRED}
_MODE_BRANCHES = {mode: branches for branches, mode in BRANCH_MODES.items()}

DEFAULT_WINDOW_LEN = 1000
DEFAULT_SAMPLE_RATE = 42000.0
# Samples per sensor a SynthSpec may ask for, 9.3x the default 9 x 200 x 1000.
# synth_dataset peaks at about 34 bytes per sample, so about 0.6 GiB here.
MAX_SYNTH_SAMPLES = 1 << 24
# Classes a SynthSpec may ask for, 455x the default 9: SynthSpec checks each
# class, and generate writes two files per class.
MAX_SYNTH_CLASSES = 1 << 12
# Impulses whose uniforms synth_recording draws in one call; this bounds its
# draw arrays whatever the rate.
_IMPULSE_BLOCK = 1 << 12

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
    label: int = 0
    modality: str = VIBRATION
    source_id: str = ""

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=DTYPE).reshape(-1)
        if self.modality not in MODALITIES:
            raise DataError(f"unknown modality {self.modality!r}")


def load_recording(
    path: str | os.PathLike,
    *,
    label: int = 0,
    modality: str = VIBRATION,
    source_id: str | None = None,
) -> Recording:
    """Read a recording from disk; its name picks the format.

    A .csv file holds one numeric value per line, an optional non-numeric
    header line is skipped. Any other file is little-endian IEEE-754
    binary32, no header. Values are widened to float64.
    """
    path = os.fspath(path)
    samples = _read_csv_samples(path) if path.endswith(".csv") else _read_raw_f32le(path)
    if samples.size == 0:
        raise DataError(f"empty recording file {path}")
    if not np.all(np.isfinite(samples)):
        raise DataError(f"non-finite sample in {path}")
    return Recording(
        samples=samples,
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
    # widening a signaling NaN warns; load_recording rejects it right after
    with np.errstate(invalid="ignore"):
        return np.frombuffer(blob, dtype="<f4").astype(DTYPE)


def segment(recording: Recording, window_len: int = DEFAULT_WINDOW_LEN) -> np.ndarray:
    """Consecutive, non-overlapping [window_len, 1] windows; the trailing
    remainder is dropped.

    Returns an array of shape [floor(N / window_len), window_len, 1].
    """
    if window_len < 1:
        raise DataError(f"window_len must be >= 1, got {window_len}")
    x = recording.samples
    n = x.shape[0]
    if n < window_len:
        raise DataError(
            f"recording {recording.source_id!r}: {n} samples < window length {window_len}"
        )
    return x[: n - n % window_len].reshape(-1, window_len, 1).copy()


def normalize_window(w: np.ndarray) -> np.ndarray:
    """Per-window z-score: (w - mean) / max(std, 1e-8).

    Accepts one window ([L] or [L, C]) or a batch [n, L, C]; statistics are
    taken per window over all its values.
    """
    w = np.asarray(w, dtype=DTYPE)
    first = 0 if w.ndim <= 2 else 1
    axes = tuple(range(first, w.ndim))
    d = w - w.mean(axis=axes, keepdims=True)
    # the operations np.std runs on d, without forming w - mean a second time
    std = np.sqrt((d * d).sum(axis=axes, keepdims=True) / math.prod(w.shape[first:]))
    return d / np.maximum(std, 1e-8)


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
        if self.mode not in _MODE_BRANCHES:
            raise DataError(f"unknown dataset mode {self.mode!r}")
        for branch in _MODE_BRANCHES[self.mode]:
            windows = getattr(self, branch)
            if windows is None or windows.shape[0] != n:
                raise ShapeError(f"{SENSORS[branch]} windows missing or miscounted")
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


def _load_row(manifest: Manifest, row: dict) -> Recording:
    file_path = row["file_path"]
    if not os.path.isabs(file_path):
        file_path = os.path.join(manifest.base_dir, file_path)
    return load_recording(
        file_path,
        label=manifest.class_names.index(row["label_name"]),
        modality=row["modality"],
        source_id=row["pair_key"] or file_path,
    )


def _windowed(units, mode: str, window_len: int, class_names, normalize: bool = True):
    """The WindowedDataset of ``units``, (source id, label, recordings) triples
    with one recording per branch of ``mode``. A unit keeps the windows all its
    recordings cover, so windows with one index cover the same sample range."""
    branches = _MODE_BRANCHES[mode]
    chunks: dict[str, list[np.ndarray]] = {branch: [] for branch in branches}
    labels, sources = [], []
    for source_id, label, recordings in units:
        windows = [segment(rec, window_len) for rec in recordings]
        n = min(w.shape[0] for w in windows)
        # drop the cut copies before the next unit's recordings are made
        windows = [normalize_window(w[:n]) if normalize else w[:n] for w in windows]
        for branch, w in zip(branches, windows):
            chunks[branch].append(w)
        labels.extend([label] * n)
        sources.extend([source_id] * n)
    return WindowedDataset(
        **{b: np.concatenate(chunks[b], axis=0) if b in chunks else None for b in SENSORS},
        labels=np.asarray(labels),
        source_ids=sources,
        class_names=list(class_names),
        mode=mode,
    )


def _paired_units(manifest: Manifest):
    """A (pair_key, label, [vibration, acoustic]) unit per pair_key, in order of
    first appearance; an empty pair_key is a key too."""
    by_key: dict[str, dict[str, dict]] = {}
    for row in manifest.rows:
        slot = by_key.setdefault(row["pair_key"], {})
        if row["modality"] in slot:
            raise DataError(f"pair_key {row['pair_key']!r} has duplicate {row['modality']} rows")
        slot[row["modality"]] = row
    for key, slot in by_key.items():
        if VIBRATION not in slot or ACOUSTIC not in slot:
            missing = ACOUSTIC if ACOUSTIC not in slot else VIBRATION
            raise DataError(f"pair_key {key!r} is missing its {missing} file")
        if slot[VIBRATION]["label_name"] != slot[ACOUSTIC]["label_name"]:
            raise DataError(f"pair_key {key!r} has conflicting labels")
        recs = [_load_row(manifest, slot[m]) for m in (VIBRATION, ACOUSTIC)]
        yield key, recs[0].label, recs


def build_dataset(
    manifest: Manifest,
    mode: str,
    window_len: int = DEFAULT_WINDOW_LEN,
    normalize: bool = True,
) -> WindowedDataset:
    """Segment, normalize and label every manifest recording.

    A single-sensor mode windows each row of its sensor on its own. In paired
    mode each pair_key must resolve to exactly one vibration and one acoustic
    file; paired windows are cut from identical sample ranges.
    """
    if mode not in _MODE_BRANCHES:
        raise DataError(f"unknown dataset mode {mode!r}")
    if mode == PAIRED:
        units = _paired_units(manifest)
    else:
        sensor = SENSORS[_MODE_BRANCHES[mode][0]]
        rows = [r for r in manifest.rows if r["modality"] == sensor]
        if not rows:
            raise DataError(f"manifest has no {sensor} rows")
        recs = (_load_row(manifest, row) for row in rows)
        units = ((rec.source_id, rec.label, [rec]) for rec in recs)
    return _windowed(units, mode, window_len, manifest.class_names, normalize)


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
        samples = self.num_classes * self.windows_per_class * self.window_len
        if samples > MAX_SYNTH_SAMPLES:
            raise ConfigError(
                f"num_classes x windows_per_class x window_len is {samples} samples per sensor,"
                f" above the limit of {MAX_SYNTH_SAMPLES}"
            )
        if self.num_classes > MAX_SYNTH_CLASSES:
            raise ConfigError(
                f"num_classes is {self.num_classes}, above the limit of {MAX_SYNTH_CLASSES}"
            )
        if not 0 < self.sample_rate_hz < np.inf:  # also rejects NaN
            raise ConfigError(f"sample_rate_hz must be finite and > 0, got {self.sample_rate_hz}")
        if self.repetition_step_hz == 0:
            raise ConfigError("repetition_step_hz must be nonzero: classes need distinct rates")
        if not 0 < self.decay_s < np.inf:
            raise ConfigError(f"decay_s must be finite and > 0, got {self.decay_s}")
        if not np.isfinite(self.impulse_amplitude):
            raise ConfigError(f"impulse_amplitude must be finite, got {self.impulse_amplitude}")
        for c in range(self.num_classes):
            if not 0 < self.repetition_hz(c) < np.inf:
                raise ConfigError(
                    f"repetition_hz of class {c} is {self.repetition_hz(c)}:"
                    " it must be finite and > 0"
                )
            period = self.sample_rate_hz / self.repetition_hz(c)
            if not 1 <= period < np.inf:  # below one sample, synth_recording spins
                raise ConfigError(
                    f"class {c} repeats every {period} samples"
                    " (sample_rate_hz / repetition_hz): it must be finite and >= 1"
                )
            for modality in MODALITIES:
                if not np.isfinite(self.resonance_hz(c, modality)):
                    raise ConfigError(
                        f"{modality} resonance_hz of class {c} is"
                        f" {self.resonance_hz(c, modality)}: it must be finite"
                    )
        for name in ("vib_noise_sigma", "ac_noise_sigma"):
            if not 0 <= getattr(self, name) < np.inf:
                raise ConfigError(f"{name} must be finite and >= 0, got {getattr(self, name)}")
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

    Stream contract: the recording reads rng's uniforms as one phase, then
    one (jitter, amplitude) pair per impulse, and stops right after the
    jitter draw of the first impulse that starts at or past the end of x
    (or after int(n / period) + 2 pairs); the noise's normals follow. Every
    recording, and rng's position after it, is a function of these draws
    alone, however they are drawn: here in blocks of impulses, with the
    unused tail of the last block unread.
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

    # a burst lasts six decay constants, but reaches no further than x's end
    reach = 6.0 * spec.decay_s * fs
    t_tail = np.arange(int(min(reach, n)) + 1, dtype=DTYPE) / fs
    envelope = np.exp(-t_tail / spec.decay_s)
    wave = np.sin(2.0 * np.pi * f_res * t_tail)
    num_impulses = int(n / period) + 2
    phase = rng.uniform() * period
    for first in range(0, num_impulses, _IMPULSE_BLOCK):
        drawn = min(_IMPULSE_BLOCK, num_impulses - first)
        u = rng.uniform(2 * drawn)
        k = np.arange(first, first + drawn, dtype=DTYPE)
        # the float64 operations, in order, of the scalar
        # round(phase + k * period + (u - 0.5) * 0.02 * period); np.rint
        # rounds half to even as round does
        starts = np.rint(phase + k * period + (u[0::2] - 0.5) * 0.02 * period)
        past = np.flatnonzero(starts >= n)
        count = int(past[0]) if past.size else drawn  # impulses before the one past x
        amps = spec.impulse_amplitude * (0.8 + 0.4 * u[1 : 2 * count : 2])
        # one slice add per impulse, in impulse order: bursts overlap, and
        # the order of their additions sets the bits
        for start, amp in zip(starts[:count].astype(np.int64).tolist(), amps.tolist()):
            if start >= 0:
                m = min(envelope.size, n - start)
                x[start : start + m] += amp * envelope[:m] * wave[:m]
            else:
                # jitter can push the first burst to start before sample 0,
                # and at a slow repetition rate even to end there: its
                # envelope and sine are taken over the part inside x
                stop = max(0, min(start + int(min(reach, n - start)) + 1, n))
                t = (float(-start) + np.arange(stop, dtype=DTYPE)) / fs
                x[:stop] += amp * np.exp(-t / spec.decay_s) * np.sin(2.0 * np.pi * f_res * t)
        if past.size:
            rng.unread(2 * drawn - (2 * count + 1))  # the stream ends after that jitter
            break
    sigma = spec.noise_sigma(modality)
    if sigma > 0:
        x += sigma * rng.normal(n)
    return Recording(samples=x, label=class_id, modality=modality, source_id=f"synth-c{class_id}")


def synth_recordings(spec: SynthSpec):
    """Each class's [vibration, acoustic] recordings, in class order: class c's
    vibration draws on Rng(spec.seed).derive(2c), its acoustic on derive(2c + 1)."""
    root = Rng(spec.seed)
    for c in range(spec.num_classes):
        tags = (2 * c, 2 * c + 1)
        yield [synth_recording(c, spec, root.derive(t), m) for t, m in zip(tags, MODALITIES)]


def synth_dataset(spec: SynthSpec) -> WindowedDataset:
    """Deterministic paired dataset: windows_per_class windows per class."""
    units = ((f"synth-c{c}", c, recs) for c, recs in enumerate(synth_recordings(spec)))
    return _windowed(units, PAIRED, spec.window_len, spec.class_names)
