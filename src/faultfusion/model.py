"""The three network architectures: builders, whole-net passes, weight files.

Kinds:
  vibration_cnn    : Conv/Pool x3 -> Flatten -> Dense+ReLU -> Dense -> softmax
  acoustic_cnn_lstm: Conv/Pool x2 -> LSTM x2 (sequences) -> Flatten -> same head
  fusion           : both branches minus head, concat(vib, ac) -> shared head

Every conv block is Conv1D -> ReLU -> MaxPool. The softmax is applied by
``Model.forward``; ``Model.backward`` expects the gradient w.r.t. the
pre-softmax logits (the fused cross-entropy form).
"""

from __future__ import annotations

import io
import os
from dataclasses import dataclass, fields, replace

import numpy as np

from .errors import ConfigError, DataError, ShapeError
from .layers import LSTM, Conv1D, Dense, Flatten, MaxPool1D, ReLULayer, concat, softmax
from .tensor import Rng, check_finite

VIBRATION_CNN = "vibration_cnn"
ACOUSTIC_CNN_LSTM = "acoustic_cnn_lstm"
FUSION = "fusion"
MODEL_KINDS = (VIBRATION_CNN, ACOUSTIC_CNN_LSTM, FUSION)

_MAGIC = b"FMDL1"


@dataclass(frozen=True)
class ModelSpec:
    """Hyperparameters for one network; defaults follow the reference stacks."""

    kind: str
    num_classes: int = 9
    input_len: int = 1000
    conv_channels: tuple[int, ...] = (16, 32, 64)  # vibration branch
    conv_kernels: tuple[int, ...] = (7, 5, 3)
    pool_sizes: tuple[int, ...] = (2, 2, 2)
    ac_conv_channels: tuple[int, ...] = (16, 32)  # acoustic branch
    ac_conv_kernels: tuple[int, ...] = (7, 5)
    ac_pool_sizes: tuple[int, ...] = (2, 2)
    lstm_units: int = 64
    lstm_layers: int = 2
    dense_units: int = 32

    def __post_init__(self):
        if self.kind not in MODEL_KINDS:
            raise ConfigError(f"unknown model kind {self.kind!r}, expected one of {MODEL_KINDS}")
        if self.num_classes < 2:
            raise ConfigError(f"num_classes must be >= 2, got {self.num_classes}")
        if self.input_len < 1:
            raise ConfigError(f"input_len must be >= 1, got {self.input_len}")
        for name in ("conv_channels", "conv_kernels", "pool_sizes"):
            object.__setattr__(self, name, tuple(int(v) for v in getattr(self, name)))
        for name in ("ac_conv_channels", "ac_conv_kernels", "ac_pool_sizes"):
            object.__setattr__(self, name, tuple(int(v) for v in getattr(self, name)))
        if not (len(self.conv_channels) == len(self.conv_kernels) == len(self.pool_sizes)):
            raise ConfigError("conv_channels, conv_kernels and pool_sizes must align")
        if not (
            len(self.ac_conv_channels) == len(self.ac_conv_kernels) == len(self.ac_pool_sizes)
        ):
            raise ConfigError("ac_conv_channels, ac_conv_kernels and ac_pool_sizes must align")


def conv_pool_chain(
    input_len: int,
    kernels: tuple[int, ...],
    pools: tuple[int, ...],
    branch: str,
) -> list[int]:
    """Time lengths after each conv and pool; errors name the collapsing layer."""
    lengths = [input_len]
    t = input_len
    for idx, (k, p) in enumerate(zip(kernels, pools), start=1):
        if t < k:
            raise ShapeError(f"{branch} conv{idx} (kernel {k}): input length {t} < {k}")
        t = t - k + 1
        lengths.append(t)
        if t < p:
            raise ShapeError(f"{branch} pool{idx} (pool {p}): input length {t} < {p}")
        t = t // p
        lengths.append(t)
    return lengths


def _build_vib_branch(spec: ModelSpec, rng: Rng) -> tuple[list, int]:
    chain = conv_pool_chain(spec.input_len, spec.conv_kernels, spec.pool_sizes, "vibration")
    layers = []
    cin = 1
    for ch, k, p in zip(spec.conv_channels, spec.conv_kernels, spec.pool_sizes):
        layers += [Conv1D.init(k, cin, ch, rng), ReLULayer(), MaxPool1D(p)]
        cin = ch
    layers.append(Flatten())
    return layers, chain[-1] * spec.conv_channels[-1]


def _build_ac_branch(spec: ModelSpec, rng: Rng) -> tuple[list, int]:
    chain = conv_pool_chain(spec.input_len, spec.ac_conv_kernels, spec.ac_pool_sizes, "acoustic")
    if chain[-1] < 1:
        raise ShapeError("acoustic branch: no timesteps left for the LSTM stack")
    layers = []
    cin = 1
    for ch, k, p in zip(spec.ac_conv_channels, spec.ac_conv_kernels, spec.ac_pool_sizes):
        layers += [Conv1D.init(k, cin, ch, rng), ReLULayer(), MaxPool1D(p)]
        cin = ch
    for _ in range(spec.lstm_layers):
        layers.append(LSTM.init(cin, spec.lstm_units, rng, return_sequences=True))
        cin = spec.lstm_units
    layers.append(Flatten())
    return layers, chain[-1] * spec.lstm_units


def _build_head(spec: ModelSpec, in_dim: int, rng: Rng) -> list:
    return [
        Dense.init(in_dim, spec.dense_units, rng),
        ReLULayer(),
        Dense.init(spec.dense_units, spec.num_classes, rng),
    ]


class Model:
    """An instantiated network: branch layer stacks plus the dense head."""

    def __init__(self, spec: ModelSpec, vib_layers, ac_layers, head_layers):
        self.spec = spec
        self.vib_layers = vib_layers
        self.ac_layers = ac_layers
        self.head_layers = head_layers

    @property
    def kind(self) -> str:
        return self.spec.kind

    def _named_layers(self):
        for branch, layers in (
            ("vib", self.vib_layers or []),
            ("ac", self.ac_layers or []),
            ("head", self.head_layers),
        ):
            for idx, layer in enumerate(layers):
                yield f"{branch}.{idx}", layer

    def parameters(self) -> dict[str, np.ndarray]:
        """Ordered mapping of parameter path -> live array (mutated in place)."""
        out: dict[str, np.ndarray] = {}
        for prefix, layer in self._named_layers():
            for key, arr in layer.params().items():
                out[f"{prefix}.{key}"] = arr
        return out

    def set_parameter(self, name: str, value: np.ndarray) -> None:
        branch, idx, key = name.split(".")
        layers = {"vib": self.vib_layers, "ac": self.ac_layers, "head": self.head_layers}[branch]
        current = getattr(layers[int(idx)], key)
        if current.shape != value.shape:
            raise ShapeError(f"parameter {name}: shape {value.shape} != {current.shape}")
        setattr(layers[int(idx)], key, np.asarray(value, dtype=np.float64))

    @staticmethod
    def _run_branch(layers, x, caches):
        out = x
        for layer in layers:
            out, cache = layer.forward(out)
            caches.append(cache)
        return out

    def forward(self, x_vib: np.ndarray | None = None, x_ac: np.ndarray | None = None):
        """Class posteriors for one window or a batch of windows.

        Returns (probs, caches); probs is [C] or [B, C].
        """
        if self.kind == VIBRATION_CNN:
            if x_vib is None:
                raise DataError("vibration model requires vibration input")
            caches: dict = {"vib": []}
            feat = self._run_branch(self.vib_layers, x_vib, caches["vib"])
        elif self.kind == ACOUSTIC_CNN_LSTM:
            if x_ac is None:
                raise DataError("acoustic model requires acoustic input")
            caches = {"ac": []}
            feat = self._run_branch(self.ac_layers, x_ac, caches["ac"])
        else:
            if x_vib is None or x_ac is None:
                raise DataError("fusion requires both inputs")
            caches = {"vib": [], "ac": []}
            feat_v = self._run_branch(self.vib_layers, x_vib, caches["vib"])
            feat_a = self._run_branch(self.ac_layers, x_ac, caches["ac"])
            caches["split"] = feat_v.shape[-1]
            feat = concat(feat_v, feat_a)
        caches["head"] = []
        logits = self._run_branch(self.head_layers, feat, caches["head"])
        probs = softmax(logits)
        check_finite(probs, "model output")
        return probs, caches

    def backward(self, caches, grad_logits: np.ndarray) -> dict[str, np.ndarray]:
        """Parameter gradients from the fused softmax + cross-entropy gradient."""
        grads: dict[str, np.ndarray] = {}

        def run_back(branch_name, layers, layer_caches, grad):
            for idx in range(len(layers) - 1, -1, -1):
                grad, pgrads = layers[idx].backward(layer_caches[idx], grad)
                for key, g in pgrads.items():
                    grads[f"{branch_name}.{idx}.{key}"] = g
            return grad

        grad = run_back("head", self.head_layers, caches["head"], grad_logits)
        if self.kind == VIBRATION_CNN:
            run_back("vib", self.vib_layers, caches["vib"], grad)
        elif self.kind == ACOUSTIC_CNN_LSTM:
            run_back("ac", self.ac_layers, caches["ac"], grad)
        else:
            split = caches["split"]
            run_back("vib", self.vib_layers, caches["vib"], grad[..., :split])
            run_back("ac", self.ac_layers, caches["ac"], grad[..., split:])
        return grads


def build_model(spec: ModelSpec, rng: Rng) -> Model:
    """Instantiate a network of the requested kind with fresh weights."""
    vib_layers = ac_layers = None
    if spec.kind in (VIBRATION_CNN, FUSION):
        vib_layers, vib_dim = _build_vib_branch(spec, rng)
    if spec.kind in (ACOUSTIC_CNN_LSTM, FUSION):
        ac_layers, ac_dim = _build_ac_branch(spec, rng)
    if spec.kind == VIBRATION_CNN:
        head_in = vib_dim
    elif spec.kind == ACOUSTIC_CNN_LSTM:
        head_in = ac_dim
    else:
        head_in = vib_dim + ac_dim
    return Model(spec, vib_layers, ac_layers, _build_head(spec, head_in, rng))


def build_vibration_model(spec: ModelSpec, rng: Rng) -> Model:
    if spec.kind != VIBRATION_CNN:
        raise ConfigError(f"expected kind {VIBRATION_CNN}, got {spec.kind}")
    return build_model(spec, rng)


def build_acoustic_model(spec: ModelSpec, rng: Rng) -> Model:
    if spec.kind != ACOUSTIC_CNN_LSTM:
        raise ConfigError(f"expected kind {ACOUSTIC_CNN_LSTM}, got {spec.kind}")
    return build_model(spec, rng)


def build_fusion_model(spec: ModelSpec, rng: Rng) -> Model:
    if spec.kind != FUSION:
        raise ConfigError(f"expected kind {FUSION}, got {spec.kind}")
    return build_model(spec, rng)


def _spec_to_lines(spec: ModelSpec) -> list[str]:
    lines = []
    for f in fields(spec):
        v = getattr(spec, f.name)
        if isinstance(v, tuple):
            v = ",".join(str(x) for x in v)
        lines.append(f"{f.name}={v}")
    return lines


def _spec_from_pairs(pairs: dict[str, str]) -> ModelSpec:
    kwargs = {}
    for f in fields(ModelSpec):
        if f.name not in pairs:
            raise DataError(f"model file header missing field {f.name!r}")
        raw = pairs[f.name]
        if f.name == "kind":
            kwargs[f.name] = raw
        elif f.type.startswith("tuple"):
            kwargs[f.name] = tuple(int(x) for x in raw.split(",") if x != "")
        else:
            kwargs[f.name] = int(raw)
    return ModelSpec(**kwargs)


def _parse_header(header: bytes) -> tuple[ModelSpec, list[tuple[str, tuple[int, ...]]]]:
    """Spec and tensor manifest from the text between magic and ``end``."""
    pairs: dict[str, str] = {}
    manifest: list[tuple[str, tuple[int, ...]]] = []
    for line in header.decode("ascii").splitlines():
        if line.startswith("tensor "):
            _, name, shape = line.split(" ")
            dims = tuple(int(s) for s in shape.split(","))
            manifest.append((name, dims))
        elif "=" in line:
            key, value = line.split("=", 1)
            pairs[key] = value
        else:
            raise DataError(f"unparseable model header line {line!r}")
    return _spec_from_pairs(pairs), manifest


def save_model(model: Model, path: str | os.PathLike) -> None:
    """Write magic, text header with a tensor manifest, then raw <f8 blobs."""
    params = model.parameters()
    buf = io.BytesIO()
    buf.write(_MAGIC + b"\n")
    for line in _spec_to_lines(model.spec):
        buf.write(line.encode("ascii") + b"\n")
    for name, arr in params.items():
        shape = ",".join(str(s) for s in arr.shape)
        buf.write(f"tensor {name} {shape}\n".encode("ascii"))
    buf.write(b"end\n")
    for arr in params.values():
        buf.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())
    with open(path, "wb") as fh:
        fh.write(buf.getvalue())


def load_model(path: str | os.PathLike) -> Model:
    """Inverse of save_model; round-trips parameters bit-exactly."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if not blob.startswith(_MAGIC + b"\n"):
        raise DataError(f"bad magic in {path}: expected {_MAGIC!r}")
    header_end = blob.find(b"\nend\n")
    if header_end < 0:
        raise DataError(f"truncated model file {path}: header never ends")
    payload = blob[header_end + len(b"\nend\n") :]
    try:
        spec, manifest = _parse_header(blob[len(_MAGIC) + 1 : header_end])
    except (ValueError, ConfigError) as exc:  # ValueError covers UnicodeDecodeError
        raise DataError(f"model file {path}: corrupt header: {exc}") from exc
    model = build_model(spec, Rng(0))
    expected = model.parameters()
    if [n for n, _ in manifest] != list(expected.keys()):
        raise DataError(f"model file {path}: tensor manifest does not match spec")

    offset = 0
    for name, dims in manifest:
        n = int(np.prod(dims)) if dims else 1
        nbytes = n * 8
        if offset + nbytes > len(payload):
            raise DataError(f"truncated model file {path}: blob for {name} is incomplete")
        arr = np.frombuffer(payload, dtype="<f8", count=n, offset=offset).reshape(dims)
        model.set_parameter(name, arr.astype(np.float64))
        offset += nbytes
    if offset != len(payload):
        raise DataError(f"model file {path}: {len(payload) - offset} trailing bytes")
    return model


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


def reduced_spec(kind: str, num_classes: int, input_len: int = 1000) -> ModelSpec:
    """Cut-down stack that still follows the reference topology; trains fast."""
    return replace(
        ModelSpec(kind=kind, num_classes=num_classes, input_len=input_len),
        conv_channels=(8, 16),
        conv_kernels=(7, 5),
        pool_sizes=(4, 4),
        ac_conv_channels=(8, 16),
        ac_conv_kernels=(7, 5),
        ac_pool_sizes=(4, 4),
        lstm_units=24,
        dense_units=32,
    )
