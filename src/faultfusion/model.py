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
import math
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
        for name, low in (
            ("conv_channels", 1),
            ("conv_kernels", 1),
            ("pool_sizes", 2),
            ("ac_conv_channels", 1),
            ("ac_conv_kernels", 1),
            ("ac_pool_sizes", 2),
        ):
            if any(v < low for v in getattr(self, name)):
                raise ConfigError(f"{name} entries must be >= {low}, got {getattr(self, name)}")
        for name, low in (("lstm_units", 1), ("lstm_layers", 0), ("dense_units", 1)):
            if getattr(self, name) < low:
                raise ConfigError(f"{name} must be >= {low}, got {getattr(self, name)}")


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


# Parameter shapes of each layer type from its size arguments (the arguments
# of its ``init`` without the Rng); the dict order is the constructor's.
_PARAM_SHAPES = {
    Conv1D: lambda k, cin, cout: {"kernels": (k, cin, cout), "bias": (cout,)},
    LSTM: lambda cin, units: {"W": (cin, 4 * units), "U": (units, 4 * units), "b": (4 * units,)},
    Dense: lambda n_in, n_out: {"weights": (n_in, n_out), "bias": (n_out,)},
}


def _conv_blocks(branch, channels, kernels, pools) -> tuple[list[tuple], int]:
    """Conv -> ReLU -> MaxPool blocks over a 1-channel input; also the channels out."""
    if not channels:
        raise ShapeError(f"{branch} branch: at least one conv block is required")
    plan = []
    cin = 1
    for ch, k, p in zip(channels, kernels, pools):
        plan += [(Conv1D, k, cin, ch), (ReLULayer,), (MaxPool1D, p)]
        cin = ch
    return plan, cin


def _layer_plan(spec: ModelSpec) -> dict[str, list[tuple]]:
    """Per branch, each layer as (class, *size args) in build order.

    Pure arithmetic on the spec: nothing is allocated, so a weight file's
    header can be checked against it before any array exists.
    """
    plan: dict[str, list[tuple]] = {}
    head_in = 0
    if spec.kind in (VIBRATION_CNN, FUSION):
        chain = conv_pool_chain(spec.input_len, spec.conv_kernels, spec.pool_sizes, "vibration")
        layers, cin = _conv_blocks(
            "vibration", spec.conv_channels, spec.conv_kernels, spec.pool_sizes
        )
        plan["vib"] = layers + [(Flatten,)]
        head_in += chain[-1] * cin
    if spec.kind in (ACOUSTIC_CNN_LSTM, FUSION):
        chain = conv_pool_chain(
            spec.input_len, spec.ac_conv_kernels, spec.ac_pool_sizes, "acoustic"
        )
        if chain[-1] < 1:
            raise ShapeError("acoustic branch: no timesteps left for the LSTM stack")
        layers, cin = _conv_blocks(
            "acoustic", spec.ac_conv_channels, spec.ac_conv_kernels, spec.ac_pool_sizes
        )
        for _ in range(spec.lstm_layers):
            layers.append((LSTM, cin, spec.lstm_units))
            cin = spec.lstm_units
        plan["ac"] = layers + [(Flatten,)]
        head_in += chain[-1] * cin
    plan["head"] = [
        (Dense, head_in, spec.dense_units),
        (ReLULayer,),
        (Dense, spec.dense_units, spec.num_classes),
    ]
    return plan


def _instantiate(spec: ModelSpec, plan: dict[str, list[tuple]], make) -> "Model":
    """A Model whose parameterised layers come from ``make(cls, sizes)``."""
    branches = {
        branch: [
            make(cls, sizes) if cls in _PARAM_SHAPES else cls(*sizes) for cls, *sizes in layers
        ]
        for branch, layers in plan.items()
    }
    return Model(spec, branches.get("vib"), branches.get("ac"), branches["head"])


def _param_manifest(plan: dict[str, list[tuple]]) -> list[tuple[str, tuple[int, ...]]]:
    """(name, shape) of every parameter, in ``Model.parameters()`` order."""
    manifest = []
    for branch, layers in plan.items():
        for idx, (cls, *sizes) in enumerate(layers):
            if cls in _PARAM_SHAPES:
                for key, shape in _PARAM_SHAPES[cls](*sizes).items():
                    manifest.append((f"{branch}.{idx}.{key}", shape))
    return manifest


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

        def run_back(branch_name, layers, layer_caches, grad, input_grad=True):
            for idx in range(len(layers) - 1, -1, -1):
                # a branch starts with a Conv1D on the raw window, whose
                # gradient nothing reads
                skip = {} if idx or input_grad else {"input_grad": False}
                grad, pgrads = layers[idx].backward(layer_caches[idx], grad, **skip)
                for key, g in pgrads.items():
                    grads[f"{branch_name}.{idx}.{key}"] = g
            return grad

        grad = run_back("head", self.head_layers, caches["head"], grad_logits)
        if self.kind == VIBRATION_CNN:
            run_back("vib", self.vib_layers, caches["vib"], grad, input_grad=False)
        elif self.kind == ACOUSTIC_CNN_LSTM:
            run_back("ac", self.ac_layers, caches["ac"], grad, input_grad=False)
        else:
            split = caches["split"]
            run_back("vib", self.vib_layers, caches["vib"], grad[..., :split], input_grad=False)
            run_back("ac", self.ac_layers, caches["ac"], grad[..., split:], input_grad=False)
        return grads


def build_model(spec: ModelSpec, rng: Rng) -> Model:
    """Instantiate a network of the requested kind with fresh weights."""
    return _instantiate(spec, _layer_plan(spec), lambda cls, sizes: cls.init(*sizes, rng))


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
    """Inverse of save_model; round-trips parameters bit-exactly.

    The header is checked against the spec (field ranges, tensor names and
    shapes, payload size) before any array is allocated, so a corrupt header
    cannot ask for more memory than the file itself holds.
    """
    with open(path, "rb") as fh:
        blob = fh.read()
    if not blob.startswith(_MAGIC + b"\n"):
        raise DataError(f"bad magic in {path}: expected {_MAGIC!r}")
    header_end = blob.find(b"\nend\n")
    if header_end < 0:
        raise DataError(f"truncated model file {path}: header never ends")
    payload = memoryview(blob)[header_end + len(b"\nend\n") :]
    try:
        spec, manifest = _parse_header(blob[len(_MAGIC) + 1 : header_end])
        plan = _layer_plan(spec)
    except (ValueError, ConfigError, ShapeError) as exc:  # ValueError covers UnicodeDecodeError
        raise DataError(f"model file {path}: corrupt header: {exc}") from exc
    if manifest != _param_manifest(plan):
        raise DataError(f"model file {path}: tensor manifest does not match spec")
    nbytes = 8 * sum(math.prod(shape) for _, shape in manifest)
    if nbytes > len(payload):
        raise DataError(
            f"truncated model file {path}: {nbytes} payload bytes expected, {len(payload)} found"
        )
    if nbytes < len(payload):
        raise DataError(f"model file {path}: {len(payload) - nbytes} trailing bytes")

    arrays = []
    offset = 0
    for _, shape in manifest:
        n = math.prod(shape)
        arr = np.frombuffer(payload, dtype="<f8", count=n, offset=offset)
        arrays.append(arr.reshape(shape).astype(np.float64))
        offset += 8 * n
    blobs = iter(arrays)
    return _instantiate(
        spec, plan, lambda cls, sizes: cls(*(next(blobs) for _ in _PARAM_SHAPES[cls](*sizes)))
    )


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
