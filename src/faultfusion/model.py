"""The three network architectures: builders, whole-net passes, weight files.

Every network is one layer stack per sensor branch; the branches' flattened
features are concatenated into one shared dense head. A model kind is a row
of ``BRANCHES``, which names its branches in the order their features reach
the head:

  vibration_cnn     -> (vib,)
  acoustic_cnn_lstm -> (ac,)
  fusion            -> (vib, ac)

  vib : Conv/Pool x3 -> Flatten
  ac  : Conv/Pool x2 -> LSTM x2 (sequences) -> Flatten
  head: Dense+ReLU -> Dense -> softmax

A branch name is the ``WindowedDataset`` attribute that holds its windows
and, after ``x_``, its ``Model.forward`` keyword. A single-branch model hands
its features to the head as they are. The vibration-first order of fusion
fixes the row order of the head's first weight matrix in FMDL1 files.

Every conv block is Conv1D -> ReLU -> MaxPool. The layers take batches only;
``Model.forward`` checks its inputs once and runs a single window as a batch
of one. The layers compute in their input's dtype over float64 weights, so a
float32 batch makes a float32 pass: ``training.fit`` trains that way, while
scoring passes float64 windows. The softmax is applied by ``Model.forward``;
``Model.backward`` expects the gradient w.r.t. the pre-softmax logits (the
fused cross-entropy form). ``Model.forward(..., keep=False)`` is the
forward-only pass that scoring uses (``training.predict_proba``, so
``evaluate`` and the estimators, and ``infer``): no layer keeps a backward
cache, it returns (probs, None), and probs are the same bytes as with
keep=True.
"""

from __future__ import annotations

import io
import math
import os
from dataclasses import dataclass, replace

import numpy as np

from .codec import encode, parsers
from .data import SENSORS
from .errors import ConfigError, DataError, ShapeError
from .layers import LSTM, Conv1D, Dense, Flatten, MaxPool1D, ReLULayer, concat, softmax
from .tensor import Rng, as_float, check_finite

VIBRATION_CNN = "vibration_cnn"
ACOUSTIC_CNN_LSTM = "acoustic_cnn_lstm"
FUSION = "fusion"

# The sensor branches of each kind, in the order their features reach the head.
BRANCHES = {VIBRATION_CNN: ("vib",), ACOUSTIC_CNN_LSTM: ("ac",), FUSION: ("vib", "ac")}
MODEL_KINDS = tuple(BRANCHES)

# Per branch: the prefix of its conv fields in ModelSpec, and whether the
# spec's LSTM stack follows its conv blocks. data.SENSORS names the sensor a
# branch reads (in messages and by infer's flags).
_BRANCH_LAYOUT = {"vib": ("", False), "ac": ("ac_", True)}
_CONV_FIELDS = ("conv_channels", "conv_kernels", "pool_sizes")

_MAGIC = b"FMDL1"
# The reference fusion header is 674 bytes; 64 KiB holds the tensor lines of
# about 700 LSTM layers. A 1 MiB read cost a reference fusion load about 1 ms.
_MAX_HEADER_BYTES = 1 << 16


def kind_branches(kind: str) -> tuple[str, ...]:
    """The sensor branches of a model kind; ConfigError for an unknown kind."""
    try:
        return BRANCHES[kind]
    except KeyError:
        raise ConfigError(f"unknown model kind {kind!r}, expected one of {MODEL_KINDS}") from None


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
        kind_branches(self.kind)  # rejects an unknown kind
        if self.num_classes < 2:
            raise ConfigError(f"num_classes must be >= 2, got {self.num_classes}")
        if self.input_len < 1:
            raise ConfigError(f"input_len must be >= 1, got {self.input_len}")
        for prefix, _ in _BRANCH_LAYOUT.values():
            names = [prefix + name for name in _CONV_FIELDS]
            for name in names:
                object.__setattr__(self, name, tuple(int(v) for v in getattr(self, name)))
            if len({len(getattr(self, name)) for name in names}) != 1:
                raise ConfigError(f"{names[0]}, {names[1]} and {names[2]} must align")
            for name, low in zip(names, (1, 1, 2)):
                if any(v < low for v in getattr(self, name)):
                    raise ConfigError(
                        f"{name} entries must be >= {low}, got {getattr(self, name)}"
                    )
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


# The size budget of a spec, checked before any layer list or array exists.
# The reference fusion spec has 823,497 parameters, and its layers' outputs
# hold 228,969 values per window. At the caps a float64 copy of the weights
# takes 512 MiB, and a float32 window's outputs 256 MiB.
MAX_PARAMS = 1 << 26
MAX_WINDOW_VALUES = 1 << 26


def _param_count(cls, *sizes) -> int:
    return sum(math.prod(shape) for shape in _PARAM_SHAPES[cls](*sizes).values())


def _check_budget(spec: ModelSpec) -> None:
    """ConfigError if the spec's parameter count or the values its layers'
    outputs hold for one window exceed the caps. Pure arithmetic on the spec
    and ``conv_pool_chain``, so it costs the same for any size."""
    params = values = head_in = 0
    for branch in kind_branches(spec.kind):
        prefix, lstm = _BRANCH_LAYOUT[branch]
        channels, kernels, pools = (getattr(spec, prefix + name) for name in _CONV_FIELDS)
        lengths = conv_pool_chain(spec.input_len, kernels, pools, SENSORS[branch])
        width = 1
        for ch, k, conv_len, pool_len in zip(channels, kernels, lengths[1::2], lengths[2::2]):
            params += _param_count(Conv1D, k, width, ch)
            values += (2 * conv_len + pool_len) * ch  # conv, ReLU and pool outputs
            width = ch
        layers, u = (spec.lstm_layers if lstm else 0), spec.lstm_units
        if layers:
            params += _param_count(LSTM, width, u) + (layers - 1) * _param_count(LSTM, u, u)
            values += layers * lengths[-1] * u
            width = u
        head_in += lengths[-1] * width
    dense, classes = spec.dense_units, spec.num_classes
    params += _param_count(Dense, head_in, dense) + _param_count(Dense, dense, classes)
    values += 2 * dense + classes
    for what, count, cap in (
        ("parameters", params, MAX_PARAMS),
        ("layer output values per window", values, MAX_WINDOW_VALUES),
    ):
        if count > cap:
            raise ConfigError(f"model spec has {count} {what}, above the limit of {cap}")


def _conv_blocks(sensor, channels, kernels, pools) -> tuple[list[tuple], int]:
    """Conv -> ReLU -> MaxPool blocks over a 1-channel input; also the channels out."""
    if not channels:
        raise ShapeError(f"{sensor} branch: at least one conv block is required")
    plan = []
    cin = 1
    for ch, k, p in zip(channels, kernels, pools):
        plan += [(Conv1D, k, cin, ch), (ReLULayer,), (MaxPool1D, p)]
        cin = ch
    return plan, cin


def _layer_plan(spec: ModelSpec) -> dict[str, list[tuple]]:
    """Each branch of the spec's kind, then the head: its layers as
    (class, *size args) in build order.

    Pure arithmetic on the spec: nothing is allocated, so a weight file's
    header can be checked against it before any array exists. The spec's
    size budget is checked first.
    """
    _check_budget(spec)
    plan: dict[str, list[tuple]] = {}
    head_in = 0
    for branch in kind_branches(spec.kind):
        sensor, (prefix, lstm) = SENSORS[branch], _BRANCH_LAYOUT[branch]
        channels, kernels, pools = (getattr(spec, prefix + name) for name in _CONV_FIELDS)
        steps = conv_pool_chain(spec.input_len, kernels, pools, sensor)[-1]
        layers, width = _conv_blocks(sensor, channels, kernels, pools)
        for _ in range(spec.lstm_layers if lstm else 0):
            layers.append((LSTM, width, spec.lstm_units))
            width = spec.lstm_units
        plan[branch] = layers + [(Flatten,)]
        head_in += steps * width
    plan["head"] = [
        (Dense, head_in, spec.dense_units),
        (ReLULayer,),
        (Dense, spec.dense_units, spec.num_classes),
    ]
    return plan


def _instantiate(spec: ModelSpec, plan: dict[str, list[tuple]], make) -> "Model":
    """A Model whose parameterised layers come from ``make(cls, sizes)``."""
    return Model(
        spec,
        {
            stack: [
                make(cls, sizes) if cls in _PARAM_SHAPES else cls(*sizes) for cls, *sizes in layers
            ]
            for stack, layers in plan.items()
        },
    )


def _param_manifest(plan: dict[str, list[tuple]]) -> list[tuple[str, tuple[int, ...]]]:
    """(name, shape) of every parameter, in ``Model.parameters()`` order."""
    manifest = []
    for stack, layers in plan.items():
        for idx, (cls, *sizes) in enumerate(layers):
            if cls in _PARAM_SHAPES:
                for key, shape in _PARAM_SHAPES[cls](*sizes).items():
                    manifest.append((f"{stack}.{idx}.{key}", shape))
    return manifest


class Model:
    """An instantiated network: a layer stack per branch of its kind, then the head."""

    def __init__(self, spec: ModelSpec, stacks: dict[str, list]):
        self.spec = spec
        self.stacks = stacks  # the kind's branches in feature order, then "head"

    vib_layers = property(lambda self: self.stacks.get("vib"))
    ac_layers = property(lambda self: self.stacks.get("ac"))
    head_layers = property(lambda self: self.stacks["head"])

    @property
    def kind(self) -> str:
        return self.spec.kind

    def parameters(self) -> dict[str, np.ndarray]:
        """Ordered mapping of parameter path -> live array (mutated in place)."""
        out: dict[str, np.ndarray] = {}
        for stack, layers in self.stacks.items():
            for idx, layer in enumerate(layers):
                for key, arr in layer.params().items():
                    out[f"{stack}.{idx}.{key}"] = arr
        return out

    def _run_stack(self, stack, x, caches):
        """Run one stack of layers; a caches dict gets their caches as caches[stack]."""
        keep = caches is not None
        kept = caches.setdefault(stack, []) if keep else None
        for layer in self.stacks[stack]:
            x, cache = layer.forward(x, keep=keep)
            if keep:
                kept.append(cache)
        return x

    def forward(
        self, x_vib: np.ndarray | None = None, x_ac: np.ndarray | None = None, *, keep: bool = True
    ):
        """Class posteriors for one window or a batch of windows.

        Every branch of the kind gets one [input_len, 1] window, or every one
        a [B, input_len, 1] batch of the same B; anything else is a
        ShapeError. The pass runs in float32 for a float32 input (training)
        and in float64 for anything else (scoring); the weights stay float64.
        Returns (probs, caches); probs is [C] or [B, C]. With
        keep=False no backward follows: every layer keeps no cache, so each
        activation is freed once the next layer has read it, and caches is
        None. The probabilities are the same bytes either way.
        """
        inputs = {"vib": x_vib, "ac": x_ac}
        branches = kind_branches(self.kind)
        if any(inputs[branch] is None for branch in branches):
            both = "both " if len(branches) > 1 else ""
            sensors = " and ".join(SENSORS[branch] for branch in branches)
            raise DataError(f"{self.kind} requires {both}{sensors} input")
        xs = [as_float(inputs[branch]) for branch in branches]
        shape = xs[0].shape
        window = (self.spec.input_len, 1)
        if any(x.shape != shape for x in xs) or shape[-2:] != window or len(shape) > 3:
            got = ", ".join(f"{SENSORS[b]} {x.shape}" for b, x in zip(branches, xs))
            raise ShapeError(
                f"{self.kind} takes a {list(window)} window or a [B, {window[0]}, 1] batch,"
                f" the same for every sensor; got {got}"
            )
        single = len(shape) == 2
        if single:
            xs = [x[None] for x in xs]
        caches: dict | None = {} if keep else None
        feats = [self._run_stack(branch, x, caches) for branch, x in zip(branches, xs)]
        if keep:
            caches["widths"] = [feat.shape[-1] for feat in feats]
        logits = self._run_stack("head", concat(*feats), caches)
        probs = softmax(logits)
        check_finite(probs, "model output")
        return (probs[0] if single else probs), caches

    def backward(self, caches, grad_logits: np.ndarray) -> dict[str, np.ndarray]:
        """Parameter gradients from the fused softmax + cross-entropy gradient,
        [C] for a single window or [B, C] for a batch.

        The pass runs in the dtype of the forward that made the caches, so
        after a float32 forward the gradients are float32.
        """
        grads: dict[str, np.ndarray] = {}

        def run_back(stack, grad, input_grad=True):
            layers = self.stacks[stack]
            for idx in range(len(layers) - 1, -1, -1):
                # a branch starts with a Conv1D on the raw window, whose
                # gradient nothing reads
                skip = {} if idx or input_grad else {"input_grad": False}
                grad, pgrads = layers[idx].backward(caches[stack][idx], grad, **skip)
                for key, g in pgrads.items():
                    grads[f"{stack}.{idx}.{key}"] = g
            return grad

        head_dtype = caches["head"][0]["x"].dtype
        grad = run_back("head", np.atleast_2d(grad_logits).astype(head_dtype, copy=False))
        stop = 0
        for branch, width in zip(kind_branches(self.kind), caches["widths"]):
            start, stop = stop, stop + width
            run_back(branch, grad[:, start:stop], input_grad=False)
        return grads


def build_model(spec: ModelSpec, rng: Rng) -> Model:
    """Instantiate a network of the requested kind with fresh weights."""
    return _instantiate(spec, _layer_plan(spec), lambda cls, sizes: cls.init(*sizes, rng))


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
    spec_fields = parsers(ModelSpec)
    for name in spec_fields:
        if name not in pairs:
            raise DataError(f"model file header missing field {name!r}")
    return ModelSpec(**{name: parse(pairs[name]) for name, parse in spec_fields.items()}), manifest


def save_model(model: Model, path: str | os.PathLike) -> None:
    """Write magic, text header with a tensor manifest, then raw <f8 blobs."""
    params = model.parameters()
    buf = io.BytesIO()
    buf.write(_MAGIC + b"\n")
    for line in encode(model.spec):
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

    The header is read alone, at most ``_MAX_HEADER_BYTES`` of it, and checked
    against the spec (field ranges, tensor names and shapes) and against the
    file size before the payload is read or any array is allocated, so a
    corrupt file cannot ask for more memory than its header and its payload.
    """
    with open(path, "rb") as fh:
        head = fh.read(_MAX_HEADER_BYTES)
        if not head.startswith(_MAGIC + b"\n"):
            raise DataError(f"bad magic in {path}: expected {_MAGIC!r}")
        header_end = head.find(b"\nend\n")
        if header_end < 0:
            raise DataError(f"model file {path}: header never ends (read {len(head)} bytes)")
        try:
            spec, manifest = _parse_header(head[len(_MAGIC) + 1 : header_end])
            plan = _layer_plan(spec)
        except (ValueError, ConfigError, ShapeError) as exc:  # ValueError covers UnicodeDecodeError
            raise DataError(f"model file {path}: corrupt header: {exc}") from exc
        if manifest != _param_manifest(plan):
            raise DataError(f"model file {path}: tensor manifest does not match spec")
        nbytes = 8 * sum(math.prod(shape) for _, shape in manifest)
        payload_start = header_end + len(b"\nend\n")
        found = os.fstat(fh.fileno()).st_size - payload_start
        if nbytes > found:
            raise DataError(
                f"truncated model file {path}: {nbytes} payload bytes expected, {found} found"
            )
        if nbytes < found:
            raise DataError(f"model file {path}: {found - nbytes} trailing bytes")
        fh.seek(payload_start)
        arrays = []
        for _, shape in manifest:
            arr = np.fromfile(fh, dtype="<f8", count=math.prod(shape))
            if arr.size != math.prod(shape):
                raise DataError(f"model file {path} changed while it was read")
            arrays.append(arr.reshape(shape).astype(np.float64, copy=False))
    blobs = iter(arrays)
    return _instantiate(
        spec, plan, lambda cls, sizes: cls(*(next(blobs) for _ in _PARAM_SHAPES[cls](*sizes)))
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
