"""Training machinery: cross-entropy, Adam, the stratified 80/20 split, the
mini-batch loop and per-epoch validation.

Everything here is a pure function of (seed, config, dataset): the split,
the shuffles and the Adam updates are all driven by the package PRNG, so two
runs with the same inputs produce bit-identical parameters.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DataError, NumericError
from .metrics import ConfusionMatrix
from .model import SENSORS, Model, kind_branches
from .tensor import DTYPE, TRAIN_DTYPE, Rng

WINDOW_GRANULARITY = "window"
FILE_GRANULARITY = "file"

PROB_FLOOR = 1e-12  # clip before log so a confident wrong answer stays finite


@dataclass(frozen=True)
class TrainConfig:
    seed: int = 0
    split_ratio: float = 0.8
    batch_size: int = 64
    epochs: int = 50
    learning_rate: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    split_granularity: str = WINDOW_GRANULARITY

    def __post_init__(self):
        if not 0.0 < self.split_ratio < 1.0:
            raise ConfigError(f"split_ratio must be in (0, 1), got {self.split_ratio}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.epochs < 1:
            raise ConfigError(f"epochs must be >= 1, got {self.epochs}")
        if self.learning_rate <= 0:
            raise ConfigError(f"learning_rate must be positive, got {self.learning_rate}")
        for name in ("beta1", "beta2"):
            if not 0.0 <= getattr(self, name) < 1.0:
                raise ConfigError(f"{name} must be in [0, 1), got {getattr(self, name)}")
        if not self.eps > 0:
            raise ConfigError(f"eps must be positive, got {self.eps}")
        if self.split_granularity not in (WINDOW_GRANULARITY, FILE_GRANULARITY):
            raise ConfigError(f"unknown split granularity {self.split_granularity!r}")


def batch_cross_entropy(probs: np.ndarray, targets: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean loss -ln(probs[b, target_b]) over a [B, C] batch and its logit gradient.

    The gradient (probs - onehot(targets)) / B is the derivative of the mean
    -ln(softmax(z)) taken directly in logit space.
    """
    probs = np.asarray(probs, dtype=DTYPE)
    targets = np.asarray(targets, dtype=np.int64)
    B, C = probs.shape
    bad = targets[(targets < 0) | (targets >= C)]
    if bad.size:
        raise DataError(f"true class {bad[0]} outside [0, {C})")
    picked = np.clip(probs[np.arange(B), targets], PROB_FLOOR, None)
    loss = float(-np.log(picked).mean())
    grad = probs.copy()
    grad[np.arange(B), targets] -= 1.0
    return loss, grad / B


def stratified_split(
    dataset,
    ratio: float,
    seed: int,
    granularity: str = WINDOW_GRANULARITY,
) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic per-class split into train/validation window indices.

    Per class, floor(ratio * n) units go to train with at least one unit
    held out. With file granularity a unit is a source recording and all of
    its windows move together.
    """
    labels = np.asarray(dataset.labels)
    rng = Rng(seed)
    train_parts: list[np.ndarray] = []
    val_parts: list[np.ndarray] = []
    for c in range(dataset.num_classes):
        class_idx = np.flatnonzero(labels == c)
        if granularity == WINDOW_GRANULARITY:
            units = [np.array([i]) for i in class_idx]
        elif granularity == FILE_GRANULARITY:
            seen: dict[str, list[int]] = {}
            for i in class_idx:
                seen.setdefault(dataset.source_ids[i], []).append(int(i))
            units = [np.asarray(v) for v in seen.values()]
        else:
            raise ConfigError(f"unknown split granularity {granularity!r}")
        if len(units) < 2:
            name = dataset.class_names[c]
            raise DataError(
                f"class {name!r} has {len(units)} unit(s) at {granularity} granularity; need >= 2"
            )
        perm = rng.permutation(len(units))
        n_train = min(int(ratio * len(units)), len(units) - 1)
        n_train = max(n_train, 1)
        for j, u in enumerate(perm):
            (train_parts if j < n_train else val_parts).append(units[u])
    train_idx = np.sort(np.concatenate(train_parts))
    val_idx = np.sort(np.concatenate(val_parts))
    return train_idx, val_idx


class AdamState:
    """First/second moment buffers mirroring the parameter dict, plus step."""

    def __init__(self, params: dict[str, np.ndarray]):
        self.m = {k: np.zeros_like(v) for k, v in params.items()}
        self.v = {k: np.zeros_like(v) for k, v in params.items()}
        self.step = 0


def adam_step(
    params: dict[str, np.ndarray],
    grads: dict[str, np.ndarray],
    state: AdamState,
    config: TrainConfig,
) -> None:
    """One bias-corrected Adam update, in place; each gradient is cast up to
    its parameter's dtype first, so a float32 pass updates float64 weights."""
    state.step += 1
    t = state.step
    bc1 = 1.0 - config.beta1**t
    bc2 = 1.0 - config.beta2**t
    for k, p in params.items():
        g = grads[k]
        if g.shape != p.shape:
            raise DataError(f"gradient for {k} has shape {g.shape}, parameter {p.shape}")
        g = g.astype(p.dtype, copy=False)
        m = state.m[k]
        v = state.v[k]
        m *= config.beta1
        m += (1.0 - config.beta1) * g
        v *= config.beta2
        v += (1.0 - config.beta2) * (g * g)
        p -= config.learning_rate * (m / bc1) / (np.sqrt(v / bc2) + config.eps)


def _model_inputs(model: Model, dataset, idx: np.ndarray) -> dict:
    """``Model.forward`` keywords: the windows ``idx`` of each branch of the model."""
    inputs = {}
    for branch in kind_branches(model.kind):
        windows = getattr(dataset, branch)
        if windows is None:
            raise DataError(
                f"{model.kind} model needs {SENSORS[branch]} windows, "
                f"dataset mode is {dataset.mode}"
            )
        inputs[f"x_{branch}"] = windows[idx]
    return inputs


@dataclass
class EpochStats:
    epoch: int
    train_loss: float
    train_accuracy: float
    val_accuracy: float


@dataclass
class TrainReport:
    epochs: list[EpochStats] = field(default_factory=list)
    final_confusion: ConfusionMatrix | None = None
    wall_time_s: float = 0.0

    @property
    def final_val_accuracy(self) -> float:
        return self.epochs[-1].val_accuracy if self.epochs else 0.0


def predict_proba(model: Model, dataset, indices: np.ndarray, batch_size: int = 256) -> np.ndarray:
    """Class posteriors [n, C] of the given windows, batch_size windows per forward
    that keeps no backward cache."""
    indices = np.asarray(indices, dtype=np.int64)
    out = np.empty((indices.size, model.spec.num_classes), dtype=DTYPE)
    for start in range(0, indices.size, batch_size):
        chunk = indices[start : start + batch_size]
        inputs = _model_inputs(model, dataset, chunk)
        out[start : start + chunk.size] = model.forward(**inputs, keep=False)[0]
    return out


def evaluate(
    model: Model,
    dataset,
    indices: np.ndarray,
    batch_size: int = 256,
) -> tuple[float, ConfusionMatrix]:
    """Argmax predictions over the given windows -> accuracy and counts."""
    indices = np.asarray(indices, dtype=np.int64)
    if indices.size == 0:
        raise DataError("evaluate: empty index set")
    predicted = predict_proba(model, dataset, indices, batch_size).argmax(axis=-1)
    true = dataset.labels[indices]
    cm = ConfusionMatrix.from_pairs(true, predicted, list(dataset.class_names))
    accuracy = float((predicted == true).mean())
    return accuracy, cm


def fit(model: Model, dataset, config: TrainConfig) -> TrainReport:
    """Seeded mini-batch training with per-epoch validation.

    Training accuracy is measured on the fly from each batch's predictions
    before its update; validation accuracy uses the frozen end-of-epoch
    model.

    A NumericError names the epoch and either the batch (numbered from 1
    within the epoch) or the end-of-epoch validation pass.

    Mixed precision with float64 master weights: each batch is cast to
    float32, so its forward and backward run in float32 (the layers compute
    in their input's dtype), while the weights, the Adam moments and the
    validation pass stay float64.
    """
    if len(dataset) == 0:
        raise DataError("empty dataset")
    t_start = time.perf_counter()
    train_idx, val_idx = stratified_split(
        dataset, config.split_ratio, config.seed, config.split_granularity
    )
    params = model.parameters()
    state = AdamState(params)
    shuffle_root = Rng(config.seed).derive(0xBA7C)
    report = TrainReport()
    for epoch in range(1, config.epochs + 1):
        order = train_idx[shuffle_root.derive(epoch).permutation(train_idx.size)]
        loss_sum = 0.0
        hits = 0
        for number, start in enumerate(range(0, order.size, config.batch_size), start=1):
            batch = order[start : start + config.batch_size]
            targets = dataset.labels[batch]
            inputs = _model_inputs(model, dataset, batch)
            try:
                probs, caches = model.forward(
                    **{k: x.astype(TRAIN_DTYPE) for k, x in inputs.items()}
                )
            except NumericError as exc:
                raise NumericError(f"epoch {epoch}, batch {number}: {exc}") from exc
            loss, grad_logits = batch_cross_entropy(probs, targets)
            if not np.isfinite(loss):
                raise NumericError(f"epoch {epoch}, batch {number}: non-finite training loss")
            loss_sum += loss * batch.size
            hits += int((probs.argmax(axis=-1) == targets).sum())
            grads = model.backward(caches, grad_logits)
            del caches  # else this batch's caches live on through the next forward
            adam_step(params, grads, state, config)
        try:
            val_accuracy, cm = evaluate(model, dataset, val_idx)
        except NumericError as exc:
            raise NumericError(f"epoch {epoch}, validation: {exc}") from exc
        report.epochs.append(
            EpochStats(
                epoch=epoch,
                train_loss=loss_sum / order.size,
                train_accuracy=hits / order.size,
                val_accuracy=val_accuracy,
            )
        )
        report.final_confusion = cm
    report.wall_time_s = time.perf_counter() - t_start
    return report


def render_report(report: TrainReport) -> str:
    """Text report: per-epoch rows, final confusion counts, then timing.

    The timing section is last and separate so that reports from identical
    runs differ only there.
    """
    lines = ["epoch  train_loss  train_acc  val_acc"]
    for e in report.epochs:
        lines.append(
            f"{e.epoch:>5}  {e.train_loss:>10.6f}  {e.train_accuracy:>9.4f}  {e.val_accuracy:>7.4f}"
        )
    if report.final_confusion is not None:
        cm = report.final_confusion
        lines.append("")
        lines.append("validation confusion matrix (rows true, columns predicted)")
        lines.append("class  " + " ".join(f"{n:>6}" for n in range(cm.num_classes)))
        for r in range(cm.num_classes):
            lines.append(f"{r:>5}  " + " ".join(f"{v:>6}" for v in cm.counts[r]))
    lines.append("")
    lines.append("[timing]")
    lines.append(f"wall_time_s={report.wall_time_s:.3f}")
    return "\n".join(lines) + "\n"
