"""Estimator front end with the scikit-learn protocol: fit / predict /
predict_proba / score plus get_params / set_params, so the networks drop
into pipelines, grid search and clone().

Each estimator is a dataclass whose fields are its parameters: first the
network fields of its kind, then the training parameters shared by all
three, which are keyword-only. Network fields become ``ModelSpec`` fields of
the same name, or of the name the class's ``_spec_names`` maps them to.

X is an array of fixed-length windows: [n, T] or [n, T, 1] for the
single-sensor estimators, [n, T, 2] (vibration channel first) or a
(vibration, acoustic) pair of arrays for the fusion estimator.
"""

from __future__ import annotations

from dataclasses import KW_ONLY, dataclass, fields
from typing import ClassVar

import numpy as np

from . import training
from .data import BRANCH_MODES, WindowedDataset, normalize_window
from .errors import DataError, NotFittedError, ShapeError
from .model import ACOUSTIC_CNN_LSTM, FUSION, VIBRATION_CNN, ModelSpec, build_model, kind_branches
from .tensor import DTYPE, Rng, check_finite


def validate_windows(X, name: str = "X") -> np.ndarray:
    """Coerce [n, T] or [n, T, 1] float input to finite float64 [n, T, 1]."""
    X = np.asarray(X, dtype=DTYPE)
    if X.ndim == 2:
        X = X[:, :, None]
    if X.ndim != 3 or X.shape[2] != 1:
        raise ShapeError(f"{name}: expected [n, T] or [n, T, 1] windows, got {X.shape}")
    if X.shape[0] == 0 or X.shape[1] == 0:
        raise ShapeError(f"{name}: empty window array {X.shape}")
    check_finite(X, name)
    return X


def validate_labels(y, n: int) -> np.ndarray:
    y = np.asarray(y)
    if y.ndim != 1 or y.shape[0] != n:
        raise ShapeError(f"y: expected {n} labels, got shape {y.shape}")
    return y


@dataclass(eq=False)
class BaseWindowClassifier:
    """Shared scikit-learn plumbing; subclasses list their network fields."""

    _kind: ClassVar[str] = ""
    # Network field -> ModelSpec field, where the names differ.
    _spec_names: ClassVar[dict[str, str]] = {}

    _: KW_ONLY
    epochs: int = 20
    batch_size: int = 64
    learning_rate: float = 1e-3
    validation_split: float = 0.2
    normalize: bool = True
    seed: int = 0

    def get_params(self, deep: bool = True) -> dict:
        # In __init__ order: keyword-only fields come after the network fields.
        ordered = sorted(fields(self), key=lambda f: f.kw_only)
        return {f.name: getattr(self, f.name) for f in ordered}

    def set_params(self, **params):
        valid = self.get_params()
        for key, value in params.items():
            if key not in valid:
                raise ValueError(f"invalid parameter {key!r} for {type(self).__name__}")
            setattr(self, key, value)
        return self

    def _check_fitted(self):
        if getattr(self, "model_", None) is None:
            raise NotFittedError(f"{type(self).__name__} is not fitted; call fit first")

    def _encode_labels(self, y: np.ndarray) -> np.ndarray:
        self.classes_ = np.unique(y)
        if len(self.classes_) < 2:
            raise DataError(f"need at least 2 classes, got {len(self.classes_)}")
        return np.searchsorted(self.classes_, y)

    def _train_config(self) -> training.TrainConfig:
        return training.TrainConfig(
            seed=self.seed,
            split_ratio=1.0 - self.validation_split,
            batch_size=self.batch_size,
            epochs=self.epochs,
            learning_rate=self.learning_rate,
        )

    def _model_spec(self, input_len: int, num_classes: int) -> ModelSpec:
        network = {
            self._spec_names.get(f.name, f.name): getattr(self, f.name)
            for f in fields(self)
            if not f.kw_only
        }
        return ModelSpec(kind=self._kind, num_classes=num_classes, input_len=input_len, **network)

    def _windows(self, X) -> dict[str, np.ndarray]:
        """Validated [n, T, 1] windows of X for each branch of the estimator's kind."""
        return dict.fromkeys(kind_branches(self._kind), validate_windows(X))

    def _make_dataset(self, X, y=None) -> WindowedDataset:
        windows = self._windows(X)
        if self.normalize:
            windows = {branch: normalize_window(w) for branch, w in windows.items()}
        n = next(iter(windows.values())).shape[0]
        if y is not None:
            labels = self._encode_labels(validate_labels(y, n))
        else:
            labels = np.zeros(n, dtype=np.int64)
        names = [str(c) for c in self.classes_] if y is not None else ["0", "1"]
        return WindowedDataset(
            **{"vib": None, "ac": None, **windows},
            labels=labels,
            source_ids=[f"array:{i}" for i in range(n)],
            class_names=names,
            mode=BRANCH_MODES[tuple(windows)],
        )

    def fit(self, X, y):
        dataset = self._make_dataset(X, y)
        spec = self._model_spec(dataset.window_len, dataset.num_classes)
        self.model_ = build_model(spec, Rng(self.seed))
        self.report_ = training.fit(self.model_, dataset, self._train_config())
        self.input_len_ = dataset.window_len
        return self

    def predict_proba(self, X) -> np.ndarray:
        self._check_fitted()
        dataset = self._make_dataset(X)
        if dataset.window_len != self.input_len_:
            raise ShapeError(
                f"window length {dataset.window_len} != fitted length {self.input_len_}"
            )
        return training.predict_proba(self.model_, dataset, np.arange(len(dataset)))

    def predict(self, X) -> np.ndarray:
        self._check_fitted()
        return self.classes_[self.predict_proba(X).argmax(axis=1)]

    def score(self, X, y) -> float:
        predictions = self.predict(X)
        y = validate_labels(y, len(predictions))
        return float((predictions == y).mean())


@dataclass(eq=False)
class VibrationCNNClassifier(BaseWindowClassifier):
    """1D-CNN over raw vibration windows."""

    _kind = VIBRATION_CNN

    conv_channels: tuple[int, ...] = (16, 32, 64)
    conv_kernels: tuple[int, ...] = (7, 5, 3)
    pool_sizes: tuple[int, ...] = (2, 2, 2)
    dense_units: int = 32


@dataclass(eq=False)
class AcousticLSTMClassifier(BaseWindowClassifier):
    """CNN front end plus stacked LSTMs over raw acoustic windows."""

    _kind = ACOUSTIC_CNN_LSTM
    _spec_names = {name: "ac_" + name for name in ("conv_channels", "conv_kernels", "pool_sizes")}

    conv_channels: tuple[int, ...] = (16, 32)
    conv_kernels: tuple[int, ...] = (7, 5)
    pool_sizes: tuple[int, ...] = (2, 2)
    lstm_units: int = 64
    lstm_layers: int = 2
    dense_units: int = 32


@dataclass(eq=False)
class FusionClassifier(BaseWindowClassifier):
    """Dual-branch network over paired vibration + acoustic windows.

    X may be [n, T, 2] (vibration in channel 0, acoustic in channel 1) or a
    (vibration, acoustic) tuple of [n, T] / [n, T, 1] arrays.
    """

    _kind = FUSION
    _spec_names = {"vib_" + name: name for name in ("conv_channels", "conv_kernels", "pool_sizes")}

    vib_conv_channels: tuple[int, ...] = (16, 32, 64)
    vib_conv_kernels: tuple[int, ...] = (7, 5, 3)
    vib_pool_sizes: tuple[int, ...] = (2, 2, 2)
    ac_conv_channels: tuple[int, ...] = (16, 32)
    ac_conv_kernels: tuple[int, ...] = (7, 5)
    ac_pool_sizes: tuple[int, ...] = (2, 2)
    lstm_units: int = 64
    lstm_layers: int = 2
    dense_units: int = 32

    def _windows(self, X) -> dict[str, np.ndarray]:
        if isinstance(X, (tuple, list)) and len(X) == 2:
            pair, names = X, ("X[0] (vibration)", "X[1] (acoustic)")
        else:
            X = np.asarray(X, dtype=DTYPE)
            if X.ndim != 3 or X.shape[2] != 2:
                raise ShapeError(f"fusion X: expected [n, T, 2] or a pair of arrays, got {X.shape}")
            pair = X[:, :, :1].copy(), X[:, :, 1:].copy()
            names = ("X[:, :, 0] (vibration)", "X[:, :, 1] (acoustic)")
        vib, ac = (validate_windows(w, name) for w, name in zip(pair, names))
        if vib.shape != ac.shape:
            raise ShapeError(f"modalities disagree: {vib.shape} vs {ac.shape}")
        return dict(zip(kind_branches(self._kind), (vib, ac)))
