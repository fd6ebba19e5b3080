"""Estimator front end with the scikit-learn protocol: fit / predict /
predict_proba / score plus get_params / set_params, so the networks drop
into pipelines, grid search and clone().

X is an array of fixed-length windows: [n, T] or [n, T, 1] for the
single-sensor estimators, [n, T, 2] (vibration channel first) or a
(vibration, acoustic) pair of arrays for the fusion estimator.
"""

from __future__ import annotations

import inspect

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


class BaseWindowClassifier:
    """Shared scikit-learn plumbing; subclasses define the network spec."""

    _kind: str = ""

    def get_params(self, deep: bool = True) -> dict:
        names = [
            p.name
            for p in inspect.signature(type(self).__init__).parameters.values()
            if p.name != "self"
        ]
        return {name: getattr(self, name) for name in names}

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

    def _windows(self, X) -> dict[str, np.ndarray]:
        """Validated [n, T, 1] windows of X for each branch of the estimator's kind."""
        raise NotImplementedError

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

    def _model_spec(self, input_len: int, num_classes: int) -> ModelSpec:
        raise NotImplementedError

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


class _SingleSensorClassifier(BaseWindowClassifier):
    def __init__(
        self,
        conv_channels,
        conv_kernels,
        pool_sizes,
        dense_units,
        epochs,
        batch_size,
        learning_rate,
        validation_split,
        normalize,
        seed,
    ):
        self.conv_channels = conv_channels
        self.conv_kernels = conv_kernels
        self.pool_sizes = pool_sizes
        self.dense_units = dense_units
        self.epochs = epochs
        self.batch_size = batch_size
        self.learning_rate = learning_rate
        self.validation_split = validation_split
        self.normalize = normalize
        self.seed = seed

    def _windows(self, X) -> dict[str, np.ndarray]:
        return dict.fromkeys(kind_branches(self._kind), validate_windows(X))


class VibrationCNNClassifier(_SingleSensorClassifier):
    """1D-CNN over raw vibration windows."""

    _kind = VIBRATION_CNN

    def __init__(
        self,
        conv_channels=(16, 32, 64),
        conv_kernels=(7, 5, 3),
        pool_sizes=(2, 2, 2),
        dense_units=32,
        epochs=20,
        batch_size=64,
        learning_rate=1e-3,
        validation_split=0.2,
        normalize=True,
        seed=0,
    ):
        super().__init__(
            conv_channels,
            conv_kernels,
            pool_sizes,
            dense_units,
            epochs,
            batch_size,
            learning_rate,
            validation_split,
            normalize,
            seed,
        )

    def _model_spec(self, input_len: int, num_classes: int) -> ModelSpec:
        return ModelSpec(
            kind=VIBRATION_CNN,
            num_classes=num_classes,
            input_len=input_len,
            conv_channels=tuple(self.conv_channels),
            conv_kernels=tuple(self.conv_kernels),
            pool_sizes=tuple(self.pool_sizes),
            dense_units=self.dense_units,
        )


class AcousticLSTMClassifier(_SingleSensorClassifier):
    """CNN front end plus stacked LSTMs over raw acoustic windows."""

    _kind = ACOUSTIC_CNN_LSTM

    def __init__(
        self,
        conv_channels=(16, 32),
        conv_kernels=(7, 5),
        pool_sizes=(2, 2),
        lstm_units=64,
        lstm_layers=2,
        dense_units=32,
        epochs=20,
        batch_size=64,
        learning_rate=1e-3,
        validation_split=0.2,
        normalize=True,
        seed=0,
    ):
        super().__init__(
            conv_channels,
            conv_kernels,
            pool_sizes,
            dense_units,
            epochs,
            batch_size,
            learning_rate,
            validation_split,
            normalize,
            seed,
        )
        self.lstm_units = lstm_units
        self.lstm_layers = lstm_layers

    def _model_spec(self, input_len: int, num_classes: int) -> ModelSpec:
        return ModelSpec(
            kind=ACOUSTIC_CNN_LSTM,
            num_classes=num_classes,
            input_len=input_len,
            ac_conv_channels=tuple(self.conv_channels),
            ac_conv_kernels=tuple(self.conv_kernels),
            ac_pool_sizes=tuple(self.pool_sizes),
            lstm_units=self.lstm_units,
            lstm_layers=self.lstm_layers,
            dense_units=self.dense_units,
        )


class FusionClassifier(BaseWindowClassifier):
    """Dual-branch network over paired vibration + acoustic windows.

    X may be [n, T, 2] (vibration in channel 0, acoustic in channel 1) or a
    (vibration, acoustic) tuple of [n, T] / [n, T, 1] arrays.
    """

    _kind = FUSION

    def __init__(
        self,
        vib_conv_channels=(16, 32, 64),
        vib_conv_kernels=(7, 5, 3),
        vib_pool_sizes=(2, 2, 2),
        ac_conv_channels=(16, 32),
        ac_conv_kernels=(7, 5),
        ac_pool_sizes=(2, 2),
        lstm_units=64,
        lstm_layers=2,
        dense_units=32,
        epochs=20,
        batch_size=64,
        learning_rate=1e-3,
        validation_split=0.2,
        normalize=True,
        seed=0,
    ):
        self.vib_conv_channels = vib_conv_channels
        self.vib_conv_kernels = vib_conv_kernels
        self.vib_pool_sizes = vib_pool_sizes
        self.ac_conv_channels = ac_conv_channels
        self.ac_conv_kernels = ac_conv_kernels
        self.ac_pool_sizes = ac_pool_sizes
        self.lstm_units = lstm_units
        self.lstm_layers = lstm_layers
        self.dense_units = dense_units
        self.epochs = epochs
        self.batch_size = batch_size
        self.learning_rate = learning_rate
        self.validation_split = validation_split
        self.normalize = normalize
        self.seed = seed

    def _windows(self, X) -> dict[str, np.ndarray]:
        if isinstance(X, (tuple, list)) and len(X) == 2:
            vib = validate_windows(X[0], "X[0] (vibration)")
            ac = validate_windows(X[1], "X[1] (acoustic)")
            if vib.shape[0] != ac.shape[0] or vib.shape[1] != ac.shape[1]:
                raise ShapeError(f"modalities disagree: {vib.shape} vs {ac.shape}")
        else:
            X = np.asarray(X, dtype=DTYPE)
            if X.ndim != 3 or X.shape[2] != 2:
                raise ShapeError(f"fusion X: expected [n, T, 2] or a pair of arrays, got {X.shape}")
            check_finite(X, "X")
            vib, ac = X[:, :, :1].copy(), X[:, :, 1:].copy()
        return dict(zip(kind_branches(self._kind), (vib, ac)))

    def _model_spec(self, input_len: int, num_classes: int) -> ModelSpec:
        return ModelSpec(
            kind=FUSION,
            num_classes=num_classes,
            input_len=input_len,
            conv_channels=tuple(self.vib_conv_channels),
            conv_kernels=tuple(self.vib_conv_kernels),
            pool_sizes=tuple(self.vib_pool_sizes),
            ac_conv_channels=tuple(self.ac_conv_channels),
            ac_conv_kernels=tuple(self.ac_conv_kernels),
            ac_pool_sizes=tuple(self.ac_pool_sizes),
            lstm_units=self.lstm_units,
            lstm_layers=self.lstm_layers,
            dense_units=self.dense_units,
        )
