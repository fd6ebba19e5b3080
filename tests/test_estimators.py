import inspect
import warnings

import numpy as np
import pytest

from faultfusion.errors import DataError, NotFittedError, ShapeError
from faultfusion.estimators import (
    AcousticLSTMClassifier,
    FusionClassifier,
    VibrationCNNClassifier,
    validate_windows,
)
from faultfusion.tensor import Rng


def toy_windows(n_per_class=10, n_classes=2, T=64, seed=0, labels=(0, 1)):
    rng = Rng(seed)
    t = np.arange(T) / T
    X, y = [], []
    for c in range(n_classes):
        for _ in range(n_per_class):
            w = np.sin(2 * np.pi * (2 + 3 * c) * t + rng.uniform() * 2 * np.pi)
            X.append(w + 0.1 * rng.normal(T))
            y.append(labels[c])
    return np.stack(X), np.array(y)


def small_vib(**overrides):
    params = dict(
        conv_channels=(4, 8),
        conv_kernels=(5, 3),
        pool_sizes=(2, 2),
        dense_units=8,
        epochs=60,
        batch_size=16,
        learning_rate=3e-3,
        validation_split=0.25,
        seed=0,
    )
    params.update(overrides)
    return VibrationCNNClassifier(**params)


class TestValidation:
    def test_accepts_2d_and_3d(self):
        X2 = validate_windows(np.zeros((4, 16)))
        X3 = validate_windows(np.zeros((4, 16, 1)))
        assert X2.shape == X3.shape == (4, 16, 1)

    def test_rejects_wrong_rank(self):
        with pytest.raises(ShapeError):
            validate_windows(np.zeros(16))
        with pytest.raises(ShapeError):
            validate_windows(np.zeros((4, 16, 2)))

    def test_rejects_non_finite(self):
        X = np.zeros((2, 8))
        X[1, 3] = np.inf
        with pytest.raises(Exception, match="non-finite"):
            validate_windows(X)


def small_acoustic(**overrides):
    params = dict(
        conv_channels=(4,), conv_kernels=(5,), pool_sizes=(4,), lstm_units=6, lstm_layers=1,
        dense_units=8, epochs=3, batch_size=16, validation_split=0.25, normalize=False, seed=1,
    )
    params.update(overrides)
    return AcousticLSTMClassifier(**params)


def small_fusion(**overrides):
    params = dict(
        vib_conv_channels=(4,), vib_conv_kernels=(5,), vib_pool_sizes=(2,),
        ac_conv_channels=(4,), ac_conv_kernels=(5,), ac_pool_sizes=(4,), lstm_units=4,
        dense_units=8, epochs=3, batch_size=16, learning_rate=3e-3, validation_split=0.25, seed=2,
    )
    params.update(overrides)
    return FusionClassifier(**params)


SMALL = {"vibration": small_vib, "acoustic": small_acoustic, "fusion": small_fusion}

TRAINING_DEFAULTS = [
    ("epochs", 20),
    ("batch_size", 64),
    ("learning_rate", 1e-3),
    ("validation_split", 0.2),
    ("normalize", True),
    ("seed", 0),
]

# Each estimator's parameters in __init__ order with their defaults; the
# training parameters after the network ones are keyword-only.
PARAMETER_TABLES = {
    VibrationCNNClassifier: [
        ("conv_channels", (16, 32, 64)),
        ("conv_kernels", (7, 5, 3)),
        ("pool_sizes", (2, 2, 2)),
        ("dense_units", 32),
    ],
    AcousticLSTMClassifier: [
        ("conv_channels", (16, 32)),
        ("conv_kernels", (7, 5)),
        ("pool_sizes", (2, 2)),
        ("lstm_units", 64),
        ("lstm_layers", 2),
        ("dense_units", 32),
    ],
    FusionClassifier: [
        ("vib_conv_channels", (16, 32, 64)),
        ("vib_conv_kernels", (7, 5, 3)),
        ("vib_pool_sizes", (2, 2, 2)),
        ("ac_conv_channels", (16, 32)),
        ("ac_conv_kernels", (7, 5)),
        ("ac_pool_sizes", (2, 2)),
        ("lstm_units", 64),
        ("lstm_layers", 2),
        ("dense_units", 32),
    ],
}


class TestParamsProtocol:
    @pytest.mark.parametrize("make", SMALL.values(), ids=SMALL)
    def test_get_params_round_trip(self, make):
        est = make()
        params = est.get_params()
        rebuilt = type(est)(**params)
        assert rebuilt.get_params() == params

    @pytest.mark.parametrize("make", SMALL.values(), ids=SMALL)
    def test_set_params(self, make):
        est = make()
        est.set_params(epochs=3, learning_rate=0.1)
        assert est.epochs == 3 and est.learning_rate == 0.1

    @pytest.mark.parametrize("make", SMALL.values(), ids=SMALL)
    def test_clone_from_get_params_keeps_each_object(self, make):
        est = make()
        kinds = {p.kind for p in inspect.signature(type(est)).parameters.values()}
        assert not kinds & {inspect.Parameter.VAR_POSITIONAL, inspect.Parameter.VAR_KEYWORD}
        params = est.get_params()
        rebuilt = type(est)(**params)
        for name, value in params.items():
            assert getattr(rebuilt, name) is value, name

    @pytest.mark.parametrize("cls", PARAMETER_TABLES, ids=lambda cls: cls.__name__)
    def test_parameter_names_order_and_defaults(self, cls):
        network = PARAMETER_TABLES[cls]
        signature = inspect.signature(cls).parameters.values()
        assert [(p.name, p.default) for p in signature] == network + TRAINING_DEFAULTS
        assert list(cls().get_params().items()) == network + TRAINING_DEFAULTS
        keyword_only = [p.name for p in signature if p.kind is inspect.Parameter.KEYWORD_ONLY]
        assert keyword_only == [name for name, _ in TRAINING_DEFAULTS]

    def test_set_params_rejects_unknown(self):
        with pytest.raises(ValueError, match="invalid parameter"):
            small_vib().set_params(depth=3)

    def test_sklearn_clone_compatibility(self):
        sklearn_base = pytest.importorskip("sklearn.base")
        est = small_vib(epochs=2)
        cloned = sklearn_base.clone(est)
        assert cloned.get_params() == est.get_params()


class TestVibrationEstimator:
    def test_fit_predict_separable(self):
        X, y = toy_windows()
        est = small_vib().fit(X, y)
        assert est.score(X, y) >= 0.9

    def test_predict_proba_rows_sum_to_one(self):
        X, y = toy_windows()
        est = small_vib(epochs=2).fit(X, y)
        proba = est.predict_proba(X)
        assert proba.shape == (len(X), 2)
        assert np.abs(proba.sum(axis=1) - 1.0).max() < 1e-9

    def test_non_contiguous_labels_round_trip(self):
        X, y = toy_windows(labels=(3, 7))
        est = small_vib().fit(X, y)
        assert set(est.classes_) == {3, 7}
        assert set(est.predict(X)) <= {3, 7}

    def test_not_fitted(self):
        with pytest.raises(NotFittedError):
            small_vib().predict(np.zeros((2, 64)))

    def test_single_class_rejected(self):
        X, _ = toy_windows()
        with pytest.raises(DataError, match="2 classes"):
            small_vib().fit(X, np.zeros(len(X)))

    def test_window_length_must_match_fit(self):
        X, y = toy_windows()
        est = small_vib(epochs=2).fit(X, y)
        with pytest.raises(ShapeError, match="length"):
            est.predict(np.zeros((2, 32)))

    def test_deterministic_given_seed(self):
        X, y = toy_windows()
        p1 = small_vib(epochs=3).fit(X, y).predict_proba(X)
        p2 = small_vib(epochs=3).fit(X, y).predict_proba(X)
        assert np.array_equal(p1, p2)


class TestAcousticEstimator:
    def test_fit_predict(self):
        X, y = toy_windows(n_per_class=8)
        est = AcousticLSTMClassifier(
            conv_channels=(4,),
            conv_kernels=(5,),
            pool_sizes=(4,),
            lstm_units=6,
            dense_units=8,
            epochs=40,
            batch_size=16,
            learning_rate=3e-3,
            validation_split=0.25,
            seed=1,
        ).fit(X, y)
        assert est.score(X, y) >= 0.8

    def test_report_available(self):
        X, y = toy_windows(n_per_class=4)
        est = AcousticLSTMClassifier(
            conv_channels=(2,), conv_kernels=(5,), pool_sizes=(4,), lstm_units=3,
            dense_units=4, epochs=2, batch_size=8, validation_split=0.25, seed=0,
        ).fit(X, y)
        assert len(est.report_.epochs) == 2


class TestFusionEstimator:
    def test_stacked_input(self):
        Xv, y = toy_windows(n_per_class=8, seed=3)
        Xa, _ = toy_windows(n_per_class=8, seed=4)
        X = np.stack([Xv, Xa], axis=2)
        est = small_fusion(epochs=40).fit(X, y)
        assert est.score(X, y) >= 0.8

    def test_tuple_input_equals_stacked(self):
        Xv, y = toy_windows(n_per_class=4, seed=5)
        Xa, _ = toy_windows(n_per_class=4, seed=6)
        stacked = np.stack([Xv, Xa], axis=2)
        p1 = small_fusion(epochs=2).fit(stacked, y).predict_proba(stacked)
        p2 = small_fusion(epochs=2).fit((Xv, Xa), y).predict_proba((Xv, Xa))
        assert np.array_equal(p1, p2)

    def test_mismatched_modalities(self):
        Xv, y = toy_windows(n_per_class=4)
        with pytest.raises(ShapeError, match="disagree"):
            small_fusion().fit((Xv, Xv[:, :32]), y)

    def test_wrong_channel_count(self):
        with pytest.raises(ShapeError, match="fusion X"):
            small_fusion().fit(np.zeros((4, 16, 3)), np.array([0, 1, 0, 1]))

    @pytest.mark.parametrize("shape", [(0, 16, 2), (4, 0, 2)], ids=["n0", "T0"])
    def test_empty_stacked_input_is_shape_error(self, shape):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(ShapeError, match="empty window array"):
                small_fusion().fit(np.zeros(shape), np.zeros(shape[0]))
