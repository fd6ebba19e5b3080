"""Machinery fault diagnosis from vibration and acoustic windows.

From-scratch 1D-CNN, CNN+LSTM and dual-branch fusion classifiers over raw
1000-sample sensor windows, with deterministic training, table-style
metrics, a synthetic multi-sensor dataset and a CLI.
"""

__version__ = "0.1.0"

from .data import (
    Manifest,
    Recording,
    SynthSpec,
    WindowedDataset,
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
from .errors import (
    ConfigError,
    DataError,
    FaultFusionError,
    NotFittedError,
    NumericError,
    ShapeError,
)
from .estimators import AcousticLSTMClassifier, FusionClassifier, VibrationCNNClassifier
from .layers import LSTM, Conv1D, Dense, Flatten, MaxPool1D, ReLULayer, concat, relu, softmax
from .metrics import (
    ClassMetrics,
    ConfusionMatrix,
    per_class_metrics,
    render_csv,
    render_table,
    verify_overall_consistency,
)
from .model import (
    ACOUSTIC_CNN_LSTM,
    FUSION,
    MODEL_KINDS,
    VIBRATION_CNN,
    Model,
    ModelSpec,
    build_model,
    load_model,
    save_model,
)
from .tensor import Rng, glorot_uniform
from .training import (
    AdamState,
    TrainConfig,
    TrainReport,
    adam_step,
    batch_cross_entropy,
    evaluate,
    fit,
    render_report,
    stratified_split,
)

__all__ = [
    "__version__",
    "ACOUSTIC_CNN_LSTM",
    "AcousticLSTMClassifier",
    "AdamState",
    "ClassMetrics",
    "ConfigError",
    "ConfusionMatrix",
    "Conv1D",
    "DataError",
    "Dense",
    "FUSION",
    "FaultFusionError",
    "Flatten",
    "FusionClassifier",
    "LSTM",
    "MODEL_KINDS",
    "Manifest",
    "MaxPool1D",
    "Model",
    "ModelSpec",
    "NotFittedError",
    "NumericError",
    "ReLULayer",
    "Recording",
    "Rng",
    "ShapeError",
    "SynthSpec",
    "TrainConfig",
    "TrainReport",
    "VIBRATION_CNN",
    "VibrationCNNClassifier",
    "WindowedDataset",
    "adam_step",
    "batch_cross_entropy",
    "build_dataset",
    "build_model",
    "concat",
    "default_class_names",
    "evaluate",
    "fit",
    "glorot_uniform",
    "load_model",
    "load_recording",
    "normalize_window",
    "per_class_metrics",
    "read_manifest",
    "relu",
    "render_csv",
    "render_report",
    "render_table",
    "save_model",
    "segment",
    "softmax",
    "stratified_split",
    "synth_dataset",
    "synth_recording",
    "verify_overall_consistency",
    "write_manifest",
]
