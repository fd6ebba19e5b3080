"""Confusion-matrix statistics: per-class precision/recall/F1/one-vs-rest
accuracy plus unweighted macro averages, and text/CSV table rendering.

The per-class "Accuracy" column is one-vs-rest accuracy (TP + TN) / total;
the Overall row carries the macro means and the plain multiclass accuracy
trace / total. Zero-denominator precision/recall/F1 are defined as 0 so the
macro means stay total.
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import ROUND_HALF_UP, Decimal

import numpy as np

from .errors import DataError, ShapeError


@dataclass
class ConfusionMatrix:
    """C x C counts; rows are true classes, columns are predicted classes."""

    counts: np.ndarray
    class_names: list[str]

    def __post_init__(self):
        self.counts = np.asarray(self.counts, dtype=np.int64)
        C = len(self.class_names)
        if self.counts.shape != (C, C):
            raise ShapeError(f"confusion matrix {self.counts.shape} vs {C} class names")
        if (self.counts < 0).any():
            raise DataError("confusion matrix has negative counts")

    @property
    def num_classes(self) -> int:
        return len(self.class_names)

    @property
    def total(self) -> int:
        return int(self.counts.sum())

    @classmethod
    def from_pairs(cls, true, predicted, class_names: list[str]) -> "ConfusionMatrix":
        true = np.asarray(true, dtype=np.int64)
        predicted = np.asarray(predicted, dtype=np.int64)
        C = len(class_names)
        if true.shape != predicted.shape:
            raise ShapeError(f"true {true.shape} vs predicted {predicted.shape}")
        if true.size and (true.min() < 0 or true.max() >= C or predicted.min() < 0 or predicted.max() >= C):
            raise DataError(f"labels outside [0, {C})")
        counts = np.zeros((C, C), dtype=np.int64)
        np.add.at(counts, (true, predicted), 1)
        return cls(counts, class_names)


@dataclass
class ClassMetrics:
    """Per-class and macro statistics derived from one confusion matrix."""

    precision: np.ndarray
    recall: np.ndarray
    f1: np.ndarray
    ovr_accuracy: np.ndarray
    macro_precision: float
    macro_recall: float
    macro_f1: float
    multiclass_accuracy: float

    @property
    def num_classes(self) -> int:
        return len(self.precision)


def _safe_div(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    out = np.zeros_like(num, dtype=np.float64)
    nz = den > 0
    out[nz] = num[nz] / den[nz]
    return out


def per_class_metrics(cm: ConfusionMatrix) -> ClassMetrics:
    """All Table-style statistics from the count matrix."""
    total = cm.total
    if total == 0:
        raise DataError("empty confusion matrix")
    counts = cm.counts.astype(np.float64)
    tp = np.diag(counts)
    fp = counts.sum(axis=0) - tp
    fn = counts.sum(axis=1) - tp
    tn = total - tp - fp - fn
    precision = _safe_div(tp, tp + fp)
    recall = _safe_div(tp, tp + fn)
    f1 = _safe_div(2.0 * precision * recall, precision + recall)
    ovr_accuracy = (tp + tn) / total
    return ClassMetrics(
        precision=precision,
        recall=recall,
        f1=f1,
        ovr_accuracy=ovr_accuracy,
        macro_precision=float(precision.mean()),
        macro_recall=float(recall.mean()),
        macro_f1=float(f1.mean()),
        multiclass_accuracy=float(tp.sum() / total),
    )


def _pct(value: float) -> str:
    """Fraction -> percent with 2 decimals, rounding half away from zero."""
    d = Decimal(repr(float(value))) * 100
    return str(d.quantize(Decimal("0.01"), rounding=ROUND_HALF_UP))


def _rows(metrics: ClassMetrics, class_names: list[str]) -> list[list[str]]:
    if len(class_names) != metrics.num_classes:
        raise ShapeError(f"{len(class_names)} names for {metrics.num_classes} classes")
    rows = []
    for c, name in enumerate(class_names):
        rows.append(
            [
                name,
                _pct(metrics.precision[c]),
                _pct(metrics.recall[c]),
                _pct(metrics.f1[c]),
                _pct(metrics.ovr_accuracy[c]),
            ]
        )
    rows.append(
        [
            "Overall",
            _pct(metrics.macro_precision),
            _pct(metrics.macro_recall),
            _pct(metrics.macro_f1),
            _pct(metrics.multiclass_accuracy),
        ]
    )
    return rows


HEADER = ["Classes", "Precision (%)", "Recall (%)", "F1 (%)", "Accuracy (%)"]


def render_table(metrics: ClassMetrics, class_names: list[str]) -> str:
    """Plain-text table: one row per class plus the Overall row."""
    rows = [HEADER] + _rows(metrics, class_names)
    widths = [max(len(r[i]) for r in rows) for i in range(len(HEADER))]
    lines = []
    for r in rows:
        lines.append("  ".join(cell.ljust(w) for cell, w in zip(r, widths)).rstrip())
    return "\n".join(lines) + "\n"


def render_csv(metrics: ClassMetrics, class_names: list[str]) -> str:
    """Comma-separated variant with the same columns and rows."""
    lines = [",".join(HEADER)]
    for r in _rows(metrics, class_names):
        lines.append(",".join(r))
    return "\n".join(lines) + "\n"
