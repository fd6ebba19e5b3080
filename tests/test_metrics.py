import numpy as np
import pytest

from faultfusion.errors import DataError, ShapeError
from faultfusion.metrics import (
    ClassMetrics,
    ConfusionMatrix,
    per_class_metrics,
    render_csv,
    render_table,
)
from faultfusion.tensor import Rng

# Table-style reference data: the nine per-class precision percentages of the
# vibration column whose unweighted mean reproduces the stated Overall value.
VIB_PRECISION_PCT = [100.0, 96.70, 83.12, 71.64, 84.56, 95.02, 94.20, 97.68, 95.35]
VIB_RECALL_PCT = [99.26, 81.10, 95.73, 88.20, 65.23, 94.08, 98.48, 95.04, 98.26]
VIB_F1_PCT = [99.63, 88.22, 88.98, 79.06, 73.65, 94.55, 96.29, 96.34, 96.78]
VIB_OVERALL = (90.92, 90.60, 90.39)


def verify_overall_consistency(metrics: ClassMetrics, tol: float = 5e-3) -> bool:
    """Check the macro fields against unweighted means of the per-class fields.

    The tolerance is in the units the metrics are stored in; table entries
    re-typed as percentages absorb their two-decimal rounding within 5e-3.
    """
    return (
        abs(metrics.macro_precision - float(np.mean(metrics.precision))) <= tol
        and abs(metrics.macro_recall - float(np.mean(metrics.recall))) <= tol
        and abs(metrics.macro_f1 - float(np.mean(metrics.f1))) <= tol
    )


def brute_force_metrics(true, predicted, num_classes):
    """Independent recount straight from the (true, predicted) pair list."""
    n = len(true)
    precision, recall, f1, ovr = [], [], [], []
    for c in range(num_classes):
        tp = sum(1 for t, p in zip(true, predicted) if t == c and p == c)
        fp = sum(1 for t, p in zip(true, predicted) if t != c and p == c)
        fn = sum(1 for t, p in zip(true, predicted) if t == c and p != c)
        tn = n - tp - fp - fn
        prec = tp / (tp + fp) if tp + fp else 0.0
        rec = tp / (tp + fn) if tp + fn else 0.0
        precision.append(prec)
        recall.append(rec)
        f1.append(2 * prec * rec / (prec + rec) if prec + rec else 0.0)
        ovr.append((tp + tn) / n)
    acc = sum(1 for t, p in zip(true, predicted) if t == p) / n
    return precision, recall, f1, ovr, acc


class TestConfusionMatrix:
    def test_from_pairs_counts(self):
        cm = ConfusionMatrix.from_pairs([0, 0, 1, 1, 1], [0, 1, 1, 1, 0], ["a", "b"])
        assert np.array_equal(cm.counts, [[1, 1], [1, 2]])
        assert cm.total == 5

    def test_label_out_of_range(self):
        with pytest.raises(DataError):
            ConfusionMatrix.from_pairs([0, 2], [0, 1], ["a", "b"])

    def test_negative_counts_rejected(self):
        with pytest.raises(DataError):
            ConfusionMatrix(np.array([[1, -1], [0, 2]]), ["a", "b"])

    def test_shape_vs_names(self):
        with pytest.raises(ShapeError):
            ConfusionMatrix(np.zeros((2, 2), dtype=int), ["a", "b", "c"])


class TestPerClassMetrics:
    def test_perfect_two_class(self):
        m = per_class_metrics(ConfusionMatrix(np.array([[5, 0], [0, 5]]), ["a", "b"]))
        assert np.array_equal(m.precision, [1.0, 1.0])
        assert np.array_equal(m.recall, [1.0, 1.0])
        assert np.array_equal(m.f1, [1.0, 1.0])
        assert np.array_equal(m.ovr_accuracy, [1.0, 1.0])
        assert m.multiclass_accuracy == 1.0

    def test_hand_counted_two_class(self):
        m = per_class_metrics(ConfusionMatrix(np.array([[3, 1], [2, 4]]), ["a", "b"]))
        assert abs(m.precision[0] - 0.6) < 1e-12  # 3 / (3 + 2)
        assert abs(m.recall[0] - 0.75) < 1e-12  # 3 / 4
        assert abs(m.f1[0] - 2 * 0.6 * 0.75 / 1.35) < 1e-12
        assert abs(m.ovr_accuracy[0] - 0.7) < 1e-12  # (3 + 4) / 10
        assert abs(m.multiclass_accuracy - 0.7) < 1e-12

    def test_zero_denominator_conventions(self):
        # class 1 never predicted and never true -> all zeros for it
        m = per_class_metrics(ConfusionMatrix(np.array([[4, 0], [0, 0]]), ["a", "b"]))
        assert m.precision[1] == 0.0 and m.recall[1] == 0.0 and m.f1[1] == 0.0

    def test_empty_matrix(self):
        with pytest.raises(DataError, match="empty"):
            per_class_metrics(ConfusionMatrix(np.zeros((2, 2), dtype=int), ["a", "b"]))

    def test_matches_brute_force_recount(self):
        rng = Rng(0)
        for trial in range(60):
            C = 2 + int(rng.uniform() * 7)
            n = 20 + int(rng.uniform() * 200)
            true = (rng.uniform(n) * C).astype(int)
            predicted = (rng.uniform(n) * C).astype(int)
            cm = ConfusionMatrix.from_pairs(true, predicted, [str(i) for i in range(C)])
            m = per_class_metrics(cm)
            p, r, f1, ovr, acc = brute_force_metrics(true.tolist(), predicted.tolist(), C)
            assert m.precision.tolist() == p
            assert m.recall.tolist() == r
            assert m.f1.tolist() == f1
            assert m.ovr_accuracy.tolist() == ovr
            assert m.multiclass_accuracy == acc

    def test_weighted_recall_identity(self):
        rng = Rng(1)
        for trial in range(20):
            counts = (rng.uniform((4, 4)) * 30).astype(int)
            counts[0, 0] += 1  # nonempty
            cm = ConfusionMatrix(counts, list("abcd"))
            m = per_class_metrics(cm)
            rowsums = counts.sum(axis=1)
            weighted = float((m.recall * rowsums).sum() / counts.sum())
            assert abs(weighted - m.multiclass_accuracy) < 1e-12

    def test_f1_between_precision_and_recall(self):
        rng = Rng(2)
        for trial in range(20):
            counts = (rng.uniform((3, 3)) * 20).astype(int) + 1
            m = per_class_metrics(ConfusionMatrix(counts, list("abc")))
            lo = np.minimum(m.precision, m.recall)
            hi = np.maximum(m.precision, m.recall)
            assert ((m.f1 >= lo - 1e-12) & (m.f1 <= hi + 1e-12)).all()


class TestTableReference:
    def test_vibration_precision_macro_reproduces_overall(self):
        mean_pct = float(np.mean(VIB_PRECISION_PCT))
        assert abs(mean_pct - VIB_OVERALL[0]) <= 0.01

    def test_reentered_table_rows_are_consistent(self):
        m = ClassMetrics(
            precision=np.array(VIB_PRECISION_PCT),
            recall=np.array(VIB_RECALL_PCT),
            f1=np.array(VIB_F1_PCT),
            ovr_accuracy=np.zeros(9),
            macro_precision=VIB_OVERALL[0],
            macro_recall=VIB_OVERALL[1],
            macro_f1=VIB_OVERALL[2],
            multiclass_accuracy=0.927,
        )
        assert verify_overall_consistency(m)

    def test_perturbed_row_fails_consistency(self):
        perturbed = list(VIB_PRECISION_PCT)
        perturbed[3] += 1.0  # one extra point on one class
        m = ClassMetrics(
            precision=np.array(perturbed),
            recall=np.array(VIB_RECALL_PCT),
            f1=np.array(VIB_F1_PCT),
            ovr_accuracy=np.zeros(9),
            macro_precision=VIB_OVERALL[0],
            macro_recall=VIB_OVERALL[1],
            macro_f1=VIB_OVERALL[2],
            multiclass_accuracy=0.927,
        )
        assert not verify_overall_consistency(m)

    def test_computed_metrics_always_consistent(self):
        rng = Rng(3)
        for trial in range(20):
            counts = (rng.uniform((5, 5)) * 25).astype(int)
            counts[1, 1] += 1
            m = per_class_metrics(ConfusionMatrix(counts, list("abcde")))
            assert verify_overall_consistency(m)


class TestRendering:
    def test_perfect_nine_class_table(self):
        counts = np.diag([10] * 9)
        names = [f"c{i}" for i in range(9)]
        m = per_class_metrics(ConfusionMatrix(counts, names))
        table = render_table(m, names)
        lines = table.strip().splitlines()
        assert len(lines) == 1 + 9 + 1  # header + classes + Overall
        assert lines[0].startswith("Classes")
        for line in lines[1:]:
            assert line.count("100.00") == 4
        assert lines[-1].startswith("Overall")

    def test_rounding_half_away_from_zero(self):
        m = ClassMetrics(
            precision=np.array([0.90915, 0.5]),
            recall=np.array([0.5, 0.5]),
            f1=np.array([0.5, 0.5]),
            ovr_accuracy=np.array([0.5, 0.5]),
            macro_precision=0.704575,
            macro_recall=0.5,
            macro_f1=0.5,
            multiclass_accuracy=0.5,
        )
        table = render_table(m, ["a", "b"])
        assert "90.92" in table  # 0.90915 -> 90.915% -> 90.92

    def test_csv_shape(self):
        counts = np.diag([3, 4, 5])
        names = list("abc")
        m = per_class_metrics(ConfusionMatrix(counts, names))
        csv_text = render_csv(m, names)
        lines = csv_text.strip().splitlines()
        assert lines[0] == "Classes,Precision (%),Recall (%),F1 (%),Accuracy (%)"
        assert len(lines) == 1 + 3 + 1
        assert lines[-1].split(",")[0] == "Overall"

    def test_name_count_mismatch(self):
        m = per_class_metrics(ConfusionMatrix(np.diag([1, 1]), ["a", "b"]))
        with pytest.raises(ShapeError):
            render_table(m, ["a", "b", "c"])
