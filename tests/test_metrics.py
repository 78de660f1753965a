import numpy as np
import pytest

from matchflow import metrics
from matchflow.errors import DataError

from util import auc_oracle, confusion_oracle


def test_perfect_agreement_has_no_errors():
    truth = [0, 1, 2, 3, 0, 1, 2, 3, 1, 2]
    counts = metrics.confusion(truth, truth, n_classes=4)
    assert np.all(counts.fp == 0)
    assert np.all(counts.fn == 0)
    assert int(counts.tp.sum()) == 10


def test_two_class_hand_count():
    truth = [0, 0, 1, 1]
    pred = [0, 1, 0, 1]
    counts = metrics.confusion(truth, pred, n_classes=2)
    assert (counts.tp[0], counts.fp[0], counts.fn[0], counts.tn[0]) == (1, 1, 1, 1)


def test_counts_partition_the_sample():
    rng = np.random.default_rng(1)
    truth = rng.integers(0, 4, size=50)
    pred = rng.integers(0, 4, size=50)
    counts = metrics.confusion(truth, pred, n_classes=4)
    for c in range(4):
        assert counts.tp[c] + counts.fp[c] + counts.fn[c] + counts.tn[c] == 50
    assert int(counts.tp.sum()) == int(np.sum(truth == pred))


def test_confusion_matches_brute_force_oracle():
    rng = np.random.default_rng(2)
    samples = [(rng.integers(0, 4, size=50).tolist(), rng.integers(0, 4, size=50).tolist())
               for _ in range(30)]
    # an empty sample, and class 2 absent from both truth and predictions
    samples += [([], []), ([0, 3, 1, 3, 0, 1], [3, 3, 0, 1, 0, 1])]
    for truth, pred in samples:
        counts = metrics.confusion(truth, pred, n_classes=4)
        oracle = confusion_oracle(truth, pred, 4)
        for c in range(4):
            assert (counts.tp[c], counts.fp[c], counts.fn[c], counts.tn[c]) == oracle[c]


def test_length_mismatch_raises():
    with pytest.raises(ValueError, match="length"):
        metrics.confusion([0, 1], [0], n_classes=2)


@pytest.mark.parametrize("truth,pred", [([0, 1], [0, 2]), ([2, 1], [0, 1]), ([0, -1], [0, 1])])
def test_a_level_outside_the_classes_raises(truth, pred):
    with pytest.raises(ValueError, match="levels"):
        metrics.confusion(truth, pred, n_classes=2)


def test_single_class_viewpoint_arithmetic():
    counts = metrics.ConfusionCounts(
        tp=np.array([8]), fp=np.array([2]), fn=np.array([2]), tn=np.array([0])
    )
    summary = metrics.summary_metrics(counts)
    assert summary["per_class"]["precision"][0] == pytest.approx(0.8)
    assert summary["per_class"]["sensitivity"][0] == pytest.approx(0.8)
    assert summary["per_class"]["f_measure"][0] == pytest.approx(0.8)


def test_micro_f1_equals_accuracy_identity():
    rng = np.random.default_rng(3)
    for _ in range(30):
        truth = rng.integers(0, 4, size=60)
        pred = rng.integers(0, 4, size=60)
        summary = metrics.summary_metrics(metrics.confusion(truth, pred, n_classes=4))
        accuracy = float(np.mean(truth == pred))
        assert summary["micro"]["f_measure"] == pytest.approx(accuracy, abs=1e-12)
        assert summary["micro"]["accuracy"] == pytest.approx(accuracy, abs=1e-12)


def test_macro_f1_uses_averaged_precision_and_recall():
    rng = np.random.default_rng(4)
    truth = rng.integers(0, 3, size=40)
    pred = rng.integers(0, 3, size=40)
    summary = metrics.summary_metrics(metrics.confusion(truth, pred, n_classes=3))
    p, r = summary["macro"]["precision"], summary["macro"]["sensitivity"]
    assert summary["macro"]["f_measure"] == pytest.approx(2 * p * r / (p + r))


def test_zero_over_zero_is_zero():
    # class 2 never appears in truth or predictions
    truth = [0, 1, 0, 1]
    pred = [0, 1, 1, 0]
    summary = metrics.summary_metrics(metrics.confusion(truth, pred, n_classes=3))
    assert summary["per_class"]["precision"][2] == 0.0
    assert summary["per_class"]["sensitivity"][2] == 0.0
    assert summary["per_class"]["f_measure"][2] == 0.0


def test_f_scores_stay_in_unit_interval():
    rng = np.random.default_rng(5)
    for _ in range(20):
        truth = rng.integers(0, 4, size=30)
        pred = rng.integers(0, 4, size=30)
        summary = metrics.summary_metrics(metrics.confusion(truth, pred, n_classes=4))
        assert 0.0 <= summary["macro"]["f_measure"] <= 1.0
        assert 0.0 <= summary["micro"]["f_measure"] <= 1.0


def test_metrics_table_layout():
    truth = [0, 1, 2, 3] * 3
    summary = metrics.summary_metrics(metrics.confusion(truth, truth, n_classes=4))
    table = metrics.metrics_table(summary, (0.0, 0.3266, 0.6734, 1.0))
    assert table["columns"] == [
        "0 is positive",
        "0.3266 is positive",
        "0.6734 is positive",
        "1 is positive",
        "macro_avg",
        "micro_avg",
    ]
    for row, values in table["rows"].items():
        assert len(values) == 6, row


def test_roc_perfect_ranking():
    truth = [1, 1, 1, 0, 0, 0]
    scores = [0.9, 0.8, 0.7, 0.3, 0.2, 0.1]
    curve = metrics.roc_auc(truth, scores, positive=1)
    assert curve.auc == pytest.approx(1.0)


def test_roc_constant_scores_is_the_diagonal():
    truth = [1, 0, 1, 0, 1]
    curve = metrics.roc_auc(truth, [0.4] * 5, positive=1)
    assert curve.auc == pytest.approx(0.5)
    assert len(curve.fpr) == 2  # (0,0) then the single tie step to (1,1)


def test_roc_matches_mann_whitney_oracle():
    rng = np.random.default_rng(6)
    for _ in range(30):
        truth = rng.integers(0, 2, size=20)
        if truth.min() == truth.max():
            truth[0] = 1 - truth[0]
        scores = np.round(rng.random(20), 2)  # rounding forces some ties
        curve = metrics.roc_auc(truth, scores, positive=1)
        assert curve.auc == pytest.approx(auc_oracle(truth, scores, 1), abs=1e-12)


def test_roc_curve_shape_invariants():
    rng = np.random.default_rng(7)
    truth = rng.integers(0, 2, size=40)
    truth[:2] = [0, 1]
    scores = rng.random(40)
    curve = metrics.roc_auc(truth, scores, positive=1)
    assert curve.fpr[0] == 0.0 and curve.tpr[0] == 0.0
    assert curve.fpr[-1] == 1.0 and curve.tpr[-1] == 1.0
    assert np.all(np.diff(curve.fpr) >= 0)
    assert np.all(np.diff(curve.tpr) >= 0)
    assert curve.thresholds[0] == np.inf
    assert np.all(np.diff(curve.thresholds) < 0)


def test_auc_invariant_under_monotone_transform():
    rng = np.random.default_rng(8)
    truth = rng.integers(0, 2, size=30)
    truth[:2] = [0, 1]
    scores = rng.random(30)
    base = metrics.roc_auc(truth, scores, positive=1).auc
    warped = metrics.roc_auc(truth, np.tanh(3.0 * scores) ** 3, positive=1).auc
    assert warped == pytest.approx(base, abs=1e-12)


def test_reversed_scores_flip_auc():
    rng = np.random.default_rng(9)
    truth = rng.integers(0, 2, size=30)
    truth[:2] = [0, 1]
    scores = rng.random(30)
    a = metrics.roc_auc(truth, scores, positive=1).auc
    b = metrics.roc_auc(truth, 1.0 - scores, positive=1).auc
    assert a + b == pytest.approx(1.0, abs=1e-12)


def test_roc_needs_both_classes():
    with pytest.raises(DataError, match="ROC"):
        metrics.roc_auc([1, 1, 1], [0.1, 0.2, 0.3], positive=1)
