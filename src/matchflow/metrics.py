"""Confusion-matrix statistics, macro/micro F1 and one-vs-rest ROC curves.

Micro statistics pool the per-class TP/FP/FN counts before applying the
precision/recall/F1 formulas; macro statistics average per-class precision
and recall first and apply the F1 formula to the averages.  For single-label
multiclass data micro-F1 always equals plain accuracy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError

_trapezoid = getattr(np, "trapezoid", None) or np.trapz  # numpy < 2 fallback

METRIC_ROWS = (
    "true_positive",
    "false_positive",
    "false_negative",
    "true_negative",
    "precision",
    "sensitivity",
    "specificity",
    "accuracy",
    "f_measure",
)


@dataclass
class ConfusionCounts:
    """One-vs-rest counts per class; tp+fp+fn+tn equals the sample count."""

    tp: np.ndarray
    fp: np.ndarray
    fn: np.ndarray
    tn: np.ndarray

    @property
    def n_classes(self) -> int:
        return self.tp.size

    @property
    def total(self) -> int:
        return int(self.tp[0] + self.fp[0] + self.fn[0] + self.tn[0]) if self.n_classes else 0


def confusion(truth, pred, n_classes) -> ConfusionCounts:
    """Exact one-vs-rest confusion counts.

    Raises:
        ValueError: truth and pred lengths differ, or a level is outside [0, n_classes).
    """
    t = np.asarray(truth, dtype=int)
    p = np.asarray(pred, dtype=int)
    if t.size != p.size:
        raise ValueError(f"length mismatch: {t.size} truths vs {p.size} predictions")
    if t.size and not (0 <= min(t.min(), p.min()) and max(t.max(), p.max()) < n_classes):
        raise ValueError(f"class levels must lie in [0, {n_classes})")
    # cell (truth, pred) of the K x K confusion matrix
    matrix = np.bincount(t * n_classes + p, minlength=n_classes * n_classes)
    matrix = matrix.reshape(n_classes, n_classes)
    tp = matrix.diagonal().copy()
    fp = matrix.sum(axis=0) - tp
    fn = matrix.sum(axis=1) - tp
    tn = t.size - tp - fp - fn
    return ConfusionCounts(tp, fp, fn, tn)


def _ratio(num, den):
    # 0/0 is defined as 0 so empty classes do not poison macro averages
    num = np.asarray(num, dtype=float)
    den = np.asarray(den, dtype=float)
    return np.divide(num, den, out=np.zeros_like(num), where=den != 0)


def _rates(tp, fp, fn, tn) -> dict:
    """Precision, sensitivity, specificity and F1 of per-class (array) or pooled counts."""
    precision, recall = _ratio(tp, tp + fp), _ratio(tp, tp + fn)
    return {"precision": precision, "sensitivity": recall, "specificity": _ratio(tn, tn + fp),
            "f_measure": _f_measure(precision, recall)}


def _f_measure(precision, recall):
    return _ratio(2.0 * precision * recall, precision + recall)


def summary_metrics(counts: ConfusionCounts) -> dict:
    """Per-class, macro-averaged and micro-pooled classification metrics."""
    tp, total = counts.tp, counts.total
    per_class = dict(zip(METRIC_ROWS[:4], (tp, counts.fp, counts.fn, counts.tn)))
    pooled = {row: values.sum() for row, values in per_class.items()}
    per_class.update(_rates(*per_class.values()),
                     accuracy=_ratio(tp + counts.tn, np.full(counts.n_classes, total)))
    macro = {row: values.mean() for row, values in per_class.items()}
    macro["f_measure"] = _f_measure(macro["precision"], macro["sensitivity"])
    micro = {**pooled, **_rates(*pooled.values()), "accuracy": _ratio(tp.sum(), total)}
    return {name: {row: column[row].tolist() for row in METRIC_ROWS}
            for name, column in (("per_class", per_class), ("macro", macro), ("micro", micro))}


def metrics_table(summary: dict, class_values) -> dict:
    """Rearrange a metrics summary as rows x (classes + macro + micro)."""
    columns = [f"{v:g} is positive" for v in class_values] + ["macro_avg", "micro_avg"]
    rows = {}
    for row in METRIC_ROWS:
        rows[row] = list(summary["per_class"][row]) + [
            summary["macro"][row],
            summary["micro"][row],
        ]
    return {"version": 1, "columns": columns, "rows": rows}


@dataclass
class RocCurve:
    """One-vs-rest ROC curve; points run from (0,0) to (1,1)."""

    thresholds: np.ndarray  # descending; thresholds[0] is above every score
    fpr: np.ndarray
    tpr: np.ndarray
    auc: float


def roc_auc(truth, scores, positive) -> RocCurve:
    """ROC curve and trapezoidal AUC for one positive class.

    Equal scores collapse into a single threshold step, which makes the AUC
    invariant under strictly monotone transforms of the scores.

    Args:
        truth: class levels.
        scores: per-sample probability (or any monotone score) of the
            positive class.
        positive: the positive class level.

    Raises:
        DataError: positive or negative samples are absent.
    """
    t = np.asarray(truth, dtype=int)
    s = np.asarray(scores, dtype=float)
    if t.size != s.size:
        raise ValueError(f"length mismatch: {t.size} truths vs {s.size} scores")
    is_pos = t == int(positive)
    n_pos = int(is_pos.sum())
    n_neg = t.size - n_pos
    if n_pos == 0 or n_neg == 0:
        raise DataError("undefined ROC: positive and negative samples are both required")

    order = np.argsort(-s, kind="stable")
    sorted_scores = s[order]
    sorted_pos = is_pos[order].astype(int)

    # one step per distinct score value
    distinct = np.flatnonzero(np.diff(sorted_scores))
    step_ends = np.concatenate([distinct, [t.size - 1]])
    cum_tp = np.cumsum(sorted_pos)[step_ends]
    cum_fp = (step_ends + 1) - cum_tp

    tpr = np.concatenate([[0.0], cum_tp / n_pos])
    fpr = np.concatenate([[0.0], cum_fp / n_neg])
    thresholds = np.concatenate([[np.inf], sorted_scores[step_ends]])
    auc = float(_trapezoid(tpr, fpr))
    return RocCurve(thresholds, fpr, tpr, auc)
