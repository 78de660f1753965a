"""Pairwise judgment matrices, indicator weights, consistency checking and
weighted round scoring.

A judgment matrix is given whole, as a positive reciprocal matrix with a unit
diagonal, and JudgmentMatrix is its one check.  Weights can come from row
geometric means (the default, which recovers the generating ratio vector
exactly on a consistent matrix) or from a shifted row-sum formula kept for
compatibility with additive scoring conventions.
Consistency uses the classic index (lambda_max - n)/(n - 1) against Saaty's
random-index table; a ratio under 0.1 counts as consistent.

The weights are the configured judgments restated, not findings about the
data: no input file can move them.  The default judgments give score_diff the
top weight (0.41) and set_diff 0.14, and both are running tallies of the
points won, so a round score built on them tracks the outcome it is read
against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError

# Saaty random indices for matrix orders 1..9.
RANDOM_INDEX = {1: 0.0, 2: 0.0, 3: 0.58, 4: 0.90, 5: 1.12, 6: 1.24, 7: 1.32, 8: 1.41, 9: 1.45}

CONSISTENCY_THRESHOLD = 0.1

WEIGHT_METHODS = ("geometric_mean", "shifted_row_sum")


@dataclass
class JudgmentMatrix:
    """Positive reciprocal pairwise-comparison matrix with unit diagonal."""

    values: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.values, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise DataError("judgment matrix must be square")
        if not np.all(a > 0):
            raise DataError("judgment matrix entries must be positive")
        if not np.allclose(np.diag(a), 1.0, atol=1e-9):
            raise DataError("judgment matrix diagonal must be 1")
        if not np.allclose(a * a.T, 1.0, atol=1e-9):
            raise DataError("judgment matrix must be reciprocal: a_ij * a_ji = 1")
        self.values = a

    @property
    def n(self) -> int:
        return self.values.shape[0]


def weights(matrix: JudgmentMatrix, method: str = "geometric_mean") -> np.ndarray:
    """Indicator weights from a judgment matrix, normalized to sum 1.

    geometric_mean takes row geometric means; shifted_row_sum computes
    (row sum + n/2 - 1) / (n (n - 1)) per row before renormalizing, an
    additive convention retained as a cross-check.
    """
    a = matrix.values
    n = matrix.n
    if n < 2:
        raise DataError("need a matrix of order >= 2")
    if method == "geometric_mean":
        w = np.prod(a, axis=1) ** (1.0 / n)
    elif method == "shifted_row_sum":
        w = (a.sum(axis=1) + n / 2.0 - 1.0) / (n * (n - 1.0))
    else:
        raise DataError(f"unknown weighting method {method!r}; expected one of {WEIGHT_METHODS}")
    return w / w.sum()


def principal_eigenvector(matrix: JudgmentMatrix):
    """Perron eigenvector and eigenvalue of a positive matrix (power method)."""
    a = matrix.values
    v = np.full(matrix.n, 1.0 / matrix.n)
    for _ in range(10_000):
        av = a @ v
        nxt = av / av.sum()
        if np.max(np.abs(nxt - v)) < 1e-14:
            v = nxt
            break
        v = nxt
    lam = float(np.mean(a @ v / v))
    return v, lam


def consistency(matrix: JudgmentMatrix) -> dict:
    """Consistency index and ratio of a judgment matrix.

    lambda_max is the mean of (A w)_i / w_i at the principal eigenvector w,
    which makes the estimate agree with the true dominant eigenvalue.  CR is
    defined as 0 for n <= 2.

    Returns the payload ahp.json holds under "result" (schema ``ahp``); its
    weights are the principal eigenvector.

    Raises:
        DataError: an order above 9, for which RANDOM_INDEX has no entry.
    """
    n = matrix.n
    vec, lambda_max = principal_eigenvector(matrix)
    if n not in RANDOM_INDEX:
        raise DataError(f"no random index for order {n}; orders 1 to 9 have one")
    ri = RANDOM_INDEX[n]
    if n <= 2:
        ci = 0.0 if n < 2 else max(0.0, (lambda_max - n) / (n - 1))
        cr = 0.0
    else:
        ci = (lambda_max - n) / (n - 1)
        cr = ci / ri
    return {
        "version": 1,
        "n": n,
        "weights": vec.tolist(),
        "lambda_max": lambda_max,
        "consistency_index": ci,
        "consistency_ratio": cr,
        "random_index": ri,
        "consistent": cr < CONSISTENCY_THRESHOLD,
    }


@dataclass
class RoundScores:
    """Weighted-sum evaluation per round with a dense ranking (1 = best)."""

    scores: np.ndarray
    standardized: np.ndarray
    ranking: np.ndarray


def _reject_columns(ok, names, problem):
    """Raise DataError for the first column that is not ok, named by names or by its index."""
    bad = np.flatnonzero(~ok)
    if bad.size:
        raise DataError(f"indicator {names[bad[0]] if names else f'column {bad[0]}'} {problem}")


def minmax_normalize(columns: np.ndarray, names=None) -> np.ndarray:
    """Column-wise min-max scaling to [0,1]; constant columns map to 0.5."""
    x = np.asarray(columns, dtype=float)
    lo = x.min(axis=0)
    with np.errstate(over="ignore"):  # an overflowing span is named before any scaling
        span = x.max(axis=0) - lo
    _reject_columns(np.isfinite(span), names, "has a span too large to scale")
    constant = span == 0
    return np.where(constant, 0.5, (x - lo) / np.where(constant, 1.0, span))


def score_rounds(indicators, w, names=None) -> RoundScores:
    """Score rounds by the weighted sum of min-max scaled indicator columns and rank them.

    Args:
        indicators: (rounds x indicators) matrix of finite values; each
            column is scaled to [0,1] before weighting.
        w: indicator weights summing to 1.
        names: the indicators' names for errors; by default their column index.

    Raises:
        DataError: an indicator that is not finite or whose span overflows
            (naming it), a shape mismatch, or weights that do not sum to 1.
    """
    x = np.asarray(indicators, dtype=float)
    if x.ndim != 2:
        raise DataError("indicator matrix must be 2-dimensional")
    _reject_columns(np.all(np.isfinite(x), axis=0), names, "holds a non-finite value")
    w = np.asarray(w, dtype=float)
    if w.size != x.shape[1]:
        raise DataError("one weight per indicator column is required")
    if abs(w.sum() - 1.0) > 1e-9:
        raise DataError("weights must sum to 1")
    scores = minmax_normalize(x, names) @ w
    total = scores.sum()
    standardized = scores / total if total != 0 else np.zeros_like(scores)
    distinct, position = np.unique(scores, return_inverse=True)  # ascending
    ranking = distinct.size - position  # dense, 1 = highest score
    return RoundScores(scores, standardized, ranking)
