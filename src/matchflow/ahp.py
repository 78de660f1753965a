"""Pairwise judgment matrices, indicator weights, consistency checking and
weighted round scoring.

Weights can come from row geometric means (the default, which recovers the
generating ratio vector exactly on a consistent matrix) or from a shifted
row-sum formula kept for compatibility with additive scoring conventions.
Consistency uses the classic index (lambda_max - n)/(n - 1) against Saaty's
random-index table; a ratio under 0.1 counts as consistent.
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


@dataclass
class AhpResult:
    """Weights plus the consistency diagnostics behind them."""

    weights: np.ndarray
    lambda_max: float
    ci: float
    cr: float
    consistent: bool
    n: int
    random_index: float

    def to_dict(self) -> dict:
        return {
            "version": 1,
            "n": self.n,
            "weights": self.weights.tolist(),
            "lambda_max": self.lambda_max,
            "consistency_index": self.ci,
            "consistency_ratio": self.cr,
            "random_index": self.random_index,
            "consistent": self.consistent,
        }


def build_judgment_matrix(n: int, entries=()) -> JudgmentMatrix:
    """Assemble a reciprocal matrix from upper-triangle scale entries.

    Args:
        n: matrix order.
        entries: iterable of (i, j, value) with 0-based i < j and value in
            [1/9, 9]; pairs not listed default to 1 (equal importance).

    Raises:
        DataError: non-positive or out-of-scale value, duplicate pair, or a
            pair index outside the matrix.
    """
    a = np.ones((n, n))
    seen = set()
    for i, j, value in entries:
        if not (0 <= i < n and 0 <= j < n) or i == j:
            raise DataError(f"invalid pair ({i}, {j}) for a {n}x{n} matrix")
        if value <= 0:
            raise DataError(f"scale value for pair ({i}, {j}) must be positive")
        if not (1.0 / 9.0 - 1e-12 <= value <= 9.0 + 1e-12):
            raise DataError(f"scale value {value} outside the nine-level range [1/9, 9]")
        key = (min(i, j), max(i, j))
        if key in seen:
            raise DataError(f"pair ({key[0]}, {key[1]}) specified more than once")
        seen.add(key)
        a[i, j] = value
        a[j, i] = 1.0 / value
    return JudgmentMatrix(a)


def matrix_from_weights(w) -> JudgmentMatrix:
    """Perfectly consistent matrix a_ij = w_i / w_j from a positive vector."""
    w = np.asarray(w, dtype=float)
    if np.any(w <= 0):
        raise DataError("weight vector must be positive")
    return JudgmentMatrix(w[:, None] / w[None, :])


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


def principal_eigenvector(matrix: JudgmentMatrix, tol: float = 1e-14, max_iters: int = 10_000):
    """Perron eigenvector and eigenvalue of a positive matrix (power method)."""
    a = matrix.values
    v = np.full(matrix.n, 1.0 / matrix.n)
    for _ in range(max_iters):
        av = a @ v
        nxt = av / av.sum()
        if np.max(np.abs(nxt - v)) < tol:
            v = nxt
            break
        v = nxt
    lam = float(np.mean(a @ v / v))
    return v, lam


def consistency(
    matrix: JudgmentMatrix, w=None, random_index: dict | None = None
) -> AhpResult:
    """Consistency index and ratio of a judgment matrix.

    lambda_max is the mean of (A w)_i / w_i.  With no weight vector supplied
    the principal eigenvector is used, which makes the estimate agree with
    the true dominant eigenvalue; passing explicit weights evaluates the same
    formula at those weights instead.  CR is defined as 0 for n <= 2.

    Raises:
        DataError: order above 9 without a user-supplied random_index table.
    """
    n = matrix.n
    if w is None:
        vec, lambda_max = principal_eigenvector(matrix)
    else:
        vec = np.asarray(w, dtype=float)
        if vec.size != n:
            raise DataError("weight vector length must match the matrix order")
        if np.any(vec <= 0):
            raise DataError("weight vector must be positive")
        vec = vec / vec.sum()
        lambda_max = float(np.mean(matrix.values @ vec / vec))

    ri_table = RANDOM_INDEX if random_index is None else {**RANDOM_INDEX, **random_index}
    if n not in ri_table:
        raise DataError(
            f"no random index for order {n}; supply one via the random_index argument"
        )
    ri = ri_table[n]
    if n <= 2:
        ci = 0.0 if n < 2 else max(0.0, (lambda_max - n) / (n - 1))
        cr = 0.0
    else:
        ci = (lambda_max - n) / (n - 1)
        cr = ci / ri
    return AhpResult(vec, lambda_max, ci, cr, cr < CONSISTENCY_THRESHOLD, n, ri)


def composite_consistency_ratio(cis, ris, layer_weights) -> float:
    """Multi-layer consistency ratio: weighted CI sum over weighted RI sum."""
    cis = np.asarray(cis, dtype=float)
    ris = np.asarray(ris, dtype=float)
    a = np.asarray(layer_weights, dtype=float)
    if not (cis.size == ris.size == a.size):
        raise DataError("per-layer CI, RI and layer weights must align")
    denom = float(ris @ a)
    if denom == 0:
        return 0.0
    return float(cis @ a) / denom


@dataclass
class RoundScores:
    """Weighted-sum evaluation per round with a dense ranking (1 = best)."""

    scores: np.ndarray
    standardized: np.ndarray
    ranking: np.ndarray

    def to_rows(self):
        return [
            {
                "round": i + 1,
                "score": float(self.scores[i]),
                "standardization": float(self.standardized[i]),
                "ranking": int(self.ranking[i]),
            }
            for i in range(self.scores.size)
        ]


def minmax_normalize(columns: np.ndarray) -> np.ndarray:
    """Column-wise min-max scaling to [0,1]; constant columns map to 0.5."""
    x = np.asarray(columns, dtype=float)
    lo = x.min(axis=0)
    hi = x.max(axis=0)
    span = hi - lo
    out = np.empty_like(x)
    for j in range(x.shape[1]):
        out[:, j] = 0.5 if span[j] == 0 else (x[:, j] - lo[j]) / span[j]
    return out


def score_rounds(indicators, w, normalize: bool = True) -> RoundScores:
    """Score rounds by the weighted sum of indicator columns and rank them.

    Args:
        indicators: (rounds x indicators) matrix of finite values.
        w: indicator weights summing to 1.
        normalize: min-max scale each column to [0,1] first (defaults on).

    Raises:
        DataError: a non-finite indicator (naming its column), a shape
            mismatch, or weights that do not sum to 1.
    """
    x = np.asarray(indicators, dtype=float)
    if x.ndim != 2:
        raise DataError("indicator matrix must be 2-dimensional")
    bad_columns = np.flatnonzero(~np.all(np.isfinite(x), axis=0))
    if bad_columns.size:
        raise DataError(f"indicator column {int(bad_columns[0])} holds a non-finite value")
    w = np.asarray(w, dtype=float)
    if w.size != x.shape[1]:
        raise DataError("one weight per indicator column is required")
    if abs(w.sum() - 1.0) > 1e-9:
        raise DataError("weights must sum to 1")
    if normalize:
        x = minmax_normalize(x)
    scores = x @ w
    total = scores.sum()
    standardized = scores / total if total != 0 else np.zeros_like(scores)
    distinct, position = np.unique(scores, return_inverse=True)  # ascending
    ranking = distinct.size - position  # dense, 1 = highest score
    return RoundScores(scores, standardized, ranking)
