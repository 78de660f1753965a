"""Similarity measures, quadratic surface fitting, and a permutation test for
the claim that scoring runs are pure chance.

The permutation test shuffles the whole point-victor sequence (preserving
each player's win count), recomputes a summary statistic per shuffle, and
reports the add-one p-value (1 + #{null >= observed}) / (1 + permutations)
(Phipson & Smyth 2010, "Permutation p-values should never be zero").

Permutation i is numpy's ``default_rng([seed, i]).permutation(victors)``, so
the shuffles never depend on scheduling.  ``rng.lane_permutations`` draws
LANE_BLOCK of them at once, bit for bit, without importing numpy.random.
The shuffles are scored PERMUTATION_BLOCK rows at a time by row-wise
statistics built on the momentum code's last-axis kernels.  The observed
statistic is row 0 of a one-row call to the same function, so it is computed
by exactly the arithmetic that computes every null value.  The null and the
p-value are exact: equal bit for bit to shuffling and scoring one
permutation at a time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError
from .momentum import MomentumParams, _players, _run_lengths, momentum_from_victors

POLY22_TERMS = ("p00", "p10", "p01", "p20", "p11", "p02")

MIN_PERMUTATIONS = 99
MIN_TIMELINE_POINTS = 20
PERMUTATION_BLOCK = 128  # shuffles scored per matrix; bounds memory for any count
LANE_BLOCK = 1024  # shuffles drawn together: each numpy call of the draw serves every lane
NULL_QUANTILES = {"q05": 0.05, "q25": 0.25, "q50": 0.5, "q75": 0.75, "q95": 0.95}


def cosine_similarity(a, b) -> float:
    """dot(a,b) / (|a| |b|); raises DataError on a zero vector."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape or a.ndim != 1 or a.size == 0:
        raise ValueError("cosine similarity needs two equal-length nonempty vectors")
    na = float(np.linalg.norm(a))
    nb = float(np.linalg.norm(b))
    if na == 0.0 or nb == 0.0:
        raise DataError("cosine similarity undefined for a zero vector")
    return float(a @ b / (na * nb))


def euclidean_distance(a, b) -> float:
    """Straight-line distance between two equal-dimension points."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise ValueError("dimension mismatch between points")
    return float(np.sqrt(np.sum((b - a) ** 2)))


@dataclass
class SurfaceFit:
    """Least-squares quadratic surface z ~ 1, x, y, x^2, xy, y^2."""

    coefficients: np.ndarray  # ordered as POLY22_TERMS
    r_squared: float

    def predict(self, x, y) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        c = self.coefficients
        return c[0] + c[1] * x + c[2] * y + c[3] * x**2 + c[4] * x * y + c[5] * y**2

    def to_dict(self) -> dict:
        return {
            "version": 1,
            "terms": list(POLY22_TERMS),
            "coefficients": {t: float(c) for t, c in zip(POLY22_TERMS, self.coefficients)},
            "r_squared": self.r_squared,
        }


def _design_poly22(x, y):
    return np.column_stack([np.ones_like(x), x, y, x**2, x * y, y**2])


def fit_poly22(x, y, z, axes=("x", "y")) -> SurfaceFit:
    """Fit the six-term quadratic surface by least squares.

    Columns are scaled to unit max-abs before solving, and the fit is
    rejected as singular when the design matrix has rank below 6.  R^2 is
    reported against the mean-of-z baseline; a zero-variance z with an exact
    fit reports R^2 = 1 by convention.  axes names x and y in errors.

    Raises:
        DataError: fewer than 6 samples, a design that is not finite (naming
            the axis, such as one whose square overflows) or a rank-deficient
            design.
    """
    x = np.asarray(x, dtype=float).ravel()
    y = np.asarray(y, dtype=float).ravel()
    z = np.asarray(z, dtype=float).ravel()
    if not (x.size == y.size == z.size):
        raise ValueError("x, y and z must have the same length")
    if x.size < 6:
        raise DataError("quadratic surface fit needs at least 6 samples")
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite design is named below
        design = _design_poly22(x, y)
    finite = np.isfinite(design).all(axis=0)
    if not finite.all():  # |xy| <= max(x^2, y^2), so x^2 or y^2 is not finite
        axis = axes[0] if not (finite[1] and finite[3]) else axes[1]
        raise DataError(f"trend axis {axis} is not finite or too large for a quadratic surface")
    scale = np.max(np.abs(design), axis=0)
    scale[scale == 0.0] = 1.0
    scaled = design / scale
    # lstsq's rank counts singular values above eps * max(m, n) * s_max, as matrix_rank does
    solution, _, rank, _ = np.linalg.lstsq(scaled, z, rcond=None)
    if rank < 6:
        raise DataError("singular design: samples do not span the quadratic basis")
    coeffs = solution / scale
    fitted = design @ coeffs
    residuals = z - fitted
    sse = float(residuals @ residuals)
    sst = float(np.sum((z - z.mean()) ** 2))
    r2 = 1.0 if sst == 0.0 else 1.0 - sse / sst
    return SurfaceFit(coeffs, r2)


def stat_momentum_variance(victors, params) -> np.ndarray:
    """Variance of player 1's momentum, one value per row (last axis)."""
    return np.var(momentum_from_victors(victors, params)["p1"], axis=-1)


def stat_max_streak(victors, params) -> np.ndarray:
    """Longest run of points won by one player, one value per row."""
    return _run_lengths(np.asarray(victors)).max(axis=-1).astype(float)


def stat_lag1_autocorr(victors, params) -> np.ndarray:
    """Lag-1 autocorrelation of player 1's momentum, one value per row.

    A row whose first or last n - 1 values are all equal scores 0.
    """
    x = momentum_from_victors(victors, params)["p1"]
    a, b = x[..., :-1], x[..., 1:]
    sa, sb = a.std(axis=-1), b.std(axis=-1)
    cov = np.mean(
        (a - a.mean(axis=-1, keepdims=True)) * (b - b.mean(axis=-1, keepdims=True)), axis=-1
    )
    defined = (sa != 0.0) & (sb != 0.0)
    return np.divide(cov, sa * sb, out=np.zeros_like(cov), where=defined)


STATISTICS = {
    "momentum_variance": stat_momentum_variance,
    "max_streak": stat_max_streak,
    "lag1_autocorr": stat_lag1_autocorr,
}


def _quantiles(values, qs) -> np.ndarray:
    """np.quantile(values, qs) bit for bit (1-D, size >= 2, q < 1), without its numpy.ma
    import: partitions at the indices np.quantile does, then interpolates by its formula."""
    h = (values.size - 1) * np.asarray(qs)
    below = np.floor(h)
    lo = below.astype(np.intp)
    part = np.partition(values, sorted({0, -1, *lo.tolist(), *(lo + 1).tolist()}))
    a, b, t = part[lo], part[lo + 1], h - below
    return np.where(t >= 0.5, b - (b - a) * (1 - t), a + (b - a) * t)


def _permutation_null(victors, fn, params, n_permutations, seed) -> np.ndarray:
    """Statistic fn of each shuffle of victors; permutation i uses generator (seed, i)."""
    from . import rng  # only a draw compiles the generator

    null = np.empty(n_permutations)
    for first in range(0, n_permutations, LANE_BLOCK):
        perms = rng.lane_permutations(seed, range(first, min(first + LANE_BLOCK, n_permutations)),
                                      victors.size)
        for r in range(0, len(perms), PERMUTATION_BLOCK):
            rows = victors[perms[r : r + PERMUTATION_BLOCK]]
            null[first + r : first + r + len(rows)] = fn(rows, params)
    return null


def randomness_test(
    victors,
    params: MomentumParams | None = None,
    statistic: str = "max_streak",
    n_permutations: int = 199,
    seed: int = 0,
) -> dict:
    """Permutation test of the are-runs-just-chance hypothesis.

    Returns the payload randomness.json holds (schema ``randomness``); it is
    degenerate when one player won every point, so the null is a point mass.

    One match carries little power: on seeded matches simulated with a
    planted point-to-point carry-over, each statistic rejected in under half
    of them.  So "no evidence" of momentum in one match is the expected
    reading, not a finding that points are independent.

    Args:
        victors: the point-victor sequence, player 1 or 2 per point; any
            other value is a DataError, whatever the statistic.  Each
            shuffle permutes the whole sequence.
        params: momentum constants for momentum-based statistics.
        statistic: one of momentum_variance, max_streak, lag1_autocorr.
        n_permutations: >= 99 shuffles of the victor sequence.
        seed: base seed, a non-negative int; permutation i is
            ``np.random.default_rng([seed, i]).permutation(victors)``, drawn
            by ``rng.lane_permutations`` without importing numpy.random.
    """
    if statistic not in STATISTICS:
        raise DataError(f"unknown statistic {statistic!r}; expected one of {sorted(STATISTICS)}")
    if n_permutations < MIN_PERMUTATIONS:
        raise DataError(f"need at least {MIN_PERMUTATIONS} permutations")
    victors = np.asarray(victors)
    if victors.size < MIN_TIMELINE_POINTS:
        raise DataError(f"need a timeline of at least {MIN_TIMELINE_POINTS} points")
    victors = _players(victors)

    params = params or MomentumParams()
    fn = STATISTICS[statistic]
    observed = fn(victors[None, :], params)[0]
    null = _permutation_null(victors, fn, params, n_permutations, seed)

    p_value = (1.0 + float(np.sum(null >= observed))) / (1.0 + n_permutations)
    qs = _quantiles(null, list(NULL_QUANTILES.values()))
    return {
        "version": 1,
        "statistic": statistic,
        "observed": float(observed),
        "p_value": p_value,
        "n_permutations": n_permutations,
        "seed": seed,
        "null": {
            "mean": float(null.mean()),
            "sd": float(null.std()),
            "quantiles": dict(zip(NULL_QUANTILES, qs.tolist())),
        },
        "degenerate": bool(victors.min() == victors.max()),
    }
