"""Similarity measures, quadratic surface fitting, and a permutation test for
the claim that scoring runs are pure chance.

The permutation test shuffles the point-victor sequence (preserving each
player's win count, optionally within serve strata), recomputes a summary
statistic per shuffle, and reports the add-one p-value
(1 + #{null >= observed}) / (1 + permutations) (Phipson & Smyth 2010,
"Permutation p-values should never be zero").

Permutation i is drawn from its own generator default_rng([seed, i]), so the
shuffles never depend on scheduling.  The shuffles are written as rows of a
(PERMUTATION_BLOCK, n) matrix, and each block is scored at once by row-wise
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
from .momentum import MomentumParams, _run_lengths, momentum_from_victors

POLY22_TERMS = ("p00", "p10", "p01", "p20", "p11", "p02")

MIN_PERMUTATIONS = 99
MIN_TIMELINE_POINTS = 20
PERMUTATION_BLOCK = 128  # shuffles scored per matrix; bounds memory for any count


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
    residuals: np.ndarray

    def coefficient(self, term: str) -> float:
        return float(self.coefficients[POLY22_TERMS.index(term)])

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


def fit_poly22(x, y, z) -> SurfaceFit:
    """Fit the six-term quadratic surface by least squares.

    Columns are scaled to unit max-abs before solving, and the fit is
    rejected as singular when the design matrix has rank below 6.  R^2 is
    reported against the mean-of-z baseline; a zero-variance z with an exact
    fit reports R^2 = 1 by convention.

    Raises:
        DataError: fewer than 6 samples or a rank-deficient design.
    """
    x = np.asarray(x, dtype=float).ravel()
    y = np.asarray(y, dtype=float).ravel()
    z = np.asarray(z, dtype=float).ravel()
    if not (x.size == y.size == z.size):
        raise ValueError("x, y and z must have the same length")
    if x.size < 6:
        raise DataError("quadratic surface fit needs at least 6 samples")
    design = _design_poly22(x, y)
    scale = np.max(np.abs(design), axis=0)
    scale[scale == 0.0] = 1.0
    scaled = design / scale
    if np.linalg.matrix_rank(scaled) < 6:
        raise DataError("singular design: samples do not span the quadratic basis")
    solution, *_ = np.linalg.lstsq(scaled, z, rcond=None)
    coeffs = solution / scale
    fitted = design @ coeffs
    residuals = z - fitted
    sse = float(residuals @ residuals)
    sst = float(np.sum((z - z.mean()) ** 2))
    r2 = 1.0 if sst == 0.0 else 1.0 - sse / sst
    return SurfaceFit(coeffs, r2, residuals)


def _servers_of(timeline):
    return timeline.servers() if hasattr(timeline, "servers") else None


def _victors_of(timeline):
    if hasattr(timeline, "victors"):
        return timeline.victors()
    return np.asarray(timeline, dtype=int)


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


def _permutation_null(victors, servers, fn, params, n_permutations, seed) -> np.ndarray:
    """Statistic fn of each shuffle; permutation i uses generator (seed, i).

    servers None shuffles the whole sequence; otherwise victors are shuffled
    within each server's points only.
    """
    strata = None
    if servers is not None:
        strata = [idx for idx in (np.flatnonzero(servers == s) for s in (1, 2)) if idx.size]
    null = np.empty(n_permutations)
    for first in range(0, n_permutations, PERMUTATION_BLOCK):
        count = min(PERMUTATION_BLOCK, n_permutations - first)
        rows = np.empty((count, victors.size), dtype=victors.dtype)
        for r in range(count):
            rng = np.random.default_rng([seed, first + r])
            if strata is None:
                rows[r] = rng.permutation(victors)
            else:
                rows[r] = victors
                for idx in strata:
                    rows[r, idx] = victors[idx][rng.permutation(idx.size)]
        null[first : first + count] = fn(rows, params)
    return null


@dataclass
class PermutationReport:
    """Observed statistic vs the shuffle null, with the add-one p-value."""

    statistic: str
    observed: float
    p_value: float
    n_permutations: int
    seed: int
    null_mean: float
    null_sd: float
    null_quantiles: dict
    stratified_by_server: bool
    degenerate: bool  # one player won everything; the null is a point mass

    def to_dict(self) -> dict:
        return {
            "version": 1,
            "statistic": self.statistic,
            "observed": self.observed,
            "p_value": self.p_value,
            "n_permutations": self.n_permutations,
            "seed": self.seed,
            "null": {
                "mean": self.null_mean,
                "sd": self.null_sd,
                "quantiles": self.null_quantiles,
            },
            "stratified_by_server": self.stratified_by_server,
            "degenerate": self.degenerate,
        }


def randomness_test(
    timeline,
    params: MomentumParams | None = None,
    statistic: str = "max_streak",
    n_permutations: int = 199,
    seed: int = 0,
    stratify_by_server: bool = False,
) -> PermutationReport:
    """Permutation test of the are-runs-just-chance hypothesis.

    Args:
        timeline: MatchTimeline or a raw victor sequence.
        params: momentum constants for momentum-based statistics.
        statistic: one of momentum_variance, max_streak, lag1_autocorr.
        n_permutations: >= 99 shuffles of the victor sequence.
        seed: base seed; permutation i draws from generator (seed, i).
        stratify_by_server: shuffle victors within each server's points only
            (needs a MatchTimeline).
    """
    if statistic not in STATISTICS:
        raise DataError(f"unknown statistic {statistic!r}; expected one of {sorted(STATISTICS)}")
    if n_permutations < MIN_PERMUTATIONS:
        raise DataError(f"need at least {MIN_PERMUTATIONS} permutations")
    victors = _victors_of(timeline)
    if victors.size < MIN_TIMELINE_POINTS:
        raise DataError(f"need a timeline of at least {MIN_TIMELINE_POINTS} points")
    servers = _servers_of(timeline)
    if stratify_by_server and servers is None:
        raise DataError("stratified shuffling needs a timeline with server information")

    params = params or MomentumParams()
    fn = STATISTICS[statistic]
    observed = fn(victors[None, :], params)[0]
    degenerate = np.unique(victors).size < 2
    null = _permutation_null(
        victors, servers if stratify_by_server else None, fn, params, n_permutations, seed
    )

    p_value = (1.0 + float(np.sum(null >= observed))) / (1.0 + n_permutations)
    qs = np.quantile(null, [0.05, 0.25, 0.5, 0.75, 0.95])
    return PermutationReport(
        statistic=statistic,
        observed=float(observed),
        p_value=p_value,
        n_permutations=n_permutations,
        seed=seed,
        null_mean=float(null.mean()),
        null_sd=float(null.std()),
        null_quantiles={
            "q05": float(qs[0]),
            "q25": float(qs[1]),
            "q50": float(qs[2]),
            "q75": float(qs[3]),
            "q95": float(qs[4]),
        },
        stratified_by_server=stratify_by_server,
        degenerate=degenerate,
    )
