"""Grid sweeps of a momentum-response model over one or two indicators,
contrasting serve-first and serve-second contexts.

A response model is any callable taking a feature mapping and returning a
momentum score.  Sweeps never recompute momentum from raw points; they probe
the trained response, overriding the swept indicator(s) and the binary serve
context on top of a fixed baseline feature vector.  Crossovers are the
indicator values where the serve-first and serve-second responses change
order; each reported crossing brackets a sign change of their difference.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np

from .errors import DataError

MAX_GRID_CELLS = 1_000_000


@dataclass
class SweepSpec:
    """What to sweep: indicator name(s), ranges, steps and the baseline."""

    indicators: tuple
    ranges: tuple  # one (lo, hi) pair per indicator
    steps: tuple  # one positive step per indicator
    baseline: Mapping[str, float]
    context_feature: str = "serve_indicator"
    serve_first_value: float = 1.0
    serve_second_value: float = 0.0
    tolerance: float = 1e-3  # momentum units for coincidence/crossover checks

    def __post_init__(self):
        self.indicators = tuple(self.indicators)
        self.ranges = tuple(tuple(r) for r in self.ranges)
        self.steps = tuple(self.steps)
        if len(self.indicators) not in (1, 2):
            raise DataError("sweep specs take one or two indicators")
        if not (len(self.indicators) == len(self.ranges) == len(self.steps)):
            raise DataError("indicators, ranges and steps must align")
        for name, (lo, hi), step in zip(self.indicators, self.ranges, self.steps):
            if name not in self.baseline and name != self.context_feature:
                raise DataError(f"unknown indicator {name!r}: not in the baseline feature set")
            if not lo < hi:
                raise DataError(f"empty range for {name!r}: need lo < hi")
            if step <= 0:
                raise DataError(f"step for {name!r} must be positive")
            if self.grid(self.indicators.index(name)).size < 2:
                raise DataError(f"grid for {name!r} has fewer than 2 samples")
        if len(self.indicators) == 2:
            cells = self.grid(0).size * self.grid(1).size
            if cells > MAX_GRID_CELLS:
                raise DataError(f"grid of {cells} cells exceeds the {MAX_GRID_CELLS} limit")

    def grid(self, which: int) -> np.ndarray:
        lo, hi = self.ranges[which]
        step = self.steps[which]
        count = int(np.floor((hi - lo) / step + 1e-9)) + 1
        return lo + step * np.arange(count)


@dataclass
class SweepResult:
    """Curves or surfaces per context, their mean, and crossing locations."""

    indicators: tuple
    grids: list
    serve_first: np.ndarray
    serve_second: np.ndarray
    mean: np.ndarray
    crossovers: list
    coincident: bool
    argmax_mean: dict

    def to_dict(self) -> dict:
        return {
            "version": 1,
            "indicators": list(self.indicators),
            "coincident": self.coincident,
            "crossovers": self.crossovers,
            "argmax_mean": self.argmax_mean,
        }


def _evaluate(model: Callable, spec: SweepSpec, overrides: dict, context_value: float) -> float:
    features = dict(spec.baseline)
    features.update(overrides)
    features[spec.context_feature] = context_value
    return float(model(features))


def find_crossings_1d(grid, diff, tolerance):
    """Sign-change crossings of a difference curve, linearly interpolated.

    Exact zeros count only when the nearest nonzero values on either side
    have opposite signs, so tangent touches are never reported.
    """
    crossings = []
    nonzero = np.flatnonzero(diff != 0.0)
    for a_idx, b_idx in zip(nonzero[:-1], nonzero[1:]):
        a, b = diff[a_idx], diff[b_idx]
        if np.sign(a) == np.sign(b):
            continue
        if b_idx == a_idx + 1:
            t = a / (a - b)
            crossings.append(float(grid[a_idx] + t * (grid[b_idx] - grid[a_idx])))
        else:  # a run of exact zeros separating opposite signs
            zero_run = grid[a_idx + 1 : b_idx]
            crossings.append(float(zero_run[zero_run.size // 2]))
    coincident = bool(np.all(np.abs(diff) < tolerance))
    return crossings, coincident


def sweep_1d(model: Callable, spec: SweepSpec) -> SweepResult:
    """Sweep one indicator; returns both context curves and their crossings.

    When the two curves agree within tolerance everywhere the result is
    flagged coincident and no crossings are reported.
    """
    if len(spec.indicators) != 1:
        raise DataError("sweep_1d takes a single-indicator spec")
    name = spec.indicators[0]
    grid = spec.grid(0)
    first = np.array(
        [_evaluate(model, spec, {name: v}, spec.serve_first_value) for v in grid]
    )
    second = np.array(
        [_evaluate(model, spec, {name: v}, spec.serve_second_value) for v in grid]
    )
    mean = (first + second) / 2.0
    crossings, coincident = find_crossings_1d(grid, first - second, spec.tolerance)
    if coincident:
        crossings = []
    best = int(np.argmax(mean))
    return SweepResult(
        indicators=spec.indicators,
        grids=[grid],
        serve_first=first,
        serve_second=second,
        mean=mean,
        crossovers=crossings,
        coincident=coincident,
        argmax_mean={"value": float(mean[best]), "at": {name: float(grid[best])}},
    )


def sweep_2d(model: Callable, spec: SweepSpec) -> SweepResult:
    """Sweep two indicators; the crossover list holds the intersection locus.

    Each locus entry is a grid cell (x, y) where the serve-first minus
    serve-second difference changes sign along either axis.
    """
    if len(spec.indicators) != 2:
        raise DataError("sweep_2d takes a two-indicator spec")
    nx, ny = spec.indicators
    gx, gy = spec.grid(0), spec.grid(1)
    shape = (gx.size, gy.size)
    first = np.empty(shape)
    second = np.empty(shape)
    for i, vx in enumerate(gx):
        for j, vy in enumerate(gy):
            overrides = {nx: vx, ny: vy}
            first[i, j] = _evaluate(model, spec, overrides, spec.serve_first_value)
            second[i, j] = _evaluate(model, spec, overrides, spec.serve_second_value)
    mean = (first + second) / 2.0
    diff = first - second
    coincident = bool(np.all(np.abs(diff) < spec.tolerance))

    locus = []
    if not coincident:
        sign = np.sign(diff)
        for i in range(shape[0]):
            for j in range(shape[1]):
                along_x = i + 1 < shape[0] and sign[i, j] != sign[i + 1, j]
                along_y = j + 1 < shape[1] and sign[i, j] != sign[i, j + 1]
                if along_x or along_y:
                    locus.append({nx: float(gx[i]), ny: float(gy[j])})

    flat = int(np.argmax(mean))
    bi, bj = np.unravel_index(flat, shape)
    return SweepResult(
        indicators=spec.indicators,
        grids=[gx, gy],
        serve_first=first,
        serve_second=second,
        mean=mean,
        crossovers=locus,
        coincident=coincident,
        argmax_mean={
            "value": float(mean[bi, bj]),
            "at": {nx: float(gx[bi]), ny: float(gy[bj])},
        },
    )


@dataclass
class ResponseModel:
    """Polynomial least-squares map from features to a momentum score.

    Degree 2 adds per-feature squares (no cross terms), enough to express the
    single-peak responses seen when probing psychological pressure.
    """

    feature_names: list
    degree: int
    coef: np.ndarray
    mean: np.ndarray
    scale: np.ndarray

    def _vector(self, features: Mapping[str, float]) -> np.ndarray:
        try:
            raw = np.array([float(features[name]) for name in self.feature_names])
        except KeyError as missing:
            raise DataError(f"response model needs feature {missing.args[0]!r}") from None
        return (raw - self.mean) / self.scale

    def __call__(self, features: Mapping[str, float]) -> float:
        return float(_terms(self._vector(features), self.degree) @ self.coef)


def _terms(z: np.ndarray, degree: int) -> np.ndarray:
    """Regression terms [1, z] (degree 1) or [1, z, z**2] (degree 2) along the last axis."""
    blocks = [np.ones(z.shape[:-1] + (1,)), z]
    if degree >= 2:
        blocks.append(z**2)
    return np.concatenate(blocks, axis=-1)


def fit_response_model(features, targets, degree: int = 2) -> ResponseModel:
    """Fit the momentum-response regressor on a feature table.

    Args:
        features: FeatureTable (or anything with .values/.feature_names).
        targets: momentum scores aligned with the rows.
        degree: 1 for linear, 2 to add squared terms.
    """
    if degree not in (1, 2):
        raise DataError("response model degree must be 1 or 2")
    x = np.asarray(features.values, dtype=float)
    names = list(features.feature_names)
    t = np.asarray(targets, dtype=float)
    if x.shape[0] != t.size:
        raise ValueError("feature rows and targets must align")
    mean = x.mean(axis=0)
    scale = x.std(axis=0)
    scale[scale == 0.0] = 1.0
    coef, *_ = np.linalg.lstsq(_terms((x - mean) / scale, degree), t, rcond=None)
    return ResponseModel(names, degree, coef, mean, scale)
