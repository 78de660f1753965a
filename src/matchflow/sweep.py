"""Grid sweeps of a momentum-response model over one or two indicators,
contrasting serve-first and serve-second contexts.

A response model is any callable taking a feature mapping and returning a
momentum score.  sweep_grid sweeps the grid a SweepSpec names, whether it has
one axis or two.  Sweeps never recompute momentum from raw points; they probe
the trained response, overriding the swept indicator(s) on top of a fixed
baseline feature vector, once with serve_indicator 1.0 (serve first) and once
with 0.0 (serve second), so serve_indicator itself cannot be swept.
Crossovers are the indicator values where the two responses change order;
each reported crossing brackets a sign change of their difference.
ResponseModel has no serve x indicator term, so for it that difference is the
same at every grid point and a sweep of it reports no crossover: the curves
either coincide or never meet.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np

from .errors import DataError

MAX_GRID_CELLS = 1_000_000
SERVE_INDICATOR = "serve_indicator"  # set to 1.0 (serve first), then to 0.0 (serve second)


@dataclass
class SweepSpec:
    """What to sweep: indicator name(s), ranges, steps and the baseline."""

    indicators: tuple
    ranges: tuple  # one (lo, hi) pair per indicator
    steps: tuple  # one positive step per indicator
    baseline: Mapping[str, float]
    tolerance: float = 1e-3  # momentum units for coincidence/crossover checks

    def __post_init__(self):
        self.indicators = tuple(self.indicators)
        self.ranges = tuple(tuple(r) for r in self.ranges)
        self.steps = tuple(self.steps)
        if len(self.indicators) not in (1, 2) or len(set(self.indicators)) < len(self.indicators):
            raise DataError("sweep specs take one or two distinct indicators")
        if not (len(self.indicators) == len(self.ranges) == len(self.steps)):
            raise DataError("indicators, ranges and steps must align")
        for name, (lo, hi), step in zip(self.indicators, self.ranges, self.steps):
            if name == SERVE_INDICATOR:
                raise DataError(f"{name!r} cannot be swept: each context sets it")
            if name not in self.baseline:
                raise DataError(f"unknown indicator {name!r}: not in the baseline feature set")
            if not lo < hi:
                raise DataError(f"empty range for {name!r}: need lo < hi")
            if step <= 0:
                raise DataError(f"step for {name!r} must be positive")
        check_grid(self.indicators, self.ranges, self.steps)

    def grid(self, which: int) -> np.ndarray:
        lo, hi = self.ranges[which]
        step = self.steps[which]
        return lo + step * np.arange(int(_samples(lo, hi, step)))


def _samples(lo, hi, step) -> float:
    """Points of the grid lo, lo + step, ... up to hi, allowing for rounding at hi.

    A float, infinite when the span overflows.
    """
    return np.floor((hi - lo) / step + 1e-9) + 1


def check_grid(indicators, ranges, steps):
    """DataError unless every axis has 2 or more samples and the grid MAX_GRID_CELLS or fewer.

    Counts the samples as SweepSpec.grid makes them, without building a grid.
    """
    cells = 1.0
    for name, (lo, hi), step in zip(indicators, ranges, steps):
        samples = _samples(lo, hi, step)
        if samples < 2:
            raise DataError(f"grid for {name!r} has fewer than 2 samples")
        cells *= samples
    if cells > MAX_GRID_CELLS:
        raise DataError(f"grid of {cells:.0f} cells exceeds the {MAX_GRID_CELLS} limit")


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


def _evaluate(model: Callable, spec: SweepSpec, overrides: dict, serve: float) -> float:
    features = dict(spec.baseline)
    features.update(overrides)
    features[SERVE_INDICATOR] = serve
    return float(model(features))


def find_crossings_1d(grid, diff):
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
    return crossings


def sweep_grid(model: Callable, spec: SweepSpec) -> SweepResult:
    """Both contexts at every grid cell (first indicator outermost), their mean and crossings.

    Contexts that agree within spec.tolerance everywhere are flagged coincident,
    with no crossings.  Otherwise one indicator gives find_crossings_1d's
    interpolated crossings, and two give the locus of cells whose difference
    changes sign towards the next cell along either axis.
    """
    grids = [spec.grid(i) for i in range(len(spec.indicators))]
    shape = tuple(grid.size for grid in grids)
    first, second = (
        np.array([_evaluate(model, spec, dict(zip(spec.indicators, cell)), serve)
                  for cell in itertools.product(*grids)]).reshape(shape)
        for serve in (1.0, 0.0)
    )
    mean = (first + second) / 2.0
    diff = first - second
    coincident = bool(np.all(np.abs(diff) < spec.tolerance))

    def at(index):
        return {name: float(grid[i]) for name, grid, i in zip(spec.indicators, grids, index)}

    if coincident:
        crossovers = []
    elif len(grids) == 1:
        crossovers = find_crossings_1d(grids[0], diff)
    else:  # cells whose sign differs from the next cell along either axis, row-major
        sign = np.sign(diff)
        changes = np.zeros(shape, dtype=bool)
        changes[:-1] |= sign[:-1] != sign[1:]
        changes[:, :-1] |= sign[:, :-1] != sign[:, 1:]
        crossovers = [at(index) for index in np.argwhere(changes)]
    best = np.unravel_index(int(np.argmax(mean)), shape)
    return SweepResult(
        indicators=spec.indicators,
        grids=grids,
        serve_first=first,
        serve_second=second,
        mean=mean,
        crossovers=crossovers,
        coincident=coincident,
        argmax_mean={"value": float(mean[best]), "at": at(best)},
    )


@dataclass
class ResponseModel:
    """Polynomial least-squares map from features to a momentum score.

    Degree 2 adds per-feature squares (no cross terms), enough to express the
    single-peak responses seen when probing psychological pressure.  With no
    cross terms, serve_indicator 1.0 and 0.0 shift the response by the same
    constant whatever the other features are, so its serve-first minus
    serve-second difference is constant over any sweep grid.
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
