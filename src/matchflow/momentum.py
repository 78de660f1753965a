"""Per-point momentum scores from dual centered windows with streak bonuses.

Each point contributes +0.5 to the winner and -0.5 to the loser.  A short
(3-point) and a long (7-point) centered window average those contributions,
each shifted up by 0.5 so a balanced window sits exactly at the neutral 0.5;
windows truncate at match boundaries and divide by the actual point count.
An exponential streak bonus rewards the player holding the current run of
consecutive wins (and penalizes the opponent by the exact opposite amount):
the short window adds gain_short * e^(2k) and the long window adds
gain_long * e^(k), where k is the current run length ending at the point,
capped at streak_cap, and the bonus only fires once the run reaches
streak_min.  The final score is the weighted window blend clamped to [0, 1].
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DataError

WIN_RESULT = 0.5
LOSS_RESULT = -0.5
SHORT_HALF_WIDTH = 1  # 3-point window
LONG_HALF_WIDTH = 3  # 7-point window


@dataclass
class MomentumParams:
    """Window weights and streak-bonus constants.

    The two window weights must sum to one.  The suffering player's bonus is
    the exact negation of the streak holder's, so swapping the player labels
    flips every bonus sign.
    """

    short_weight: float = 0.7
    long_weight: float = 0.3
    short_streak_gain: float = 0.0012
    long_streak_gain: float = 0.0025
    streak_cap: int = 7
    streak_min: int = 2
    causal: bool = False  # past-only windows; off by default (centered windows)

    def validate(self):
        if abs(self.short_weight + self.long_weight - 1.0) > 1e-9:
            raise DataError("window weights must sum to 1")
        if self.short_streak_gain < 0 or self.long_streak_gain < 0:
            raise DataError("streak gains must be non-negative")
        if not (1 <= self.streak_min <= self.streak_cap):
            raise DataError("need 1 <= streak_min <= streak_cap")

    def bonus_tables(self):
        """Per-k bonus magnitudes, k = 0..streak_cap (index by capped run)."""
        short = np.array(
            [self.short_streak_gain * math.exp(2 * k) for k in range(self.streak_cap + 1)]
        )
        long = np.array(
            [self.long_streak_gain * math.exp(k) for k in range(self.streak_cap + 1)]
        )
        return short, long


@dataclass
class MomentumSeries:
    """Momentum trajectories for both players plus component diagnostics."""

    point_no: np.ndarray
    p1: np.ndarray
    p2: np.ndarray
    short_p1: np.ndarray
    long_p1: np.ndarray
    short_p2: np.ndarray
    long_p2: np.ndarray
    streak_len: np.ndarray  # current run length ending at each point (capped)
    streak_holder: np.ndarray  # player id of the run holder

    def __len__(self):
        return self.p1.size


def _run_lengths(v: np.ndarray) -> np.ndarray:
    """Length of the run of equal values ending at each position (last axis)."""
    idx = np.arange(v.shape[-1])
    new_run = np.ones(v.shape, dtype=bool)
    np.not_equal(v[..., 1:], v[..., :-1], out=new_run[..., 1:])
    run_start = np.maximum.accumulate(np.where(new_run, idx, 0), axis=-1)
    return idx - run_start + 1


def _window_sums(values: np.ndarray, half_width: int, causal: bool):
    """Truncated window sums and point counts along the last axis."""
    # cumulative-sum differencing; values are all +-0.5 so the sums are exact
    n = values.shape[-1]
    idx = np.arange(n)
    lo = np.maximum(0, idx - half_width)
    hi = idx if causal else np.minimum(n - 1, idx + half_width)
    csum = np.zeros(values.shape[:-1] + (n + 1,))
    np.cumsum(values, axis=-1, out=csum[..., 1:])
    sums = csum[..., hi + 1] - csum[..., lo]
    counts = (hi - lo + 1).astype(float)
    return sums, counts


def _players(victors) -> np.ndarray:
    """victors as an int array; a DataError unless every value is exactly 1 or 2.

    The values are checked before the int conversion, which would truncate
    1.5 to player 1.
    """
    v = np.asarray(victors)
    if not np.all((v == 1) | (v == 2)):
        raise DataError("victor sequence must contain only players 1 and 2")
    return v.astype(int, copy=False)


def momentum_from_victors(victors, params: MomentumParams | None = None) -> dict:
    """Momentum arrays from a point-victor sequence (1 or 2 per point).

    Works along the last axis: a (n,) sequence gives (n,) arrays, and a
    (rows, n) matrix of sequences (a block of permutations) gives (rows, n)
    arrays whose every row equals the single-sequence result bit for bit.
    Returns a dict with p1/p2 momentum, the four window components, and the
    capped run-length diagnostics.  Only the victor sequence matters, which
    makes this the workhorse for permutation tests.  An empty sequence, or a
    value other than exactly 1 or 2, is a DataError.
    """
    params = params or MomentumParams()
    params.validate()
    v = np.asarray(victors)
    if v.size == 0:
        raise DataError("cannot score an empty timeline")
    v = _players(v)

    r1 = np.where(v == 1, WIN_RESULT, LOSS_RESULT)
    run = _run_lengths(v)
    capped = np.minimum(run, params.streak_cap)
    short_tab, long_tab = params.bonus_tables()
    active = run >= params.streak_min
    sign1 = np.where(v == 1, 1.0, -1.0)  # run holder is the point victor
    bonus_short_1 = np.where(active, sign1 * short_tab[capped], 0.0)
    bonus_long_1 = np.where(active, sign1 * long_tab[capped], 0.0)

    sum_short, count_short = _window_sums(r1, SHORT_HALF_WIDTH, params.causal)
    sum_long, count_long = _window_sums(r1, LONG_HALF_WIDTH, params.causal)

    short_1 = (sum_short + bonus_short_1) / count_short + 0.5
    long_1 = (sum_long + bonus_long_1) / count_long + 0.5
    short_2 = (-sum_short + -bonus_short_1) / count_short + 0.5
    long_2 = (-sum_long + -bonus_long_1) / count_long + 0.5

    p1 = np.clip(params.short_weight * short_1 + params.long_weight * long_1, 0.0, 1.0)
    p2 = np.clip(params.short_weight * short_2 + params.long_weight * long_2, 0.0, 1.0)
    return {
        "p1": p1,
        "p2": p2,
        "short_p1": short_1,
        "long_p1": long_1,
        "short_p2": short_2,
        "long_p2": long_2,
        "streak_len": capped,
        "streak_holder": v.copy(),
    }


def momentum_series(timeline, params: MomentumParams | None = None) -> MomentumSeries:
    """Momentum trajectories for both players over a cleaned MatchTimeline."""
    arrays = momentum_from_victors(timeline.victors(), params)
    point_no = np.array(timeline.columns["point_no"], dtype=int)
    return MomentumSeries(point_no=point_no, **arrays)


def find_swings(series: MomentumSeries) -> dict:
    """Point numbers of the local maxima and minima of player 1's momentum trajectory."""
    x = series.p1
    mid, point_no = x[1:-1], series.point_no[1:-1]
    maxima = (mid > x[:-2]) & (mid > x[2:])
    minima = (mid < x[:-2]) & (mid < x[2:])
    return {"player": 1, "maxima": point_no[maxima].tolist(), "minima": point_no[minima].tolist()}
