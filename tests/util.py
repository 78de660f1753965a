"""Shared fixture builders and independent oracles for the test suite.

Oracles here are deliberately written as straight-line re-derivations
(explicit loops, scalar math) so they stay independent of the vectorized
library paths they check.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from matchflow.classifier import MAX_BACKTRACKS, nll_and_grad
from matchflow.ingest import MatchTimeline, PointRecord
from matchflow.momentum import MomentumParams, momentum_from_victors


def make_record(match_id="m1", point_no=1, **overrides) -> PointRecord:
    base = dict(
        match_id=match_id,
        set_no=1,
        game_no=1,
        point_no=point_no,
        server=1,
        point_victor=1,
        p1_score=0.0,
        p2_score=0.0,
        p1_games=0,
        p2_games=0,
        p1_sets=0,
        p2_sets=0,
        p1_points_won=0,
        p2_points_won=0,
        serve_no=1,
    )
    base.update(overrides)
    return PointRecord(**base)


def make_timeline(victors, servers=None, match_id="m1", **extra_columns) -> MatchTimeline:
    """Clean-valid timeline from a victor sequence.

    Servers default to alternating blocks of four points.  Cumulative
    counters are kept consistent with the victors.  extra_columns maps a
    PointRecord field name to a per-point list.
    """
    victors = list(victors)
    n = len(victors)
    if servers is None:
        servers = [1 + (i // 4) % 2 for i in range(n)]
    records = []
    won = [0, 0]
    for i in range(n):
        won[victors[i] - 1] += 1
        overrides = {name: values[i] for name, values in extra_columns.items()}
        records.append(
            make_record(
                match_id=match_id,
                point_no=i + 1,
                server=servers[i],
                point_victor=victors[i],
                game_no=1 + i // 8,
                p1_points_won=won[0],
                p2_points_won=won[1],
                **overrides,
            )
        )
    return MatchTimeline(match_id, records)


def random_timeline(rng, n, match_id="rand") -> MatchTimeline:
    victors = rng.integers(1, 3, size=n).tolist()
    servers = rng.integers(1, 3, size=n).tolist()
    return make_timeline(victors, servers, match_id=match_id)


def timeline_to_csv(timeline, extra_header=(), path=None) -> str:
    """Minimal CSV text for a timeline (required columns only)."""
    cols = [
        "match_id",
        "set_no",
        "game_no",
        "point_no",
        "server",
        "point_victor",
        "p1_score",
        "p2_score",
        "p1_games",
        "p2_games",
        "p1_sets",
        "p2_sets",
        "p1_points_won",
        "p2_points_won",
        "serve_no",
    ] + list(extra_header)
    lines = [",".join(cols)]
    for r in timeline.records:
        lines.append(",".join(str(getattr(r, c)) for c in cols))
    text = "\n".join(lines) + "\n"
    if path is not None:
        path.write_text(text)
    return text


# ----------------------------------------------------------------- oracles

def momentum_oracle(victors, params: MomentumParams | None = None):
    """Pointwise scalar re-derivation of the dual-window momentum score."""
    params = params or MomentumParams()
    v = list(victors)
    n = len(v)
    p1, p2 = [], []
    for i in range(n):
        run = 1
        while i - run >= 0 and v[i - run] == v[i]:
            run += 1
        k = min(run, params.streak_cap)
        per_player = {}
        for player in (1, 2):
            windows = []
            for half, gain, doubled in (
                (1, params.short_streak_gain, True),
                (3, params.long_streak_gain, False),
            ):
                lo = max(0, i - half)
                hi = min(n - 1, i + half)
                total = 0.0
                for j in range(lo, hi + 1):
                    total += 0.5 if v[j] == player else -0.5
                bonus = 0.0
                if run >= params.streak_min:
                    scale = math.exp(2 * k) if doubled else math.exp(k)
                    sign = 1.0 if v[i] == player else -1.0
                    bonus = sign * (gain * scale)
                windows.append((total + bonus) / (hi - lo + 1) + 0.5)
            blend = params.short_weight * windows[0] + params.long_weight * windows[1]
            per_player[player] = min(max(blend, 0.0), 1.0)
        p1.append(per_player[1])
        p2.append(per_player[2])
    return np.array(p1), np.array(p2)


def streak_lengths_oracle(victors):
    """Consecutive wins ending at each point, per player, by a running count."""
    v = np.asarray(victors, dtype=int)
    n = v.size
    run = np.zeros(n, dtype=int)
    for i in range(n):
        run[i] = run[i - 1] + 1 if i > 0 and v[i] == v[i - 1] else 1
    p1 = np.where(v == 1, run, 0)
    p2 = np.where(v == 2, run, 0)
    return p1, p2


def _victor_list(timeline):
    if hasattr(timeline, "victors"):
        return timeline.victors().tolist()
    return list(timeline)


def point_result(timeline, n: int, player: int) -> float:
    """+0.5 if the player won point n (1-based), else -0.5."""
    v = _victor_list(timeline)
    if not 1 <= n <= len(v):
        raise IndexError(f"point index {n} outside 1..{len(v)}")
    return 0.5 if v[n - 1] == player else -0.5


def window_score(timeline, n: int, player: int, half_width: int, params=None) -> float:
    """Single window value at point n (1-based) for one player.

    half_width 1 selects the 3-point window with the e^(2k) bonus, 3 the
    7-point window with the e^(k) bonus.
    """
    if half_width not in (1, 3):
        raise ValueError("half_width must be 1 (short) or 3 (long)")
    params = params or MomentumParams()
    v = _victor_list(timeline)
    if not 1 <= n <= len(v):
        raise IndexError(f"point index {n} outside 1..{len(v)}")
    i = n - 1
    lo = max(0, i - half_width)
    hi = i if params.causal else min(len(v) - 1, i + half_width)
    total = 0.0
    for j in range(lo, hi + 1):
        total += 0.5 if v[j] == player else -0.5
    run = 1
    while i - run >= 0 and v[i - run] == v[i]:
        run += 1
    bonus = 0.0
    if run >= params.streak_min:
        k = min(run, params.streak_cap)
        gain = params.short_streak_gain if half_width == 1 else params.long_streak_gain
        scale = math.exp(2 * k) if half_width == 1 else math.exp(k)
        sign = 1.0 if v[i] == player else -1.0
        bonus = sign * (gain * scale)
    return (total + bonus) / (hi - lo + 1) + 0.5


def posterior_via_prior(stats) -> float:
    """Pooled serve-win posterior composed from prior and likelihood.

    Multiplies the serve-rate-given-win likelihood by the win prior and
    divides by the serve rate, over player/unit pairs: algebraically the same
    ratio as ServeWinStats.p_win_given_serve, by a separate path.
    """
    pairs = 2 * stats.n_units
    n_serve_and_win = stats.serve_wins[1] + stats.serve_wins[2]
    n_win = stats.wins[1] + stats.wins[2]
    n_serve = stats.serves[1] + stats.serves[2]
    p_serve_given_win = n_serve_and_win / n_win
    p_win = n_win / pairs
    p_serve = n_serve / pairs
    return p_serve_given_win * p_win / p_serve


def stat_momentum_variance(victors, params) -> float:
    return float(np.var(momentum_from_victors(victors, params)["p1"]))


def stat_max_streak(victors, params) -> float:
    v = np.asarray(victors)
    best = run = 1
    for i in range(1, v.size):
        run = run + 1 if v[i] == v[i - 1] else 1
        best = max(best, run)
    return float(best)


def stat_lag1_autocorr(victors, params) -> float:
    x = momentum_from_victors(victors, params)["p1"]
    a, b = x[:-1], x[1:]
    sa, sb = a.std(), b.std()
    if sa == 0.0 or sb == 0.0:
        return 0.0
    return float(np.mean((a - a.mean()) * (b - b.mean())) / (sa * sb))


STATISTIC_ORACLES = {
    "momentum_variance": stat_momentum_variance,
    "max_streak": stat_max_streak,
    "lag1_autocorr": stat_lag1_autocorr,
}


def permutation_oracle(victors, servers, statistic, n_permutations, seed, params=None):
    """One shuffle and one scalar statistic at a time: (observed, null, p-value).

    servers None shuffles freely; otherwise within each server's points.
    """
    params = params or MomentumParams()
    victors = np.asarray(victors)
    fn = STATISTIC_ORACLES[statistic]
    observed = fn(victors, params)
    strata = None
    if servers is not None:
        strata = [np.flatnonzero(np.asarray(servers) == s) for s in (1, 2)]
    null = np.empty(n_permutations)
    for i in range(n_permutations):
        rng = np.random.default_rng([seed, i])
        if strata is None:
            shuffled = rng.permutation(victors)
        else:
            shuffled = victors.copy()
            for idx in strata:
                if idx.size:
                    shuffled[idx] = shuffled[idx][rng.permutation(idx.size)]
        null[i] = fn(shuffled, params)
    p_value = (1.0 + float(np.sum(null >= observed))) / (1.0 + n_permutations)
    return observed, null, p_value


def confusion_oracle(truth, pred, n_classes):
    """Brute-force one-vs-rest counting with an explicit double loop."""
    out = {}
    for c in range(n_classes):
        tp = fp = fn = tn = 0
        for t, p in zip(truth, pred):
            if t == c and p == c:
                tp += 1
            elif t != c and p == c:
                fp += 1
            elif t == c and p != c:
                fn += 1
            else:
                tn += 1
        out[c] = (tp, fp, fn, tn)
    return out


def auc_oracle(truth, scores, positive):
    """Pairwise positive-above-negative count with half-credit ties."""
    pos = [s for t, s in zip(truth, scores) if t == positive]
    neg = [s for t, s in zip(truth, scores) if t != positive]
    total = 0.0
    for a in pos:
        for b in neg:
            if a > b:
                total += 1.0
            elif a == b:
                total += 0.5
    return total / (len(pos) * len(neg))


def cwt_oracle(signal, scales, center_frequency, boundary="zero", support_radius=6.0):
    """Naive double-loop direct summation of the wavelet transform."""
    x = np.asarray(signal, dtype=float)
    n = x.size
    if boundary == "reflect":
        pad = int(math.ceil(support_radius * max(scales)))
        ext = np.pad(x, pad, mode="reflect")
        offsets = [t - pad for t in range(ext.size)]
    else:
        ext = x
        offsets = list(range(n))
    out = np.zeros((len(scales), n), dtype=complex)
    for si, a in enumerate(scales):
        root = math.sqrt(a)
        for b in range(n):
            acc = 0j
            for idx, t in enumerate(offsets):
                u = (t - b) / a
                psi = (math.pi**-0.25) * cmath.exp(1j * center_frequency * u) * math.exp(-0.5 * u * u)
                acc += ext[idx] * psi.conjugate() / root
            out[si, b] = acc
    return out


def eigenvalue_oracle(matrix, iters=500):
    """Dominant eigenvalue by repeated multiplication, max-normalized."""
    a = np.asarray(matrix, dtype=float)
    v = np.ones(a.shape[0])
    for _ in range(iters):
        v = a @ v
        v = v / v.max()
    return float(np.mean(a @ v / v))


def ks_distance_uniform(pvalues):
    """Kolmogorov-Smirnov distance of a sample against Uniform(0, 1)."""
    x = np.sort(np.asarray(pvalues, dtype=float))
    n = x.size
    grid_hi = np.arange(1, n + 1) / n
    grid_lo = np.arange(0, n) / n
    return float(max(np.max(grid_hi - x), np.max(x - grid_lo)))


def standardized_design(x):
    """Intercept column plus the columns of x standardized as `classifier.train` does."""
    x = np.asarray(x, dtype=float)
    std = x.std(axis=0)
    std[std == 0.0] = 1.0
    return np.hstack([np.ones((x.shape[0], 1)), (x - x.mean(axis=0)) / std])


def gradient_descent_oracle(x, y, n_classes, max_iters=500, tol=1e-6):
    """Batch gradient descent with step halving on the standardized problem.

    The solver `classifier.train` used before its Newton steps: from all-zero
    coefficients, try coef - step * grad with step = 1, halving it until the
    loss does not increase.  Returns (coef, loss, iterations).
    """
    design = standardized_design(x)
    coef = np.zeros((n_classes - 1, design.shape[1]))
    loss, grad = nll_and_grad(coef, design, y, n_classes)
    iters = 0
    while np.linalg.norm(grad) > tol and iters < max_iters:
        step = 1.0
        for _ in range(MAX_BACKTRACKS):
            candidate = coef - step * grad
            new_loss, new_grad = nll_and_grad(candidate, design, y, n_classes)
            if np.isfinite(new_loss) and new_loss <= loss:
                break
            step *= 0.5
        else:
            break
        coef, loss, grad = candidate, new_loss, new_grad
        iters += 1
    return coef, loss, iters
