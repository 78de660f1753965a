"""Shared fixture builders and independent oracles for the test suite.

Oracles here are deliberately written as straight-line re-derivations
(explicit loops, scalar math) so they stay independent of the vectorized
library paths they check.
"""

from __future__ import annotations

import cmath
import csv
import io
import math
from collections import Counter

import numpy as np

from matchflow import ingest
from matchflow.ahp import JudgmentMatrix
from matchflow.classifier import MAX_BACKTRACKS, nll_and_grad
from matchflow.errors import DataError, SchemaError
from matchflow.ingest import MatchTimeline, _shot_code, _to_float, _to_int
from matchflow.momentum import MomentumParams, momentum_from_victors
from matchflow.wavelet import SUPPORT_RADIUS, WaveletConfig, morlet

# Point fields of a MatchTimeline and the value each takes unless a test sets another.
POINT_DEFAULTS = dict(
    set_no=1,
    game_no=1,
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
    shot_type_code=0,
    **dict.fromkeys(ingest.CONTINUOUS_COLUMNS, 0.0),
    **dict.fromkeys(ingest.FLAG_COLUMNS, 0),
)


def _column(values, n):
    """A per-point list, or one value for every point, as an array; text gives an object array."""
    values = list(values) if isinstance(values, (list, tuple, np.ndarray)) else [values] * n
    if any(isinstance(v, str) for v in values):
        return np.array(values, dtype=object)
    return np.asarray(values)


def make_points(n=1, match_id="m1", **columns) -> MatchTimeline:
    """Timeline of n points numbered 1..n with the POINT_DEFAULTS values.

    Each keyword sets a column: a per-point list, or one value for every
    point.  A column may hold raw cells, such as an "AD" score, NaN or an
    out-of-range code; such a timeline is not clean, and is only input for
    timeline_to_csv, whose text load_and_clean then reads and cleans.
    """
    values = {**POINT_DEFAULTS, "point_no": list(range(1, n + 1)), **columns}
    return MatchTimeline(match_id, {name: _column(v, n) for name, v in values.items()})


def make_timeline(victors, servers=None, match_id="m1", **extra_columns) -> MatchTimeline:
    """Clean-valid timeline from a victor sequence.

    Servers default to alternating blocks of four points.  Cumulative
    counters are kept consistent with the victors.  extra_columns maps a
    point field name to a per-point list.
    """
    victors = list(victors)
    n = len(victors)
    if servers is None:
        servers = [1 + (i // 4) % 2 for i in range(n)]
    v = np.array(victors, dtype=int)
    columns = dict(
        server=list(servers),
        point_victor=victors,
        game_no=[1 + i // 8 for i in range(n)],
        p1_points_won=np.cumsum(v == 1),
        p2_points_won=np.cumsum(v == 2),
    )
    return make_points(n, match_id, **{**columns, **extra_columns})


def random_timeline(rng, n, match_id="rand") -> MatchTimeline:
    victors = rng.integers(1, 3, size=n).tolist()
    servers = rng.integers(1, 3, size=n).tolist()
    return make_timeline(victors, servers, match_id=match_id)


def timeline_to_csv(*timelines, path=None) -> str:
    """CSV text of every field of the timelines, one row per point; also written to path.

    Each cell is str of its value, so a raw cell ("AD", NaN) is written as an
    input file would hold it; shot_type_code is the winner_shot_type column.
    """
    fields = list(timelines[0].columns)
    header = ["match_id", *(ingest.SHOT_COLUMN if f == "shot_type_code" else f for f in fields)]
    lines = [",".join(header)]
    for tl in timelines:
        for row in zip(*(tl.columns[f].tolist() for f in fields)):
            lines.append(",".join([tl.match_id, *map(str, row)]))
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


def swings_oracle(point_no, p1):
    """`momentum.find_swings` one point at a time: (maxima, minima) point numbers."""
    maxima, minima = [], []
    for i in range(1, len(p1) - 1):
        if p1[i] > p1[i - 1] and p1[i] > p1[i + 1]:
            maxima.append(int(point_no[i]))
        elif p1[i] < p1[i - 1] and p1[i] < p1[i + 1]:
            minima.append(int(point_no[i]))
    return maxima, minima


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
    ratio as a serve_stats payload's p_win_given_serve, by a separate path.
    """
    counts = stats["counts"]
    pairs = 2 * counts["units"]
    n_serve_and_win = counts["serve_wins"]["1"] + counts["serve_wins"]["2"]
    n_win = counts["wins"]["1"] + counts["wins"]["2"]
    n_serve = counts["serves"]["1"] + counts["serves"]["2"]
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


def permutation_oracle(victors, statistic, n_permutations, seed, params=None):
    """One shuffle and one scalar statistic at a time: (observed, null, p-value).

    The shuffles come from numpy's own ``np.random.default_rng([seed, i])``, not from
    ``matchflow.rng``, so this oracle checks that module's streams as well.
    """
    params = params or MomentumParams()
    victors = np.asarray(victors)
    fn = STATISTIC_ORACLES[statistic]
    observed = fn(victors, params)
    null = np.empty(n_permutations)
    for i in range(n_permutations):
        null[i] = fn(np.random.default_rng([seed, i]).permutation(victors), params)
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


def _ratio_oracle(num, den):
    num = np.asarray(num, dtype=float)
    den = np.asarray(den, dtype=float)
    return np.divide(num, den, out=np.zeros_like(num), where=den != 0)


def _f1_oracle(p, r):
    return 0.0 if p + r == 0 else 2.0 * p * r / (p + r)


def summary_oracle(counts):
    """Per-class, macro and micro metrics with every rate formula written out per column."""
    tp, fp, fn, tn = counts.tp, counts.fp, counts.fn, counts.tn
    total = counts.total
    precision = _ratio_oracle(tp, tp + fp)
    recall = _ratio_oracle(tp, tp + fn)
    specificity = _ratio_oracle(tn, tn + fp)
    accuracy = _ratio_oracle(tp + tn, np.full(counts.n_classes, total))
    f1 = np.array([_f1_oracle(p, r) for p, r in zip(precision, recall)])

    macro_p = float(precision.mean())
    macro_r = float(recall.mean())
    micro_p = _ratio_oracle(tp.sum(), tp.sum() + fp.sum()).item()
    micro_r = _ratio_oracle(tp.sum(), tp.sum() + fn.sum()).item()
    return {
        "per_class": {
            "true_positive": tp.tolist(),
            "false_positive": fp.tolist(),
            "false_negative": fn.tolist(),
            "true_negative": tn.tolist(),
            "precision": precision.tolist(),
            "sensitivity": recall.tolist(),
            "specificity": specificity.tolist(),
            "accuracy": accuracy.tolist(),
            "f_measure": f1.tolist(),
        },
        "macro": {
            "true_positive": float(tp.mean()),
            "false_positive": float(fp.mean()),
            "false_negative": float(fn.mean()),
            "true_negative": float(tn.mean()),
            "precision": macro_p,
            "sensitivity": macro_r,
            "specificity": float(specificity.mean()),
            "accuracy": float(accuracy.mean()),
            "f_measure": _f1_oracle(macro_p, macro_r),
        },
        "micro": {
            "true_positive": int(tp.sum()),
            "false_positive": int(fp.sum()),
            "false_negative": int(fn.sum()),
            "true_negative": int(tn.sum()),
            "precision": micro_p,
            "sensitivity": micro_r,
            "specificity": _ratio_oracle(tn.sum(), tn.sum() + fp.sum()).item(),
            "accuracy": _ratio_oracle(tp.sum(), total).item(),
            "f_measure": _f1_oracle(micro_p, micro_r),
        },
    }


def _sweep_call_oracle(model, spec, overrides, serve):
    features = dict(spec.baseline)
    features.update(overrides)
    features["serve_indicator"] = serve
    return float(model(features))


def _crossings_oracle(grid, diff):
    crossings = []
    nonzero = np.flatnonzero(diff != 0.0)
    for a_idx, b_idx in zip(nonzero[:-1], nonzero[1:]):
        a, b = diff[a_idx], diff[b_idx]
        if np.sign(a) == np.sign(b):
            continue
        if b_idx == a_idx + 1:
            t = a / (a - b)
            crossings.append(float(grid[a_idx] + t * (grid[b_idx] - grid[a_idx])))
        else:
            zero_run = grid[a_idx + 1 : b_idx]
            crossings.append(float(zero_run[zero_run.size // 2]))
    return crossings


def sweep_oracle(model, spec):
    """(grids, serve_first, serve_second, mean, crossovers, coincident, argmax_mean) of a
    one- or two-indicator sweep, each grid cell and context evaluated in explicit loops."""
    if len(spec.indicators) == 1:
        name = spec.indicators[0]
        grid = spec.grid(0)
        first = np.array([_sweep_call_oracle(model, spec, {name: v}, 1.0) for v in grid])
        second = np.array([_sweep_call_oracle(model, spec, {name: v}, 0.0) for v in grid])
        mean = (first + second) / 2.0
        coincident = bool(np.all(np.abs(first - second) < spec.tolerance))
        crossings = [] if coincident else _crossings_oracle(grid, first - second)
        best = int(np.argmax(mean))
        return ([grid], first, second, mean, crossings, coincident,
                {"value": float(mean[best]), "at": {name: float(grid[best])}})
    nx, ny = spec.indicators
    gx, gy = spec.grid(0), spec.grid(1)
    shape = (gx.size, gy.size)
    first = np.empty(shape)
    second = np.empty(shape)
    for i, vx in enumerate(gx):
        for j, vy in enumerate(gy):
            first[i, j] = _sweep_call_oracle(model, spec, {nx: vx, ny: vy}, 1.0)
            second[i, j] = _sweep_call_oracle(model, spec, {nx: vx, ny: vy}, 0.0)
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
    bi, bj = np.unravel_index(int(np.argmax(mean)), shape)
    return ([gx, gy], first, second, mean, locus, coincident,
            {"value": float(mean[bi, bj]), "at": {nx: float(gx[bi]), ny: float(gy[bj])}})


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


def split_oracle(levels, fraction=0.8, seed=0):
    """`classifier.train_test_split` as index lists: per class, shuffle, cut, then sort.

    The shuffles are numpy's own ``np.random.default_rng(seed).permutation`` calls, not
    ``matchflow.rng.Stream``, so this oracle checks that stream as well.
    """
    y = np.asarray(levels, dtype=int)
    rng = np.random.default_rng(seed)
    train_idx, test_idx = [], []
    for level in np.unique(y):
        idx = np.flatnonzero(y == level)
        idx = idx[rng.permutation(idx.size)]
        n_train = int(round(fraction * idx.size))
        n_train = min(max(n_train, 1), idx.size - 1) if idx.size > 1 else idx.size
        train_idx.extend(idx[:n_train].tolist())
        test_idx.extend(idx[n_train:].tolist())
    return np.array(sorted(train_idx), dtype=int), np.array(sorted(test_idx), dtype=int)


def _oracle_color(v: float) -> str:
    v = min(max(v, 0.0), 1.0)
    r = int(round(253 * v))
    g = int(round(40 + 191 * v))
    b = int(round(84 + 60 * (1.0 - v) ** 2 - 84 * v))
    return f"#{r:02x}{g:02x}{max(b, 0):02x}"


def heatmap_oracle(matrix, path, title="", x_labels=None, y_labels=None):
    """`plots.heatmap_svg` one cell at a time, with a scalar colour ramp."""
    width, height = 900, 420
    fmt = "{:.2f}".format
    margin = 46
    m = np.asarray(matrix, dtype=float)
    lo, hi = float(m.min()), float(m.max())
    span = hi - lo if hi > lo else 1.0
    rows, cols = m.shape
    cell_w = (width - 2 * margin) / cols
    cell_h = (height - 2 * margin) / rows
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width // 2}" y="18" text-anchor="middle" font-family="monospace" '
        f'font-size="13">{title}</text>',
    ]
    for i in range(rows):
        for j in range(cols):
            v = (m[i, j] - lo) / span
            px = margin + j * cell_w
            py = height - margin - (i + 1) * cell_h
            parts.append(
                f'<rect x="{fmt(px)}" y="{fmt(py)}" width="{fmt(cell_w + 0.5)}" '
                f'height="{fmt(cell_h + 0.5)}" fill="{_oracle_color(v)}"/>'
            )
    if y_labels is not None:
        for i in (0, rows - 1):
            py = height - margin - (i + 0.5) * cell_h
            parts.append(
                f'<text x="{margin - 4}" y="{fmt(py)}" text-anchor="end" '
                f'font-family="monospace" font-size="10">{y_labels[i]:.3g}</text>'
            )
    if x_labels is not None:
        for j in (0, cols - 1):
            px = margin + (j + 0.5) * cell_w
            parts.append(
                f'<text x="{fmt(px)}" y="{height - margin + 14}" text-anchor="middle" '
                f'font-family="monospace" font-size="10">{x_labels[j]:.3g}</text>'
            )
    parts.append("</svg>")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(parts) + "\n")


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


def cwt_batched_oracle(signal, config=None):
    """The FFT transform with every scale's kernel, spectrum and inverse built at once.

    The same arithmetic as wavelet.cwt, element for element, but each step runs on the
    whole (n_scales, fft length) array, so the per-scale loop must match it bit for bit.
    """
    x = np.asarray(signal, dtype=float).ravel()
    config = config or WaveletConfig()
    scales = config.scale_ladder(x.size)
    pad = int(math.ceil(SUPPORT_RADIUS * scales.max())) if config.boundary == "reflect" else 0
    extended = np.pad(x, pad, mode="reflect") if pad else x
    reach = x.size - 1 + pad
    lags = np.arange(-reach, reach + 1, dtype=float)
    kernels = np.conj(morlet(-lags / scales[:, None], config.center_frequency))
    kernels /= np.sqrt(scales)[:, None]
    size = 1 << (lags.size - 1).bit_length()
    spectrum = np.fft.fft(extended, size) * np.fft.fft(kernels, size, axis=1)
    return np.fft.ifft(spectrum, axis=1)[:, pad + reach : pad + reach + x.size]


def minmax_oracle(columns):
    """`ahp.minmax_normalize` one column at a time."""
    x = np.asarray(columns, dtype=float)
    out = np.empty_like(x)
    for j in range(x.shape[1]):
        lo, hi = x[:, j].min(), x[:, j].max()
        out[:, j] = 0.5 if hi == lo else (x[:, j] - lo) / (hi - lo)
    return out


def matrix_from_weights(w) -> JudgmentMatrix:
    """Perfectly consistent matrix a_ij = w_i / w_j from a positive vector."""
    w = np.asarray(w, dtype=float)
    if np.any(w <= 0):
        raise DataError("weight vector must be positive")
    return JudgmentMatrix(w[:, None] / w[None, :])


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


def stacked_scores_oracle(coef, design):
    """(n, K) scores: the coefficient rows' scores, then the reference class's zero."""
    return np.hstack([design @ coef.T, np.zeros((design.shape[0], 1))])


def stacked_proba_oracle(coef, design):
    """(n, K) class probabilities: the row-wise softmax of the stacked score matrix, with
    numpy's row reductions.  The reference for `SoftmaxModel.predict_proba`."""
    scores = stacked_scores_oracle(coef, design)
    e = np.exp(scores - scores.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def nll_and_grad_oracle(coef, design, y, n_classes, l2_penalty=0.0):
    """The loss kernel on the stacked (n, K) score matrix, with numpy's row reductions.

    The kernel `classifier.nll_and_grad` replaced; returns (loss, grad, proba)
    as it does, and the Newton solver's outputs are pinned on its bits.
    """
    n = design.shape[0]
    rows = np.arange(n)
    scores = stacked_scores_oracle(coef, design)
    top = scores.max(axis=1, keepdims=True)
    own = scores[rows, y]
    e = np.exp(scores - top)
    total = e.sum(axis=1, keepdims=True)
    loss = float(np.mean(np.log(total[:, 0]) + top[:, 0] - own))
    proba = e[:, : n_classes - 1] / total
    delta = proba.copy()
    one_hot = y < n_classes - 1
    delta[rows[one_hot], y[one_hot]] -= 1.0
    grad = delta.T @ design / n
    if l2_penalty:
        penalty = coef.copy()
        penalty[:, 0] = 0.0
        loss += 0.5 * l2_penalty * float(np.sum(penalty**2))
        grad = grad + l2_penalty * penalty
    return loss, grad, proba


def hessian_oracle(proba, design, l2_penalty):
    """The Hessian of the mean NLL as one product over all rows per class block.

    The `classifier._hessian` that weighed the whole design into one (n, p+1)
    buffer; the row-blocked one gives its bits on one row block, up to
    `classifier.ROW_BLOCK` + 1 rows.
    """
    n, m = design.shape
    k1 = proba.shape[1]
    weighted = np.empty_like(design)
    hess = np.empty((k1 * m, k1 * m))
    for a in range(k1):
        for b in range(a, k1):
            w = proba[:, a] * (float(a == b) - proba[:, b])
            block = design.T @ np.multiply(w[:, None], design, out=weighted) / n
            hess[a * m:(a + 1) * m, b * m:(b + 1) * m] = block
            hess[b * m:(b + 1) * m, a * m:(a + 1) * m] = block.T
    penalty = np.full(m, float(l2_penalty))
    penalty[0] = 0.0
    hess[np.diag_indices_from(hess)] += np.tile(penalty, k1)
    return hess


def separates_oracle(coef, design, y) -> bool:
    """Whether every row's own class scores strictly above the maximum of the others."""
    rows = np.arange(design.shape[0])
    scores = stacked_scores_oracle(coef, design)
    own = scores[rows, y].copy()
    scores[rows, y] = -np.inf
    return bool(np.all(own > scores.max(axis=1)))


def gradient_descent_oracle(x, y, n_classes, max_iters=500, tol=1e-6):
    """Batch gradient descent with step halving on the standardized problem.

    The solver `classifier.train` used before its Newton steps: from all-zero
    coefficients, try coef - step * grad with step = 1, halving it until the
    loss does not increase.  Returns (coef, loss, iterations).
    """
    design = standardized_design(x)
    coef = np.zeros((n_classes - 1, design.shape[1]))
    loss, grad, _ = nll_and_grad(coef, design, y, n_classes)
    iters = 0
    while np.linalg.norm(grad) > tol and iters < max_iters:
        step = 1.0
        for _ in range(MAX_BACKTRACKS):
            candidate = coef - step * grad
            new_loss, new_grad, _ = nll_and_grad(candidate, design, y, n_classes)
            if np.isfinite(new_loss) and new_loss <= loss:
                break
            step *= 0.5
        else:
            break
        coef, loss, grad = candidate, new_loss, new_grad
        iters += 1
    return coef, loss, iters


# ----------------------------------------------------------- ingest oracle
#
# The row-at-a-time ingest that the columnar one replaced: each row becomes a
# dict of point fields, cleaning walks the points one attribute at a time,
# and the writer formats one cell at a time.  The scalar token rules
# (_to_float, _to_int, _shot_code) are shared with the library: each takes a
# cell's text, so a short row's missing cells read as "", and _to_int reads
# every missing or non-integral integer cell ("2.5") as -1.


def oracle_parse(text, columns=None):
    """(matches, rejected, header): matches is a list of (match_id, players, records).

    Lines end at \n, \r\n or a bare \r, as in a file opened with newline="".
    """
    reader = csv.reader(io.StringIO(text, newline=""))
    first = next(reader, None)
    if first is None:
        raise SchemaError("empty input: no header row found")
    remap = dict(columns or {})
    header = [remap.get(name, name) for name in first]
    missing = [c for c in ingest.REQUIRED_COLUMNS if c not in header]
    if missing:
        raise SchemaError("missing required column(s): " + ", ".join(missing))

    rows, rejected, players_by_match = [], [], {}
    row_no = 1  # the header is line 1; blank lines are not numbered
    for raw in reader:
        if not raw:
            continue
        row_no += 1
        row = dict(zip(header, raw + [""] * (len(header) - len(raw))))
        match_id = row["match_id"].strip()
        point_no = _to_int(row["point_no"])
        if not match_id:
            rejected.append((row_no, "missing match_id"))
            continue
        if point_no <= 0:
            rejected.append((row_no, "unparseable point_no"))
            continue
        record = dict(POINT_DEFAULTS, point_no=point_no)
        for name in ("set_no", "game_no", "server", "point_victor", "serve_no", "p1_games",
                     "p2_games", "p1_sets", "p2_sets", "p1_points_won", "p2_points_won"):
            record[name] = _to_int(row[name])
        for name in ("p1_score", "p2_score"):
            record[name] = row[name].strip()
        for name in ingest.CONTINUOUS_COLUMNS:
            if name in header:
                record[name] = _to_float(row[name])
        for name in ingest.FLAG_COLUMNS:
            if name in header:
                record[name] = _to_int(row[name])
        if ingest.SHOT_COLUMN in header:
            record["shot_type_code"] = _shot_code(row[ingest.SHOT_COLUMN])
        if "player1" in header and match_id not in players_by_match:
            players_by_match[match_id] = (
                (row.get("player1") or "player1").strip() or "player1",
                (row.get("player2") or "player2").strip() or "player2",
            )
        rows.append((match_id, record))
    if not rows and not rejected:
        raise SchemaError("empty input: no data rows")

    by_match = {}
    for match_id, record in rows:
        by_match.setdefault(match_id, []).append(record)
    matches = [
        (mid, players_by_match.get(mid, ("player1", "player2")),
         sorted(records, key=lambda r: r["point_no"]))
        for mid, records in sorted(by_match.items())
    ]
    return matches, rejected, header


def _oracle_missing(column, match_id):
    return DataError(
        f"imputation impossible: column {column!r} has no usable values in match {match_id!r}"
    )


def _oracle_mean(values, column, match_id):
    finite = [v for v in values if not math.isnan(v)]
    if not finite:
        raise _oracle_missing(column, match_id)
    mean = sum(finite) / len(finite)
    if not math.isfinite(mean):
        raise DataError(f"imputation impossible: the mean of column {column!r} in match "
                        f"{match_id!r} is not finite")
    return mean


def _oracle_mode(values, valid):
    counts = Counter(v for v in values if v in valid)
    if not counts:
        return None
    return sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))[0][0]


def oracle_clean_match(match_id, records, report):
    """The cleaned copies of one match's records; counts every repair in the report."""
    out = [dict(r) for r in records]

    for column in ("p1_score", "p2_score"):
        values = []
        for r in out:  # AD tokens and negative advantage markers become the sentinel
            value = _to_float(r[column])
            if r[column].strip().upper() == "AD" or value < 0:
                report.bump(report.ad_replacements, column)
                value = ingest.ADVANTAGE_SCORE
            values.append(value)
        if any(math.isnan(v) for v in values):  # a mean is taken only when one is missing
            mean = _oracle_mean(values, column, match_id)
        for r, value in zip(out, values):
            if math.isnan(value):
                value = mean
                report.bump(report.mean_imputations, column)
            r[column] = value

    for column in ("server", "point_victor", "serve_no") + ingest.FLAG_COLUMNS:
        valid = (0, 1) if column in ingest.FLAG_COLUMNS else (1, 2)
        values = [r[column] for r in out]
        if any(v not in valid for v in values):
            mode = _oracle_mode(values, valid)
            if mode is None:
                if column in ingest.FLAG_COLUMNS:
                    mode = 0
                else:
                    raise _oracle_missing(column, match_id)
            for r in out:
                if r[column] not in valid:
                    r[column] = mode
                    report.bump(report.mode_imputations, column)

    for r in out:
        if r["shot_type_code"] not in (0, 1, 2):
            r["shot_type_code"] = 0
            report.bump(report.categorical_mapped, ingest.SHOT_COLUMN)

    for column, floor in (("set_no", 1), ("game_no", 1), ("p1_sets", 0), ("p2_sets", 0),
                          ("p1_points_won", 0), ("p2_points_won", 0)):
        monotone = column != "game_no"  # game_no restarts are allowed per set
        prev = None
        for r in out:
            value = r[column]
            if value < floor or (monotone and prev is not None and value < prev):
                if column.endswith("points_won"):
                    player = 1 if column.startswith("p1") else 2
                    value = (prev or 0) + (1 if r["point_victor"] == player else 0)
                else:
                    value = prev if prev is not None else floor
                r[column] = value
                report.bump(report.monotone_repairs, column)
            prev = value

    for column in ("p1_games", "p2_games"):
        prev = 0
        for r in out:
            if r[column] < 0:  # games reset each set, so only fill gaps forward
                r[column] = prev
                report.bump(report.monotone_repairs, column)
            prev = r[column]

    for column in ingest.CONTINUOUS_COLUMNS:
        values = [r[column] for r in out]
        if any(math.isnan(v) for v in values):
            mean = _oracle_mean(values, column, match_id)
            for r in out:
                if math.isnan(r[column]):
                    r[column] = mean
                    report.bump(report.mean_imputations, column)
    return out


def _oracle_cell(value) -> str:
    if isinstance(value, float):
        if math.isnan(value):
            return ""
        if value == int(value):
            return str(int(value))
        return repr(value)
    return str(value)


def oracle_row(cells) -> str:
    """One CSV line of text cells, by csv's minimal quoting with a lone CR quoted too.

    csv quotes a field holding a character of its line terminator, so the row
    is written with CRLF and its terminator then replaced by LF.
    """
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\r\n").writerow(cells)
    return buf.getvalue()[:-2] + "\n"


def grid_rows_oracle(*axes) -> list:
    """One column per axis over every combination of the axes' values, first axis outermost."""
    return [grid.ravel() for grid in np.meshgrid(*axes, indexing="ij")]


def write_csv_oracle(header, columns, fmt) -> str:
    """The CSV text of equal-length columns, one cell at a time: fmt for floats, str for the rest."""
    cells = []
    for column in map(np.asarray, columns):
        convert = fmt if column.dtype.kind == "f" else str
        cells.append([convert(value) for value in column.tolist()])
    return "".join(oracle_row(row) for row in [header, *zip(*cells)])


def oracle_csv(matches) -> str:
    """The cleaned-CSV text of (match_id, players, records) matches, one cell at a time."""
    lines = [oracle_row(ingest.CSV_COLUMNS)]
    for match_id, players, records in matches:
        for r in records:
            row = []
            for col in ingest.CSV_COLUMNS:
                if col == "match_id":
                    row.append(match_id)
                elif col in ingest.PLAYER_COLUMNS:
                    row.append(players[ingest.PLAYER_COLUMNS.index(col)])
                elif col == ingest.SHOT_COLUMN:
                    row.append(str(r["shot_type_code"]))
                else:
                    row.append(_oracle_cell(r[col]))
            lines.append(oracle_row(row))
    return "".join(lines)


def ingest_oracle(text, columns=None):
    """Row-at-a-time load_and_clean: (matches, CleaningReport) for CSV text."""
    parsed, rejected, header = oracle_parse(text, columns)
    report = ingest.CleaningReport()
    matches = [(mid, players, oracle_clean_match(mid, records, report))
               for mid, players, records in parsed]
    report.rejected_rows.extend(rejected)
    for col in ingest.CONTINUOUS_COLUMNS + ingest.FLAG_COLUMNS + (ingest.SHOT_COLUMN,):
        if col not in header:
            report.defaulted_columns.append(col)
    return matches, report
