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
from matchflow.classifier import MAX_BACKTRACKS, nll_and_grad
from matchflow.errors import DataError, SchemaError
from matchflow.ingest import MatchTimeline, _shot_code, _to_float, _to_int
from matchflow.momentum import MomentumParams, momentum_from_victors

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
    point.  Scores may be raw tokens such as "AD", as a parse leaves them.
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


def timeline_to_csv(timeline, extra_header=(), path=None) -> str:
    """Minimal CSV text for a timeline (required columns only)."""
    cols = [c for c in ingest.REQUIRED_COLUMNS if c != "match_id"] + list(extra_header)
    cells = [timeline.columns[c].tolist() for c in cols]
    lines = [",".join(["match_id", *cols])]
    for row in zip(*cells):
        lines.append(",".join([timeline.match_id, *map(str, row)]))
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


def split_oracle(levels, fraction=0.8, seed=0):
    """`classifier.train_test_split` as index lists: per class, shuffle, cut, then sort."""
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


def heatmap_oracle(matrix, path, title="", x_labels=None, y_labels=None, width=900, height=420):
    """`plots.heatmap_svg` one cell at a time, with a scalar colour ramp."""
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


# ----------------------------------------------------------- ingest oracle
#
# The row-at-a-time ingest that the columnar one replaced: each row becomes a
# dict of point fields, cleaning walks the points one attribute at a time,
# and the writer formats one cell at a time.  The scalar token rules
# (_to_float, _to_int, _shot_code) are shared with the library.


def oracle_parse(text, columns=None):
    """(matches, rejected, header): matches is a list of (match_id, players, records)."""
    reader = csv.reader(io.StringIO(text))
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
        row = {header[i]: v for i, v in enumerate(raw[: len(header)])}
        match_id = (row.get("match_id") or "").strip()
        point_no = _to_int(row.get("point_no"), default=-1)
        if not match_id:
            rejected.append((row_no, "missing match_id"))
            continue
        if point_no <= 0:
            rejected.append((row_no, "unparseable point_no"))
            continue
        record = dict(POINT_DEFAULTS, point_no=point_no)
        for name in ("set_no", "game_no", "server", "point_victor", "serve_no"):
            record[name] = _to_int(row.get(name), default=0)
        for name in ("p1_games", "p2_games", "p1_sets", "p2_sets", "p1_points_won",
                     "p2_points_won"):
            record[name] = _to_int(row.get(name), default=-1)
        for name in ("p1_score", "p2_score"):
            record[name] = (row.get(name) or "").strip()
        for name in ingest.CONTINUOUS_COLUMNS:
            if name in header:
                record[name] = _to_float(row.get(name))
        for name in ingest.FLAG_COLUMNS:
            if name in header:
                record[name] = _to_int(row.get(name), default=-1)
        if ingest.SHOT_COLUMN in header:
            record["shot_type_code"] = _shot_code(row.get(ingest.SHOT_COLUMN))
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


def oracle_csv(matches) -> str:
    """The cleaned-CSV text of (match_id, players, records) matches, one cell at a time."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(ingest.CSV_COLUMNS)
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
            writer.writerow(row)
    return buf.getvalue()


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
