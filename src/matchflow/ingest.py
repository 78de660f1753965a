"""Parsing, cleaning and feature engineering for point-by-point match CSVs.

The expected file is comma separated with a header row.  Column names follow
the common point-by-point export convention (``match_id``, ``set_no``,
``server``, ``point_victor``, ``p1_score`` ...); alternate headers can be
remapped with a ``columns`` table.  Extra columns are ignored.

Data stay in numpy columns from parse to artifact: ``parse_match_csv`` reads
the file once and converts each distinct cell of a column once through the
scalar rules ``_to_float``, ``_to_int`` and ``_shot_code``, giving one
``MatchTimeline`` of equal-length arrays per match; ``clean_timelines``
repairs the columns with array operations and ``write_clean_csv`` writes them.
"""

from __future__ import annotations

import csv
import functools
import io
import math
import os
from dataclasses import dataclass, field

import numpy as np

from .classifier import sigmoid
from .errors import DataError, SchemaError
from .momentum import _run_lengths

# Columns that must be present (after remapping) for a file to parse at all.
REQUIRED_COLUMNS = (
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
)

# Optional columns: defaulted (and reported) when the header lacks them.
CONTINUOUS_COLUMNS = ("p1_distance_run", "p2_distance_run", "rally_count", "speed_mph")
FLAG_COLUMNS = (
    "p1_ace",
    "p2_ace",
    "p1_double_fault",
    "p2_double_fault",
    "p1_unf_err",
    "p2_unf_err",
    "p1_net_pt",
    "p2_net_pt",
    "p1_break_pt",
    "p2_break_pt",
    "p1_break_pt_won",
    "p2_break_pt_won",
    "p1_break_pt_missed",
    "p2_break_pt_missed",
)
SHOT_COLUMN = "winner_shot_type"
PLAYER_COLUMNS = ("player1", "player2")

# Advantage scores are replaced by a fixed numeric sentinel above 40.
ADVANTAGE_SCORE = 50.0

SHOT_CODES = {"F": 1, "B": 2}

# Integers beyond int64 cannot be held by an integer column; they count as missing.
INT_LIMIT = 2.0**63

FEATURE_NAMES = [
    "score_diff",
    "game_diff",
    "set_diff",
    "streak_len_p1",
    "streak_len_p2",
    "unforced_error_ratio_p1",
    "unforced_error_ratio_p2",
    "distance_run_diff",
    "serve_indicator",
    "psychological_factor",
]


@dataclass(eq=False)
class MatchTimeline:
    """One match as numpy columns: one equal-length array per point field.

    ``columns`` maps each field name to its array, stably sorted by
    ``point_no``: the integer fields ``set_no``, ``game_no``, ``point_no``,
    ``server``, ``point_victor``, ``serve_no``, the ``*_games``, ``*_sets``
    and ``*_points_won`` counters, ``shot_type_code`` and the flag columns
    are int64, and the continuous columns are float64.  Straight out of
    ``parse_match_csv`` the score columns hold the stripped raw tokens (such
    as ``"AD"``) and the numeric columns may hold NaN or out-of-range codes;
    ``clean_timelines`` turns the scores into float64 and repairs the rest,
    so that ``server`` and ``point_victor`` are in {1, 2} and the cumulative
    counters are non-decreasing.
    """

    match_id: str
    columns: dict
    players: tuple[str, str] = ("player1", "player2")

    def __post_init__(self):
        point_no = self.columns["point_no"]
        if np.any(point_no[1:] < point_no[:-1]):
            order = np.argsort(point_no, kind="stable")
            self.columns = {name: values[order] for name, values in self.columns.items()}

    def __len__(self):
        return len(self.columns["point_no"])

    def victors(self) -> np.ndarray:
        return np.array(self.columns["point_victor"], dtype=int)

    def servers(self) -> np.ndarray:
        return np.array(self.columns["server"], dtype=int)


@dataclass
class FeatureTable:
    """Per-point feature matrix derived from a cleaned timeline."""

    match_id: str
    feature_names: list[str]
    values: np.ndarray  # shape (n_points, n_features)

    def __len__(self):
        return self.values.shape[0]

    def column(self, name: str) -> np.ndarray:
        return self.values[:, self.feature_names.index(name)]


# Per-column repair counters of a CleaningReport.
COUNTERS = (
    "ad_replacements",
    "mean_imputations",
    "mode_imputations",
    "monotone_repairs",
    "categorical_mapped",
)


@dataclass
class CleaningReport:
    """Counts of every repair applied during cleaning, per column."""

    ad_replacements: dict = field(default_factory=dict)
    mean_imputations: dict = field(default_factory=dict)
    mode_imputations: dict = field(default_factory=dict)
    monotone_repairs: dict = field(default_factory=dict)
    categorical_mapped: dict = field(default_factory=dict)
    defaulted_columns: list = field(default_factory=list)
    rejected_rows: list = field(default_factory=list)

    def bump(self, counter: dict, column: str, amount: int = 1):
        counter[column] = counter.get(column, 0) + amount

    def total(self, counter: dict) -> int:
        return sum(counter.values())

    def to_dict(self) -> dict:
        return {
            "version": 1,
            **{name: dict(sorted(getattr(self, name).items())) for name in COUNTERS},
            "defaulted_columns": sorted(self.defaulted_columns),
            "rejected_rows": [{"row": r, "reason": why} for r, why in self.rejected_rows],
            "totals": {
                **{name: self.total(getattr(self, name)) for name in COUNTERS},
                "rejected_rows": len(self.rejected_rows),
            },
        }

    def merge(self, other: "CleaningReport"):
        """Add another report's counts, defaulted columns and rejected rows to this one."""
        for name in COUNTERS:
            for column, count in getattr(other, name).items():
                self.bump(getattr(self, name), column, count)
        self.defaulted_columns.extend(other.defaulted_columns)
        self.rejected_rows.extend(other.rejected_rows)


def _read_text(source) -> str:
    if isinstance(source, bytes):
        return source.decode("utf-8-sig")
    if hasattr(source, "read"):
        data = source.read()
        return data.decode("utf-8-sig") if isinstance(data, bytes) else data
    with open(os.fspath(source), "rb") as fh:
        return fh.read().decode("utf-8-sig")


def _to_float(text) -> float:
    """The cell as a finite float; blank, unparseable and non-finite cells are NaN."""
    if text is None:
        return math.nan
    text = str(text).strip()
    if not text:
        return math.nan
    try:
        value = float(text)
    except ValueError:
        return math.nan
    return value if math.isfinite(value) else math.nan


def _to_int(text, default=0) -> int:
    value = _to_float(text)
    if math.isnan(value) or abs(value) >= INT_LIMIT:
        return default
    return int(round(value))


def _shot_code(token) -> int:
    token = ("" if token is None else str(token)).strip()
    if not token:
        return 0
    upper = token.upper()
    if upper in SHOT_CODES:
        return SHOT_CODES[upper]
    value = _to_float(token)
    if value in (0.0, 1.0, 2.0):
        return int(value)
    return -1  # unknown token, coded later as 0 and counted


def _strip(token) -> str:
    return (token or "").strip()


def _int_cells(default):
    return functools.partial(_to_int, default=default)


# Point field -> (file column, cell converter, dtype, value when the header
# lacks the column).  Required columns are never absent.
FIELDS = {
    "set_no": ("set_no", _int_cells(0), np.int64, None),
    "game_no": ("game_no", _int_cells(0), np.int64, None),
    "point_no": ("point_no", _int_cells(-1), np.int64, None),
    "server": ("server", _int_cells(0), np.int64, None),
    "point_victor": ("point_victor", _int_cells(0), np.int64, None),
    "p1_score": ("p1_score", _strip, object, None),
    "p2_score": ("p2_score", _strip, object, None),
    **{name: (name, _int_cells(-1), np.int64, None)
       for name in ("p1_games", "p2_games", "p1_sets", "p2_sets", "p1_points_won",
                    "p2_points_won")},
    "serve_no": ("serve_no", _int_cells(0), np.int64, None),
    "shot_type_code": (SHOT_COLUMN, _shot_code, np.int64, 0),
    **{name: (name, _to_float, np.float64, 0.0) for name in CONTINUOUS_COLUMNS},
    **{name: (name, _int_cells(-1), np.int64, 0) for name in FLAG_COLUMNS},
}


class _Cells(dict):
    """Cell -> converted value, filled on a cell's first lookup."""

    def __init__(self, convert):
        self.convert = convert

    def __missing__(self, cell):
        value = self[cell] = self.convert(cell)
        return value


def _convert(cells, convert, dtype) -> np.ndarray:
    """Column of converted cells; each distinct cell goes through `convert` once."""
    return np.fromiter(map(_Cells(convert).__getitem__, cells), dtype=dtype, count=len(cells))


def _parse(text, columns):
    """(timelines, rejected, header) of CSV text; see parse_match_csv."""
    reader = csv.reader(io.StringIO(text))
    first = next(reader, None)
    if first is None:
        raise SchemaError("empty input: no header row found")
    remap = dict(columns or {})
    header = [remap.get(name, name) for name in first]
    missing = [c for c in REQUIRED_COLUMNS if c not in header]
    if missing:
        raise SchemaError("missing required column(s): " + ", ".join(missing))

    width = len(header)
    cells = []  # row-major: column j is cells[j::width]; each row list is freed once read
    for row in reader:
        if len(row) != width:
            if not row:
                continue  # blank lines are skipped and not numbered
            # short rows read their missing cells as None; cells past the header are dropped
            row = (row + [None] * width)[:width]
        cells += row
    if not cells:
        raise SchemaError("empty input: no data rows")
    position = {name: i for i, name in enumerate(header)}  # a repeated name takes its last column
    n = len(cells) // width
    fields = {name: _convert(cells[position[source]::width], convert, dtype)
              if source in position else np.full(n, absent, dtype=dtype)
              for name, (source, convert, dtype, absent) in FIELDS.items()}
    match_ids = _convert(cells[position["match_id"]::width], _strip, object)
    keep = (match_ids != "") & (fields["point_no"] > 0)
    rejected = [
        (i + 2, "missing match_id" if match_ids[i] == "" else "unparseable point_no")
        for i in np.flatnonzero(~keep).tolist()  # the header is line 1
    ]
    kept = np.flatnonzero(keep)
    names = sorted(set(match_ids[kept].tolist()))
    code = {name: m for m, name in enumerate(names)}
    codes = np.fromiter(map(code.__getitem__, match_ids[kept]), dtype=np.int64, count=kept.size)
    # a stable sort: points of one match with the same point_no keep their file order
    order = kept[np.lexsort((fields["point_no"][kept], codes))]
    ends = np.cumsum(np.bincount(codes, minlength=len(names))).tolist()
    spans = list(zip([0] + ends[:-1], ends))
    first_rows = kept[np.unique(codes, return_index=True)[1]].tolist()
    columns = {name: fields.pop(name)[order] for name in FIELDS}  # frees each unsorted column

    named = [p for p in PLAYER_COLUMNS if p in position] if "player1" in position else []
    timelines = []
    for name, (a, b), i in zip(names, spans, first_rows):
        # players come from the first kept row; a blank or absent name keeps its default
        players = tuple((_strip(cells[i * width + position[p]]) if p in named else "") or p
                        for p in PLAYER_COLUMNS)
        timelines.append(MatchTimeline(name, {k: v[a:b] for k, v in columns.items()}, players))
    return timelines, rejected, header


def parse_match_csv(source, columns=None):
    """Parse a point-by-point CSV into per-match timelines.

    Args:
        source: bytes, a path, or a readable file object.
        columns: optional mapping of file column name -> canonical name.

    Returns:
        (timelines, rejected): timelines is a list of MatchTimeline, one per
        distinct match_id in sorted order, each stably ordered by point_no.
        rejected lists (row_number, reason) pairs, in file order, for rows
        whose identity fields could not be recovered; they are reported,
        never silently dropped.  Rows are numbered from 2, counting non-blank
        rows only.

    Raises:
        SchemaError: empty input, or a required column absent from the header.
    """
    timelines, rejected, _ = _parse(_read_text(source), columns)
    return timelines, rejected


class _Matches:
    """Where each match's points lie in columns joined over every match."""

    def __init__(self, sizes):
        self.sizes = np.array(sizes, dtype=np.int64)
        self.ends = np.cumsum(self.sizes)
        self.starts = self.ends - self.sizes
        self.ids = np.repeat(np.arange(self.sizes.size), self.sizes)  # the match of each point
        self.first = np.zeros(self.ids.size, dtype=bool)  # a match's first point
        self.first[self.starts[self.sizes > 0]] = True

    def count(self, mask) -> np.ndarray:
        """Points of each match where mask holds."""
        return np.bincount(self.ids, weights=mask, minlength=self.sizes.size)

    def spans(self, mask):
        """(start, end) of each match with a point where mask holds."""
        hit = np.unique(self.ids[mask])
        return zip(self.starts[hit].tolist(), self.ends[hit].tolist())

    def falls(self, values) -> np.ndarray:
        """Points whose value is below the one before it in the same match."""
        return np.concatenate(([False], values[1:] < values[:-1])) & ~self.first


def _score_cell(token):
    """(value, is_advantage) of one raw score cell."""
    if isinstance(token, str) and token.strip().upper() == "AD":
        return ADVANTAGE_SCORE, True
    value = _to_float(token)
    return (ADVANTAGE_SCORE, True) if value < 0 else (value, False)


def _scores(cells):
    """Float scores and the advantage mask: AD tokens and negative scores become the sentinel."""
    scores = _Cells(_score_cell)
    return (_convert(cells, lambda cell: scores[cell][0], np.float64),
            _convert(cells, lambda cell: scores[cell][1], bool))


def _means(values, matches) -> np.ndarray:
    """Each match's mean of its present values, summed left to right like Python's sum.

    Only matches missing a value are summed; the others, and matches with no
    present value, get NaN.  A sum past the float range gives an infinite mean.
    """
    means = np.full(matches.sizes.size, np.nan)
    missing = np.isnan(values)
    for m in np.unique(matches.ids[missing]).tolist():
        part = values[matches.starts[m]:matches.ends[m]]
        finite = part[~np.isnan(part)].tolist()
        if finite:
            means[m] = sum(finite) / len(finite)
    return means


def _mean_fill(values, means, column, matches, report):
    """Missing points take their match's mean."""
    missing = np.isnan(values)
    if missing.any():
        values = np.where(missing, means[matches.ids], values)
        report.bump(report.mean_imputations, column, int(missing.sum()))
    return values


def _mode_fill(values, low, column, matches, report):
    """Points outside {low, low + 1} take their match's more frequent valid value (ties: low)."""
    invalid = (values != low) & (values != low + 1)
    if invalid.any():
        high = matches.count(values == low + 1) > matches.count(values == low)
        values = np.where(invalid, np.where(high, low + 1, low)[matches.ids], values)
        report.bump(report.mode_imputations, column, int(invalid.sum()))
    return values


def _points_won(values, won, matches):
    """Cumulative points: a negative or falling point becomes the previous one plus this point."""
    out = values.copy()
    for a, b in matches.spans((values < 0) | matches.falls(values)):
        prev = 0
        for i, (value, point) in enumerate(zip(values[a:b].tolist(), won[a:b].tolist()), a):
            if value < 0 or value < prev:
                value = out[i] = prev + point
            prev = value
    return out


def _repair(timelines, report):
    """(columns, matches): the repaired columns of every match, joined; counts each repair."""
    matches = _Matches([len(tl) for tl in timelines])
    cols = {name: np.concatenate([tl.columns[name] for tl in timelines])
            for name in timelines[0].columns}
    scores = {column: _scores(cols[column]) for column in ("p1_score", "p2_score")}
    means = {column: _means(values, matches) for column, (values, _) in scores.items()}
    means.update({column: _means(cols[column], matches) for column in CONTINUOUS_COLUMNS})
    # columns that cannot be repaired in a match without a usable point, in repair order
    usable = {column: ~np.isnan(values) for column, (values, _) in scores.items()}
    usable.update({column: (cols[column] == 1) | (cols[column] == 2)
                   for column in ("server", "point_victor", "serve_no")})
    usable.update({column: ~np.isnan(cols[column]) for column in CONTINUOUS_COLUMNS})
    counts = np.column_stack([matches.count(mask) for mask in usable.values()])
    unfilled = np.zeros(matches.sizes.size)
    overflow = np.column_stack([np.isinf(means.get(column, unfilled)) for column in usable])
    failing = np.argwhere(((counts == 0) | overflow) & (matches.sizes > 0)[:, None])
    if failing.size:  # the first in match-major order
        m, k = failing[0].tolist()
        column, match_id = list(usable)[k], timelines[m].match_id
        if overflow[m, k]:
            raise DataError(f"imputation impossible: the mean of column {column!r} in match "
                            f"{match_id!r} is not finite")
        raise DataError(f"imputation impossible: column {column!r} has no usable "
                        f"values in match {match_id!r}")

    for column, (values, advantage) in scores.items():
        if advantage.any():
            report.bump(report.ad_replacements, column, int(advantage.sum()))
        cols[column] = _mean_fill(values, means[column], column, matches, report)

    for column in ("server", "point_victor", "serve_no"):
        cols[column] = _mode_fill(cols[column], 1, column, matches, report)
    for column in FLAG_COLUMNS:
        cols[column] = _mode_fill(cols[column], 0, column, matches, report)

    unknown = (cols["shot_type_code"] < 0) | (cols["shot_type_code"] > 2)  # coded -1 at parse
    if unknown.any():
        cols["shot_type_code"] = np.where(unknown, 0, cols["shot_type_code"])
        report.bump(report.categorical_mapped, SHOT_COLUMN, int(unknown.sum()))

    repaired = {}
    for column, floor in (("set_no", 1), ("p1_sets", 0), ("p2_sets", 0)):
        values = np.maximum(cols[column], floor)  # set counters never fall: a running maximum
        for a, b in matches.spans(matches.falls(values)):
            values[a:b] = np.maximum.accumulate(values[a:b])
        repaired[column] = values
    for column, player in (("p1_points_won", 1), ("p2_points_won", 2)):
        won = (cols["point_victor"] == player).astype(np.int64)
        repaired[column] = _points_won(cols[column], won, matches)
    for column, values in repaired.items():
        changed = int(np.count_nonzero(values != cols[column]))
        if changed:
            report.bump(report.monotone_repairs, column, changed)
        cols[column] = values
    # game counters restart each set, so a bad point takes the last good value before it in
    # its match, or the floor
    for column, floor in (("game_no", 1), ("p1_games", 0), ("p2_games", 0)):
        bad = cols[column] < floor
        if bad.any():
            last = np.maximum.accumulate(np.where(bad, -1, np.arange(bad.size)))
            cols[column] = np.where(last < matches.starts[matches.ids], floor, cols[column][last])
            report.bump(report.monotone_repairs, column, int(bad.sum()))

    for column in CONTINUOUS_COLUMNS:
        cols[column] = _mean_fill(cols[column], means[column], column, matches, report)
    return cols, matches


def clean_timelines(timelines):
    """Clean every timeline, preserving match grouping; returns (timelines, CleaningReport).

    Repairs applied per match, in this order: advantage tokens and negative
    scores become the numeric sentinel, missing scores take the per-match
    mean; invalid categoricals (server, point_victor, serve_no, the flags)
    take the per-match mode; unknown shot codes become 0; the set and
    points-won counters are repaired to stay non-decreasing, and missing or
    negative game counters are filled forward; missing continuous values take
    the per-match mean.  Blank, unparseable and non-finite cells (``inf``,
    ``-inf``, ``1e309``, ``nan``) all count as missing.  The first match, in
    order, with a column it cannot repair raises DataError.  Cleaning is
    idempotent.
    """
    report = CleaningReport()
    if not timelines:
        return [], report
    cols, matches = _repair(timelines, report)
    return [MatchTimeline(tl.match_id, {name: v[a:b] for name, v in cols.items()}, tl.players)
            for tl, a, b in zip(timelines, matches.starts.tolist(), matches.ends.tolist())], report


def load_and_clean(source, columns=None):
    """Parse and clean a CSV in one step.

    Returns (timelines, report); the report also carries rejected rows and
    any optional columns that were absent from the header and default-filled.
    """
    timelines, rejected, header = _parse(_read_text(source), columns)
    timelines, report = clean_timelines(timelines)
    report.rejected_rows.extend(rejected)
    for col in CONTINUOUS_COLUMNS + FLAG_COLUMNS + (SHOT_COLUMN,):
        if col not in header:
            report.defaulted_columns.append(col)
    return timelines, report


def streak_lengths(victors: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Consecutive points won by each player ending at every point.

    streak_p1[n] counts the run of player-1 wins ending exactly at n and is
    zero whenever player 1 lost point n, so streak_p1[n] > 0 implies
    streak_p2[n] == 0.
    """
    v = np.asarray(victors, dtype=int)
    run = _run_lengths(v)
    p1 = np.where(v == 1, run, 0)
    p2 = np.where(v == 2, run, 0)
    return p1, p2


def derive_features(timeline: MatchTimeline) -> FeatureTable:
    """Build the per-point feature matrix from a cleaned timeline.

    score_diff/game_diff/set_diff are player-1 minus player-2 tallies,
    streak columns count consecutive wins ending at the point, error ratios
    are cumulative unforced errors over points played, distance_run_diff is
    cumulative meters run (p1 minus p2), serve_indicator flags a player-1
    serve, and psychological_factor is a unit-slope logistic squash of
    (break points won - double faults - opponent's current streak), a bounded
    composite of pressure-relevant events for player 1.
    """
    c = timeline.columns
    n = len(timeline)
    if n == 0:
        raise DataError("cannot derive features from an empty timeline")
    streak_p1, streak_p2 = streak_lengths(timeline.victors())
    idx = np.arange(1, n + 1, dtype=float)
    bp_won = np.cumsum(c["p1_break_pt_won"])
    dfaults = np.cumsum(c["p1_double_fault"])

    columns = [
        c["p1_points_won"].astype(float) - c["p2_points_won"].astype(float),
        (c["p1_games"] - c["p2_games"]).astype(float),
        (c["p1_sets"] - c["p2_sets"]).astype(float),
        streak_p1.astype(float),
        streak_p2.astype(float),
        np.cumsum(c["p1_unf_err"]) / idx,
        np.cumsum(c["p2_unf_err"]) / idx,
        np.cumsum(c["p1_distance_run"] - c["p2_distance_run"]).astype(float),
        (c["server"] == 1).astype(float),
        sigmoid(bp_won - dfaults - streak_p2),
    ]
    return FeatureTable(timeline.match_id, list(FEATURE_NAMES), np.column_stack(columns))


def _format_float(value: float) -> str:
    if math.isnan(value):
        return ""
    if value == int(value):
        return str(int(value))
    return repr(value)


CSV_COLUMNS = (
    ("match_id",)
    + ("player1", "player2")
    + tuple(c for c in REQUIRED_COLUMNS if c != "match_id")
    + (SHOT_COLUMN,)
    + CONTINUOUS_COLUMNS
    + FLAG_COLUMNS
)


def _csv_cells(timelines, column) -> list:
    """One output column over every timeline, as strings."""
    if column == "match_id":
        return [tl.match_id for tl in timelines for _ in range(len(tl))]
    if column in PLAYER_COLUMNS:
        player = PLAYER_COLUMNS.index(column)
        return [tl.players[player] for tl in timelines for _ in range(len(tl))]
    name = "shot_type_code" if column == SHOT_COLUMN else column
    values = np.concatenate([tl.columns[name] for tl in timelines])
    cells = _Cells(_format_float if values.dtype.kind == "f" else str)
    return list(map(cells.__getitem__, values.tolist()))


def write_clean_csv(timelines, destination):
    """Write cleaned timelines back out with normalized values, column by column."""
    cells = [_csv_cells(timelines, column) for column in CSV_COLUMNS] if timelines else []
    own = isinstance(destination, (str, os.PathLike))
    fh = open(destination, "w", newline="") if own else destination
    try:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        writer.writerows(zip(*cells))
    finally:
        if own:
            fh.close()
