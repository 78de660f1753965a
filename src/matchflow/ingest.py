"""Parsing, cleaning and feature engineering for point-by-point match CSVs.

The expected file is comma separated with a header row.  Column names follow
the common point-by-point export convention (``match_id``, ``set_no``,
``server``, ``point_victor``, ``p1_score`` ...); alternate headers can be
remapped with a ``columns`` table.  Extra columns are ignored.
"""

from __future__ import annotations

import csv
import io
import math
import os
from collections import Counter
from dataclasses import dataclass, field, fields, replace

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


@dataclass
class PointRecord:
    """One point of one match.

    Straight out of ``parse_match_csv`` the numeric fields may hold NaN and
    the score fields may hold raw tokens such as ``"AD"``; ``clean`` wipes
    both out.  After cleaning, ``server`` and ``point_victor`` are in {1, 2},
    scores are numeric and the cumulative counters are non-decreasing.
    """

    match_id: str
    set_no: int
    game_no: int
    point_no: int
    server: int
    point_victor: int
    p1_score: float | str
    p2_score: float | str
    p1_games: int
    p2_games: int
    p1_sets: int
    p2_sets: int
    p1_points_won: int
    p2_points_won: int
    serve_no: int
    shot_type_code: int = 0
    p1_distance_run: float = 0.0
    p2_distance_run: float = 0.0
    rally_count: float = 0.0
    speed_mph: float = 0.0
    p1_ace: int = 0
    p2_ace: int = 0
    p1_double_fault: int = 0
    p2_double_fault: int = 0
    p1_unf_err: int = 0
    p2_unf_err: int = 0
    p1_net_pt: int = 0
    p2_net_pt: int = 0
    p1_break_pt: int = 0
    p2_break_pt: int = 0
    p1_break_pt_won: int = 0
    p2_break_pt_won: int = 0
    p1_break_pt_missed: int = 0
    p2_break_pt_missed: int = 0


@dataclass
class MatchTimeline:
    """Ordered point sequence for a single match."""

    match_id: str
    records: list[PointRecord]
    players: tuple[str, str] = ("player1", "player2")

    def __post_init__(self):
        self.records = sorted(self.records, key=lambda r: r.point_no)

    def __len__(self):
        return len(self.records)

    def victors(self) -> np.ndarray:
        return np.array([r.point_victor for r in self.records], dtype=int)

    def servers(self) -> np.ndarray:
        return np.array([r.server for r in self.records], dtype=int)


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
    if text is None:
        return math.nan
    text = str(text).strip()
    if not text:
        return math.nan
    try:
        return float(text)
    except ValueError:
        return math.nan


def _to_int(text, default=0) -> int:
    value = _to_float(text)
    if math.isnan(value):
        return default
    return int(round(value))


def parse_match_csv(source, columns=None):
    """Parse a point-by-point CSV into per-match timelines.

    Args:
        source: bytes, a path, or a readable file object.
        columns: optional mapping of file column name -> canonical name.

    Returns:
        (timelines, rejected): timelines is a list of MatchTimeline, one per
        distinct match_id, each internally ordered by point_no.  rejected
        lists (row_number, reason) pairs for rows whose identity fields could
        not be recovered; they are reported, never silently dropped.

    Raises:
        SchemaError: empty input, or a required column absent from the header.
    """
    text = _read_text(source)
    reader = csv.DictReader(io.StringIO(text))
    if reader.fieldnames is None:
        raise SchemaError("empty input: no header row found")

    remap = dict(columns or {})
    header = [remap.get(name, name) for name in reader.fieldnames]
    missing = [c for c in REQUIRED_COLUMNS if c not in header]
    if missing:
        raise SchemaError("missing required column(s): " + ", ".join(missing))

    def get(row, name):
        return row.get(name)

    rows = []
    rejected = []
    players_by_match = {}
    for row_no, raw in enumerate(reader, start=2):  # header is line 1
        row = {header[i]: v for i, v in enumerate(list(raw.values())[: len(header)])}
        match_id = (get(row, "match_id") or "").strip()
        point_no = _to_int(get(row, "point_no"), default=-1)
        if not match_id:
            rejected.append((row_no, "missing match_id"))
            continue
        if point_no <= 0:
            rejected.append((row_no, "unparseable point_no"))
            continue

        record = PointRecord(
            match_id=match_id,
            set_no=_to_int(get(row, "set_no"), default=0),
            game_no=_to_int(get(row, "game_no"), default=0),
            point_no=point_no,
            server=_to_int(get(row, "server"), default=0),
            point_victor=_to_int(get(row, "point_victor"), default=0),
            p1_score=(get(row, "p1_score") or "").strip(),
            p2_score=(get(row, "p2_score") or "").strip(),
            p1_games=_to_int(get(row, "p1_games"), default=-1),
            p2_games=_to_int(get(row, "p2_games"), default=-1),
            p1_sets=_to_int(get(row, "p1_sets"), default=-1),
            p2_sets=_to_int(get(row, "p2_sets"), default=-1),
            p1_points_won=_to_int(get(row, "p1_points_won"), default=-1),
            p2_points_won=_to_int(get(row, "p2_points_won"), default=-1),
            serve_no=_to_int(get(row, "serve_no"), default=0),
        )
        for col in CONTINUOUS_COLUMNS:
            if col in header:
                setattr(record, col, _to_float(get(row, col)))
        for col in FLAG_COLUMNS:
            if col in header:
                setattr(record, col, _to_int(get(row, col), default=-1))
        if SHOT_COLUMN in header:
            record.shot_type_code = _shot_code(get(row, SHOT_COLUMN))
        if "player1" in header and match_id not in players_by_match:
            players_by_match[match_id] = (
                (get(row, "player1") or "player1").strip() or "player1",
                (get(row, "player2") or "player2").strip() or "player2",
            )
        rows.append(record)

    if not rows and not rejected:
        raise SchemaError("empty input: no data rows")

    by_match = {}
    for record in rows:
        by_match.setdefault(record.match_id, []).append(record)
    timelines = [
        MatchTimeline(mid, recs, players_by_match.get(mid, ("player1", "player2")))
        for mid, recs in sorted(by_match.items())
    ]
    return timelines, rejected


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


def _match_mean(values, column, match_id):
    finite = [v for v in values if not math.isnan(v)]
    if not finite:
        raise DataError(
            f"imputation impossible: column {column!r} has no usable values in match {match_id!r}"
        )
    return sum(finite) / len(finite)


def _match_mode(values, column, match_id, valid):
    counts = Counter(v for v in values if v in valid)
    if not counts:
        raise DataError(
            f"imputation impossible: column {column!r} has no usable values in match {match_id!r}"
        )
    # break ties on the smaller value so repair is deterministic
    return sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))[0][0]


def _clean_score(raw, column, report):
    """AD tokens and negative advantage markers become the fixed sentinel."""
    if isinstance(raw, str):
        token = raw.strip().upper()
        if token == "AD":
            report.bump(report.ad_replacements, column)
            return ADVANTAGE_SCORE
        value = _to_float(raw)
    else:
        value = float(raw) if raw is not None else math.nan
    if not math.isnan(value) and value < 0:
        report.bump(report.ad_replacements, column)
        return ADVANTAGE_SCORE
    return value


def _clean_match(records, report):
    match_id = records[0].match_id
    out = [replace(r) for r in records]
    n = len(out)

    # scores: AD/negative -> sentinel, then mean-impute leftovers
    for column in ("p1_score", "p2_score"):
        values = [_clean_score(getattr(r, column), column, report) for r in out]
        if all(math.isnan(v) for v in values):
            raise DataError(
                f"imputation impossible: column {column!r} has no usable values in match {match_id!r}"
            )
        mean = _match_mean(values, column, match_id)
        for i, r in enumerate(out):
            if math.isnan(values[i]):
                values[i] = mean
                report.bump(report.mean_imputations, column)
            setattr(r, column, values[i])

    # categorical columns: invalid entries repaired by per-match mode
    for column, valid in (("server", {1, 2}), ("point_victor", {1, 2}), ("serve_no", {1, 2})):
        values = [getattr(r, column) for r in out]
        invalid = [i for i, v in enumerate(values) if v not in valid]
        if invalid:
            mode = _match_mode(values, column, match_id, valid)
            for i in invalid:
                setattr(out[i], column, mode)
                report.bump(report.mode_imputations, column)

    for column in FLAG_COLUMNS:
        values = [getattr(r, column) for r in out]
        invalid = [i for i, v in enumerate(values) if v not in (0, 1)]
        if invalid:
            counts = Counter(v for v in values if v in (0, 1))
            mode = 0 if not counts else sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))[0][0]
            for i in invalid:
                setattr(out[i], column, mode)
                report.bump(report.mode_imputations, column)

    # unknown shot tokens were coded -1 at parse time
    for r in out:
        if r.shot_type_code not in (0, 1, 2):
            r.shot_type_code = 0
            report.bump(report.categorical_mapped, SHOT_COLUMN)

    # cumulative counters: fill gaps forward, repair monotonicity violations
    for column, floor in (
        ("set_no", 1),
        ("game_no", 1),
        ("p1_sets", 0),
        ("p2_sets", 0),
        ("p1_points_won", 0),
        ("p2_points_won", 0),
    ):
        monotone = column != "game_no"  # game_no restarts are allowed per set
        prev = None
        for i, r in enumerate(out):
            value = getattr(r, column)
            bad = value < floor or (monotone and prev is not None and value < prev)
            if bad:
                if column in ("p1_points_won", "p2_points_won"):
                    player = 1 if column.startswith("p1") else 2
                    value = (prev or 0) + (1 if r.point_victor == player else 0)
                else:
                    value = prev if prev is not None else floor
                setattr(r, column, value)
                report.bump(report.monotone_repairs, column)
            prev = value

    for column in ("p1_games", "p2_games"):
        prev = 0
        for r in out:
            value = getattr(r, column)
            if value < 0:  # games reset each set, so only fill gaps forward
                setattr(r, column, prev)
                report.bump(report.monotone_repairs, column)
            prev = getattr(r, column)

    # remaining continuous columns: per-match mean imputation
    for column in CONTINUOUS_COLUMNS:
        values = [getattr(r, column) for r in out]
        missing = [i for i, v in enumerate(values) if math.isnan(v)]
        if missing:
            mean = _match_mean(values, column, match_id)
            for i in missing:
                setattr(out[i], column, mean)
                report.bump(report.mean_imputations, column)

    return out


def clean_with_report(records):
    """Clean parsed records and return (cleaned_records, CleaningReport).

    Repairs applied per match: advantage tokens/negative scores replaced by
    the numeric sentinel, missing numerics filled with the per-match mean,
    invalid categoricals filled with the per-match mode, cumulative counters
    repaired to stay non-decreasing.  Cleaning is idempotent.
    """
    report = CleaningReport()
    by_match = {}
    for r in records:
        by_match.setdefault(r.match_id, []).append(r)
    cleaned = []
    for match_id in sorted(by_match):
        group = sorted(by_match[match_id], key=lambda r: r.point_no)
        cleaned.extend(_clean_match(group, report))
    return cleaned, report


def clean(records):
    """Clean parsed records; see clean_with_report for the repair rules."""
    return clean_with_report(records)[0]


def clean_timelines(timelines):
    """Clean every timeline, preserving match grouping."""
    report = CleaningReport()
    out = []
    for tl in timelines:
        group, match_report = clean_with_report(tl.records)
        report.merge(match_report)
        out.append(MatchTimeline(tl.match_id, group, tl.players))
    return out, report


def load_and_clean(source, columns=None):
    """Parse and clean a CSV in one step.

    Returns (timelines, report); the report also carries rejected rows and
    any optional columns that were absent from the header and default-filled.
    """
    text = _read_text(source)
    timelines, rejected = parse_match_csv(text.encode("utf-8"), columns=columns)
    timelines, report = clean_timelines(timelines)
    report.rejected_rows.extend(rejected)

    header_row = next(csv.reader(io.StringIO(text)), [])
    remap = dict(columns or {})
    header = {remap.get(name, name) for name in header_row}
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
    recs = timeline.records
    n = len(recs)
    if n == 0:
        raise DataError("cannot derive features from an empty timeline")
    v = timeline.victors()
    streak_p1, streak_p2 = streak_lengths(v)
    idx = np.arange(1, n + 1, dtype=float)

    p1_pts = np.array([r.p1_points_won for r in recs], dtype=float)
    p2_pts = np.array([r.p2_points_won for r in recs], dtype=float)
    err1 = np.cumsum([r.p1_unf_err for r in recs]) / idx
    err2 = np.cumsum([r.p2_unf_err for r in recs]) / idx
    dist = np.cumsum([r.p1_distance_run - r.p2_distance_run for r in recs])
    bp_won = np.cumsum([r.p1_break_pt_won for r in recs])
    dfaults = np.cumsum([r.p1_double_fault for r in recs])
    psych = sigmoid(bp_won - dfaults - streak_p2)

    columns = [
        p1_pts - p2_pts,
        np.array([r.p1_games - r.p2_games for r in recs], dtype=float),
        np.array([r.p1_sets - r.p2_sets for r in recs], dtype=float),
        streak_p1.astype(float),
        streak_p2.astype(float),
        err1,
        err2,
        dist.astype(float),
        np.array([1.0 if r.server == 1 else 0.0 for r in recs]),
        psych,
    ]
    return FeatureTable(timeline.match_id, list(FEATURE_NAMES), np.column_stack(columns))


def _format_cell(value) -> str:
    if isinstance(value, float):
        if math.isnan(value):
            return ""
        if value == int(value):
            return str(int(value))
        return repr(value)
    return str(value)


CSV_COLUMNS = (
    ("match_id",)
    + ("player1", "player2")
    + tuple(c for c in REQUIRED_COLUMNS if c != "match_id")
    + (SHOT_COLUMN,)
    + CONTINUOUS_COLUMNS
    + FLAG_COLUMNS
)


def write_clean_csv(timelines, destination):
    """Write cleaned timelines back out with normalized values."""
    own = isinstance(destination, (str, os.PathLike))
    fh = open(destination, "w", newline="") if own else destination
    try:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        for tl in timelines:
            for r in tl.records:
                row = []
                for col in CSV_COLUMNS:
                    if col == "player1":
                        row.append(tl.players[0])
                    elif col == "player2":
                        row.append(tl.players[1])
                    elif col == SHOT_COLUMN:
                        row.append(str(r.shot_type_code))
                    else:
                        row.append(_format_cell(getattr(r, col)))
                writer.writerow(row)
    finally:
        if own:
            fh.close()
