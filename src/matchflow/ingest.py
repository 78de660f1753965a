"""Parsing, cleaning and feature engineering for point-by-point match CSVs.

The expected file is comma separated with a header row.  Column names follow
the common point-by-point export convention (``match_id``, ``set_no``,
``server``, ``point_victor``, ``p1_score`` ...); alternate headers can be
remapped with a ``columns`` table.  Extra columns are ignored.

Data stay in numpy columns from parse to artifact.  The input is a path (a
FIFO included) or bytes, read as UTF-8 with an optional BOM skipped, and it is
read as a stream: ``PARSE_BATCH`` (256) rows at a time, each column of a batch
converted through the scalar rules ``_to_float``, ``_to_int``, ``_score`` and
``_shot_code``, and the whole text is never held in memory.  ``FIELDS`` declares
the point fields once, each with its dtype.  Each rule takes a cell's text (a
short row's missing cells are ""); ``_to_int`` reads a blank, unparseable,
non-finite or non-integral ("2.5") cell as -1, and so a cell its field's dtype
cannot hold: beyond int64 for a counter, beyond int8 for a code such as
``server`` (``300``).  -1 lies below every field's valid range, so the cell is
repaired and counted, or its row rejected, and never rounded.  A memo that
spans the batches converts each distinct cell of a column once, for as long as
the column's cells repeat; a column whose cells are mostly distinct, judged
over its first ``MEMO_TRIAL`` cells and after, drops its memo and converts cell
by cell.

Every numeric field is written straight into one ``(fields, capacity)`` block
per dtype, a field to a row (``BLOCK_FIELDS``): int64 for the 9 counters, int8
for the 18 categorical codes, whose valid values lie in 0-2, and float64 for
the scores and continuous columns, 138 bytes a row in all.  Each text column
goes to one list.  The capacity is a hint taken before the parse: a source that
can seek (a file, bytes) is read once for its count of newline bytes, and the
capacity is that count + 1, which holds every data row; the stream then goes
back to its start.  Where the hint runs short (a FIFO, which cannot seek, or
CR-only line ends) the blocks double, with a copy.  So the columns of a parse
take one allocation per dtype and leave no holes in the heap.  Each row is then
sorted by match and point in place, through one row of scratch, and the column
is a view of its row; the repairs run on the joined columns with array
operations and write into those rows too.  Only then are the columns split
into one ``MatchTimeline`` per match, whose arrays view the blocks: a block is
freed when the last timeline of its parse goes.  ``load_and_clean`` is the one
way in, so every timeline is a cleaned one.

``write_clean_csv`` writes the result.  ``write_csv`` is the one CSV writer:
it writes the cleaned file and every table the command line produces to a
path, straight from their columns, ``PARSE_BLOCK`` (1024) rows at a time,
formatting and quoting each distinct value of a column's block once.  It takes
an iterable of column groups, so a table that a generator yields a group at a
time (the cleaned file's timelines, the grid tables) is never held whole.  A
field is quoted where csv's minimal quoting would quote it and where it holds
a lone CR, so every written file reads back as it was written.  The two sizes
differ on purpose: a parse batch's cells are Python strings, most of what the
parse adds to the peak, so the batch is small; the writer's cost is per block
and per distinct value, so its block is larger (at 256 rows, writing the
cleaned file of a damaged 50-match shard took about 1.5 times as long).

Input faults are a ``SchemaError`` (the command line exits 2): an empty file,
a missing required column, malformed CSV such as a field past csv's size
limit (naming the line), and bytes that are not UTF-8 (naming their offset).
"""

from __future__ import annotations

import contextlib
import csv
import functools
import io
import itertools
import math
import os
import re
from dataclasses import dataclass, field

import numpy as np

from .errors import DataError, SchemaError
from .momentum import _run_lengths

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

# Integers an integer column cannot hold count as missing: beyond int64 for a counter, and
# beyond int8 for a categorical code.
INT_LIMIT = 2.0**63
INT8_LIMIT = 2.0**7

# Rows the parse reads and converts at a time.  A batch's cells are Python strings, the bulk of
# what the parse adds to the peak, so the batch is small.  The memos of distinct cells span
# every batch.
PARSE_BATCH = 256

# Cells a memo is asked for before it is judged.  Over fewer, a column whose values repeat
# only across matches, such as point_no, looks mostly distinct and would drop its memo.
MEMO_TRIAL = 1024

# Rows the writer formats and writes at a time, and the rows a stream that cannot seek starts
# its blocks with.  The writer formats each distinct value of a column's block once, so its
# block is larger than the parse's batch: at 256 rows the cleaned file of a damaged 50-match
# shard took about 1.5 times as long to write as at 1024.
PARSE_BLOCK = 1024

# A CSV field holding one of these is quoted: csv's QUOTE_MINIMAL set, with CR counted, so a
# field with a lone CR reads back intact.
_QUOTED = re.compile('[,"\r\n]')

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
    """One cleaned match as numpy columns: one equal-length array per point field.

    ``columns`` maps each field name to its array of its ``FIELDS`` dtype,
    stably sorted by ``point_no``: the counters ``set_no``, ``game_no``,
    ``point_no`` and the ``*_games``, ``*_sets`` and ``*_points_won`` are
    int64; the codes ``server``, ``point_victor``, ``serve_no``,
    ``shot_type_code`` and the flag columns are int8; and the scores and
    continuous columns are float64.  No value is missing: ``server`` and
    ``point_victor`` are in {1, 2}, advantage scores hold ``ADVANTAGE_SCORE``
    and the cumulative counters are non-decreasing.
    """

    match_id: str
    columns: dict
    players: tuple[str, str] = ("player1", "player2")

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

    def column(self, name: str) -> np.ndarray:
        return self.values[:, self.feature_names.index(name)]

    def standardization(self) -> tuple[np.ndarray, np.ndarray]:
        """(mean, std) of each column, a zero std taken as 1, for scaling to (x - mean) / std.

        Raises:
            DataError: naming the first column whose mean or std overflows.
        """
        with np.errstate(over="ignore", invalid="ignore"):
            mean, std = self.values.mean(axis=0), self.values.std(axis=0)
        bad = ~(np.isfinite(mean) & np.isfinite(std))
        if bad.any():
            name = self.feature_names[int(np.argmax(bad))]
            raise DataError(f"feature {name} has a spread too large to scale")
        std[std == 0.0] = 1.0
        return mean, std


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
    # the match_id of each row rejected for its point_no, once a row; not written by to_dict
    rejected_ids: list = field(default_factory=list)

    def bump(self, counter: dict, column: str, amount: int = 1):
        counter[column] = counter.get(column, 0) + amount

    def to_dict(self) -> dict:
        return {
            "version": 1,
            **{name: dict(sorted(getattr(self, name).items())) for name in COUNTERS},
            "defaulted_columns": sorted(self.defaulted_columns),
            "rejected_rows": [{"row": r, "reason": why} for r, why in self.rejected_rows],
            "totals": {
                **{name: sum(getattr(self, name).values()) for name in COUNTERS},
                "rejected_rows": len(self.rejected_rows),
            },
        }

    def merge(self, other: "CleaningReport"):
        """Add another report's counts, rejected rows and the defaulted columns this one lacks."""
        for name in COUNTERS:
            for column, count in getattr(other, name).items():
                self.bump(getattr(self, name), column, count)
        self.defaulted_columns.extend(column for column in other.defaulted_columns
                                      if column not in self.defaulted_columns)
        self.rejected_rows.extend(other.rejected_rows)
        self.rejected_ids.extend(other.rejected_ids)


def _to_float(text: str) -> float:
    """The cell as a finite float; blank, unparseable and non-finite cells are NaN."""
    text = text.strip()
    if not text:
        return math.nan
    try:
        value = float(text)
    except ValueError:
        return math.nan
    return value if math.isfinite(value) else math.nan


def _to_int(text: str, limit: float = INT_LIMIT) -> int:
    """The cell as an int; blank, unparseable, non-finite and non-integral cells are -1, and
    so is a cell whose magnitude reaches limit: beyond int64 by default."""
    value = _to_float(text)
    if not value.is_integer() or abs(value) >= limit:  # nan is not an integer
        return -1
    return int(value)


def _shot_code(token: str) -> int:
    token = token.strip()
    if not token:
        return 0
    upper = token.upper()
    if upper in SHOT_CODES:
        return SHOT_CODES[upper]
    value = _to_float(token)
    if value in (0.0, 1.0, 2.0):
        return int(value)
    return -1  # unknown token, coded later as 0 and counted


def _score(token: str) -> float:
    """The score of a cell; an advantage token (AD, any case) reads as -1, a negative mark."""
    return -1.0 if token.strip().upper() == "AD" else _to_float(token)


# The one declaration of the point fields: field -> (file column, converter of a cell's
# text, dtype, value when the header lacks the column, None for a required column).  A
# missing or non-integral integer, or one its dtype cannot hold, reads as -1, below every
# field's valid range, so it is repaired as invalid.  The counters are int64; the
# categorical codes, whose valid values lie in 0-2, are int8.
_to_int8 = functools.partial(_to_int, limit=INT8_LIMIT)
FIELDS = {
    **{name: (name, _to_int, np.int64, None) for name in ("set_no", "game_no", "point_no")},
    **{name: (name, _to_int8, np.int8, None) for name in ("server", "point_victor")},
    **{name: (name, _score, np.float64, None) for name in ("p1_score", "p2_score")},
    **{name: (name, _to_int, np.int64, None)
       for name in ("p1_games", "p2_games", "p1_sets", "p2_sets", "p1_points_won",
                    "p2_points_won")},
    "serve_no": ("serve_no", _to_int8, np.int8, None),
    "shot_type_code": (SHOT_COLUMN, _shot_code, np.int8, 0),
    **{name: (name, _to_float, np.float64, 0.0) for name in CONTINUOUS_COLUMNS},
    **{name: (name, _to_int8, np.int8, 0) for name in FLAG_COLUMNS},
}

# Columns that must be present (after remapping) for a file to parse at all.
REQUIRED_COLUMNS = ("match_id", *(spec[0] for spec in FIELDS.values() if spec[3] is None))


class _Cells(dict):
    """Cell -> converted value, filled on a cell's first lookup, for as long as the memo pays.

    A memo pays where a column's cells repeat.  Once it has been asked for
    MEMO_TRIAL cells or more and holds more distinct cells than half of them,
    it is emptied and the column's later cells are converted one by one.
    """

    def __init__(self, convert):
        self.convert = convert
        self.asked = 0
        self.pays = True

    def __missing__(self, cell):
        value = self[cell] = self.convert(cell)
        return value

    def convert_all(self, cells):
        """An iterator of the converted cells."""
        # judged on the batches before this one
        if self.pays and self.asked >= MEMO_TRIAL and 2 * len(self) > self.asked:
            self.clear()
            self.pays = False
        if not self.pays:
            return map(self.convert, cells)
        self.asked += len(cells)
        return map(self.__getitem__, cells)


def _decode_error(stream, exc) -> SchemaError:
    """SchemaError naming the byte a UnicodeDecodeError from stream failed on, and its offset.

    The decoder fails on the chunk just read, so exc.object ends where the
    stream's byte buffer stands; a buffer that cannot tell its position (a
    FIFO) gives no offset.
    """
    where = ""
    with contextlib.suppress(OSError):
        where = f" at offset {stream.buffer.tell() - len(exc.object) + exc.start}"
    return SchemaError(f"input is not UTF-8: byte {exc.object[exc.start]:#04x}{where} "
                       f"({exc.reason})")


def _parse(stream, columns):
    """(cols, ids, players, matches, rejected, header) of a CSV text stream not yet read.

    cols holds every point field of every match, joined and sorted by match
    and then stably by point_no, each a view of its row of its dtype's block;
    ids and players give each match's id and player names in sorted id order,
    matches (a _Matches) their spans in cols, and rejected the (line, reason,
    match_id) of each row rejected.  See load_and_clean.
    """
    capacity = _capacity(stream.buffer)
    reader = csv.reader(stream)
    try:
        return _parse_rows(reader, columns, capacity)
    except csv.Error as exc:
        raise SchemaError(f"malformed CSV at line {reader.line_num}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise _decode_error(stream, exc) from None


def _capacity(binary) -> int:
    """Rows the blocks start with: the newlines of a seekable stream + 1, else PARSE_BLOCK.

    A seekable stream is read to its end for the count of b"\\n" and put back
    at its start.  That byte never occurs inside a multibyte UTF-8 sequence,
    so the count is the text's.  It covers every data row of a file with LF
    or CRLF line ends; the blocks grow past it for CR-only line ends.
    """
    if not binary.seekable():
        return PARSE_BLOCK
    chunks = iter(functools.partial(binary.read, 1 << 16), b"")
    newlines = sum(chunk.count(b"\n") for chunk in chunks)
    binary.seek(0)
    return newlines + 1


# The point fields of each dtype, in FIELDS order: the i-th is row i of its dtype's block.
BLOCK_FIELDS = {dtype: [name for name, spec in FIELDS.items() if spec[2] is dtype]
                for dtype in (np.int64, np.int8, np.float64)}


def _parse_rows(reader, columns, capacity):
    first = next(reader, None)
    if first is None:
        raise SchemaError("empty input: no header row found")
    remap = dict(columns or {})
    header = [remap.get(name, name) for name in first]
    missing = [c for c in REQUIRED_COLUMNS if c not in header]
    if missing:
        raise SchemaError("missing required column(s): " + ", ".join(missing))

    width = len(header)
    position = {name: i for i, name in enumerate(header)}  # a repeated name takes its last column
    named = [p for p in PLAYER_COLUMNS if p in position] if "player1" in position else []
    # (dtype, row, column, memo) of each numeric field read; a memo outlives the batches, so
    # each distinct cell of a column whose cells repeat is converted once
    read = [(dtype, BLOCK_FIELDS[dtype].index(name), position[source], _Cells(convert))
            for name, (source, convert, dtype, _) in FIELDS.items() if source in position]
    # one (fields, capacity) block per dtype, so the columns leave no holes in the heap, and a
    # list per text column
    blocks = {dtype: np.empty((len(names), capacity), dtype)
              for dtype, names in BLOCK_FIELDS.items()}
    texts = {name: [] for name in ("match_id", *named)}
    text_memos = {name: _Cells(str.strip) for name in texts}
    n = 0
    for batch in iter(lambda: list(itertools.islice(reader, PARSE_BATCH)), []):
        cells = []  # row-major: column j is cells[j::width]
        for row in batch:
            if len(row) != width:
                if not row:
                    continue  # blank lines are skipped and not numbered
                # short rows read their missing cells as ""; cells past the header are dropped
                row = (row + [""] * width)[:width]
            cells += row
        rows = len(cells) // width
        if n + rows > capacity:  # the hint ran short: double, with a copy
            capacity = max(2 * capacity, n + rows)
            for dtype, old in list(blocks.items()):
                blocks[dtype] = np.empty((len(old), capacity), dtype)
                blocks[dtype][:, :n] = old[:, :n]
            del old  # the last block outgrown
        for dtype, i, j, memo in read:
            blocks[dtype][i, n:n + rows] = np.fromiter(memo.convert_all(cells[j::width]), dtype,
                                                       count=rows)
        for name, values in texts.items():
            values.extend(text_memos[name].convert_all(cells[position[name]::width]))
        n += rows
    if not n:
        raise SchemaError("empty input: no data rows")

    match_ids = np.array(texts["match_id"], dtype=object)
    point_no = blocks[np.int64][BLOCK_FIELDS[np.int64].index("point_no"), :n]
    keep = (match_ids != "") & (point_no > 0)
    rejected = [  # (line, reason, match_id); the header is line 1
        (i + 2, "missing match_id" if match_ids[i] == "" else "unparseable point_no", match_ids[i])
        for i in np.flatnonzero(~keep).tolist()
    ]
    kept = np.flatnonzero(keep)
    ids = sorted(set(match_ids[kept].tolist()))
    code = {name: m for m, name in enumerate(ids)}
    codes = np.fromiter(map(code.__getitem__, match_ids[kept]), dtype=np.int64, count=kept.size)
    # a stable sort: points of one match with the same point_no keep their file order
    order = kept[np.lexsort((point_no[kept], codes))]
    first_rows = kept[np.unique(codes, return_index=True)[1]]
    # players come from the first kept row; a blank or absent name keeps its default
    names = [list(map(texts[p].__getitem__, first_rows.tolist())) if p in named
             else [""] * len(ids) for p in PLAYER_COLUMNS]
    players = [tuple(name or p for name, p in zip(pair, PLAYER_COLUMNS)) for pair in zip(*names)]
    # each row is sorted in place through one row of scratch, whose first bytes serve every
    # dtype; a column the header lacks holds its default
    scratch = np.empty(order.size, np.int64)
    cols = {}
    for name, (source, _, dtype, absent) in FIELDS.items():
        row = blocks[dtype][BLOCK_FIELDS[dtype].index(name)]
        if source in position:
            sorted_row = scratch.view(dtype)[:order.size]
            np.take(row[:n], order, out=sorted_row, mode="clip")  # "raise" would buffer
            row[:order.size] = sorted_row
        else:
            row[:order.size] = absent
        cols[name] = row[:order.size]
    return cols, ids, players, _Matches(np.bincount(codes, minlength=len(ids))), rejected, header


def _timelines(cols, ids, players, matches):
    """One MatchTimeline per match, viewing its span of the joined columns."""
    return [MatchTimeline(m, {name: v[a:b] for name, v in cols.items()}, pair)
            for m, pair, a, b in zip(ids, players, matches.starts.tolist(), matches.ends.tolist())]


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
        hit = np.flatnonzero(self.count(mask))
        return zip(self.starts[hit].tolist(), self.ends[hit].tolist())

    def falls(self, values) -> np.ndarray:
        """Points whose value is below the one before it in the same match."""
        return np.concatenate(([False], values[1:] < values[:-1])) & ~self.first


def _means(values, matches) -> np.ndarray:
    """Each match's mean of its present values, summed left to right like Python's sum.

    Only matches missing a value are summed; the others, and matches with no
    present value, get NaN.  A sum past the float range gives an infinite mean.
    """
    means = np.full(matches.sizes.size, np.nan)
    for m in np.flatnonzero(matches.count(np.isnan(values))).tolist():
        part = values[matches.starts[m]:matches.ends[m]]
        finite = part[~np.isnan(part)].tolist()
        if finite:
            means[m] = sum(finite) / len(finite)
    return means


def _mean_fill(values, means, column, matches, report):
    """Missing points take their match's mean, in place."""
    missing = np.isnan(values)
    if missing.any():
        values[missing] = means[matches.ids[missing]]
        report.bump(report.mean_imputations, column, int(missing.sum()))


def _mode_fill(values, low, column, matches, report):
    """Points outside {low, low + 1} take their match's more frequent valid value (ties: low).

    Fills in place.
    """
    invalid = (values != low) & (values != low + 1)
    if invalid.any():
        high = matches.count(values == low + 1) > matches.count(values == low)
        values[invalid] = np.where(high, low + 1, low)[matches.ids[invalid]]
        report.bump(report.mode_imputations, column, int(invalid.sum()))


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


def _repair(cols, ids, matches, report):
    """Repair the columns of the matches joined in cols; counts each repair.

    Every repair is written into the column's own array, so a column that
    views a row of a block stays that view.  ids names each match, in the
    order of its span in matches.  Returns cols.
    """
    scores = ("p1_score", "p2_score")
    for column in scores:  # AD tokens and negative scores, both negative since the parse
        advantage = cols[column] < 0
        if advantage.any():
            cols[column][advantage] = ADVANTAGE_SCORE
            report.bump(report.ad_replacements, column, int(advantage.sum()))
    means = {column: _means(cols[column], matches) for column in scores + CONTINUOUS_COLUMNS}
    # columns that cannot be repaired in a match without a usable point, in repair order
    usable = {column: ~np.isnan(cols[column]) for column in scores}
    usable.update({column: (cols[column] == 1) | (cols[column] == 2)
                   for column in ("server", "point_victor", "serve_no")})
    usable.update({column: ~np.isnan(cols[column]) for column in CONTINUOUS_COLUMNS})
    counts = np.column_stack([matches.count(mask) for mask in usable.values()])
    unfilled = np.zeros(matches.sizes.size)
    overflow = np.column_stack([np.isinf(means.get(column, unfilled)) for column in usable])
    failing = np.argwhere(((counts == 0) | overflow) & (matches.sizes > 0)[:, None])
    if failing.size:  # the first in match-major order
        m, k = failing[0].tolist()
        column, match_id = list(usable)[k], ids[m]
        if overflow[m, k]:
            raise DataError(f"imputation impossible: the mean of column {column!r} in match "
                            f"{match_id!r} is not finite")
        raise DataError(f"imputation impossible: column {column!r} has no usable "
                        f"values in match {match_id!r}")

    for column in scores:
        _mean_fill(cols[column], means[column], column, matches, report)

    for column in ("server", "point_victor", "serve_no"):
        _mode_fill(cols[column], 1, column, matches, report)
    for column in FLAG_COLUMNS:
        _mode_fill(cols[column], 0, column, matches, report)

    unknown = (cols["shot_type_code"] < 0) | (cols["shot_type_code"] > 2)  # coded -1 at parse
    if unknown.any():
        cols["shot_type_code"][unknown] = 0
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
        cols[column][...] = values
    # game counters restart each set, so a bad point takes the last good value before it in
    # its match, or the floor
    for column, floor in (("game_no", 1), ("p1_games", 0), ("p2_games", 0)):
        bad = cols[column] < floor
        if bad.any():
            last = np.maximum.accumulate(np.where(bad, -1, np.arange(bad.size)))
            cols[column][...] = np.where(last < matches.starts[matches.ids], floor,
                                         cols[column][last])
            report.bump(report.monotone_repairs, column, int(bad.sum()))

    for column in CONTINUOUS_COLUMNS:
        _mean_fill(cols[column], means[column], column, matches, report)
    return cols


def load_and_clean(source, columns=None):
    """Parse and clean a point-by-point CSV into one timeline per match.

    source is a path (str or PathLike, a FIFO included) or bytes, read as a
    stream as the module docstring says; columns maps file column names to
    canonical ones.  The joined columns are repaired before any timeline is
    built, per match and in this order: advantage tokens and negative scores
    become the numeric sentinel, missing scores take the per-match mean;
    invalid categoricals (server, point_victor, serve_no, the flags) take the
    per-match mode; unknown shot codes become 0; the set and points-won
    counters are repaired to stay non-decreasing, and missing or negative game
    counters are filled forward; missing continuous values take the per-match
    mean.  Blank, unparseable and non-finite cells (``inf``, ``-inf``,
    ``1e309``, ``nan``) all count as missing.  Cleaning is idempotent.

    Returns (timelines, report): one MatchTimeline per distinct match_id in
    sorted order, and a CleaningReport of every repair, of the optional
    columns absent from the header (default-filled) and, in file order, of
    the (row, reason) of each row without a usable match_id or point_no
    (numbered from 2, blank lines not counted), with the match_id of each row
    rejected for its point_no (rejected_ids, which to_dict leaves out).

    Raises:
        TypeError: a source that is neither a path nor bytes, such as a file
            object.
        SchemaError: an input fault the module docstring lists; the command
            line exits 2 on it.
        DataError: the first match, in order, with a column it cannot repair.
    """
    if isinstance(source, bytes):
        binary = io.BytesIO(source)
    elif isinstance(source, (str, os.PathLike)):
        binary = open(source, "rb")
    else:
        raise TypeError(f"source must be a path or bytes, not {type(source).__name__}")
    with io.TextIOWrapper(binary, encoding="utf-8-sig", newline="") as stream:
        cols, ids, players, matches, rejected, header = _parse(stream, columns)
    report = CleaningReport()
    timelines = _timelines(_repair(cols, ids, matches, report), ids, players, matches)
    report.rejected_rows.extend((line, reason) for line, reason, _ in rejected)
    report.rejected_ids.extend(match_id for _, _, match_id in rejected if match_id)
    report.defaulted_columns.extend(source for source, _, _, absent in FIELDS.values()
                                    if absent is not None and source not in header)
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


def _sigmoid(z: np.ndarray) -> np.ndarray:
    """Logistic function 1/(1+e^-z) of an array, as floats, stable for |z| up to ~700."""
    z = np.asarray(z, dtype=float)
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def derive_features(timeline: MatchTimeline) -> FeatureTable:
    """Build the per-point feature matrix from a cleaned timeline.

    score_diff/game_diff/set_diff are player-1 minus player-2 tallies,
    streak columns count consecutive wins ending at the point, error ratios
    are cumulative unforced errors over points played, distance_run_diff is
    cumulative meters run (p1 minus p2), serve_indicator flags a player-1
    serve, and psychological_factor is a unit-slope logistic squash of
    (break points won - double faults - opponent's current streak), a bounded
    composite of pressure-relevant events for player 1.

    Raises:
        DataError: an empty timeline, or a feature that is not finite, such as an overflow.
    """
    c = timeline.columns
    n = len(timeline)
    if n == 0:
        raise DataError("cannot derive features from an empty timeline")
    streak_p1, streak_p2 = streak_lengths(timeline.victors())
    idx = np.arange(1, n + 1, dtype=float)
    bp_won = np.cumsum(c["p1_break_pt_won"])
    dfaults = np.cumsum(c["p1_double_fault"])

    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite value is named below
        values = np.column_stack([
            c["p1_points_won"].astype(float) - c["p2_points_won"].astype(float),
            (c["p1_games"] - c["p2_games"]).astype(float),
            (c["p1_sets"] - c["p2_sets"]).astype(float),
            streak_p1.astype(float),
            streak_p2.astype(float),
            np.cumsum(c["p1_unf_err"]) / idx,
            np.cumsum(c["p2_unf_err"]) / idx,
            np.cumsum(c["p1_distance_run"] - c["p2_distance_run"]).astype(float),
            (c["server"] == 1).astype(float),
            _sigmoid(bp_won - dfaults - streak_p2),
        ])
    bad = np.flatnonzero(~np.isfinite(values).all(axis=0))
    if bad.size:
        raise DataError(f"feature {FEATURE_NAMES[bad[0]]} of match {timeline.match_id} "
                        "is not finite")
    return FeatureTable(timeline.match_id, list(FEATURE_NAMES), values)


def _format_float(value: float) -> str:
    if math.isnan(value):
        return ""
    if value == int(value):
        return str(int(value))
    return repr(value)


# The cleaned file's header: the match, its players and every point field's file column.
CSV_COLUMNS = ("match_id", *PLAYER_COLUMNS, *(source for source, *_ in FIELDS.values()))


def _fields(texts, alone) -> list:
    """texts as CSV fields: a text holding a _QUOTED character is quoted, its quotes doubled.

    A row's only field is quoted when empty too, as csv does, so that the row
    is not read as a blank line.
    """
    if not _QUOTED.search("".join(texts)) and not (alone and "" in texts):
        return texts
    return ['"' + text.replace('"', '""') + '"' if _QUOTED.search(text) or (alone and not text)
            else text for text in texts]


def _block_fields(values, fmt, alone) -> list:
    """The CSV fields of one block of a column, each distinct value formatted and quoted once.

    Bool, integer and float values are told apart by their raw bits, so -0.0
    and 0.0 keep their own text; other values by their text through str.
    """
    kind = values.dtype.kind
    if kind in "biuf":
        distinct, inverse = np.unique(values.view(f"u{values.dtype.itemsize}"),
                                      return_inverse=True)
        texts = list(map(fmt if kind == "f" else str, distinct.view(values.dtype).tolist()))
        return np.array(_fields(texts, alone), dtype=object)[inverse].tolist()
    texts = list(map(str, values.tolist()))
    distinct = list(dict.fromkeys(texts))
    return list(map(dict(zip(distinct, _fields(distinct, alone))).__getitem__, texts))


def write_csv(path, header, groups, fmt=repr):
    """Write header, then each group of equal-length columns as CSV rows, to a path.

    Float cells are formatted through fmt and every other cell through str.
    Rows are formatted and written PARSE_BLOCK at a time, and each distinct
    value of a column's block is formatted once.  A field is quoted where
    csv's minimal quoting would quote it, and also where it holds a lone CR.
    """
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(_fields(list(map(str, header)), len(header) == 1)) + "\n")
        for columns in groups:
            columns = list(map(np.asarray, columns))
            for a in range(0, min(map(len, columns), default=0), PARSE_BLOCK):
                fields = [_block_fields(values[a:a + PARSE_BLOCK], fmt, len(columns) == 1)
                          for values in columns]
                fh.write("\n".join(map(",".join, zip(*fields))) + "\n")


def _clean_groups(timelines):
    """The CSV_COLUMNS of consecutive timelines, in groups of at most about PARSE_BLOCK rows."""
    groups, size = [], 0
    for tl in timelines:
        if not groups or size + len(tl) > PARSE_BLOCK:
            groups.append([])
            size = 0
        groups[-1].append(tl)
        size += len(tl)
    for group in groups:
        # match_id, player1 and player2 (CSV_COLUMNS[:3]) hold one value per match
        per_match = zip(*((tl.match_id, *tl.players) for tl in group))
        yield [np.repeat(np.array(values, dtype=object), [len(tl) for tl in group])
               for values in per_match] + [
            np.concatenate([tl.columns[name] for tl in group]) for name in FIELDS
        ]


def write_clean_csv(timelines, path):
    """Write cleaned timelines back out with normalized values, through write_csv.

    The columns of about PARSE_BLOCK rows of consecutive timelines are joined
    at a time, so the whole table is never held as one.
    """
    write_csv(path, CSV_COLUMNS, _clean_groups(timelines), _format_float)
