"""The columnar ingest against the row-at-a-time oracle, and a cell-fuzz of the CLI."""

import contextlib
import csv
import functools
import io
import itertools
import math
import os
import sys
import tempfile
import threading
import time
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest

from matchflow import classifier, cli, ingest, labels
from matchflow.errors import DataError, SchemaError

from util import ingest_oracle, oracle_csv, write_csv_oracle

ROOT = Path(__file__).resolve().parents[1]
FIXTURE = ROOT / "data" / "fixture_matches.csv"
sys.path.insert(0, str(ROOT / "tools"))
from make_fixture import COLUMNS, simulate_match  # noqa: E402

GARBAGE = ("n/a", "?", "--", "x", "inf", "-inf", "1e309", "nan")
BAD_CATEGORIES = (("server", "3"), ("point_victor", "0"), ("serve_no", "9"), ("p1_ace", "2"),
                  ("p2_unf_err", "-1"), ("winner_shot_type", "Z"))
COUNTERS = ("set_no", "game_no", "p1_sets", "p2_sets", "p1_games", "p2_games",
            "p1_points_won", "p2_points_won")


def to_csv(header, rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def fixture_rows():
    header, *rows = list(csv.reader(io.StringIO(FIXTURE.read_text())))
    return header, rows


def cells(values) -> list:
    """Type-exact view of a column: int 1, float 1.0 and NaN compare as they print."""
    return list(map(repr, values))


def timeline_cells(timelines) -> list:
    return [(tl.match_id, tl.players, {name: cells(v.tolist()) for name, v in tl.columns.items()})
            for tl in timelines]


def assert_same_timelines(timelines, matches):
    assert [(tl.match_id, tl.players) for tl in timelines] == [(m, p) for m, p, _ in matches]
    for tl, (_, _, records) in zip(timelines, matches):
        assert set(tl.columns) == set(records[0])
        for name, values in tl.columns.items():
            assert cells(values.tolist()) == cells(r[name] for r in records), (tl.match_id, name)


def written(path) -> str:
    """The text of a written file, its bytes decoded as they are: a lone CR stays a CR."""
    return path.read_bytes().decode("utf-8")


def assert_matches_oracle(text, columns=None, data=None):
    """Cleaned columns, report, errors and written bytes all agree with the oracle.

    ingest reads data, the encoded text unless given.
    """
    data = text.encode() if data is None else data
    try:
        matches, report = ingest_oracle(text, columns)
    except (DataError, SchemaError) as exc:
        with pytest.raises(type(exc)) as got:
            ingest.load_and_clean(data, columns)
        assert str(got.value) == str(exc)
        return str(exc)

    timelines, got_report = ingest.load_and_clean(data, columns)
    assert got_report.to_dict() == report.to_dict()
    assert_same_timelines(timelines, matches)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "clean.csv"
        ingest.write_clean_csv(timelines, path)
        assert written(path) == oracle_csv(matches)
    return report.to_dict()


def damaged_csv(seed, n_matches=3) -> str:
    """Simulated matches with every kind of damage cleaning repairs or rejects."""
    rng = np.random.default_rng([2407, seed])
    rows = []
    for k in range(n_matches):
        match = simulate_match(f"dmg-{seed}-{k}", (f"A{k}", f"B{k}"), 500 + 10 * seed + k)
        rows.extend([str(row[c]) for c in COLUMNS] for row in match)
    col = {name: i for i, name in enumerate(COLUMNS)}
    numeric = [i for name, i in col.items()
               if name not in ("match_id", "player1", "player2", "winner_shot_type")]
    for row in rows:
        for j in numeric:
            draw = rng.random()
            if draw < 0.01:
                row[j] = ""
            elif draw < 0.02:
                row[j] = GARBAGE[rng.integers(len(GARBAGE))]
        for name in ("p1_score", "p2_score"):
            if rng.random() < 0.02:
                row[col[name]] = ("AD", "ad", " AD ", "-1", "-15")[rng.integers(5)]
        if rng.random() < 0.02:
            name, token = BAD_CATEGORIES[rng.integers(len(BAD_CATEGORIES))]
            row[col[name]] = token
        if rng.random() < 0.03:  # a counter that falls back or goes negative
            name = COUNTERS[rng.integers(len(COUNTERS))]
            row[col[name]] = str(int(rng.integers(-3, 3)))
        if rng.random() < 0.005:
            row[col["match_id"]] = ""
        if rng.random() < 0.005:
            row[col["point_no"]] = ("", "zzz", "0", "-4", "inf")[rng.integers(5)]
        if rng.random() < 0.01:  # a repeated point number: ties keep file order
            row[col["point_no"]] = str(int(rng.integers(1, 20)))
    return to_csv(COLUMNS, rows)


def test_fixture_matches_the_oracle():
    report = assert_matches_oracle(FIXTURE.read_text())
    assert report["totals"]["ad_replacements"] > 0


@pytest.mark.parametrize("seed", range(6))
def test_damaged_matches_match_the_oracle(seed):
    report = assert_matches_oracle(damaged_csv(seed))
    totals = report["totals"]
    assert totals["rejected_rows"] and totals["mode_imputations"] and totals["monotone_repairs"]
    assert totals["ad_replacements"] and totals["mean_imputations"]


def test_blank_lines_are_skipped_and_not_numbered():
    header, rows = fixture_rows()
    rows[5][0] = ""  # rejected, as the seventh line of the file numbered without blanks
    lines = to_csv(header, rows[:40]).splitlines()
    lines[3:3] = ["", ""]
    lines.append("")
    text = "\n".join(lines) + "\n\n"
    report = assert_matches_oracle(text)
    assert report["rejected_rows"] == [{"row": 7, "reason": "missing match_id"}]


def test_short_and_long_rows():
    header, rows = fixture_rows()
    rows[3] = rows[3][:-2]  # speed_mph and rally_count missing
    rows[8] = rows[8][:11]  # every column from p2_score on missing
    rows[11] = rows[11] + ["extra", "cells"]
    rows[15] = rows[15][:5]  # point_no missing: rejected
    report = assert_matches_oracle(to_csv(header, rows))
    assert report["rejected_rows"] == [{"row": 17, "reason": "unparseable point_no"}]
    assert report["mean_imputations"]["p2_score"] == 1


def test_a_match_seen_only_on_rejected_rows_has_no_timeline():
    header, rows = fixture_rows()
    rows[5][0] = "0-orphan"  # sorts before the fixture's matches
    rows[5][header.index("point_no")] = "zzz"
    report = assert_matches_oracle(to_csv(header, rows))
    assert report["rejected_rows"] == [{"row": 7, "reason": "unparseable point_no"}]
    timelines, _ = ingest.load_and_clean(to_csv(header, rows).encode())
    assert "0-orphan" not in [tl.match_id for tl in timelines]


def test_duplicated_header_takes_the_last_column():
    header, rows = fixture_rows()
    i = header.index("server")
    trailing = header + ["server"]
    text = to_csv(trailing, [row + [str(3 - int(row[i]))] for row in rows])
    assert_matches_oracle(text)
    timelines, _ = ingest.load_and_clean(text.encode())
    assert timelines[0].columns["server"][0] == 3 - int(rows[0][i])

    middle = header[:2] + ["speed_mph"] + header[2:]
    assert_matches_oracle(to_csv(middle, [row[:2] + ["1.5"] + row[2:] for row in rows]))


def test_remapped_columns():
    header, rows = fixture_rows()
    renamed = ["PtWinner" if name == "point_victor" else name for name in header]
    text = to_csv(renamed, rows)
    with pytest.raises(SchemaError, match="point_victor"):
        ingest.load_and_clean(text.encode())
    assert_matches_oracle(text, {"PtWinner": "point_victor"})
    # a remap onto a column the file already has: the later column wins
    assert_matches_oracle(to_csv(header, rows), {"p2_ace": "p1_ace"})


def test_mean_fill_sums_left_to_right():
    values = [1e16, 1.0, -1e16, 1.0, 1.0, 1.0, 1.0, 1.0, 3.0]
    assert np.mean(values) != sum(values) / len(values)  # pairwise and sequential sums differ
    header, rows = fixture_rows()
    rows = rows[:10]  # one match
    i = header.index("speed_mph")
    for row, value in zip(rows, values + [""]):
        row[i] = repr(value) if value != "" else ""
    assert_matches_oracle(to_csv(header, rows))
    timelines, report = ingest.load_and_clean(to_csv(header, rows).encode())
    assert timelines[0].columns["speed_mph"][9] == sum(values) / len(values)
    assert report.mean_imputations["speed_mph"] == 1


def test_first_failing_match_raises_with_the_same_message():
    header, rows = fixture_rows()
    ids = sorted({row[0] for row in rows})
    i, j = header.index("p2_score"), header.index("rally_count")
    for row in rows:
        if row[0] == ids[1]:
            row[i] = "??"  # the later match fails on a score
        else:
            row[j] = "nan"  # the earlier one on a continuous column, checked last
    message = assert_matches_oracle(to_csv(header, rows))
    assert message == (f"imputation impossible: column 'rally_count' has no usable values "
                       f"in match {ids[0]!r}")
    for row in rows:
        row[header.index("server")] = "0"
    assert "'server'" in assert_matches_oracle(to_csv(header, rows))


def test_an_overflowing_mean_raises_naming_the_column_and_match(tmp_path, capsys):
    header, rows = fixture_rows()
    ids = sorted({row[0] for row in rows})
    distance, score = header.index("p1_distance_run"), header.index("p2_score")
    later = [row for row in rows if row[0] == ids[1]]
    for row in later[:2]:
        row[distance] = "1e308"  # a finite sum needs no repair
    assert assert_matches_oracle(to_csv(header, rows))["mean_imputations"] == {}
    later[2][distance] = ""  # the blank takes the mean, which overflows
    message = assert_matches_oracle(to_csv(header, rows))
    assert message == ("imputation impossible: the mean of column 'p1_distance_run' in match "
                       f"{ids[1]!r} is not finite")
    path = tmp_path / "overflow.csv"
    path.write_text(to_csv(header, rows))
    assert cli.main(["clean", str(path), "--output", str(tmp_path / "c.csv"),
                     "--report", str(tmp_path / "r.json")]) == 1
    assert capsys.readouterr().err == f"analysis error: {message}\n"
    assert not (tmp_path / "c.csv").exists()

    later[3][score] = later[4][score] = "1e308"
    later[5][score] = ""  # scores are repaired first
    message = assert_matches_oracle(to_csv(header, rows))
    assert message == ("imputation impossible: the mean of column 'p2_score' in match "
                       f"{ids[1]!r} is not finite")
    earlier = [row for row in rows if row[0] == ids[0]]
    earlier[0][distance] = earlier[1][distance] = "1e308"
    earlier[2][distance] = ""  # but the first match in order fails first
    message = assert_matches_oracle(to_csv(header, rows))
    assert message == ("imputation impossible: the mean of column 'p1_distance_run' in match "
                       f"{ids[0]!r} is not finite")


def test_schema_errors_match_the_oracle():
    header, _ = fixture_rows()
    for text in ("", "\n", ",".join(header) + "\n", "foo,bar\n1,2\n"):
        assert_matches_oracle(text)


def test_nonfinite_tokens_are_missing_values():
    header, rows = fixture_rows()
    for row, token in zip(rows, ["inf", "-inf", "1e309", "nan"] * 3):
        for name in ("set_no", "p1_points_won", "p1_distance_run", "p1_score", "p1_ace"):
            row[header.index(name)] = token
    report = assert_matches_oracle(to_csv(header, rows))
    assert report["mean_imputations"]["p1_score"] == 12
    assert report["mean_imputations"]["p1_distance_run"] == 12
    i = header.index("p1_score")
    assert report["ad_replacements"]["p1_score"] == sum(row[i] == "AD" for row in rows)
    assert report["mode_imputations"]["p1_ace"] == 12
    timelines, _ = ingest.load_and_clean(to_csv(header, rows).encode())
    assert all(np.isfinite(tl.columns["p1_distance_run"]).all() for tl in timelines)


CODES = ("server", "point_victor", "serve_no", "shot_type_code", *ingest.FLAG_COLUMNS)
COUNTER_FIELDS = ("set_no", "game_no", "point_no", "p1_games", "p2_games", "p1_sets", "p2_sets",
                  "p1_points_won", "p2_points_won")
# integral cells around and beyond int8's range, each either valid or invalid for every code
CODE_TOKENS = ("127", "128", "255", "256", "-1", "-128", "-129", "1e3", "300", "2.0", "-0",
               "9223372036854775807", "9223372036854775808")


def test_every_column_has_its_fields_dtype():
    """The 18 categorical codes are int8, the 9 counters int64 and the rest float64."""
    dtypes = {name: np.dtype(dtype) for name, (_, _, dtype, _) in ingest.FIELDS.items()}
    assert [name for name, dtype in dtypes.items() if dtype == np.int8] == list(CODES)
    assert [name for name, dtype in dtypes.items() if dtype == np.int64] == list(COUNTER_FIELDS)
    for source in (FIXTURE.read_bytes(), damaged_csv(3).encode()):
        for tl in ingest.load_and_clean(source)[0]:
            assert {name: values.dtype for name, values in tl.columns.items()} == dtypes


def test_a_code_its_int8_field_cannot_hold_is_invalid_like_any_other():
    """Each token in each int8 column cleans as the oracle, whose integer rule is int64's."""
    assert [ingest.FIELDS["server"][1](token) for token in CODE_TOKENS] == (
        [127] + [-1] * 8 + [2, 0, -1, -1])
    header, rows = fixture_rows()
    sources = [ingest.FIELDS[name][0] for name in CODES]
    for k, source in enumerate(sources):
        j = header.index(source)
        hits = [row for i, row in enumerate(rows) if (i + 2 * k) % 18 == 0]
        for token, row in zip(itertools.cycle(CODE_TOKENS), hits):
            row[j] = token
        assert len(hits) >= len(CODE_TOKENS)
    report = assert_matches_oracle(to_csv(header, rows))
    assert set(report["mode_imputations"]) == set(CODES) - {"shot_type_code"}
    assert report["categorical_mapped"][ingest.SHOT_COLUMN] > 0


def test_a_memo_is_judged_after_its_trial_and_keeps_paying_where_cells_repeat_across_matches():
    """point_no-like cells (1..180 over and over) are mostly distinct within one batch but
    repeat across many: the memo keeps them.  Distinct cells drop the memo once judged."""
    batch = ingest.PARSE_BATCH
    for cells, pays in (([str(1 + i % 180) for i in range(ingest.MEMO_TRIAL + 2 * batch)], True),
                        ([str(i) for i in range(ingest.MEMO_TRIAL + 2 * batch)], False)):
        memo = ingest._Cells(ingest._to_int)
        got = [value for a in range(0, len(cells), batch)
               for value in memo.convert_all(cells[a:a + batch])]
        assert got == list(map(int, cells))
        assert memo.pays == pays and len(memo) == (180 if pays else 0)


FUZZ_TOKENS = ("n/a", "?", "", "inf", "-inf", "1e309", "nan", "AD", "-1", "-12.5")


def fuzzed_fixture(seed, path) -> str:
    """The fixture with 1-60 random cells replaced by garbage, blank or non-finite tokens."""
    rng = np.random.default_rng([77, seed])
    header, rows = fixture_rows()
    for _ in range(int(rng.integers(1, 61))):
        row = rows[rng.integers(len(rows))]
        row[rng.integers(len(header))] = FUZZ_TOKENS[rng.integers(len(FUZZ_TOKENS))]
    text = to_csv(header, rows)
    path.write_text(text)
    return text


def test_cell_fuzz_never_escapes_main(tmp_path, capsys):
    for seed in range(35):
        path = tmp_path / f"fuzz{seed}.csv"
        text = fuzzed_fixture(seed, path)
        out = tmp_path / f"out{seed}"
        if seed < 30:
            argv = ["clean", path, "--output", out.with_suffix(".csv"),
                    "--report", out.with_suffix(".json")]
        else:
            argv = ["report", path, "--out-dir", out]
        code = cli.main([str(a) for a in argv])
        err = capsys.readouterr().err
        assert code in (0, 1, 3), (seed, code, err)
        assert (code == 0) == ("error:" not in err), (seed, err)
        if seed < 30:  # the CLI's clean agrees with the oracle, errors included
            result = assert_matches_oracle(text)
            if code == 0:
                assert out.with_suffix(".csv").read_text() == oracle_csv(ingest_oracle(text)[0])
            else:
                assert err.strip().endswith(result)


def repeated_fixture(n_rows):
    """The fixture's header and n_rows rows: its rows again and again, under new match ids."""
    header, rows = fixture_rows()
    out = []
    for k in range(-(-n_rows // len(rows))):
        out += [[f"{row[0]}-{k}", *row[1:]] for row in rows]
    return header, out[:n_rows]


@pytest.mark.parametrize("block", [7, ingest.PARSE_BATCH, ingest.PARSE_BLOCK])
def test_damage_on_both_sides_of_a_block_boundary(monkeypatch, block):
    """A parse batch and a writer block of `block` rows."""
    monkeypatch.setattr(ingest, "PARSE_BATCH", block)
    monkeypatch.setattr(ingest, "PARSE_BLOCK", block)
    header, rows = repeated_fixture(block + 12)
    # data rows 0..block-1 are the first batch; blank lines count towards a batch
    rows[block - 2] = []  # a blank line
    rows[block - 1] = rows[block - 1][:5]  # short: point_no missing, rejected
    rows[block][0] = ""  # missing match_id, the first row of the second block
    rows[block + 1] = []
    rows[block + 2][header.index("point_no")] = "zzz"
    rows[block + 3] = rows[block + 3][:12]  # short but kept: every cell from server on missing
    report = assert_matches_oracle(to_csv(header, rows))
    # rows are numbered from 2 without the blank lines
    assert report["rejected_rows"] == [{"row": block, "reason": "unparseable point_no"},
                                       {"row": block + 1, "reason": "missing match_id"},
                                       {"row": block + 2, "reason": "unparseable point_no"}]


def csv_lines(header, rows, endings):
    """CSV text whose k-th line ends in endings[k % len(endings)]."""
    buf = io.StringIO()
    for k, row in enumerate([header, *rows]):
        csv.writer(buf, lineterminator=endings[k % len(endings)]).writerow(row)
    return buf.getvalue()


@pytest.mark.parametrize("endings", [["\r\n"], ["\r"], ["\n", "\r\n", "\r"]],
                         ids=["crlf", "cr", "mixed"])
def test_line_endings_and_a_quoted_newline_across_blocks(monkeypatch, tmp_path, endings):
    monkeypatch.setattr(ingest, "PARSE_BATCH", 7)
    monkeypatch.setattr(ingest, "PARSE_BLOCK", 7)
    header, rows = fixture_rows()
    name = 'L. "Lu"\r\nFerro'  # quoted for its quotes; the line break inside is kept as it is
    for row in rows:
        if row[0] == rows[0][0]:
            row[1] = name
    rows[9][0] = ""
    text = csv_lines(header, rows, endings)
    report = assert_matches_oracle(text)
    assert report["rejected_rows"] == [{"row": 11, "reason": "missing match_id"}]
    path = tmp_path / "endings.csv"
    path.write_bytes(text.encode())
    timelines, _ = ingest.load_and_clean(path)
    assert timelines[0].players[0] == name
    assert sum(map(len, timelines)) == len(rows) - 1


def test_a_bom_is_skipped(monkeypatch):
    monkeypatch.setattr(ingest, "PARSE_BATCH", 7)
    monkeypatch.setattr(ingest, "PARSE_BLOCK", 7)
    text = FIXTURE.read_text()
    assert_matches_oracle(text, data=b"\xef\xbb\xbf" + text.encode())


@contextlib.contextmanager
def fifo(path, data):
    """path made a FIFO that a writer thread fills with data, for the span of a with block.

    The FIFO is to be opened for reading once inside the block; if it is not,
    the block's end opens it, so the writer is not left waiting for a reader.
    """
    os.mkfifo(path)

    def write():
        with contextlib.suppress(BrokenPipeError), open(path, "wb") as fh:
            fh.write(data)  # a reader that stops early closes the FIFO under it

    writer = threading.Thread(target=write)
    writer.start()
    try:
        yield path
    finally:
        deadline = time.monotonic() + 10
        while writer.is_alive() and time.monotonic() < deadline:
            os.close(os.open(path, os.O_RDONLY | os.O_NONBLOCK))
            writer.join(0.1)
        assert not writer.is_alive()


def block_bases(timelines) -> dict:
    """dtype -> the distinct arrays that own the timelines' columns of that dtype."""
    bases = {}
    for tl in timelines:
        for values in tl.columns.values():
            bases.setdefault(values.dtype, {})[id(values.base)] = values.base
    return {dtype: list(owners.values()) for dtype, owners in bases.items()}


def test_every_source_kind_parses_alike(tmp_path, monkeypatch):
    """Every kind of source gives the same timelines and report, in one block per dtype.

    The blocks start at the newline count + 1 rows of a source that can seek,
    at PARSE_BLOCK rows for a FIFO, which cannot, and at one row for CR-only
    line ends; the last two grow.
    """
    data = damaged_csv(11, n_matches=16).encode()
    assert data.count(b"\n") > 2 * ingest.PARSE_BLOCK and b"\r" not in data
    path = write_bytes(tmp_path / "sim.csv", data)
    capacities = []

    def capacity(binary, measure=ingest._capacity):
        capacities.append(measure(binary))
        return capacities[-1]

    monkeypatch.setattr(ingest, "_capacity", capacity)
    want, one_each = None, [1] * len(ingest.BLOCK_FIELDS)
    with fifo(tmp_path / "sim.fifo", data) as pipe:
        for source in [path, str(path), data, data.replace(b"\n", b"\r"), pipe]:
            timelines, report = ingest.load_and_clean(source)
            got = timeline_cells(timelines), report.to_dict()
            want = want or got
            assert got == want, source
            assert sorted(map(len, block_bases(timelines).values())) == one_each, source
    lines = data.count(b"\n") + 1
    assert capacities == [lines, lines, lines, 1, ingest.PARSE_BLOCK]
    assert want[1]["rejected_rows"] and want[1]["totals"]["mean_imputations"]


def test_a_file_object_is_a_type_error(tmp_path):
    path = write_bytes(tmp_path / "fixture.csv", FIXTURE.read_bytes())
    with open(path, "rb") as binary, open(path, newline="") as text:
        for source in (binary, text, io.BytesIO(FIXTURE.read_bytes())):
            with pytest.raises(TypeError, match="source must be a path or bytes"):
                ingest.load_and_clean(source)
    with open(tmp_path / "table.csv", "w") as text:  # the writers take a path too
        with pytest.raises(TypeError):
            ingest.write_csv(text, ["s"], [["x"]])
        with pytest.raises(TypeError):
            ingest.write_clean_csv([], text)


def write_bytes(path, data):
    path.write_bytes(data)
    return path


def clean_cli(tmp_path, path, capsys):
    """(exit code, stderr, cleaned.csv bytes or None) of clean on path."""
    out = tmp_path / f"{path.stem}-cleaned.csv"
    code = cli.main(["clean", str(path), "--output", str(out),
                     "--report", str(tmp_path / f"{path.stem}-report.json")])
    return code, capsys.readouterr().err, out.read_bytes() if out.exists() else None


def test_bare_cr_line_endings_clean_like_the_fixture(tmp_path, capsys):
    lf = write_bytes(tmp_path / "lf.csv", FIXTURE.read_bytes())
    cr = write_bytes(tmp_path / "cr.csv", FIXTURE.read_bytes().replace(b"\n", b"\r"))
    code, err, cleaned = clean_cli(tmp_path, cr, capsys)
    assert (code, err) == (0, "")
    assert cleaned == clean_cli(tmp_path, lf, capsys)[2]


def test_an_oversized_field_exits_2_naming_the_line(tmp_path, capsys):
    header, rows = fixture_rows()
    rows[5][header.index("player1")] = "x" * 200_000
    path = write_bytes(tmp_path / "big.csv", to_csv(header, rows).encode())
    code, err, cleaned = clean_cli(tmp_path, path, capsys)
    assert code == 2 and cleaned is None
    limit = csv.field_size_limit()
    assert err == ("input error: malformed CSV at line 7: "
                   f"field larger than field limit ({limit})\n")
    # bytes that are not UTF-8 after the field leave the error alone: the first fault is named
    bad = write_bytes(tmp_path / "big-then-bad.csv", path.read_bytes() + b"\xff\n")
    assert clean_cli(tmp_path, bad, capsys)[:2] == (code, err)


@pytest.mark.parametrize("at", [876, 20_000])
def test_undecodable_bytes_exit_2_naming_their_offset(tmp_path, capsys, at):
    data = FIXTURE.read_bytes()
    data = data[:at] + b"\xff\xfe" + data[at:]
    path = write_bytes(tmp_path / "bad.csv", data)
    code, err, cleaned = clean_cli(tmp_path, path, capsys)
    assert code == 2 and cleaned is None
    assert err == ("input error: input is not UTF-8: "
                   f"byte 0xff at offset {at} (invalid start byte)\n")
    for source, offset in ((data, at), (b"\xef\xbb\xbf" + data, at + 3)):
        with pytest.raises(SchemaError, match=f"byte 0xff at offset {offset} "):
            ingest.load_and_clean(source)

    with fifo(tmp_path / "bad.fifo", data) as pipe, pytest.raises(SchemaError) as got:
        ingest.load_and_clean(pipe)
    assert str(got.value) == "input is not UTF-8: byte 0xff (invalid start byte)"


def test_clean_writes_the_same_bytes_from_a_fifo_as_from_a_file(tmp_path, capsys):
    path = write_bytes(tmp_path / "file.csv", FIXTURE.read_bytes())
    with fifo(tmp_path / "pipe.csv", FIXTURE.read_bytes()) as pipe:
        code, err, cleaned = clean_cli(tmp_path, pipe, capsys)
    assert (code, err) == (0, "")
    assert cleaned == clean_cli(tmp_path, path, capsys)[2]


def test_a_name_with_a_lone_cr_cleans_twice_to_the_same_bytes(tmp_path, capsys):
    header, rows = fixture_rows()
    for row in rows:
        if row[0] == rows[0][0]:
            row[1] = "Ann\rBee"
    source = write_bytes(tmp_path / "cr-name.csv", csv_lines(header, rows, ["\r\n"]).encode())
    code, err, once = clean_cli(tmp_path, source, capsys)
    assert (code, err) == (0, "")
    cleaned = write_bytes(tmp_path / "once.csv", once)
    assert clean_cli(tmp_path, cleaned, capsys) == (0, "", once)
    timelines, report = ingest.load_and_clean(cleaned)
    assert report.rejected_rows == [] and timelines[0].players[0] == "Ann\rBee"
    assert timeline_cells(timelines) == timeline_cells(ingest.load_and_clean(source)[0])


SPECIAL_FLOATS = (-0.0, 0.0, math.nan, math.inf, -math.inf, 5e-324, 1e300, float(2**53 + 2),
                  0.1, -2.5)
TEXTS = ("a", "b,c", 'say "hi"', "two\nlines", "crlf\r\nend", "lone\rcr", "", '""', " pad ")


def writer_table(rows, fmt):
    """Seeded columns of every kind the writer takes; infinities only where fmt formats them."""
    rng = np.random.default_rng([12, rows])
    specials = [v for v in SPECIAL_FLOATS if fmt is repr or not math.isinf(v)]
    floats = np.where(rng.random(rows) < 0.5, rng.choice(specials, rows),
                      rng.normal(size=rows).round(int(rng.integers(0, 4))))
    ints = rng.choice([-3, 0, 7, 2**53 + 2, -2**63], rows)
    texts = rng.choice(TEXTS, rows)
    return ["f", "i", "b", "u", "o"], [floats, ints, rng.random(rows) < 0.3, texts,
                                       texts.astype(object)]


@pytest.mark.parametrize("fmt", [repr, ingest._format_float], ids=["repr", "format_float"])
@pytest.mark.parametrize("rows", [0, 1, ingest.PARSE_BLOCK - 1, ingest.PARSE_BLOCK,
                                  ingest.PARSE_BLOCK + 1, 3 * ingest.PARSE_BLOCK + 7])
def test_write_csv_matches_the_cell_at_a_time_oracle(tmp_path, fmt, rows):
    header, columns = writer_table(rows, fmt)
    path = tmp_path / "table.csv"
    ingest.write_csv(path, header, [columns], fmt)
    assert written(path) == write_csv_oracle(header, columns, fmt)


def test_write_csv_one_column_tables_and_unformattable_values(tmp_path):
    path = tmp_path / "table.csv"
    for header, column, fmt in (
        (["s"], ["", "x", ""], repr),
        (["f"], np.array([np.nan, 1.0, 0.5]), ingest._format_float),
        ([""], [""], repr),
    ):
        ingest.write_csv(path, header, [[column]], fmt)
        assert written(path) == write_csv_oracle(header, [column], fmt)
        assert '""' in written(path)
    infinite = [np.array([1.0, np.inf])]  # _format_float has no text for inf
    with pytest.raises(OverflowError):
        write_csv_oracle(["f"], infinite, ingest._format_float)
    with pytest.raises(OverflowError):
        ingest.write_csv(path, ["f"], [infinite], ingest._format_float)


@functools.cache
def simulated_csv(n_rows=20_000) -> bytes:
    """Whole simulated matches until n_rows rows or more (20k: 1.96 MB of CSV)."""
    rows, k = [], 0
    while len(rows) < n_rows:
        match = simulate_match(f"mem-{k:03d}", (f"A{k}", f"B{k}"), 9000 + k)
        rows.extend([str(row[c]) for c in COLUMNS] for row in match)
        k += 1
    return to_csv(COLUMNS, rows).encode()


def test_parsing_streams_in_blocks_within_a_memory_bound():
    """Traced peak of load_and_clean on the simulated rows.

    Reading the whole text and holding every cell string peaked at 33.7 MB,
    and the block stream with a memo on every column at 11.8 MB.  With the
    memos of the mostly distinct distance columns dropped it peaked at about
    8.3 MB.  Writing every numeric field into one block per dtype, sized by
    the newline count before the parse, it peaked at about 8.2 MB with
    1024-row batches, and at about 7.4 MB with PARSE_BATCH rows, during the
    parse: the 5.3 MB of blocks, the text columns and memos, and the rows and
    cells of one batch of lines.  With the categorical codes in an int8 block
    the blocks take 2.8 MB and the peak is about 4.9 MB.
    """
    data = simulated_csv()
    tracemalloc.start()
    try:
        timelines, _ = ingest.load_and_clean(data)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sum(map(len, timelines)) == data.count(b"\n") - 1
    assert peak < 10e6, peak


def test_the_parse_holds_its_blocks_and_one_batch_of_text():
    """Traced peak of load_and_clean on 7,611 simulated rows (50 matches), against its parts.

    The numeric fields take the blocks, each field its dtype's itemsize for a
    row of the capacity: 138 bytes a row, where 8 bytes a field took 264.
    Beside them the parse holds one batch of text: a row's list and its 36
    cell strings take about 1.95 KB, and 2.5 KB a row is allowed.  The text
    columns, the memos that pay, the match codes and sort order and the
    repairs' masks hold about 105 bytes a point at their peak (measured with
    8-row batches), and 120 are allowed.  The peak is about 2.11 MB against a
    bound of 2.60 MB; with every field in 8 bytes it was about 3.07 MB against
    3.56 MB, and with 1024-row batches it is about 3.5 MB.
    """
    data = simulated_csv(7_500)
    row_bytes = sum(np.dtype(dtype).itemsize for _, _, dtype, _ in ingest.FIELDS.values())
    blocks = row_bytes * (data.count(b"\n") + 1)
    bound = blocks + 120 * data.count(b"\n") + 2_500 * 256
    tracemalloc.start()
    try:
        timelines, _ = ingest.load_and_clean(data)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sum(map(len, timelines)) == data.count(b"\n") - 1 == 7_611
    assert peak <= bound, (peak, bound)


def test_the_parsed_corpus_is_freed_before_the_fit(tmp_path, monkeypatch):
    path = write_bytes(tmp_path / "corpus.csv", simulated_csv())
    load, train, blocks, fits = ingest.load_and_clean, classifier.train, [], []

    def loading(*args, **kwargs):
        timelines, report = load(*args, **kwargs)
        bases = block_bases(timelines)
        # one block per dtype
        assert sorted(map(len, bases.values())) == [1] * len(ingest.BLOCK_FIELDS)
        blocks.extend(weakref.ref(owners[0]) for owners in bases.values())
        return timelines, report

    def training(*args, **kwargs):
        fits.append([ref() is None for ref in blocks])
        return train(*args, **kwargs)

    monkeypatch.setattr(ingest, "load_and_clean", loading)
    monkeypatch.setattr(classifier, "train", training)
    code = cli.main(["train-eval", str(path), "--holdout", "mem-003",
                     "--out-dir", str(tmp_path / "out")])
    assert code == 0
    # no block outlived the features and labels
    assert fits == [[True] * len(ingest.BLOCK_FIELDS)]


def test_the_training_rows_are_filled_in_place_within_a_memory_bound():
    """Traced peak of building train's feature matrix and labels, above the parsed corpus.

    Stacking a list of per-match tables held one more matrix beside the
    result: 1.47 MB above the matrix and labels on these 20,118 rows.  Filled
    in place, the peak is the matrix, the labels and one match's table, plus
    derive_features' column temporaries for that match (about 39 KB for the
    248-point longest match); 64 KB of slack is allowed.
    """
    timelines, _ = ingest.load_and_clean(simulated_csv())
    n, longest = sum(map(len, timelines)), max(map(len, timelines))
    width = len(ingest.FEATURE_NAMES)
    tracemalloc.start()
    try:
        live = tracemalloc.get_traced_memory()[0]
        x, y = cli._training_rows(timelines)
        peak = tracemalloc.get_traced_memory()[1] - live
    finally:
        tracemalloc.stop()
    assert np.array_equal(x, np.vstack([ingest.derive_features(tl).values for tl in timelines]))
    assert np.array_equal(y, np.concatenate([labels.label_points(tl) for tl in timelines]))
    bound = n * (width + 1) * 8 + longest * width * 8 + 64_000
    assert peak <= bound, (peak, bound)


def test_writing_the_cleaned_file_streams_in_blocks_within_a_memory_bound(tmp_path):
    """Traced peak of write_clean_csv above what is live, on the simulated rows.

    Formatting every cell of every column before writing peaked at 14.2 MB;
    the block stream peaks at about 1.3 MB.
    """
    timelines, _ = ingest.load_and_clean(simulated_csv())
    path = tmp_path / "cleaned.csv"
    tracemalloc.start()
    try:
        live = tracemalloc.get_traced_memory()[0]
        ingest.write_clean_csv(timelines, path)
        peak = tracemalloc.get_traced_memory()[1] - live
    finally:
        tracemalloc.stop()
    assert timeline_cells(ingest.load_and_clean(path)[0]) == timeline_cells(timelines)
    assert peak < 3e6, peak
