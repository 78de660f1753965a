"""The columnar ingest against the row-at-a-time oracle, and a cell-fuzz of the CLI."""

import csv
import io
import sys
from pathlib import Path

import numpy as np
import pytest

from matchflow import cli, ingest
from matchflow.errors import DataError, SchemaError

from util import ingest_oracle, oracle_csv, oracle_parse

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


def assert_same_timelines(timelines, matches):
    assert [(tl.match_id, tl.players) for tl in timelines] == [(m, p) for m, p, _ in matches]
    for tl, (_, _, records) in zip(timelines, matches):
        assert set(tl.columns) == set(records[0])
        for name, values in tl.columns.items():
            assert cells(values.tolist()) == cells(r[name] for r in records), (tl.match_id, name)


def assert_matches_oracle(text, columns=None):
    """Parse, clean, report, errors and written bytes all agree with the oracle."""
    try:
        parsed, rejected, _ = oracle_parse(text, columns)
        matches, report = ingest_oracle(text, columns)
    except (DataError, SchemaError) as exc:
        with pytest.raises(type(exc)) as got:
            ingest.load_and_clean(text.encode(), columns)
        assert str(got.value) == str(exc)
        return str(exc)

    timelines, got_rejected = ingest.parse_match_csv(text.encode(), columns)
    assert got_rejected == rejected
    assert_same_timelines(timelines, parsed)

    timelines, got_report = ingest.load_and_clean(text.encode(), columns)
    assert got_report.to_dict() == report.to_dict()
    assert_same_timelines(timelines, matches)
    buf = io.StringIO()
    ingest.write_clean_csv(timelines, buf)
    assert buf.getvalue() == oracle_csv(matches)
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
    timelines, _ = ingest.parse_match_csv(to_csv(header, rows).encode())
    assert "0-orphan" not in [tl.match_id for tl in timelines]


def test_duplicated_header_takes_the_last_column():
    header, rows = fixture_rows()
    i = header.index("server")
    trailing = header + ["server"]
    text = to_csv(trailing, [row + [str(3 - int(row[i]))] for row in rows])
    assert_matches_oracle(text)
    timelines, _ = ingest.parse_match_csv(text.encode())
    assert timelines[0].columns["server"][0] == 3 - int(rows[0][i])

    middle = header[:2] + ["speed_mph"] + header[2:]
    assert_matches_oracle(to_csv(middle, [row[:2] + ["1.5"] + row[2:] for row in rows]))


def test_remapped_columns():
    header, rows = fixture_rows()
    renamed = ["PtWinner" if name == "point_victor" else name for name in header]
    text = to_csv(renamed, rows)
    with pytest.raises(SchemaError, match="point_victor"):
        ingest.parse_match_csv(text.encode())
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
