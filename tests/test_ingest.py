import math

import numpy as np
import pytest

from matchflow import ingest
from matchflow.errors import DataError, SchemaError

from util import (
    make_points,
    make_timeline,
    random_timeline,
    streak_lengths_oracle,
    timeline_to_csv,
)

HEADER = (
    "match_id,set_no,game_no,point_no,server,point_victor,p1_score,p2_score,"
    "p1_games,p2_games,p1_sets,p2_sets,p1_points_won,p2_points_won,serve_no"
)


def row(match_id="m1", point_no=1, victor=1, p1_score="15", extra=""):
    return (
        f"{match_id},1,1,{point_no},1,{victor},{p1_score},0,0,0,0,0,"
        f"{1 if victor == 1 else 0},{0 if victor == 1 else 1},1{extra}"
    )


def clean_one(timeline):
    """(cleaned timeline, CleaningReport) of one match."""
    (cleaned,), report = ingest.clean_timelines([timeline])
    return cleaned, report


def test_parse_single_match_three_rows():
    text = "\n".join([HEADER, row(point_no=1), row(point_no=2), row(point_no=3)])
    timelines, rejected = ingest.parse_match_csv(text.encode())
    assert rejected == []
    assert len(timelines) == 1
    assert timelines[0].columns["point_no"].tolist() == [1, 2, 3]


def test_parse_interleaved_matches_are_grouped_and_ordered():
    lines = [HEADER]
    for p in (2, 1, 3):
        lines.append(row("match_a", p))
        lines.append(row("match_b", p))
    timelines, _ = ingest.parse_match_csv("\n".join(lines).encode())
    assert [t.match_id for t in timelines] == ["match_a", "match_b"]
    for tl in timelines:
        assert tl.columns["point_no"].tolist() == [1, 2, 3]


def test_parse_missing_required_column_names_it():
    text = HEADER.replace("point_victor", "pv_gone") + "\n" + row()
    with pytest.raises(SchemaError, match="point_victor"):
        ingest.parse_match_csv(text.encode())


def test_parse_empty_input():
    with pytest.raises(SchemaError, match="empty input"):
        ingest.parse_match_csv(b"")
    with pytest.raises(SchemaError, match="empty input"):
        ingest.parse_match_csv((HEADER + "\n").encode())


def test_parse_column_remapping():
    text = HEADER.replace("point_victor", "PtWinner") + "\n" + row()
    timelines, _ = ingest.parse_match_csv(text.encode(), columns={"PtWinner": "point_victor"})
    assert timelines[0].columns["point_victor"][0] == 1


def test_parse_rejects_rows_without_identity():
    text = "\n".join([HEADER, row(point_no=1), row("", 2), row("m1", "zzz")])
    timelines, rejected = ingest.parse_match_csv(text.encode())
    assert len(timelines[0]) == 1
    reasons = [why for _, why in rejected]
    assert "missing match_id" in reasons[0]
    assert "point_no" in reasons[1]


def test_clean_replaces_ad_with_sentinel():
    cleaned, report = clean_one(make_points(p1_score="AD", p2_score="40"))
    assert cleaned.columns["p1_score"][0] == 50.0
    assert cleaned.columns["p2_score"][0] == 40.0
    assert report.ad_replacements == {"p1_score": 1}


def test_clean_replaces_negative_advantage_marker():
    cleaned, _ = clean_one(make_points(p1_score="-1"))
    assert cleaned.columns["p1_score"][0] == 50.0


def test_shot_letters_map_to_codes():
    for token, code in (("F", 1), ("B", 2), ("", 0), ("X", 0), ("1", 1)):
        text = (
            HEADER
            + ",winner_shot_type\n"
            + row(extra=f",{token}")
        )
        timelines, _ = ingest.parse_match_csv(text.encode())
        cleaned, _ = clean_one(timelines[0])
        assert cleaned.columns["shot_type_code"][0] == code, token


def test_clean_mean_imputation_within_match():
    cleaned, report = clean_one(make_points(3, speed_mph=[100.0, 120.0, math.nan]))
    assert cleaned.columns["speed_mph"][2] == 110.0
    assert report.mean_imputations == {"speed_mph": 1}


def test_clean_mean_imputation_does_not_cross_matches():
    timelines = [make_points(2, "a", speed_mph=[100.0, math.nan]),
                 make_points(1, "b", speed_mph=500.0)]
    cleaned, _ = ingest.clean_timelines(timelines)
    by_match = {tl.match_id: tl for tl in cleaned}
    assert by_match["a"].columns["speed_mph"][1] == 100.0


def test_clean_is_idempotent():
    rng = np.random.default_rng(7)
    victors, speeds = [], []
    for i in range(40):
        victors.append(int(rng.integers(1, 3)) if i % 7 else 0)
        speeds.append(math.nan if i % 5 == 0 else float(rng.uniform(80, 130)))
    tl = make_points(
        40,
        p1_score=["AD" if i % 11 == 0 else "30" for i in range(40)],
        point_victor=victors,
        speed_mph=speeds,
        p1_points_won=list(range(1, 41)),
        p2_points_won=0,
    )
    once, _ = clean_one(tl)
    twice, report = clean_one(once)
    assert once.columns.keys() == twice.columns.keys()
    assert all(np.array_equal(once.columns[name], twice.columns[name]) for name in once.columns)
    assert report.to_dict()["totals"]["mean_imputations"] == 0
    assert report.to_dict()["totals"]["ad_replacements"] == 0


def test_clean_leaves_no_missing_numerics():
    rng = np.random.default_rng(3)
    speeds, rallies, scores = [], [], []
    for _ in range(30):
        speeds.append(math.nan if rng.random() < 0.4 else 100.0)
        rallies.append(math.nan if rng.random() < 0.4 else 4.0)
        scores.append("AD" if rng.random() < 0.2 else "40")
    cleaned, _ = clean_one(make_points(30, speed_mph=speeds, rally_count=rallies,
                                       p1_score=scores))
    for col in ("p1_score", "p2_score", "speed_mph", "rally_count"):
        assert not np.isnan(cleaned.columns[col].astype(float)).any()
    assert np.isin(cleaned.columns["server"], (1, 2)).all()
    assert np.isin(cleaned.columns["point_victor"], (1, 2)).all()


def test_clean_entirely_missing_column_is_an_error():
    with pytest.raises(DataError, match="p1_score"):
        clean_one(make_points(3, p1_score="??"))


def test_clean_repairs_invalid_victor_by_mode():
    cleaned, report = clean_one(make_points(3, point_victor=[2, 2, 0]))
    assert cleaned.columns["point_victor"][2] == 2
    assert report.mode_imputations == {"point_victor": 1}


def test_clean_repairs_decreasing_cumulative_counter():
    tl = make_points(
        3,
        point_victor=[1, 1, 2],
        p1_points_won=[1, 0, 2],  # the second point violates monotonicity
        p2_points_won=[0, 0, 1],
    )
    cleaned, report = clean_one(tl)
    won = cleaned.columns["p1_points_won"].tolist()
    assert won == sorted(won)
    assert report.monotone_repairs["p1_points_won"] == 1


def test_streaks_from_victor_sequences():
    table = ingest.derive_features(make_timeline([1, 1, 1]))
    assert table.column("streak_len_p1").tolist() == [1.0, 2.0, 3.0]
    table = ingest.derive_features(make_timeline([1, 2, 1]))
    assert table.column("streak_len_p1").tolist() == [1.0, 0.0, 1.0]
    assert table.column("streak_len_p2").tolist() == [0.0, 1.0, 0.0]


def test_streak_exclusivity_property():
    rng = np.random.default_rng(11)
    for _ in range(25):
        table = ingest.derive_features(random_timeline(rng, 50))
        s1 = table.column("streak_len_p1")
        s2 = table.column("streak_len_p2")
        assert np.all((s1 > 0) == (s2 == 0))


def test_streak_lengths_match_the_running_count_oracle():
    rng = np.random.default_rng(17)
    sequences = [[1], [2], [1, 1], [1, 2], [2, 2]]
    sequences += [rng.integers(1, 3, size=int(rng.integers(1, 60))) for _ in range(200)]
    for v in sequences:
        got = ingest.streak_lengths(v)
        want = streak_lengths_oracle(v)
        assert all(np.array_equal(g, w) for g, w in zip(got, want)), v


def test_cleaning_reports_merge_counts_and_lists():
    first, second = ingest.CleaningReport(), ingest.CleaningReport()
    first.bump(first.ad_replacements, "p1_score", 2)
    first.rejected_rows.append((3, "missing match_id"))
    second.bump(second.ad_replacements, "p1_score")
    second.bump(second.mode_imputations, "server")
    second.defaulted_columns.append("rally_count")
    second.rejected_rows.append((9, "unparseable point_no"))
    first.merge(second)
    totals = first.to_dict()["totals"]
    assert first.ad_replacements == {"p1_score": 3}
    assert first.mode_imputations == {"server": 1}
    assert first.defaulted_columns == ["rally_count"]
    assert first.rejected_rows == [(3, "missing match_id"), (9, "unparseable point_no")]
    assert totals["ad_replacements"] == 3 and totals["rejected_rows"] == 2


def test_unforced_error_ratio():
    errs = [1, 0, 0, 1, 0, 0, 0, 0]
    tl = make_timeline([1] * 8, p1_unf_err=errs)
    table = ingest.derive_features(tl)
    assert table.column("unforced_error_ratio_p1")[7] == pytest.approx(0.25)


def test_psychological_factor_bounds():
    rng = np.random.default_rng(5)
    for _ in range(10):
        table = ingest.derive_features(random_timeline(rng, 60))
        psych = table.column("psychological_factor")
        assert np.all(psych >= 0.0) and np.all(psych <= 1.0)


def test_feature_derivation_is_deterministic(tmp_path):
    tl = random_timeline(np.random.default_rng(1), 40)
    text = timeline_to_csv(tl)
    tables = []
    for _ in range(2):
        timelines, _ = ingest.parse_match_csv(text.encode())
        cleaned, _ = ingest.clean_timelines(timelines)
        tables.append(ingest.derive_features(cleaned[0]))
    assert np.array_equal(tables[0].values, tables[1].values)


def test_write_clean_csv_roundtrip(tmp_path):
    tl = make_timeline([1, 2, 1, 1], match_id="rt")
    path = tmp_path / "clean.csv"
    ingest.write_clean_csv([tl], path)
    reparsed, rejected = ingest.parse_match_csv(path)
    assert rejected == []
    again, report = ingest.clean_timelines(reparsed)
    assert report.to_dict()["totals"]["ad_replacements"] == 0
    assert again[0].columns["point_victor"].tolist() == [1, 2, 1, 1]
    path2 = tmp_path / "clean2.csv"
    ingest.write_clean_csv(again, path2)
    assert path.read_bytes() == path2.read_bytes()
