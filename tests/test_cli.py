import csv
import dataclasses
import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from matchflow import cli, ingest, plots, trend
from matchflow.classifier import TrainConfig
from matchflow.errors import DataError
from matchflow.ingest import FEATURE_NAMES
from matchflow.momentum import MomentumParams, momentum_from_victors
from matchflow.wavelet import WaveletConfig

from util import make_timeline, permutation_oracle, timeline_to_csv

FIXTURE = Path(__file__).resolve().parents[1] / "data" / "fixture_matches.csv"

# a_ij = w_i / w_j over five indicators: a perfectly consistent judgment matrix
WEIGHTS_5 = (0.4, 0.25, 0.2, 0.1, 0.05)
CONSISTENT_5X5 = [[wi / wj for wj in WEIGHTS_5] for wi in WEIGHTS_5]


def run(argv):
    return cli.main([str(a) for a in argv])


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


@pytest.fixture()
def thirty_point_csv(tmp_path):
    """30-point match with exactly one AD token."""
    victors = ([1] * 3 + [2] * 2 + [1, 2] * 5 + [2] * 3 + [1] * 12)[:30]
    scores = [0.0] * 30
    scores[7] = "AD"
    tl = make_timeline(victors, match_id="fx-30", p1_score=scores)
    path = tmp_path / "raw.csv"
    timeline_to_csv(tl, path=path)
    return path


def test_clean_counts_the_single_ad(tmp_path, thirty_point_csv):
    out_csv = tmp_path / "cleaned.csv"
    report_path = tmp_path / "report.json"
    code = run(["clean", thirty_point_csv, "--output", out_csv, "--report", report_path])
    assert code == 0
    report = read_json(report_path)
    assert report["totals"]["ad_replacements"] == 1
    assert report["ad_replacements"] == {"p1_score": 1}


def test_clean_is_idempotent_at_the_file_level(tmp_path, thirty_point_csv):
    first = tmp_path / "c1.csv"
    second = tmp_path / "c2.csv"
    r1 = tmp_path / "r1.json"
    r2 = tmp_path / "r2.json"
    assert run(["clean", thirty_point_csv, "--output", first, "--report", r1]) == 0
    assert run(["clean", first, "--output", second, "--report", r2]) == 0
    assert read_json(r2)["totals"]["ad_replacements"] == 0
    assert read_json(r2)["totals"]["mean_imputations"] == 0
    assert first.read_bytes() == second.read_bytes()


def test_a_failed_clean_leaves_the_previous_outputs_whole(tmp_path, monkeypatch,
                                                          thirty_point_csv):
    argv = ["clean", thirty_point_csv, "--output", tmp_path / "cleaned.csv",
            "--report", tmp_path / "cleaning_report.json"]
    assert run(argv) == 0
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}

    def write_part_then_fail(timelines, destination):
        Path(destination).write_text("match_id,player1\n")
        raise OSError("disk full")

    monkeypatch.setattr(ingest, "write_clean_csv", write_part_then_fail)
    assert run(argv) == 2
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before  # no .*.tmp either


def test_missing_input_file_exits_2(tmp_path):
    code = run(["clean", tmp_path / "nope.csv", "--output", tmp_path / "o.csv",
                "--report", tmp_path / "r.json"])
    assert code == 2


def test_schema_violation_exits_2(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("foo,bar\n1,2\n")
    assert run(["clean", bad, "--output", tmp_path / "o.csv", "--report", tmp_path / "r.json"]) == 2


def test_bad_config_exits_3(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"no_such_section": 1}')
    code = run(["momentum", FIXTURE, "--out-dir", tmp_path, "--config", cfg])
    assert code == 3


def test_a_config_file_that_is_not_utf8_exits_3(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_bytes(b'{"seed": 1, "x\xff": 2}')
    code = run(["clean", FIXTURE, "--output", tmp_path / "o.csv", "--report", tmp_path / "r.json",
                "--config", cfg])
    assert code == 3
    assert capsys.readouterr().err.startswith(
        "config error: config file is not valid JSON: 'utf-8' codec can't decode byte 0xff")


def test_a_config_file_that_cannot_be_read_exits_3(tmp_path, capsys):
    code = run(["clean", FIXTURE, "--output", tmp_path / "o.csv", "--report", tmp_path / "r.json",
                "--config", tmp_path / "missing.json"])
    assert code == 3
    assert capsys.readouterr().err.startswith(
        "config error: cannot read config file: [Errno 2] No such file or directory")


def test_clean_reads_and_writes_utf8_under_an_ascii_locale(tmp_path):
    """A non-ASCII player name and a non-ASCII column key in the config clean as they do anywhere."""
    header, body = FIXTURE.read_text(encoding="utf-8").split("\n", 1)
    data = tmp_path / "renamed.csv"
    data.write_text(header.replace(",server,", ",sérveur,") + "\n"
                    + body.replace("L. Ferro", "Novak Đoković"), encoding="utf-8")
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"columns": {"sérveur": "server"}}', encoding="utf-8")
    argv = ["clean", data, "--report", tmp_path / "r.json", "--config", cfg, "--output"]
    assert run(argv + [tmp_path / "here.csv"]) == 0
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, LC_ALL="C", PYTHONUTF8="0", PYTHONCOERCECLOCALE="0",
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-m", "matchflow.cli",
                           *map(str, argv + [tmp_path / "ascii.csv"])],
                          capture_output=True, text=True, env=env)
    assert (proc.returncode, proc.stderr) == (0, "")
    cleaned = (tmp_path / "ascii.csv").read_bytes()
    assert "Novak Đoković".encode() in cleaned and cleaned == (tmp_path / "here.csv").read_bytes()


@pytest.mark.parametrize("command,config,key", [
    ("train-eval", {"train": {"max_iters": None}}, "train.max_iters"),
    ("train-eval", {"train": {"max_iters": "5"}}, "train.max_iters"),
    ("train-eval", {"train": {"max_iters": 2.5}}, "train.max_iters"),
    ("train-eval", {"train": {"tol": True}}, "train.tol"),
    ("analyze random", {"random": {"permutations": None}}, "random.permutations"),
    ("analyze trend", {"trend": 5}, "'trend'"),
    ("train-eval", {"holdout": 1701}, "holdout"),
    ("analyze sweep", {"sweep": {"ranges": 5}}, "sweep.ranges"),
    ("analyze ahp", {"ahp": {"indicators": 7}}, "ahp.indicators"),
    ("analyze wavelet", {"wavelet": {"max_period": "big"}}, "wavelet.max_period"),
    ("train-eval", {"train": {"tol": math.nan}}, "train.tol"),
    ("momentum", {"momentum": {"short_weight": math.nan}}, "momentum.short_weight"),
    ("analyze sweep", {"sweep": {"steps": [0.5, True]}}, "sweep.steps"),
    ("analyze sweep", {"sweep": {"indicators": "set_diff"}}, "sweep.indicators"),
    ("analyze ahp", {"ahp": {"matrix": [[1, "x"]]}}, "ahp.matrix"),
    ("analyze ahp", {"ahp": {"matrix_csv": 3}}, "ahp.matrix_csv"),
    # a misspelled key in each section, on a command that does not read the section
    ("analyze ahp", {"momentum": {"short_wieght": 0.7}}, "momentum.short_wieght"),
    ("momentum", {"train": {"bogus": 1}}, "train.bogus"),
    ("momentum", {"ahp": {"indicator": ["set_diff"]}}, "ahp.indicator"),
    ("analyze ahp", {"trend": {"gird": 10}}, "trend.gird"),
    ("analyze ahp", {"random": {"permutatons": 500}}, "random.permutatons"),
    ("analyze ahp", {"sweep": {"degre": 3}}, "sweep.degre"),
    ("analyze ahp", {"wavelet": {"n_scale": 8}}, "wavelet.n_scale"),
    # keys that are not settable: the run seed is the top-level seed, and the
    # Newton line search always starts at the full step
    ("train-eval", {"train": {"seed": 9}}, "train.seed"),
    ("train-eval", {"train": {"learning_rate": 1.0}}, "train.learning_rate"),
    ("momentum", {"columns": {"match_id": 5}}, "columns.match_id"),
    ("analyze ahp", {"momentum": {"short_weight": "x"}}, "momentum.short_weight"),
    # out-of-range dataclass values, on a command that does not read the section
    ("analyze ahp", {"momentum": {"short_weight": 0.5}}, "momentum: window weights must sum"),
    ("analyze ahp", {"train": {"split": 1.5}}, "train: split must be in (0, 1)"),
    ("momentum", {"wavelet": {"center_frequency": 2.0}}, "wavelet: center frequency must be"),
    # names, choices and list lengths that need no input data, on a command that does not
    # read them
    ("analyze ahp", {"sweep": {"indicators": ["set_diff", "score_diff"], "ranges": [[0, 1]]}},
     "sweep.ranges"),
    ("analyze ahp", {"sweep": {"steps": [0.1, 0.1]}}, "sweep.steps"),
    ("analyze ahp", {"sweep": {"steps": [0.0]}}, "sweep.steps"),
    ("analyze ahp", {"sweep": {"indicators": ["nope"]}}, "sweep.indicators"),
    ("analyze ahp", {"sweep": {"indicators": ["set_diff", "score_diff", "game_diff"]}},
     "sweep.indicators"),
    ("analyze ahp", {"sweep": {"degree": 3}}, "sweep.degree"),
    ("analyze ahp", {"ahp": {"indicators": ["set_diff", "nope"]}}, "ahp.indicators"),
    ("analyze ahp", {"ahp": {"matrix": [[1, 2], [0.5, 1]]}}, "ahp.matrix"),
    ("analyze ahp", {"ahp": {"method": "nope"}}, "ahp.method"),
    ("analyze ahp", {"trend": {"x": "nope"}}, "trend.x"),
    ("analyze ahp", {"trend": {"y": "nope"}}, "trend.y"),
    ("analyze ahp", {"trend": {"grid": 0}}, "trend.grid"),
    ("analyze ahp", {"random": {"statistic": "nope"}}, "random.statistic"),
    ("analyze ahp", {"random": {"permutations": 98}}, "random.permutations"),
    ("analyze ahp", {"unit": "match"}, "unit"),
    ("analyze ahp", {"wavelet": {"max_period": 1.0}}, "wavelet: max_period must exceed"),
    # an empty configured sweep range, and judgment matrices that need no input data
    ("analyze ahp", {"sweep": {"ranges": [[1, 0]]}}, "sweep.ranges"),
    ("analyze ahp",
     {"ahp": {"indicators": ["set_diff", "score_diff"], "matrix": [[1, 2], [3, 1]]}},
     "ahp.matrix: judgment matrix must be reciprocal"),
    ("analyze ahp", {"ahp": {"indicators": list(FEATURE_NAMES)}}, "ahp.indicators"),
    ("analyze ahp", {"ahp": {"indicators": []}}, "ahp.indicators"),
    ("analyze ahp", {"ahp": {"matrix_csv": "no-such-dir/judgments.csv"}}, "ahp.matrix_csv"),
    ("analyze ahp", {"ahp": {"matrix": CONSISTENT_5X5, "matrix_csv": "no-such-dir/judgments.csv"}},
     "ahp.matrix and ahp.matrix_csv are both set"),
    # a repeated indicator, and a trend surface whose axes are the same column
    ("analyze sweep", {"sweep": {"indicators": ["psychological_factor", "psychological_factor"]}},
     "sweep.indicators must be one or two distinct feature names"),
    ("analyze ahp", {"ahp": {"indicators": ["score_diff", "score_diff", "set_diff"]}},
     "ahp.indicators must be 2 to 9 distinct feature names"),
    ("analyze trend", {"trend": {"x": "set_diff", "y": "set_diff"}},
     'trend.y must be an axis other than trend.x, got "set_diff"'),
    # a trend surface of more rows than the sweep's grid budget
    ("analyze ahp", {"trend": {"grid": 1001}}, "trend.grid must be 1 to 1000, got 1001"),
    # more permutations than that budget
    ("analyze ahp", {"random": {"permutations": 1_000_001}},
     "random.permutations must be 99 to 1000000, got 1000001"),
    # the sweep sets serve_indicator itself in each context
    ("analyze sweep", {"sweep": {"indicators": ["serve_indicator"]}},
     "sweep.indicators must be one or two distinct feature names"),
])
def test_wrong_typed_config_value_exits_3_naming_the_key(tmp_path, capsys, command, config, key):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    code = run([*command.split(), FIXTURE, "--out-dir", tmp_path / "out", "--config", path])
    assert code == 3
    assert key in capsys.readouterr().err


def test_out_of_range_config_stops_report_before_any_stage(tmp_path, capsys):
    cases = [
        ({"momentum": {"short_weight": 0.5}}, "momentum: window weights must sum to 1"),
        # sweep ranges that do not line up with the indicators
        ({"sweep": {"indicators": ["set_diff", "score_diff"], "ranges": [[0, 1]]}},
         "sweep.ranges must be null or 2 [lo, hi] pair(s)"),
        # an empty configured range, and a judgment matrix file that is not there
        ({"sweep": {"ranges": [[1, 0]]}}, "each with lo < hi, got [[1.0, 0.0]]"),
        ({"ahp": {"matrix_csv": str(tmp_path / "missing.csv")}}, "ahp.matrix_csv: [Errno 2]"),
        # configured sweep grids too coarse or too fine, counted without building them
        ({"sweep": {"ranges": [[0, 1]], "steps": [5]}},
         "sweep: grid for 'psychological_factor' has fewer than 2 samples"),
        ({"sweep": {"ranges": [[0, 1]], "steps": [1e-9]}},
         "sweep: grid of 1000000000 cells exceeds the 1000000 limit"),
        ({"sweep": {"indicators": ["set_diff", "score_diff"], "ranges": [[0, 1], [0, 1]],
                    "steps": [1e-3, 1e-3]}},
         "sweep: grid of 1002001 cells exceeds the 1000000 limit"),
    ]
    for i, (config, message) in enumerate(cases):
        path = tmp_path / f"cfg{i}.json"
        path.write_text(json.dumps(config))
        out = tmp_path / f"out{i}"
        assert run(["report", FIXTURE, "--out-dir", out, "--config", path]) == 3
        assert message in capsys.readouterr().err
        assert not out.exists()


def test_the_trend_grid_may_fill_the_sweep_grid_budget(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"trend": {"grid": 1000}}))
    assert cli.load_config(path)["trend"]["grid"] ** 2 == cli.sweep_mod.MAX_GRID_CELLS


def test_the_permutation_count_may_fill_the_sweep_grid_budget(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"random": {"permutations": 1_000_000}}))
    assert cli.load_config(path)["random"]["permutations"] == cli.sweep_mod.MAX_GRID_CELLS


@pytest.mark.parametrize("argv,config", [
    (["report", "--seed", -1], {}),
    (["train-eval"], {"seed": -1}),
])
def test_a_negative_seed_exits_3_before_any_stage(tmp_path, capsys, argv, config):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "out"
    assert run([*argv, FIXTURE, "--out-dir", out, "--config", path]) == 3
    assert "seed must be at least 0, got -1" in capsys.readouterr().err
    assert not out.exists()


def test_a_judgment_matrix_csv_with_a_non_numeric_cell_exits_3(tmp_path, capsys):
    matrix = tmp_path / "judgments.csv"
    matrix.write_text("1,2\nhalf,1\n")
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"ahp": {"indicators": ["set_diff", "score_diff"],
                                        "matrix_csv": str(matrix)}}))
    out = tmp_path / "out"
    assert run(["analyze", "ahp", FIXTURE, "--out-dir", out, "--config", path]) == 3
    assert "ahp.matrix_csv: could not convert string to float: 'half'" in capsys.readouterr().err
    assert not out.exists()


def test_load_config_resolves_the_judgment_matrix_it_uses(tmp_path):
    """ahp.matrix holds the matrix the AHP stage uses, whatever its source."""
    matrix = tmp_path / "judgments.csv"
    matrix.write_text("1,4\n0.25,1\n")
    sources = [
        ({}, cli.ahp_mod.build_judgment_matrix(5, cli.DEFAULT_AHP_ENTRIES).values.tolist()),
        ({"indicators": ["set_diff", "score_diff", "game_diff"]}, np.ones((3, 3)).tolist()),
        ({"matrix": CONSISTENT_5X5}, CONSISTENT_5X5),
        ({"indicators": ["set_diff", "score_diff"], "matrix_csv": str(matrix)},
         [[1.0, 4.0], [0.25, 1.0]]),
    ]
    for i, (ahp, rows) in enumerate(sources):
        path = tmp_path / f"cfg{i}.json"
        path.write_text(json.dumps({"ahp": ahp}))
        assert cli.load_config(path)["ahp"]["matrix"] == rows, ahp


def test_clean_takes_no_seed(tmp_path):
    with pytest.raises(SystemExit) as exc:
        run(["clean", FIXTURE, "--output", tmp_path / "o.csv", "--report", tmp_path / "r.json",
             "--seed", 1])
    assert exc.value.code == 2
    assert not (tmp_path / "o.csv").exists()


def test_load_config_resolves_every_dataclass_field():
    config = cli.load_config(None)
    for section, cls, omitted in [("momentum", MomentumParams, ()),
                                  ("train", TrainConfig, ("seed",)),
                                  ("wavelet", WaveletConfig, ("scales",))]:
        fields = {f.name: f.default for f in dataclasses.fields(cls) if f.name not in omitted}
        assert config[section] == fields, section
    # every key whose default is None or a list has its shape in SHAPES
    shaped = {f"{section}.{key}" for section, keys in config.items() if isinstance(keys, dict)
              for key, value in keys.items() if value is None or isinstance(value, list)}
    assert shaped == set(cli.SHAPES)


def test_an_int_for_a_float_is_resolved_as_a_float(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"momentum": {"short_weight": 1, "long_weight": 0},
                                "sweep": {"ranges": [[0, 1]], "steps": [1], "tolerance": 0},
                                "wavelet": {"min_period": 3, "max_period": 40}}))
    config = cli.load_config(path)
    values = [config["momentum"]["short_weight"], config["momentum"]["long_weight"],
              *config["sweep"]["ranges"][0], *config["sweep"]["steps"],
              config["sweep"]["tolerance"], config["wavelet"]["min_period"],
              config["wavelet"]["max_period"]]
    assert values == [1.0, 0.0, 0.0, 1.0, 1.0, 0.0, 3.0, 40.0]
    assert all(type(v) is float for v in values)
    assert type(config["wavelet"]["n_scales"]) is int


def two_match_csv(tmp_path, *match_ids):
    """A CSV holding one short match per id."""
    path = tmp_path / "two.csv"
    timeline_to_csv(*(make_timeline([1, 2] * 6, match_id=match_id) for match_id in match_ids),
                    path=path)
    return path


def test_a_match_id_in_two_input_files_exits_2_naming_both(tmp_path, capsys):
    other = tmp_path / "other.csv"
    timeline_to_csv(make_timeline([1, 2] * 6, match_id="2023-fixture-1301"), path=other)
    for inputs in ([FIXTURE, FIXTURE], [FIXTURE, other]):
        out = tmp_path / "out"
        assert run(["train-eval", *inputs, "--out-dir", out]) == 2
        assert capsys.readouterr().err == ("input error: match id '2023-fixture-1301' is in both "
                                           f"{FIXTURE} and {inputs[1]}\n")
        assert not out.exists()


def test_a_column_every_input_file_lacks_is_reported_once(tmp_path):
    with open(FIXTURE, newline="") as fh:
        header, *rows = csv.reader(fh)
    keep = [i for i, name in enumerate(header) if name != "rally_count"]
    inputs = []
    for match_id in dict.fromkeys(row[0] for row in rows):  # one file per match
        path = tmp_path / f"{match_id}.csv"
        with open(path, "w", newline="") as fh:
            csv.writer(fh, lineterminator="\n").writerows(
                [row[i] for i in keep] for row in [header, *(r for r in rows if r[0] == match_id)])
        inputs.append(path)
    out = tmp_path / "out"
    assert run(["report", *inputs, "--out-dir", out]) == 0
    assert read_json(out / "cleaning_report.json")["defaulted_columns"] == ["rally_count"]


def test_an_exact_match_id_wins_over_a_suffix(tmp_path):
    out = tmp_path / "out"
    # ingest sorts the matches by id, so 11701 comes first
    assert run(["momentum", two_match_csv(tmp_path, "1701", "11701"), "--match", "1701",
                "--out-dir", out]) == 0
    assert read_json(out / "momentum_swings.json")["match_id"] == "1701"


def test_a_suffix_that_fits_two_match_ids_exits_3_naming_them(tmp_path, capsys):
    path = two_match_csv(tmp_path, "a-1701", "b-1701")
    assert run(["momentum", path, "--match", "1701", "--out-dir", tmp_path / "out"]) == 3
    err = capsys.readouterr().err
    assert "'a-1701'" in err and "'b-1701'" in err
    assert run(["momentum", path, "--match", "b-1701", "--out-dir", tmp_path / "out"]) == 0


def test_train_eval_produces_artifacts(tmp_path, capsys):
    out = tmp_path / "run"
    code = run(["train-eval", FIXTURE, "--out-dir", out, "--seed", 3])
    assert code == 0
    training = read_json(out / "model.json")["training"]
    assert (f"{training['iterations']} training iteration(s), stop reason "
            f"{training['stop_reason']}, final loss {training['final_loss']:.3g}"
            in capsys.readouterr().out)
    for name in ("model.json", "metrics.json", "serve_stats.json", "holdout_probabilities.csv"):
        assert (out / name).exists(), name
    for level in range(4):
        assert (out / f"roc_level{level}.csv").exists()
    with open(out / "holdout_probabilities.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert rows, "holdout table must not be empty"
    for row in rows:
        proba = [float(v) for k, v in row.items() if k.startswith("proba_")]
        assert sum(proba) == pytest.approx(1.0, abs=1e-9)
        assert row["predicted_outcome"] in ("Player 1 wins", "Player 2 wins")


def test_train_eval_is_deterministic(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert run(["train-eval", FIXTURE, "--out-dir", out1, "--seed", 3]) == 0
    assert run(["train-eval", FIXTURE, "--out-dir", out2, "--seed", 3]) == 0
    assert (out1 / "model.json").read_bytes() == (out2 / "model.json").read_bytes()


def test_train_eval_missing_holdout_is_config_error(tmp_path):
    code = run(["train-eval", FIXTURE, "--out-dir", tmp_path, "--holdout", "9999"])
    assert code == 3


def test_momentum_alternating_fixture(tmp_path):
    raw = tmp_path / "alt.csv"
    timeline_to_csv(make_timeline([1, 2] * 20, match_id="alt"), path=raw)
    out = tmp_path / "out"
    assert run(["momentum", raw, "--out-dir", out]) == 0
    with open(out / "momentum.csv") as fh:
        rows = list(csv.DictReader(fh))
    p1 = np.array([float(r["p1_momentum"]) for r in rows])
    expected = momentum_from_victors([1, 2] * 20)["p1"]
    assert np.array_equal(p1, expected)
    swings = read_json(out / "momentum_swings.json")
    assert swings["match_id"] == "alt"


def test_momentum_saturated_fixture(tmp_path):
    raw = tmp_path / "all.csv"
    timeline_to_csv(make_timeline([1] * 24, match_id="all1"), path=raw)
    out = tmp_path / "out"
    assert run(["momentum", raw, "--out-dir", out, "--plot"]) == 0
    with open(out / "momentum.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert all(float(r["p1_momentum"]) == 1.0 for r in rows)
    assert all(float(r["p2_momentum"]) == 0.0 for r in rows)
    assert (out / "momentum.svg").exists()


def test_analyze_random_is_deterministic(tmp_path):
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    for out in (out1, out2):
        code = run(["analyze", "random", FIXTURE, "--out-dir", out, "--seed", 7])
        assert code == 0
    assert (out1 / "randomness.json").read_bytes() == (out2 / "randomness.json").read_bytes()


def test_analyze_random_stratified_by_server_matches_the_oracle(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"random": {"stratify_by_server": True}}))
    out = tmp_path / "out"
    assert run(["analyze", "random", FIXTURE, "--match", "1701", "--seed", 5,
                "--out-dir", out, "--config", cfg]) == 0
    payload = read_json(out / "randomness.json")
    timelines, _ = ingest.load_and_clean(FIXTURE)
    match = next(tl for tl in timelines if tl.match_id.endswith("1701"))
    victors, servers = match.victors(), match.servers()
    observed, null, p_value = permutation_oracle(victors, servers, "max_streak", 199, 5)
    assert not np.array_equal(null, permutation_oracle(victors, None, "max_streak", 199, 5)[1])
    assert payload["stratified_by_server"] is True
    assert payload["observed"] == observed and payload["p_value"] == p_value
    assert payload["null"] == {
        "mean": float(null.mean()), "sd": float(null.std()),
        "quantiles": {key: float(np.quantile(null, q)) for key, q in trend.NULL_QUANTILES.items()},
    }


def test_analyze_ahp_with_consistent_inline_matrix(tmp_path):
    w = [0.4, 0.25, 0.2, 0.1, 0.05]
    matrix = [[wi / wj for wj in w] for wi in w]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"ahp": {"matrix": matrix}}))
    out = tmp_path / "out"
    assert run(["analyze", "ahp", FIXTURE, "--out-dir", out, "--config", cfg]) == 0
    payload = read_json(out / "ahp.json")
    assert payload["result"]["consistent"] is True
    assert abs(payload["result"]["consistency_ratio"]) < 1e-9
    with open(out / "ahp_ranking.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert rows and min(int(r["ranking"]) for r in rows) == 1


def test_analyze_ahp_matrix_csv_source(tmp_path):
    matrix_path = tmp_path / "m.csv"
    matrix_path.write_text("1,2,3,4,5\n0.5,1,2,3,4\n" + "0.3333333333333333,0.5,1,2,3\n"
                           "0.25,0.3333333333333333,0.5,1,2\n0.2,0.25,0.3333333333333333,0.5,1\n")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"ahp": {"matrix_csv": str(matrix_path)}}))
    out = tmp_path / "out"
    assert run(["analyze", "ahp", FIXTURE, "--out-dir", out, "--config", cfg]) == 0
    assert read_json(out / "ahp.json")["result"]["n"] == 5


def test_analyze_trend_emits_surface(tmp_path):
    out = tmp_path / "out"
    assert run(["analyze", "trend", FIXTURE, "--out-dir", out]) == 0
    payload = read_json(out / "trend.json")
    assert -1.0 <= payload["cosine_similarity"] <= 1.0
    assert payload["surface"]["r_squared"] <= 1.0
    with open(out / "trend_surface.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 400  # 20 x 20 grid


def test_analyze_sweep_emits_curves(tmp_path):
    out = tmp_path / "out"
    assert run(["analyze", "sweep", FIXTURE, "--out-dir", out]) == 0
    payload = read_json(out / "sweep.json")
    assert payload["indicators"] == ["psychological_factor"]
    with open(out / "sweep.csv") as fh:
        rows = list(csv.DictReader(fh))
    contexts = {r["context"] for r in rows}
    assert contexts == {"serve_first", "serve_second", "mean"}


def test_analyze_wavelet_emits_scalogram(tmp_path):
    out = tmp_path / "out"
    assert run(["analyze", "wavelet", FIXTURE, "--out-dir", out, "--plot"]) == 0
    payload = read_json(out / "scalogram.json")
    assert payload["n_rows"] > 0
    assert (out / "scalogram.csv").exists()
    assert (out / "scalogram.svg").exists()
    with open(out / "scalogram.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == payload["n_rows"]


def test_report_bundle_and_out_dir_env(tmp_path, monkeypatch):
    out = tmp_path / "bundle"
    monkeypatch.setenv(cli.OUT_DIR_ENV, str(out))
    assert run(["report", FIXTURE, "--seed", 11]) == 0
    report = read_json(out / "report.json")
    assert report["match_id"].endswith("1701")
    for artifact in report["artifacts"].values():
        assert (out / artifact).exists(), artifact


def test_report_runs_without_importing_scipy(tmp_path):
    # the runtime depends on numpy alone: scipy, or any other installed package, is never
    # loaded.  Modules loaded at start-up (such as certifi from a .pth file) are not counted,
    # and numpy's Cython helpers are numpy's.
    script = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "from matchflow import cli\n"
        f"code = cli.main(['report', {str(FIXTURE)!r}, '--out-dir', {str(tmp_path / 'out')!r}])\n"
        "allowed = {*sys.stdlib_module_names, 'numpy', 'matchflow', 'cython_runtime'}\n"
        "loaded = {m.split('.')[0] for m in set(sys.modules) - before} - allowed\n"
        "print(code, sorted(m for m in loaded if not m.startswith('_cython_')))\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split()[-2:] == ["0", "[]"]


@pytest.mark.parametrize("argv", [
    ["train-eval", FIXTURE, "--seed", 3, "--out-dir", "out"],
    ["clean", FIXTURE, "--output", "cleaned.csv", "--report", "cleaning_report.json"],
    ["report", FIXTURE, "--out-dir", "out"],
], ids=["train-eval", "clean", "report"])
def test_train_eval_and_clean_never_import_numpy_ma(tmp_path, argv):
    # a plain np.unique, np.quantile or np.median imports numpy.ma (about 1.3 MB and 10-15 ms)
    script = (
        "import sys\n"
        "from matchflow import cli\n"
        f"code = cli.main({[str(a) for a in argv]!r})\n"
        "print(code, 'numpy.ma' in sys.modules)\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env,
                          cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split()[-2:] == ["0", "False"]


def test_median_and_null_quantiles_match_numpy_bit_for_bit():
    # they stand in for np.median and np.quantile, which import numpy.ma; a plain
    # np.sort would differ, returning +0.0 where numpy returns -0.0
    rng = np.random.default_rng(16)
    qs = list(trend.NULL_QUANTILES.values())
    for i in range(3000):
        n = int(rng.integers(2, 200))
        x = [rng.normal(size=n), rng.integers(-3, 4, size=n).astype(float),
             rng.choice([0.0, -0.0, 1.0], size=n), rng.choice([0.0, -0.0], size=n)][i % 4]
        assert trend._quantiles(x, qs).tobytes() == np.quantile(x, qs).tobytes()
        assert np.float64(cli._median(x)).tobytes() == np.median(x).tobytes()
        assert np.float64(cli._median(x[1:])).tobytes() == np.median(x[1:]).tobytes()


# ---------------------------------------------------------------- stage runner

# Files each single-stage command writes; together they are the report bundle
# less report.json and cleaning_report.json.
ROC_FILES = [f"roc_level{k}.csv" for k in range(4)]
SINGLE_STAGE_RUNS = [
    (["train-eval", FIXTURE], ["model.json", "serve_stats.json", "metrics.json",
                               "holdout_probabilities.csv", *ROC_FILES]),
    (["momentum", FIXTURE, "--match", "1701", "--plot"],
     ["momentum.csv", "momentum_swings.json", "momentum.svg"]),
    (["analyze", "ahp", FIXTURE, "--match", "1701"], ["ahp.json", "ahp_ranking.csv"]),
    (["analyze", "trend", FIXTURE, "--match", "1701"], ["trend.json", "trend_surface.csv"]),
    (["analyze", "random", FIXTURE, "--match", "1701"], ["randomness.json"]),
    (["analyze", "sweep", FIXTURE, "--match", "1701"], ["sweep.json", "sweep.csv"]),
    (["analyze", "wavelet", FIXTURE, "--match", "1701", "--plot"],
     ["scalogram.json", "scalogram.csv", "scalogram.svg"]),
]
STAGE_NAMES = ["train", "momentum", "ahp", "trend", "random", "sweep", "wavelet"]


@pytest.fixture(scope="module")
def fixture_bundle(tmp_path_factory):
    out = tmp_path_factory.mktemp("bundle")
    assert run(["report", FIXTURE, "--seed", 11, "--out-dir", out]) == 0
    return out


def test_single_stage_runs_cover_the_bundle(fixture_bundle):
    written = sorted(name for _, names in SINGLE_STAGE_RUNS for name in names)
    bundle = sorted(p.name for p in fixture_bundle.iterdir())
    assert written == sorted(set(bundle) - {"report.json", "cleaning_report.json"})
    assert written == sorted(name for _, _, files in cli.STAGES.values() for name in files)


@pytest.mark.parametrize("command,names", SINGLE_STAGE_RUNS, ids=STAGE_NAMES)
def test_single_stage_command_matches_the_report_bundle(tmp_path, fixture_bundle, command, names):
    out = tmp_path / "out"
    assert run([*command, "--seed", 11, "--out-dir", out]) == 0
    assert sorted(p.name for p in out.iterdir()) == sorted(names)
    for name in names:
        assert (out / name).read_bytes() == (fixture_bundle / name).read_bytes(), name


def test_two_indicator_sweep_rows_run_x_outer_y_inner(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"sweep": {"indicators": ["psychological_factor", "score_diff"],
                                         "ranges": [[0.0, 1.0], [-2.0, 2.0]],
                                         "steps": [0.5, 2.0]}}))
    out = tmp_path / "out"
    assert run(["analyze", "sweep", FIXTURE, "--out-dir", out, "--config", cfg]) == 0
    with open(out / "sweep.csv") as fh:
        reader = csv.reader(fh)
        header, rows = next(reader), list(reader)
    assert header == ["psychological_factor", "score_diff", "context", "momentum"]
    assert len(rows) == 3 * 3 * 3
    contexts = ["serve_first", "serve_second", "mean"]
    assert [r[:3] for r in rows[:7]] == [
        ["0.0", "-2.0", contexts[0]], ["0.0", "-2.0", contexts[1]], ["0.0", "-2.0", contexts[2]],
        ["0.0", "0.0", contexts[0]], ["0.0", "0.0", contexts[1]], ["0.0", "0.0", contexts[2]],
        ["0.0", "2.0", contexts[0]],
    ]
    assert rows[9][:3] == ["0.5", "-2.0", "serve_first"]
    first, second, mean = (float(r[3]) for r in rows[:3])
    assert mean == pytest.approx((first + second) / 2.0)


def single_match_csv(tmp_path, points=None):
    """The fixture's match 1701 alone, optionally cut to its first points."""
    lines = FIXTURE.read_text().splitlines()
    body = [line for line in lines[1:] if line.split(",")[0].endswith("1701")]
    path = tmp_path / "one.csv"
    path.write_text("\n".join([lines[0], *body[:points]]) + "\n")
    return path


@pytest.mark.parametrize("points,failed", [(None, {"train"}), (12, {"train", "random"})])
def test_one_match_report_records_failed_stages(tmp_path, points, failed):
    jsonschema = pytest.importorskip("jsonschema")
    from matchflow.schemas import load_schema

    out = tmp_path / "out"
    assert run(["report", single_match_csv(tmp_path, points), "--out-dir", out]) == 3
    report = read_json(out / "report.json")
    jsonschema.validate(report, load_schema("report"))
    stages = report["stages"]
    assert {name for name, s in stages.items() if s["status"] == "failed"} == failed
    assert sorted(stages) == sorted(STAGE_NAMES)
    assert all(s == {"status": "ok"} for n, s in stages.items() if n not in failed)
    assert stages["train"]["reason"] == "holdout match leaves no data to train on"
    assert report["serve_stats"] is None and report["metrics_summary"] is None
    names = {p.name for p in out.iterdir()}
    assert not names & {"model.json", "serve_stats.json", "metrics.json", *ROC_FILES}
    assert {"momentum.csv", "momentum.svg", "ahp.json", "trend.json", "sweep.json",
            "scalogram.json", "cleaning_report.json"} <= names
    assert ("randomness.json" in names) == ("random" not in failed)
    assert sorted(names) == sorted({*report["artifacts"].values(), "report.json"})
    assert sorted(p.name for p in tmp_path.iterdir()) == ["one.csv", "out"]


def test_report_svg_bytes_are_pinned(tmp_path):
    """The fixture report's plots and tables and the cleaned fixture, pinned so a renderer
    or writer change that moves a byte shows."""
    out = tmp_path / "out"
    assert run(["report", FIXTURE, "--out-dir", out]) == 0
    assert run(["clean", FIXTURE, "--output", out / "cleaned.csv",
                "--report", tmp_path / "cleaning_report.json"]) == 0
    digests = {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
               for path in out.iterdir() if path.suffix in (".svg", ".csv")}
    assert digests == {
        "momentum.svg": "ca101a2a8d1ece60121f49b7e308ddada02b32a214a04171d898a3f4e408bd7f",
        "scalogram.svg": "4447b54523ccdc7bffe2633f58edbfbb8e61205228362b90b314493c5811620a",
        "ahp_ranking.csv": "6d8c467b99aafe8bb99e6335857b828b18503505206756efa5e8567182e32649",
        "holdout_probabilities.csv":
            "592301be016c782324c834d6f080b125ef1604aa155877674e0657978f818a87",
        "momentum.csv": "983c708a88f0d7f2454a7273d4a3f7ea6613b212ceabcd1c5a61692df6342b09",
        "roc_level0.csv": "e96939736f440af7cffbfd1775328690e90faedbfadb5b90c856cc8eab86cae7",
        "roc_level1.csv": "527173d342fa6d0f75a1236b226ad0782feca4370e0427cf56dabc01edee0774",
        "roc_level2.csv": "e5d2c11c5faa6b353b3d218f4b33f3508f1653bb6228c17b8558931efa76e4fa",
        "roc_level3.csv": "5a2d60a3e951495d3c1f37050384b08d031f0f04a4e71308cae7ead9bd852748",
        "scalogram.csv": "82ac9032d3e92ba635b1bd89d2fa2d30df22a67d34d2616af420446762e5eadf",
        "sweep.csv": "cf9a0f4b3f763fef60118af3d2453339140cadfbdcac4e7dbfa9232f948cd6fe",
        "trend_surface.csv": "db7cec1c74889251804e8ddf1283bfe8fe9580b2b1d58e604c72ee23caac9406",
        "cleaned.csv": "1f051ff2b97f470eca0c1aaebeab4f219668f34272eeef47adab982428e88825",
    }


def test_a_wavelet_max_period_past_the_match_fails_only_the_wavelet_stage(tmp_path):
    # max_period sizes the padding and the kernels: 1e6 would ask for gigabytes
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"wavelet": {"max_period": 1e6}}))
    out = tmp_path / "out"
    assert run(["report", FIXTURE, "--out-dir", out, "--config", path]) == 1
    report = read_json(out / "report.json")
    assert report["match_id"] == "2023-fixture-1701"
    assert report["stages"]["wavelet"] == {
        "status": "failed", "reason": "max_period must be at most the signal length, 123, got 1e+06"}
    assert all(s == {"status": "ok"} for n, s in report["stages"].items() if n != "wavelet")
    assert report["wavelet_summary"] is None
    assert not {p.name for p in out.iterdir()} & {"scalogram.json", "scalogram.csv"}


def test_failed_stage_removes_an_earlier_runs_files(tmp_path):
    out = tmp_path / "out"
    assert run(["report", FIXTURE, "--seed", 11, "--out-dir", out]) == 0
    assert (out / "model.json").exists()
    assert run(["report", single_match_csv(tmp_path), "--out-dir", out]) == 3
    report = read_json(out / "report.json")
    assert report["stages"]["train"]["status"] == "failed"
    names = {p.name for p in out.iterdir()}
    assert sorted(names) == sorted({*report["artifacts"].values(), "report.json"})
    assert not names & {"model.json", "serve_stats.json", "metrics.json", *ROC_FILES}


@pytest.mark.parametrize("error", [MemoryError, TypeError, KeyboardInterrupt])
def test_an_exception_outside_the_stage_errors_propagates(tmp_path, monkeypatch, error):
    out = tmp_path / "out"
    assert run(["report", FIXTURE, "--seed", 11, "--out-dir", out]) == 0

    def broken(ctx, out_file):
        raise error("not a stage error")

    monkeypatch.setitem(cli.STAGES, "wavelet", (broken, *cli.STAGES["wavelet"][1:]))
    with pytest.raises(error) as raised:
        run(["report", FIXTURE, "--seed", 12, "--out-dir", out])
    assert raised.traceback[-1].name == "broken"  # re-raised with its own traceback
    names = {p.name for p in out.iterdir()}
    assert "randomness.json" in names and not [n for n in names if n.startswith(".")]
    if error is KeyboardInterrupt:  # stops the run: no file may describe the earlier one
        assert not names & {"report.json", "cleaning_report.json"}
    else:  # fails the wavelet stage alone, and report.json records it
        report = read_json(out / "report.json")
        assert report["seed"] == 12
        assert report["stages"].pop("wavelet") == {
            "status": "failed", "reason": f"{error.__name__}: not a stage error"}
        assert all(s == {"status": "ok"} for s in report["stages"].values())
        assert names == {*report["artifacts"].values(), "report.json"}


@pytest.mark.parametrize("faults", [
    {"random": DataError}, {"trend": TypeError}, {"wavelet": MemoryError},
    dict.fromkeys(STAGE_NAMES, TypeError), {"ahp": DataError, "sweep": TypeError},
], ids=["DataError", "TypeError", "MemoryError", "TypeError-everywhere", "bug-after-DataError"])
def test_injected_faults_keep_report_json_to_this_runs_files(tmp_path, monkeypatch, faults):
    """If report.json exists, this run wrote it, and every file it lists exists."""
    out = tmp_path / "out"
    out.mkdir()
    earlier = [name for _, _, files in cli.STAGES.values() for name in files]
    for name in [*earlier, "report.json", "cleaning_report.json"]:
        (out / name).write_text("an earlier run\n")
    for stage, error in faults.items():
        def broken(ctx, out_file, stage=stage, error=error):
            out_file(cli.STAGES[stage][2][0]).write_text("half")
            raise error(f"injected into {stage}")

        monkeypatch.setitem(cli.STAGES, stage, (broken, *cli.STAGES[stage][1:]))
    argv = ["report", FIXTURE, "--seed", 12, "--out-dir", out]
    bugs = [error for error in faults.values() if not issubclass(error, cli.STAGE_ERRORS)]
    if bugs:  # the first bug is raised, whatever stage errors came before it
        with pytest.raises(bugs[0]):
            run(argv)
    else:
        assert run(argv) == 1
    report = read_json(out / "report.json")
    assert report["seed"] == 12
    assert {name: s["status"] for name, s in report["stages"].items()} == {
        name: "failed" if name in faults else "ok" for name in STAGE_NAMES}
    names = {p.name for p in out.iterdir()}
    assert names == {*report["artifacts"].values(), "report.json"}
    assert all((out / name).read_text() not in ("an earlier run\n", "half") for name in names)


@pytest.mark.parametrize("module,attr,stage,files", [
    (trend, "randomness_test", "random", {"randomness.json"}),
    # the wavelet stage has written scalogram.csv and scalogram.json when its plot fails
    (plots, "heatmap_svg", "wavelet", {"scalogram.csv", "scalogram.json", "scalogram.svg"}),
], ids=["random", "wavelet-plot"])
def test_failed_stage_lands_none_of_its_files_and_the_rest_of_the_bundle(
        tmp_path, monkeypatch, module, attr, stage, files):
    def broken(*args, **kwargs):
        raise DataError("stage broke")

    monkeypatch.setattr(module, attr, broken)
    out = tmp_path / "out"
    assert run(["report", FIXTURE, "--seed", 11, "--out-dir", out]) == 1
    report = read_json(out / "report.json")
    assert report["stages"][stage] == {"status": "failed", "reason": "stage broke"}
    assert all(s == {"status": "ok"} for n, s in report["stages"].items() if n != stage)
    summary_key = {"random": "randomness_summary", "wavelet": "wavelet_summary"}[stage]
    assert report[summary_key] is None and report["momentum_summary"] is not None
    names = {p.name for p in out.iterdir()}
    assert names == {*report["artifacts"].values(), "report.json"}
    assert len(names) == 23 - len(files) and not names & files
    assert all(p.is_file() for p in out.iterdir())
    assert [p.name for p in tmp_path.iterdir()] == ["out"]
