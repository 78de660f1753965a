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

from matchflow import cli, plots, trend
from matchflow.classifier import TrainConfig
from matchflow.errors import DataError
from matchflow.momentum import MomentumParams, momentum_from_victors
from matchflow.wavelet import WaveletConfig

from util import make_timeline, timeline_to_csv

FIXTURE = Path(__file__).resolve().parents[1] / "data" / "fixture_matches.csv"


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
])
def test_wrong_typed_config_value_exits_3_naming_the_key(tmp_path, capsys, command, config, key):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    code = run([*command.split(), FIXTURE, "--out-dir", tmp_path / "out", "--config", path])
    assert code == 3
    assert key in capsys.readouterr().err


def test_out_of_range_config_stops_report_before_any_stage(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"momentum": {"short_weight": 0.5}}))
    out = tmp_path / "out"
    assert run(["report", FIXTURE, "--out-dir", out, "--config", path]) == 3
    assert "momentum: window weights must sum to 1" in capsys.readouterr().err
    assert not out.exists()


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
    texts = [timeline_to_csv(make_timeline([1, 2] * 6, match_id=match_id))
             for match_id in match_ids]
    path = tmp_path / "two.csv"
    path.write_text(texts[0] + "".join(text.split("\n", 1)[1] for text in texts[1:]))
    return path


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
    # the runtime depends on numpy alone; scipy may be installed but never loaded
    script = (
        "import sys\n"
        "from matchflow import cli\n"
        f"code = cli.main(['report', {str(FIXTURE)!r}, '--out-dir', {str(tmp_path / 'out')!r}])\n"
        "print(code, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split()[-2:] == ["0", "[]"]


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
    """The fixture report's plots, pinned so a renderer change that moves a byte shows."""
    out = tmp_path / "out"
    assert run(["report", FIXTURE, "--out-dir", out]) == 0
    digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
               for name in ("momentum.svg", "scalogram.svg")}
    assert digests == {
        "momentum.svg": "ca101a2a8d1ece60121f49b7e308ddada02b32a214a04171d898a3f4e408bd7f",
        "scalogram.svg": "4447b54523ccdc7bffe2633f58edbfbb8e61205228362b90b314493c5811620a",
    }


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
