"""Tests of the benchmark itself.

    python3 -m pytest perfbench/tests -q
"""

import csv
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import inputs  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture(scope="module")
def reference():
    return workloads.load_reference()


def timed(plan, work):
    with workloads.Spawner(work / "stderr.txt") as spawner:
        return run.timed_run(plan, work, 0.0, spawner)


def with_tampering(op, tamper):
    """The same command, with ``tamper`` applied to its outputs before the check."""
    return workloads.Op(op.args, op.rows, lambda out: (tamper(out), op.check(out))[1])


def in_process(op, out):
    from matchflow import cli

    out.mkdir()
    assert cli.main(op.argv(out)) == 0


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_gives_byte_identical_inputs(tmp_path, reference, name):
    plans = {}
    for tag, seed in (("a", 5), ("b", 5), ("c", 6)):
        (tmp_path / tag).mkdir()
        plans[tag] = workloads.WORKLOADS[name](seed, tmp_path / tag, reference)
    for f in plans["a"].files:
        assert (tmp_path / "a" / f.name).read_bytes() == (tmp_path / "b" / f.name).read_bytes()
    assert inputs.describe(plans["a"].files) == inputs.describe(plans["b"].files)
    assert inputs.describe(plans["a"].files)["sha256"] != inputs.describe(plans["c"].files)["sha256"]


def test_every_damage_class_appears_in_the_dirty_shards(reference):
    for entry in reference["shards"].values():
        assert set(entry["damage"]) == set(inputs.DAMAGE_RATES)
        assert all(count > 0 for count in entry["damage"].values())

    from matchflow import ingest

    data, damage = inputs.dirty_shard(0)
    assert damage == reference["shards"]["0"]["damage"]
    _, report = ingest.load_and_clean(data)
    reasons = {why for _, why in report.rejected_rows}
    assert reasons == {"missing match_id", "unparseable point_no"}
    assert {"server", "point_victor", "serve_no", "p1_ace"} <= set(report.mode_imputations)
    assert report.categorical_mapped.get("winner_shot_type", 0) > 0
    assert report.mean_imputations.get("p1_score", 0) > 0
    for token in inputs.GARBAGE_TOKENS:
        assert f",{token},".encode() in data


def test_traced_self_times_sum_to_the_root_span(tmp_path, reference):
    plan = workloads.match_report(3, tmp_path, reference)
    plan.ops = plan.ops[:1]
    from matchflow import cli, ingest

    original = ingest.load_and_clean
    result = run.traced_run(plan, tmp_path, tmp_path / "trace.jsonl")
    assert ingest.load_and_clean is original and cli.ingest.load_and_clean is original

    assert result["failed"] == 0
    metrics = result["metrics"]
    shares = [metrics[f"{layer}.share"]["value"] for layer in tracer.LAYERS]
    assert sum(shares) == pytest.approx(1.0, rel=1e-9)
    assert max(tracer.LAYERS, key=lambda layer: metrics[f"{layer}.share"]["value"]) == "wavelet.cwt"
    assert metrics["wavelet.cells"]["value"] > 0 and metrics["ingest.rows"]["value"] > 0
    assert "trace.overhead_frac" in metrics

    spans = [json.loads(line) for line in (tmp_path / "trace.jsonl").read_text().splitlines()]
    roots = [s for s in spans if s["parent"] < 0]
    assert [s["name"] for s in roots] == ["cli.main"]
    assert roots[0]["end"] - roots[0]["start"] == pytest.approx(metrics["trace.root_s"]["value"])
    for s in spans:
        if s["parent"] >= 0:
            parent = spans[s["parent"]]
            assert parent["start"] <= s["start"] <= s["end"] <= parent["end"]


def test_metric_names_and_units_match_benchmark_json():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END_UNITS
    traced = {f"{layer}.share": "frac" for layer in tracer.LAYERS}
    traced.update(dict.fromkeys(tracer.COUNTS, "count"))
    traced.update({"cli.bytes_out": "bytes", "trace.overhead_frac": "frac", "trace.root_s": "s"})
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == traced
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)


def test_tampered_artifact_counts_as_failed(tmp_path, reference):
    op = workloads.dirty_clean(2, tmp_path, reference).ops[0]

    def flip_last_byte(out):
        path = out / "cleaned.csv"
        data = bytearray(path.read_bytes())
        data[-2] ^= 1
        path.write_bytes(bytes(data))

    result = timed(workloads.Plan([op, with_tampering(op, flip_last_byte)]), tmp_path)
    assert (result["attempted"], result["failed"], result["correct"]) == (2, 1, False)
    assert result["failures"][0]["op"] == 1
    assert result["failures"][0]["problems"] == ["cleaned.csv differs from the reference"]
    assert result["metrics"]["success_rate"]["value"] == 0.5


def test_nonfinite_shard_counts_as_failed(tmp_path):
    """Non-finite tokens crash ``clean`` at this commit (ROADMAP item 3).

    The shard is not part of any workload; this checks that such a failure is
    counted.  Once ingest treats the tokens as missing, the command succeeds.
    """
    data = inputs.nonfinite_shard(0)
    for token in inputs.NONFINITE_TOKENS:
        assert f",{token},".encode() in data
    path = tmp_path / "nonfinite.csv"
    path.write_bytes(data)
    op = workloads.Op(["clean", path, "--output", "{out}/cleaned.csv",
                       "--report", "{out}/cleaning_report.json"], data.count(b"\n") - 1,
                      lambda out: workloads.artifact_problems(out, workloads.CLEAN_ARTIFACTS))
    result = timed(workloads.Plan([op]), tmp_path)
    assert (result["attempted"], result["failed"], result["correct"]) == (1, 1, False)
    assert result["failures"][0]["problems"][0].startswith("exit code 1")
    assert result["metrics"]["success_rate"]["value"] == 0.0


def test_report_check_tolerances(tmp_path, reference):
    op = workloads.match_report(4, tmp_path, reference).ops[0]
    out = tmp_path / "out"
    in_process(op, out)
    assert op.check(out) == []

    def scaled(factor):
        copy = tmp_path / f"scaled{factor}"
        shutil.copytree(out, copy)
        with open(copy / "scalogram.csv", newline="") as fh:
            header, *rows = list(csv.reader(fh))
        with open(copy / "scalogram.csv", "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(header)
            writer.writerows([s, t, repr(float(a) * factor)] for s, t, a in rows)
        return op.check(copy)

    assert scaled(1 + 1e-12) == []
    assert scaled(1 + 1e-8) == ["scalogram amplitudes differ from the reference by more than 1e-10"]

    payload = json.loads((out / "randomness.json").read_text())
    payload["p_value"] += 0.001
    (out / "randomness.json").write_text(json.dumps(payload))
    with open(out / "momentum.csv", "a") as fh:
        fh.write("\n")
    assert op.check(out) == ["momentum.csv differs from the reference",
                             "randomness.json p-value or null differs from the reference"]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "dirty-clean",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
