"""The three workloads: their inputs, their CLI commands and the output checks.

A workload's plan is a list of operations; one operation is one ``matchflow``
command.  ``Op.check`` lists what is wrong with the files the command wrote;
an empty list means the operation passed.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import inputs

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"
SCALOGRAM_RTOL = 1e-10  # acceptance criterion 08's tolerance
SCALOGRAM_PROJECTIONS = 4
REPORT_ARTIFACTS = (
    "ahp.json", "ahp_ranking.csv", "cleaning_report.json", "holdout_probabilities.csv",
    "metrics.json", "model.json", "momentum.csv", "momentum.svg", "momentum_swings.json",
    "randomness.json", "report.json", "roc_level0.csv", "roc_level1.csv", "roc_level2.csv",
    "roc_level3.csv", "scalogram.csv", "scalogram.json", "scalogram.svg", "serve_stats.json",
    "sweep.csv", "sweep.json", "trend.json", "trend_surface.csv",
)
TRAIN_ARTIFACTS = ("holdout_probabilities.csv", "metrics.json", "model.json", "roc_level0.csv",
                   "roc_level1.csv", "roc_level2.csv", "roc_level3.csv", "serve_stats.json")
CLEAN_ARTIFACTS = ("cleaned.csv", "cleaning_report.json")


@dataclass
class Op:
    args: list  # CLI arguments; "{out}" stands for the operation's output directory
    rows: int  # input data rows
    check: Callable[[Path], list]

    def argv(self, out: Path) -> list:
        return [str(a).replace("{out}", str(out)) for a in self.args]


@dataclass
class Plan:
    ops: list
    files: list = field(default_factory=list)
    # an untimed train-eval that gives fit_loss on a workload whose ops do not train
    fit: Op | None = None


def load_reference() -> dict:
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)


def file_sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


# ---------------------------------------------------------------- commands

@dataclass
class ChildResult:
    code: int
    wall_s: float  # from spawn to exit
    peak_rss_mb: float
    stderr: str  # last line


def child_env() -> dict:
    src = str(inputs.ROOT / "src")
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))


class Spawner:
    """Runs ``python3 <args>`` commands through ``spawner.py``, one at a time."""

    def __init__(self, log: Path):
        self.log = log
        self.proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).with_name("spawner.py"))],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, env=child_env())

    def run(self, args) -> ChildResult:
        request = {"argv": [sys.executable, *map(str, args)], "log": str(self.log)}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise RuntimeError("the command spawner exited")
        reply = json.loads(reply)
        tail = self.log.read_text(errors="replace").strip().splitlines()[-1:]
        return ChildResult(reply["code"], reply["wall_s"], reply["peak_rss_mb"], "".join(tail))

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.proc.stdin.close()  # the spawner exits after its current command
        self.proc.stdout.close()
        try:
            self.proc.wait(timeout=180)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()


# ---------------------------------------------------------------- checks

def artifact_problems(out: Path, names) -> list:
    """Missing artifacts, and JSON artifacts that fail their matchflow schema."""
    import jsonschema
    from matchflow.schemas import SCHEMA_NAMES, load_schema

    problems = [f"missing {name}" for name in names if not (out / name).is_file()]
    for name in names:
        stem = Path(name).stem
        if name.endswith(".json") and stem in SCHEMA_NAMES and (out / name).is_file():
            try:
                jsonschema.validate(json.loads((out / name).read_text()), load_schema(stem))
            except (ValueError, jsonschema.ValidationError) as exc:
                problems.append(f"{name} fails its schema: {str(exc).splitlines()[0]}")
    return problems


def _read_csv(path: Path):
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        return next(reader), list(reader)


def classifier_problems(out: Path) -> list:
    """Classifier outputs may change with the solver: check only that they are valid."""
    problems = []
    loss = json.loads((out / "model.json").read_text())["training"]["final_loss"]
    if not math.isfinite(loss):
        problems.append(f"model.json final_loss is {loss}")
    header, rows = _read_csv(out / "holdout_probabilities.csv")
    cols = [i for i, name in enumerate(header) if name.startswith("proba_")]
    proba = np.array([[float(r[i]) for i in cols] for r in rows])
    if proba.size == 0 or not (np.all(proba >= 0) and np.all(proba <= 1)
                               and np.allclose(proba.sum(axis=1), 1.0, atol=1e-9)):
        problems.append("holdout_probabilities.csv holds invalid probabilities")
    for level in range(4):
        _, rows = _read_csv(out / f"roc_level{level}.csv")
        fpr, tpr = (np.array([float(r[i]) for r in rows]) for i in (1, 2))
        auc = float(np.sum(np.diff(fpr) * (tpr[1:] + tpr[:-1]) / 2))
        if not (np.all((fpr >= 0) & (fpr <= 1) & (tpr >= 0) & (tpr <= 1)) and 0 <= auc <= 1):
            problems.append(f"roc_level{level}.csv is not a valid ROC curve (AUC {auc})")
    return problems


def scalogram_projections(amplitude: np.ndarray) -> list:
    """Weighted sums of the amplitudes with fixed positive weights.

    Amplitudes are non-negative, so amplitudes within a relative tolerance of
    the reference give projections within the same relative tolerance.
    """
    weights = np.random.default_rng(8).uniform(0.5, 1.5, (SCALOGRAM_PROJECTIONS, amplitude.size))
    return (weights @ amplitude).tolist()


def read_amplitudes(out: Path) -> np.ndarray:
    _, rows = _read_csv(out / "scalogram.csv")
    return np.array([float(r[2]) for r in rows])


def randomness_digest(out: Path) -> str:
    payload = json.loads((out / "randomness.json").read_text())
    keep = {"p_value": payload["p_value"], "null": payload["null"]}
    return hashlib.sha256(json.dumps(keep, sort_keys=True).encode()).hexdigest()


def report_problems(out: Path, ref: dict) -> list:
    problems = artifact_problems(out, REPORT_ARTIFACTS)
    if problems:
        return problems
    problems += classifier_problems(out)
    if file_sha256(out / "momentum.csv") != ref["momentum_csv"]:
        problems.append("momentum.csv differs from the reference")
    if randomness_digest(out) != ref["randomness"]:
        problems.append("randomness.json p-value or null differs from the reference")
    amplitude = read_amplitudes(out)
    expected = np.array(ref["scalogram_projections"])
    if amplitude.size != ref["scalogram_rows"] or not np.all(
        np.abs(np.array(scalogram_projections(amplitude)) - expected) <= SCALOGRAM_RTOL * expected
    ):
        problems.append("scalogram amplitudes differ from the reference by more than 1e-10")
    return problems


def train_problems(out: Path) -> list:
    return artifact_problems(out, TRAIN_ARTIFACTS) or classifier_problems(out)


def clean_problems(out: Path, ref: dict) -> list:
    problems = artifact_problems(out, CLEAN_ARTIFACTS)
    if problems:
        return problems
    for name in CLEAN_ARTIFACTS:
        if file_sha256(out / name) != ref[name]:
            problems.append(f"{name} differs from the reference")
    return problems


# ---------------------------------------------------------------- plans

def _write(work: Path, files) -> None:
    for f in files:
        (work / f.name).write_bytes(f.data)


def _check_input(f: inputs.InputFile, expected: str) -> None:
    got = inputs.sha256(f.data)
    if got != expected:
        raise RuntimeError(
            f"{f.name}: generated input {got[:12]} differs from the recorded {expected[:12]}; "
            "the generator changed, so the recorded references no longer apply"
        )


def corpus_train(seed: int, work: Path, reference: dict) -> Plan:
    """train-eval on a 300-match corpus: ingest and training do the work."""
    shards = inputs.choose(seed, inputs.SHARD_POOL, inputs.SHARDS_PER_RUN, stream=0)
    rows = [row for s in shards for row in inputs.shard_rows(s)]
    corpus = inputs.InputFile("corpus.csv", inputs.to_csv(rows),
                              len(shards) * inputs.SHARD_MATCHES, len(rows))
    _write(work, [corpus])
    holdout = inputs.match_id(shards[0] * inputs.SHARD_MATCHES)
    op = Op(["train-eval", work / corpus.name, "--holdout", holdout, "--out-dir", "{out}"],
            corpus.points, train_problems)
    return Plan([op], [corpus])


def match_report(seed: int, work: Path, reference: dict) -> Plan:
    """report for each match of an 8-match file: the analyses do the work."""
    pool = reference["report_pool"]
    chosen = [pool[i] for i in inputs.choose(seed, len(pool), inputs.REPORT_MATCHES, stream=2)]
    rows = []
    for entry in chosen:
        match = inputs.match_rows(entry["match"])
        _check_input(inputs.InputFile(inputs.match_id(entry["match"]), inputs.to_csv(match), 1,
                                      len(match)), entry["input_sha256"])
        rows.extend(match)
    data = inputs.InputFile("matches.csv", inputs.to_csv(rows), len(chosen), len(rows))
    config = inputs.InputFile("config.json", json.dumps(inputs.REPORT_CONFIG).encode(), 0, 0)
    _write(work, [data, config])
    ops = [
        Op(["report", work / data.name, "--match", inputs.match_id(entry["match"]),
            "--config", work / config.name, "--out-dir", "{out}"],
           data.points, lambda out, ref=entry: report_problems(out, ref))
        for entry in chosen
    ]
    return Plan(ops, [data, config])


def dirty_clean(seed: int, work: Path, reference: dict) -> Plan:
    """clean on damaged shards: ingest repairs and the CSV writer do the work."""
    shards = inputs.choose(seed, inputs.SHARD_POOL, inputs.SHARDS_PER_RUN, stream=1)
    files, ops = [], []
    for s in shards:
        data, _ = inputs.dirty_shard(s)
        f = inputs.InputFile(f"shard{s:02d}.csv", data, inputs.SHARD_MATCHES,
                             data.count(b"\n") - 1)
        ref = reference["shards"][str(s)]
        _check_input(f, ref["input_sha256"])
        files.append(f)
        ops.append(Op(["clean", work / f.name, "--output", "{out}/cleaned.csv",
                       "--report", "{out}/cleaning_report.json"],
                      f.points, lambda out, ref=ref: clean_problems(out, ref)))
    _write(work, files)
    holdout = inputs.match_id(shards[0] * inputs.SHARD_MATCHES)
    fit = Op(["train-eval", work / files[0].name, "--holdout", holdout, "--out-dir", "{out}"],
             files[0].points, train_problems)
    return Plan(ops, files, fit)


WORKLOADS = {
    "corpus-train": corpus_train,
    "match-report": match_report,
    "dirty-clean": dirty_clean,
}
