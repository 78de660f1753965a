#!/usr/bin/env python3
"""Print the sha256 of every output of a fixed set of fixture commands.

Runs each command of COMMANDS under each config of CONFIGS against the
``matchflow`` package in the given ``src`` directory, with ``config.json``
and the judgment matrix ``matrix.csv`` in the working directory, and prints one
``sha256  config/command/file`` line per file written, plus one for the
command's stdout and exit code.  The bundled fixture has 239 data rows, within
one parse batch, so MULTI_COMMANDS also run, under the default config, on
``multi.csv`` (``multi_match_csv``): 1,644 simulated rows over several
batches, with a few damaged cells, listed as ``multi-match/command/file``.
Each config of CHOICE_CONFIGS runs on ``multi.csv`` too, under the commands
it names, listed as ``name/command/file``.
Last, BLOCKS_COMMANDS run under BLOCKS_CONFIG, whose 201 x 201 sweep grid
spans several of the sweep's model-call blocks (``sweep.SWEEP_BLOCK``) and
whose 80 x 80 trend surface (6,400 rows) spans several of the writer's blocks
(``ingest.PARSE_BLOCK``), listed as ``sweep-blocks/command/file``.
FIT_COMMAND runs on ``fit.csv`` (``fit_corpus_csv``), whose training split
spans three of the classifier's row blocks (``classifier.ROW_BLOCK``), listed
as ``fit-blocks/command/file``.
Two trees write the same bytes for these commands when their listings are
equal:

    python tools/digest_outputs.py old/src > old.txt
    python tools/digest_outputs.py src > new.txt
    diff old.txt new.txt
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

from make_fixture import COLUMNS, simulate_match

FIXTURE = Path(__file__).resolve().parents[1] / "data" / "fixture_matches.csv"
STAGES = ("ahp", "trend", "random", "sweep", "wavelet")
COMMANDS = ["report", "train-eval --seed 3", "momentum --plot",
            *(f"analyze {stage} --plot" for stage in STAGES), "clean"]
CONFIGS = {
    "default": {},
    "permutations-999": {"random": {"permutations": 999}},
    "2d-shifted": {"sweep": {"indicators": ["psychological_factor", "set_diff"]},
                   "ahp": {"method": "shifted_row_sum"}},
    "matrix-csv": {"ahp": {"matrix_csv": "matrix.csv"}},
    "inline-matrix-2d-ranges": {
        "ahp": {"matrix": [[1, 3, 5, 1, 2], [1 / 3, 1, 2, 0.5, 1], [0.2, 0.5, 1, 0.25, 0.5],
                           [1, 2, 4, 1, 3], [0.5, 1, 2, 1 / 3, 1]]},
        "sweep": {"indicators": ["psychological_factor", "score_diff"],
                  "ranges": [[0.2, 0.8], [-3, 3]], "steps": [0.05, 0.5]}},
    "non-default-analyses": {"unit": "game", "momentum": {"causal": True},
                             "wavelet": {"boundary": "zero"},
                             "trend": {"x": "score_diff", "y": "momentum", "grid": 7},
                             "sweep": {"degree": 1}, "train": {"l2_penalty": 0.01}},
    # a seed of three uint32 words and a null of several lane blocks (trend.LANE_BLOCK)
    "big-seed": {"seed": 2**64 + 5, "random": {"permutations": 2500}},
}
# choices that few commands read, run on multi.csv through those commands alone:
# name -> (config, commands).  The fixture's one training match gives no
# strictly ordered set-level labels, so unit "set" fails train on it.
CHOICE_CONFIGS = {
    "unit-set": ({"unit": "set"}, ["report", "train-eval --seed 3"]),
    "momentum-variance": ({"random": {"statistic": "momentum_variance"}},
                          ["report", "analyze random --plot"]),
    "lag1-autocorr": ({"random": {"statistic": "lag1_autocorr"}},
                      ["report", "analyze random --plot"]),
}
# a_ij = w_i / w_j: a consistent judgment matrix over the five default indicators
WEIGHTS = (8.0, 4.0, 4.0, 2.0, 1.0)
MATRIX_CSV = "".join(",".join(repr(wi / wj) for wj in WEIGHTS) + "\n" for wi in WEIGHTS)
MULTI_COMMANDS = ["clean", "train-eval --seed 3"]
BLOCKS_COMMANDS = ["analyze sweep", "analyze trend"]
BLOCKS_CONFIG = {"sweep": {"indicators": ["psychological_factor", "score_diff"],
                           "ranges": [[0.0, 1.0], [-5.0, 5.0]], "steps": [0.005, 0.05]},
                 "trend": {"grid": 80}}
FIT_COMMAND = "train-eval --seed 3"
FIT_MATCHES = 80
# cells that float() reads (around the number or in it) or refuses
DAMAGE = ("", "n/a", " 1.5 ", "1_0", "1e309", "-nan", "infinity", "AD")
DAMAGED_COLUMNS = ("p1_distance_run", "p2_distance_run", "speed_mph", "rally_count", "p1_score")


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def simulated_rows(label: str, count: int, seed: int) -> list:
    """The rows of count simulated matches, ids 2024-<label>-1700 on, match k drawn from seed + k."""
    rows = []
    for k in range(count):
        match = simulate_match(f"2024-{label}-{1700 + k}", (f"P{k}", f"Q{k}"), seed + k)
        rows.extend([str(row[c]) for c in COLUMNS] for row in match)
    return rows


def csv_text(rows) -> str:
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows([COLUMNS, *rows])
    return buf.getvalue()


def multi_match_csv() -> str:
    """Eleven simulated matches (ids 2024-sim-1700 to -1710, 1,644 rows) as CSV text.

    Every 41st row holds a DAMAGE token in one of DAMAGED_COLUMNS, so each
    token meets each column, spread over the whole file.
    """
    rows = simulated_rows("sim", 11, 31_000)
    for k, row in enumerate(rows[::41]):
        row[COLUMNS.index(DAMAGED_COLUMNS[k % len(DAMAGED_COLUMNS)])] = DAMAGE[k % len(DAMAGE)]
    return csv_text(rows)


def fit_corpus_csv() -> str:
    """FIT_MATCHES simulated matches (ids 2024-fit-1700 to -1779) as CSV text.

    11,783 rows.  train-eval holds out 2024-fit-1701 (145 rows) and trains on
    9,310 of the other 11,638, so its fit runs row blocks of 4,096, 4,096 and
    1,118 rows.
    """
    return csv_text(simulated_rows("fit", FIT_MATCHES, 41_000))


def run_listing(env, label, command, config, source, text=None):
    """Run one command on source in a fresh directory; print the digests of its stdout and files.

    Where text is given, it is first written to source inside the directory.
    """
    with tempfile.TemporaryDirectory() as work:  # relative paths keep stdout comparable
        Path(work, "config.json").write_text(json.dumps(config))
        Path(work, "matrix.csv").write_text(MATRIX_CSV)
        if text is not None:
            Path(work, source).write_text(text, encoding="utf-8")
        args = command.split()
        args += (["--output", "out/cleaned.csv", "--report", "out/cleaning_report.json"]
                 if args[0] == "clean" else ["--out-dir", "out"])
        os.mkdir(Path(work, "out"))
        run = subprocess.run([sys.executable, "-m", "matchflow.cli", *args, str(source),
                              "--config", "config.json"], cwd=work, env=env,
                             capture_output=True)
        print(f"{digest(run.stdout)}  {label}/{command}/stdout (exit {run.returncode})")
        for path in sorted(Path(work, "out").iterdir()):
            print(f"{digest(path.read_bytes())}  {label}/{command}/{path.name}")


def main(src: str) -> None:
    env = {**os.environ, "PYTHONPATH": str(Path(src).resolve())}
    for name, config in CONFIGS.items():
        for command in COMMANDS:
            run_listing(env, name, command, config, FIXTURE)
    multi = multi_match_csv()
    for command in MULTI_COMMANDS:
        run_listing(env, "multi-match", command, {}, "multi.csv", multi)
    for name, (config, commands) in CHOICE_CONFIGS.items():
        for command in commands:
            run_listing(env, name, command, config, "multi.csv", multi)
    for command in BLOCKS_COMMANDS:
        run_listing(env, "sweep-blocks", command, BLOCKS_CONFIG, FIXTURE)
    run_listing(env, "fit-blocks", FIT_COMMAND, {}, "fit.csv", fit_corpus_csv())


if __name__ == "__main__":
    main(sys.argv[1] if len(sys.argv) > 1 else "src")
