#!/usr/bin/env python3
"""Print the sha256 of every output of a fixed set of fixture commands.

Runs each command of COMMANDS under each config of CONFIGS against the
``matchflow`` package in the given ``src`` directory and prints one
``sha256  config/command/file`` line per file written, plus one for the
command's stdout and exit code.  Two trees write the same bytes for these
commands when their listings are equal:

    python tools/digest_outputs.py old/src > old.txt
    python tools/digest_outputs.py src > new.txt
    diff old.txt new.txt
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

FIXTURE = Path(__file__).resolve().parents[1] / "data" / "fixture_matches.csv"
STAGES = ("ahp", "trend", "random", "sweep", "wavelet")
COMMANDS = ["report", "train-eval --seed 3", "momentum --plot",
            *(f"analyze {stage} --plot" for stage in STAGES), "clean"]
CONFIGS = {
    "default": {},
    "permutations-999": {"random": {"permutations": 999}},
    "stratified-2d-shifted": {"random": {"stratify_by_server": True},
                              "sweep": {"indicators": ["psychological_factor", "set_diff"]},
                              "ahp": {"method": "shifted_row_sum"}},
}


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def main(src: str) -> None:
    env = {**os.environ, "PYTHONPATH": str(Path(src).resolve())}
    for name, config in CONFIGS.items():
        for command in COMMANDS:
            with tempfile.TemporaryDirectory() as work:  # relative paths keep stdout comparable
                Path(work, "config.json").write_text(json.dumps(config))
                args = command.split()
                args += (["--output", "out/cleaned.csv", "--report", "out/cleaning_report.json"]
                         if args[0] == "clean" else ["--out-dir", "out"])
                os.mkdir(Path(work, "out"))
                run = subprocess.run([sys.executable, "-m", "matchflow.cli", *args, str(FIXTURE),
                                      "--config", "config.json"], cwd=work, env=env,
                                     capture_output=True)
                label = f"{name}/{command}"
                print(f"{digest(run.stdout)}  {label}/stdout (exit {run.returncode})")
                for path in sorted(Path(work, "out").iterdir()):
                    print(f"{digest(path.read_bytes())}  {label}/{path.name}")


if __name__ == "__main__":
    main(sys.argv[1] if len(sys.argv) > 1 else "src")
