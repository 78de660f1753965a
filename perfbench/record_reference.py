#!/usr/bin/env python3
"""Record the reference outputs that ``run.py`` checks each operation against.

    python3 perfbench/record_reference.py

Runs ``clean`` on every shard of the shard pool and ``report`` on every match
of the report pool, then writes their digests to ``perfbench/reference.json``.
The file was recorded at the commit that added the benchmark.  Recording it
again at a later commit would make the check compare a commit with itself,
so do that only when the inputs change on purpose, and say so.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

import inputs
import workloads

WORK = inputs.ROOT / ".perfbench" / "record"


def _run(args, out: Path) -> None:
    out.mkdir(parents=True)
    with workloads.Spawner(WORK / "stderr.txt") as spawner:
        child = spawner.run(["-m", "matchflow.cli", *args])
    if child.code != 0:
        raise SystemExit(f"{' '.join(map(str, args))} failed: {child.stderr}")


def record_shards() -> dict:
    shards = {}
    for s in range(inputs.SHARD_POOL):
        data, damage = inputs.dirty_shard(s)
        path = WORK / f"shard{s:02d}.csv"
        path.write_bytes(data)
        out = WORK / f"clean{s:02d}"
        _run(["clean", path, "--output", out / "cleaned.csv",
              "--report", out / "cleaning_report.json"], out)
        problems = workloads.artifact_problems(out, workloads.CLEAN_ARTIFACTS)
        if problems:
            raise SystemExit(f"shard {s}: {problems}")
        shards[str(s)] = {"input_sha256": inputs.sha256(data), "damage": damage}
        shards[str(s)].update({name: workloads.file_sha256(out / name)
                               for name in workloads.CLEAN_ARTIFACTS})
        print(f"shard {s}: {damage}", flush=True)
    return shards


def record_report_pool() -> list:
    pool = inputs.report_pool()
    config = WORK / "config.json"
    config.write_text(json.dumps(inputs.REPORT_CONFIG))
    entries = []
    for first in range(0, len(pool), inputs.REPORT_MATCHES):
        group = pool[first:first + inputs.REPORT_MATCHES]
        matches = {k: inputs.match_rows(k) for k in group}
        path = WORK / f"matches{first:02d}.csv"
        path.write_bytes(inputs.to_csv([row for rows in matches.values() for row in rows]))
        for k, rows in matches.items():
            out = WORK / f"report{k}"
            _run(["report", path, "--match", inputs.match_id(k), "--config", config,
                  "--out-dir", out], out)
            problems = (workloads.artifact_problems(out, workloads.REPORT_ARTIFACTS)
                        or workloads.classifier_problems(out))
            if problems:
                raise SystemExit(f"match {k}: {problems}")
            amplitude = workloads.read_amplitudes(out)
            entries.append({
                "match": k,
                "points": len(rows),
                "input_sha256": inputs.sha256(inputs.to_csv(rows)),
                "momentum_csv": workloads.file_sha256(out / "momentum.csv"),
                "randomness": workloads.randomness_digest(out),
                "scalogram_rows": int(amplitude.size),
                "scalogram_projections": workloads.scalogram_projections(amplitude),
            })
            print(f"match {k}: {len(rows)} points", flush=True)
    return entries


def main() -> int:
    sys.path.insert(0, str(inputs.ROOT / "src"))
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir(parents=True)
    try:
        reference = {"shards": record_shards(), "report_pool": record_report_pool()}
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    with open(workloads.REFERENCE_PATH, "w") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
