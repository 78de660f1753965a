#!/usr/bin/env python3
"""Benchmark of the ``matchflow`` CLI on three seeded workloads.

    python3 perfbench/run.py --workload corpus-train --seed 1 --seconds 25 --trace 0

``--trace 0`` runs the workload's operations (one CLI command each) as child
processes, one after another and over again, until each has run and
``--seconds`` have passed: a closed loop with one client.
It prints the end-to-end metrics.  ``--trace 1`` runs the workload's commands
once untraced and once traced through ``matchflow.cli.main`` in this process
and prints the per-layer metrics.  ``--workload all`` runs every workload in
turn.  The last line of standard output is the result as one JSON object;
the line before it describes the inputs.  See README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SETUP_PROBES_FIRST = 3
END_TO_END_UNITS = {
    "points_per_s": "1/s",
    "op_p50_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "fit_loss": "nats",
    "success_rate": "frac",
}


def _final_loss(out: Path):
    model = out / "model.json"
    return json.loads(model.read_text())["training"]["final_loss"] if model.is_file() else None


def timed_run(plan, work: Path, seconds: float, spawner) -> dict:
    def run_op(op, out):
        out.mkdir()
        child = spawner.run(["-m", "matchflow.cli", *op.argv(out)])
        problems = op.check(out) if child.code == 0 else [f"exit code {child.code}: {child.stderr}"]
        loss = _final_loss(out) if not problems else None
        shutil.rmtree(out)
        return child, problems, loss

    def setup_probe():
        return spawner.run(["-c", "import matchflow.cli"]).wall_s

    setup_probe()  # compile bytecode once; users do not pay this on every run
    # Set-up is probed before the first operation and again after each one, so
    # the median spans the same stretch of machine time as the operations.
    setup = [setup_probe() for _ in range(SETUP_PROBES_FIRST)]
    walls, rates, rss, failures = [], [], [], []
    losses = {}  # one per distinct operation, so the mean does not depend on the run length
    start = time.perf_counter()
    i = 0
    while i < len(plan.ops) or time.perf_counter() - start < seconds:  # every op at least once
        op = plan.ops[i % len(plan.ops)]
        child, problems, loss = run_op(op, work / f"op{i}")
        walls.append(child.wall_s)
        rss.append(child.peak_rss_mb)
        rates.append(0.0 if problems else op.rows / child.wall_s)
        if problems:
            failures.append({"op": i, "args": [str(a) for a in op.args], "problems": problems})
        if loss is not None:
            losses[i % len(plan.ops)] = loss
        setup.append(setup_probe())
        i += 1
    attempted = i

    if plan.fit:  # untimed: fit_loss for a workload whose commands do not train
        _, problems, loss = run_op(plan.fit, work / "fit")
        attempted += 1
        if problems:
            failures.append({"op": "fit", "args": [str(a) for a in plan.fit.args],
                             "problems": problems})
        else:
            losses["fit"] = loss

    values = {
        "points_per_s": statistics.median(rates),
        "op_p50_s": statistics.median(walls),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": max(rss),
        "fit_loss": statistics.fmean(losses.values()) if losses else float("inf"),
        "success_rate": 1.0 - len(failures) / attempted,
    }
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()},
        "failures": failures,
    }


def _in_process(main, op, out: Path) -> list:
    sink = io.StringIO()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = main(op.argv(out))
    except Exception as exc:  # a crash is one failed operation, not the end of the run
        return [f"raised {type(exc).__name__}: {exc}"]
    return op.check(out) if code == 0 else [f"exit code {code}: {sink.getvalue().strip()[-200:]}"]


def traced_run(plan, work: Path, trace_path: Path) -> dict:
    from matchflow import cli
    from tracer import COUNTS, LAYERS, Tracer

    failures = []

    def one_pass(tag, tracer=None):
        start = time.perf_counter()
        size = 0
        for i, op in enumerate(plan.ops):
            out = work / f"{tag}{i}"
            out.mkdir()
            if tracer:
                tracer.op = i
            problems = _in_process(cli.main, op, out)
            if problems:
                failures.append({"op": f"{tag}{i}", "problems": problems})
            size += sum(p.stat().st_size for p in out.rglob("*") if p.is_file())
            shutil.rmtree(out)
        return time.perf_counter() - start, size

    untraced_s, _ = one_pass("untraced")
    tracer = Tracer()
    tracer.install()
    try:
        traced_s, bytes_out = one_pass("traced", tracer)
    finally:
        tracer.uninstall()
    trace_path.parent.mkdir(parents=True, exist_ok=True)
    with open(trace_path, "w") as fh:
        for span in tracer.spans:
            fh.write(json.dumps(dict(zip(("name", "start", "end", "parent", "op"), span))) + "\n")

    # Layer times are reported as shares of the traced wall time: a layer that
    # a workload never enters reads 0, and a time must never read the same on
    # every run.  Seconds are share times trace.root_s.
    layers = tracer.layer_metrics()
    root = tracer.root_total()
    metrics = {f"{name}.share": {"value": layers[name] / root, "unit": "frac"} for name in LAYERS}
    metrics.update({name: {"value": layers[name], "unit": "count"} for name in COUNTS})
    metrics["cli.bytes_out"] = {"value": bytes_out, "unit": "bytes"}
    metrics["trace.overhead_frac"] = {"value": traced_s / untraced_s - 1.0, "unit": "frac"}
    metrics["trace.root_s"] = {"value": root, "unit": "s"}
    return {
        "correct": not failures,
        "attempted": 2 * len(plan.ops),
        "failed": len(failures),
        "metrics": metrics,
        "failures": failures,
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    import inputs
    import workloads

    work = ROOT / ".perfbench" / f"work-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)

    def make_plan():
        plan = workloads.WORKLOADS[name](seed, work, workloads.load_reference())
        print(json.dumps({"workload": name, "seed": seed, "inputs": inputs.describe(plan.files)}))
        return plan

    try:
        if trace:
            trace_path = ROOT / ".perfbench" / f"trace-{name}-seed{seed}.jsonl"
            return traced_run(make_plan(), work, trace_path)
        with workloads.Spawner(work / "stderr.txt") as spawner:
            return timed_run(make_plan(), work, seconds, spawner)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["corpus-train", "match-report", "dirty-clean", "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    for needed in ("src/matchflow/cli.py", "tools/make_fixture.py"):
        if not (ROOT / needed).is_file():
            print(f"error: {needed} not found under {ROOT}; run from a matchflow checkout",
                  file=sys.stderr)
            return 2
    sys.path.insert(0, str(ROOT / "src"))

    names = ["corpus-train", "match-report", "dirty-clean"] if args.workload == "all" else [args.workload]
    for name in names:
        result = run_workload(name, args.seed, args.seconds, bool(args.trace))
        failures = result.pop("failures")
        for failure in failures:
            print(f"FAILED {json.dumps(failure)}", file=sys.stderr)
        if args.workload == "all":
            for metric, m in result["metrics"].items():
                print(f"  {name:13s} {metric:22s} {m['value']:.6g} {m['unit']}")
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
