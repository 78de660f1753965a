#!/usr/bin/env python3
"""Mutate the bundled fixture and check that ``report`` keeps its invariants.

A case is a list of mutations of the fixture's rows, applied in order:

- ``("set", match_id, row, column, token)``: one cell, the match's row-th
  row (1-based);
- ``("column", match_id, column, token)``: one column of every row of a match;
- ``("drop", i)``, ``("dup", i)``, ``("swap", i, j)``: rows of the whole file,
  by index.

Tokens are magnitudes a float column overflows on, a value out of place in
an integer column, non-numbers and a blank (TOKENS).  Each case runs
``report --seed 1`` in process, with 99 permutations, into a fresh
directory, and holds when:

- no exception and no warning leaves ``cli.main``;
- stderr holds nothing, or only main's one error line for a nonzero exit;
- every JSON artifact parses with non-finite constants rejected;
- no stage's reason, and no stderr line, mentions divergence, SVD or a
  LAPACK routine;
- every CSV cell that parses as a float is finite, except the first
  ``threshold`` of each ``roc_level*.csv``, which is infinite by design (it
  lies above every score);
- every SVG parses as XML.

REPRODUCERS holds the cases that once broke an invariant; ``random_case(seed)``
draws a case from the grammar.  Run the reproducers and a campaign of seeded
cases, which prints each case that breaks an invariant and exits 1 if any did:

    python tools/fuzz.py --cases 1000 --start 40

It imports matchflow from PYTHONPATH when that names a tree, else from src.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import io
import json
import math
import os
import random
import re
import sys
import tempfile
import warnings
from pathlib import Path
from xml.etree import ElementTree

ROOT = Path(__file__).resolve().parents[1]
FIXTURE = ROOT / "data" / "fixture_matches.csv"
TOKENS = ("1e160", "1.7e308", "-1.7e308", "2.5", "nan", "AD", "", "9223372036854775807", "-1",
          "x")
CONFIG = {"random": {"permutations": 99}}
TRAINING, SELECTED = "2023-fixture-1301", "2023-fixture-1701"
# a stage fails naming the column at fault, not the numerics it broke
NUMERIC_FAULT = re.compile(r"divergence|SVD|LAPACK|DLASCL|DGELSD|on entry to", re.IGNORECASE)
ERROR_LINE = re.compile(r"(config|input|analysis) error: [^\n]*\n")

REPRODUCERS = {
    # the training match's std overflows
    "train-std-1e160": [("set", TRAINING, 10, "p2_distance_run", "1e160")],
    # the selected match: the response model's std
    "sweep-std-1e160": [("set", SELECTED, 10, "p2_distance_run", "1e160")],
    # the mean overflows as well
    "train-mean-1.7e308": [("set", TRAINING, 1, "p2_distance_run", "1.7e308")],
    "sweep-mean-1.7e308": [("set", SELECTED, 1, "p2_distance_run", "1.7e308")],
    # the AHP min-max span overflows
    "ahp-span": [("set", SELECTED, 10, "p1_distance_run", "-1.7e308"),
                 *(("set", SELECTED, row, "p1_distance_run", "1.7e308") for row in (20, 30))],
    # 122 rows: the sweep's baseline median sums the middle pair
    "sweep-median": [("set", SELECTED, 24, "p1_distance_run", "-1.7e308"),
                     ("set", SELECTED, 7, "point_no", "")],
    # markup in a plot title; the default holdout still selects the match by its suffix
    "svg-title": [("column", SELECTED, "match_id", "R&D<fixture>-1701")],
    # code points that XML cannot hold, even escaped, in a plot title
    "svg-control": [("column", SELECTED, "match_id", "R\x0bD\ufffe-1701")],
}


@functools.cache
def fixture_rows() -> tuple:
    with open(FIXTURE, newline="") as fh:
        return tuple(csv.DictReader(fh))


def random_case(seed) -> list:
    """One to three mutations: a few cells, one column of one match, or a row operation."""
    rng = random.Random(seed)
    rows = fixture_rows()
    columns = list(rows[0])
    sizes = {}
    for row in rows:
        sizes[row["match_id"]] = sizes.get(row["match_id"], 0) + 1
    matches = sorted(sizes)
    case = []
    for _ in range(rng.randint(1, 3)):
        kind = rng.choice(("set", "column", "rows"))
        if kind == "set":
            for _ in range(rng.randint(1, 4)):
                match = rng.choice(matches)
                case.append(("set", match, rng.randint(1, sizes[match]), rng.choice(columns),
                             rng.choice(TOKENS)))
        elif kind == "column":
            case.append(("column", rng.choice(matches), rng.choice(columns), rng.choice(TOKENS)))
        else:
            op = rng.choice(("drop", "dup", "swap"))
            indices = [rng.randrange(len(rows)) for _ in range(2 if op == "swap" else 1)]
            case.append((op, *indices))
    return case


def mutated(case) -> list:
    """The fixture's rows, as dicts, with the case's mutations applied in order."""
    rows = [dict(row) for row in fixture_rows()]
    for op, *args in case:
        if op == "set":
            match, row, column, token = args
            of_match = [r for r in rows if r["match_id"] == match]
            if of_match:
                of_match[(row - 1) % len(of_match)][column] = token
        elif op == "column":
            match, column, token = args
            for r in rows:
                if r["match_id"] == match:
                    r[column] = token
        else:
            i, *rest = (index % len(rows) for index in args)
            if op == "drop":
                del rows[i]
            elif op == "dup":
                rows.insert(i, dict(rows[i]))
            else:
                rows[i], rows[rest[0]] = rows[rest[0]], rows[i]
    return rows


@contextlib.contextmanager
def captured_stderr():
    """Collect what is written to stderr, by Python or by C code on file descriptor 2."""
    text = io.StringIO()
    with tempfile.TemporaryFile() as raw:
        sys.stderr.flush()
        saved = os.dup(2)
        os.dup2(raw.fileno(), 2)
        try:
            with contextlib.redirect_stderr(text):
                yield text
        finally:
            sys.stderr.flush()
            os.dup2(saved, 2)
            os.close(saved)
            raw.seek(0)
            text.write(raw.read().decode("utf-8", "replace"))


def _reject_constant(name):
    raise ValueError(f"non-finite constant {name}")


def check_outputs(out) -> list:
    """The invariants the files in out break, one line each."""
    broken = []
    for path in sorted(out.glob("*.json")):
        try:
            payload = json.loads(path.read_text(), parse_constant=_reject_constant)
        except ValueError as exc:
            broken.append(f"{path.name}: {exc}")
            continue
        if path.name == "report.json":
            broken += [f"stage {name} fails on numerics: {status['reason']}"
                       for name, status in payload["stages"].items()
                       if NUMERIC_FAULT.search(status.get("reason", ""))]
    for path in sorted(out.glob("*.csv")):
        # the first ROC threshold lies above every score
        exempt = ("threshold", 1) if path.name.startswith("roc_level") else None
        bad = {}  # column -> (first row, count) of its non-finite cells
        with open(path, newline="") as fh:
            rows = csv.reader(fh)
            header = next(rows)
            for number, row in enumerate(rows, 1):
                for column, cell in zip(header, row):
                    try:
                        finite = math.isfinite(float(cell))
                    except ValueError:
                        continue
                    if not finite and (column, number) != exempt:
                        first, count = bad.get(column, (number, 0))
                        bad[column] = (first, count + 1)
        broken += [f"{path.name} {column}: {count} non-finite cells from row {first}"
                   for column, (first, count) in bad.items()]
    for path in sorted(out.glob("*.svg")):
        try:
            ElementTree.parse(path)
        except ElementTree.ParseError as exc:
            broken.append(f"{path.name}: {exc}")
    return broken


def run_case(case) -> list:
    """Run report on the mutated fixture; the invariants it breaks, one line each."""
    from matchflow import cli  # here, so that main has put src on the path first

    with tempfile.TemporaryDirectory() as work:
        work = Path(work)
        with open(work / "input.csv", "w", encoding="utf-8", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(fixture_rows()[0]))
            writer.writeheader()
            writer.writerows(mutated(case))
        (work / "config.json").write_text(json.dumps(CONFIG))
        out = work / "out"
        argv = ["report", str(work / "input.csv"), "--seed", "1",
                "--config", str(work / "config.json"), "--out-dir", str(out)]
        broken = []
        with captured_stderr() as err, warnings.catch_warnings(record=True) as caught, \
                contextlib.redirect_stdout(io.StringIO()):
            warnings.simplefilter("always")
            try:
                code = cli.main(argv)
            except Exception as exc:  # any escape breaks the invariant
                code = None
                broken.append(f"{type(exc).__name__} left cli.main: {exc}")
        broken += [f"warning: {w.category.__name__}: {w.message}" for w in caught]
        stderr = err.getvalue()
        if stderr and not (code and ERROR_LINE.fullmatch(stderr)):
            broken.append(f"stderr (exit {code}): {stderr!r}")
        elif NUMERIC_FAULT.search(stderr):
            broken.append(f"error names numerics: {stderr!r}")
        if out.is_dir():
            broken += check_outputs(out)
        return broken


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--cases", type=int, default=100, help="number of seeded cases")
    parser.add_argument("--start", type=int, default=0, help="first seed")
    args = parser.parse_args(argv)
    cases = {**REPRODUCERS, **{f"seed {seed}": random_case(seed)
                               for seed in range(args.start, args.start + args.cases)}}
    failed = 0
    for name, case in cases.items():
        broken = run_case(case)
        if broken:
            failed += 1
            print(f"{name}: {case}")
            for line in broken:
                print(f"    {line}")
    print(f"{failed} of {len(cases)} cases broke an invariant")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.path.append(str(ROOT / "src"))  # after PYTHONPATH, which may name another tree
    sys.exit(main())
