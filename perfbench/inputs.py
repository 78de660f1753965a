"""Seeded inputs for the three workloads.

Every match comes from ``tools/make_fixture.simulate_match``; match ``k`` is
``simulate_match(match_id(k), players(k), MATCH_SEED_BASE + k)``, so a match
index alone fixes its rows.  Two fixed pools are built from match indices:

* the shard pool: shard ``s`` holds the 50 matches ``50*s .. 50*s+49``.
  ``corpus-train`` joins six shards, clean, into one 300-match corpus;
  ``dirty-clean`` writes six shards with seeded damage.
* the report pool: the first 64 matches from index ``REPORT_BASE`` on whose
  length lies in ``REPORT_POINTS``.  ``match-report`` writes eight of them.

The benchmark seed only chooses pool members.  Outputs that an exact
optimisation must keep are recorded per pool member in ``reference.json``
(see ``record_reference.py``), so they can be checked for any seed.

Damage classes and rates (``inject_damage``), drawn per shard from the
generator seeded with ``[DAMAGE_TAG, shard]``:

=================  =====================================================
``blank``          each numeric cell is emptied with probability 0.01
``garbage``        each numeric cell becomes one of ``GARBAGE_TOKENS``
                   with probability 0.005
``bad_category``   with probability 0.01 a row gets one invalid categorical:
                   server 3, point_victor 0, serve_no 9, a flag of 2 or
                   shot type ``Z``
``no_match_id``    with probability 0.002 a row loses its match_id
``no_point_no``    with probability 0.002 a row's point_no becomes blank or
                   a garbage token
=================  =====================================================

Rows that lose their identity are rejected by ``clean``; every other class
is repaired and counted in the cleaning report.  ``nonfinite_shard`` adds
``NONFINITE_TOKENS`` on top of that damage.
"""

from __future__ import annotations

import csv
import hashlib
import io
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "tools"))
from make_fixture import COLUMNS, simulate_match  # noqa: E402

MATCH_SEED_BASE = 740_000
SHARD_MATCHES = 50
SHARD_POOL = 24
SHARDS_PER_RUN = 6
REPORT_BASE = 100_000
REPORT_POOL = 64
REPORT_POINTS = (200, 220)
REPORT_MATCHES = 8
REPORT_CONFIG = {"random": {"permutations": 999}}

DAMAGE_TAG = 7_117
DAMAGE_RATES = {
    "blank": 0.01,
    "garbage": 0.005,
    "bad_category": 0.01,
    "no_match_id": 0.002,
    "no_point_no": 0.002,
}
GARBAGE_TOKENS = ("n/a", "?", "--", "null", "x")
NONFINITE_TOKENS = ("inf", "-inf", "1e309", "nan")
NONFINITE_RATE = 0.002
IDENTITY_COLUMNS = ("match_id", "point_no")
TEXT_COLUMNS = ("player1", "player2", "winner_shot_type")
NUMERIC_COLUMNS = tuple(c for c in COLUMNS if c not in IDENTITY_COLUMNS + TEXT_COLUMNS)
BAD_CATEGORIES = (
    ("server", "3"),
    ("point_victor", "0"),
    ("serve_no", "9"),
    ("p1_ace", "2"),
    ("p2_unf_err", "2"),
    ("winner_shot_type", "Z"),
)


def match_id(k: int) -> str:
    return f"bench-{k:06d}"


def match_rows(k: int) -> list[list[str]]:
    """Rows of match ``k`` as CSV cells, in ``COLUMNS`` order."""
    players = (f"Player {2 * k}", f"Player {2 * k + 1}")
    rows = simulate_match(match_id(k), players, MATCH_SEED_BASE + k)
    return [[str(row[c]) for c in COLUMNS] for row in rows]


def to_csv(rows) -> bytes:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(COLUMNS)
    writer.writerows(rows)
    return buf.getvalue().encode()


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def shard_rows(shard: int) -> list[list[str]]:
    rows = []
    for k in range(shard * SHARD_MATCHES, (shard + 1) * SHARD_MATCHES):
        rows.extend(match_rows(k))
    return rows


def inject_damage(rows, seed: int) -> dict:
    """Damage ``rows`` in place as the module docstring lists; return counts per class."""
    rng = np.random.default_rng([DAMAGE_TAG, seed])
    col = {name: i for i, name in enumerate(COLUMNS)}
    numeric = [col[c] for c in NUMERIC_COLUMNS]
    n = len(rows)
    blank = rng.random((n, len(numeric))) < DAMAGE_RATES["blank"]
    garbage = rng.random((n, len(numeric))) < DAMAGE_RATES["garbage"]
    garbage_token = rng.integers(len(GARBAGE_TOKENS), size=(n, len(numeric)))
    bad_row = rng.random(n) < DAMAGE_RATES["bad_category"]
    bad_kind = rng.integers(len(BAD_CATEGORIES), size=n)
    no_match = rng.random(n) < DAMAGE_RATES["no_match_id"]
    no_point = rng.random(n) < DAMAGE_RATES["no_point_no"]
    point_token = rng.integers(len(GARBAGE_TOKENS) + 1, size=n)

    counts = dict.fromkeys(DAMAGE_RATES, 0)
    for i, row in enumerate(rows):
        for j in np.flatnonzero(blank[i]):
            row[numeric[j]] = ""
            counts["blank"] += 1
        for j in np.flatnonzero(garbage[i]):
            row[numeric[j]] = GARBAGE_TOKENS[garbage_token[i, j]]
            counts["garbage"] += 1
        if bad_row[i]:
            name, token = BAD_CATEGORIES[bad_kind[i]]
            row[col[name]] = token
            counts["bad_category"] += 1
        if no_match[i]:
            row[col["match_id"]] = ""
            counts["no_match_id"] += 1
        if no_point[i]:
            row[col["point_no"]] = (("",) + GARBAGE_TOKENS)[point_token[i]]
            counts["no_point_no"] += 1
    return counts


def dirty_shard(shard: int) -> tuple[bytes, dict]:
    rows = shard_rows(shard)
    counts = inject_damage(rows, shard)
    return to_csv(rows), counts


def nonfinite_shard(shard: int) -> bytes:
    """A dirty shard that also carries non-finite numeric tokens."""
    rows = shard_rows(shard)
    inject_damage(rows, shard)
    rng = np.random.default_rng([DAMAGE_TAG, shard, 1])
    col = {name: i for i, name in enumerate(COLUMNS)}
    numeric = [col[c] for c in NUMERIC_COLUMNS]
    hit = rng.random((len(rows), len(numeric))) < NONFINITE_RATE
    token = rng.integers(len(NONFINITE_TOKENS), size=hit.shape)
    for i, j in zip(*np.nonzero(hit)):
        rows[i][numeric[j]] = NONFINITE_TOKENS[token[i, j]]
    return to_csv(rows)


def report_pool() -> list[int]:
    """Match indices of the report pool, scanned in index order."""
    pool, k = [], REPORT_BASE
    lo, hi = REPORT_POINTS
    while len(pool) < REPORT_POOL:
        if lo <= len(match_rows(k)) <= hi:
            pool.append(k)
        k += 1
    return pool


@dataclass
class InputFile:
    name: str
    data: bytes
    matches: int
    points: int  # data rows, rejected ones included


def choose(seed: int, pool_size: int, count: int, stream: int) -> list[int]:
    rng = np.random.default_rng([seed, stream])
    return [int(i) for i in rng.choice(pool_size, size=count, replace=False)]


def describe(files) -> dict:
    """Input digest and sizes, printed next to a run's results."""
    digest = hashlib.sha256()
    for f in files:
        digest.update(f.name.encode() + b"\0" + f.data)
    return {
        "sha256": digest.hexdigest(),
        "files": len(files),
        "matches": sum(f.matches for f in files),
        "points": sum(f.points for f in files),
        "bytes": sum(len(f.data) for f in files),
    }
