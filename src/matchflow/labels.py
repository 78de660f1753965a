"""Serve-conditioned win probabilities estimated by counting, and the
four-level outcome labels built from them.

The estimate works at three time scales: every point, every game, or every
set.  A unit's first server is the server of its opening point; its victor is
whoever won its final point (game and set winners always take the last point
of the unit).  Counts are pooled across both players, so the headline number
is "probability that the unit's first server wins the unit".
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError

UNITS = ("point", "game", "set")

# The columns whose change between two points of a match ends a game or a set.
UNIT_KEYS = {"game": ("set_no", "game_no"), "set": ("set_no",)}


def _unit_last(columns, unit, match_last) -> np.ndarray:
    """Whether each point is the last of its point, game or set, over joined matches.

    columns maps the unit's UNIT_KEYS to equal-length arrays, and match_last
    marks the last point of each match, which always ends a unit.  A game is a
    run of points of one match sharing (set_no, game_no), a set a run sharing
    set_no.
    """
    if unit == "point":
        return np.ones(match_last.size, dtype=bool)
    last = match_last.copy()
    for key in UNIT_KEYS[unit]:
        values = columns[key]
        last[:-1] |= values[1:] != values[:-1]
    return last


def unit_ends(timeline, unit) -> list[int]:
    """Index of the last point of each point, game or set of one timeline, in order.

    The unit's victor is whoever won the point at its last index.
    """
    match_last = np.zeros(len(timeline), dtype=bool)
    match_last[-1:] = True
    return np.flatnonzero(_unit_last(timeline.columns, unit, match_last)).tolist()


def estimate_serve_win_posterior(timelines, unit="point") -> dict:
    """Count serve/win events over the given timelines at one time scale.

    Returns the payload serve_stats.json holds (schema ``serve_stats``): per
    player, the units served first, served first and won, and won; and
    p_win_given_serve, the exact pooled ratio of the second count to the first.
    The units of every timeline are counted at once, over their joined columns.

    Args:
        timelines: iterable of MatchTimeline (cleaned).
        unit: "point", "game" or "set".

    Raises:
        DataError: no units with an identified server were observed.
    """
    if unit not in UNITS:
        raise DataError(f"unknown unit {unit!r}; expected one of {UNITS}")
    timelines = list(timelines)

    def joined(name):  # one column of every timeline, end to end
        return np.concatenate([tl.columns[name] for tl in timelines] or [np.empty(0, int)])

    sizes = np.array([len(tl) for tl in timelines], dtype=np.int64)
    match_last = np.zeros(int(sizes.sum()), dtype=bool)
    match_last[np.cumsum(sizes)[sizes > 0] - 1] = True
    columns = {key: joined(key) for key in UNIT_KEYS.get(unit, ())}
    ends = np.flatnonzero(_unit_last(columns, unit, match_last))
    starts = np.concatenate(([0], ends[:-1] + 1))[: ends.size]
    server = joined("server")[starts].astype(int)
    victor = joined("point_victor")[ends].astype(int)
    known = ((server == 1) | (server == 2)) & ((victor == 1) | (victor == 2))
    server, victor = server[known], victor[known]  # a unit's first server and its victor
    n_units = int(known.sum())
    counts = {name: {} for name in ("serves", "serve_wins", "wins")}
    for player, key in ((1, "1"), (2, "2")):
        served, won = server == player, victor == player
        counts["serves"][key] = int(np.count_nonzero(served))
        counts["wins"][key] = int(np.count_nonzero(won))
        counts["serve_wins"][key] = int(np.count_nonzero(served & won))
    if n_units == 0:  # each unit counted has a server, so the serves total n_units
        raise DataError(f"insufficient data: no {unit} units with an identified server")
    p_win = (counts["serve_wins"]["1"] + counts["serve_wins"]["2"]) / n_units
    return {
        "version": 1,
        "unit": unit,
        "p_win_given_serve": p_win,
        "p_lose_given_serve": 1.0 - p_win,
        "counts": {**counts, "units": n_units},
    }


@dataclass
class LabelSet:
    """The four ordered outcome levels {0, p_lose, p_win, 1}.

    Level 0: player 2 wins on own serve; level 1: player 2 breaks serve;
    level 2: player 1 breaks serve; level 3: player 1 wins on own serve.
    Fractional levels mark receiver wins, the upsets relative to the serve
    advantage.
    """

    values: tuple

    @classmethod
    def from_stats(cls, stats: dict) -> "LabelSet":
        """The levels of a serve_stats payload: its p_lose_given_serve and p_win_given_serve."""
        p_win = stats["p_win_given_serve"]
        p_lose = stats["p_lose_given_serve"]
        if not (0.0 < p_lose < p_win < 1.0):
            raise DataError(
                "label levels must be strictly ordered 0 < p_lose < p_win < 1; "
                f"got p_win_given_serve={p_win:.4f}"
            )
        return cls((0.0, p_lose, p_win, 1.0))

    def __post_init__(self):
        if len(self.values) != 4 or not all(
            self.values[i] < self.values[i + 1] for i in range(3)
        ):
            raise DataError("label set needs four strictly increasing values")

    @property
    def n_classes(self) -> int:
        return 4

    def winner(self, level: int) -> int:
        """Match-point winner implied by a level (levels 2,3 -> player 1)."""
        return 1 if level >= 2 else 2


def label_points(timeline) -> np.ndarray:
    """Each point's outcome level, an int array indexing LabelSet.values.

    Level 3 (value 1.0): player 1 holds serve; level 2 (p_win): player 1
    breaks; level 1 (p_lose): player 2 breaks; level 0 (0.0): player 2 holds.
    Levels 1 and 2 are the receiver wins.
    """
    p1_won, p1_served = timeline.victors() == 1, timeline.servers() == 1
    return np.where(p1_won, np.where(p1_served, 3, 2), np.where(p1_served, 1, 0))
