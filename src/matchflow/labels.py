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


@dataclass
class ServeWinStats:
    """Counted serve/win events at one time scale.

    serves[p] units where player p served first, serve_wins[p] units that
    player both served first and won, wins[p] units won by p.  Probabilities
    are exact count ratios.
    """

    unit: str
    serves: dict
    serve_wins: dict
    wins: dict
    n_units: int
    laplace: bool = False

    @property
    def p_win_given_serve(self) -> float:
        num = self.serve_wins[1] + self.serve_wins[2]
        den = self.serves[1] + self.serves[2]
        if self.laplace:
            return (num + 1) / (den + 2)
        return num / den

    @property
    def p_lose_given_serve(self) -> float:
        return 1.0 - self.p_win_given_serve

    def to_dict(self) -> dict:
        return {
            "version": 1,
            "unit": self.unit,
            "p_win_given_serve": self.p_win_given_serve,
            "p_lose_given_serve": self.p_lose_given_serve,
            "counts": {
                "serves": {str(k): v for k, v in sorted(self.serves.items())},
                "serve_wins": {str(k): v for k, v in sorted(self.serve_wins.items())},
                "wins": {str(k): v for k, v in sorted(self.wins.items())},
                "units": self.n_units,
            },
            "laplace": self.laplace,
        }


def unit_ends(timeline, unit) -> list[int]:
    """Index of the last point of each point, game or set, in order.

    A game is a run of points sharing (set_no, game_no), a set a run sharing
    set_no; the unit's victor is whoever won the point at its last index.
    """
    n = len(timeline)
    if unit == "point":
        return list(range(n))
    keys = ("set_no", "game_no") if unit == "game" else ("set_no",)
    change = np.zeros(max(n - 1, 0), dtype=bool)
    for key in keys:
        values = timeline.columns[key]
        change |= values[1:] != values[:-1]
    return np.flatnonzero(change).tolist() + ([n - 1] if n else [])


def estimate_serve_win_posterior(timelines, unit="point", laplace=False) -> ServeWinStats:
    """Count serve/win events over the given timelines at one time scale.

    Args:
        timelines: iterable of MatchTimeline (cleaned).
        unit: "point", "game" or "set".
        laplace: apply add-one smoothing to the pooled ratio (off by default;
            raw ratios reproduce the counting estimate exactly).

    Raises:
        DataError: no units with an identified server were observed.
    """
    if unit not in UNITS:
        raise DataError(f"unknown unit {unit!r}; expected one of {UNITS}")
    serves = {1: 0, 2: 0}
    serve_wins = {1: 0, 2: 0}
    wins = {1: 0, 2: 0}
    n_units = 0
    for tl in timelines:
        ends = np.array(unit_ends(tl, unit), dtype=int)
        starts = np.concatenate(([0], ends[:-1] + 1))[: ends.size]
        server, victor = tl.servers()[starts], tl.victors()[ends]  # a unit's first server
        known = np.isin(server, (1, 2)) & np.isin(victor, (1, 2))
        server, victor = server[known], victor[known]
        n_units += int(known.sum())
        for player in (1, 2):
            serves[player] += int(np.count_nonzero(server == player))
            wins[player] += int(np.count_nonzero(victor == player))
            serve_wins[player] += int(np.count_nonzero((server == player) & (victor == player)))
    if n_units == 0 or serves[1] + serves[2] == 0:
        raise DataError(f"insufficient data: no {unit} units with an identified server")
    return ServeWinStats(unit, serves, serve_wins, wins, n_units, laplace)


@dataclass
class LabelSet:
    """The four ordered outcome levels {0, p_lose, p_win, 1}.

    Level 0: player 2 wins on own serve; level 1: player 2 breaks serve;
    level 2: player 1 breaks serve; level 3: player 1 wins on own serve.
    Fractional levels mark receiver wins, the upsets relative to the serve
    advantage.
    """

    values: tuple

    LEVEL_NAMES = ("p2_hold", "p2_break", "p1_break", "p1_hold")

    @classmethod
    def from_stats(cls, stats: ServeWinStats) -> "LabelSet":
        p_win = stats.p_win_given_serve
        p_lose = stats.p_lose_given_serve
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

    def describe(self, level: int) -> str:
        return f"{self.values[level]:g} (Player {self.winner(level)} wins)"


def label_points(timeline, stats: ServeWinStats) -> np.ndarray:
    """Each point's outcome level, an int array indexing LabelSet.from_stats(stats).values.

    Player 1 winning its own serve maps to level 3 (value 1.0) and losing it
    to level 1 (p_lose); receiver wins take level 2 (p_win, player 1 breaks)
    and level 0 (0.0, player 2 holds).

    Raises:
        DataError: stats give no strictly ordered label set.
    """
    LabelSet.from_stats(stats)
    p1_won, p1_served = timeline.victors() == 1, timeline.servers() == 1
    return np.where(p1_won, np.where(p1_served, 3, 2), np.where(p1_served, 1, 0))
