from collections import Counter

import numpy as np
import pytest

from matchflow import labels
from matchflow.errors import DataError
from util import make_points, make_timeline, posterior_via_prior, random_timeline


def counting_oracle(timelines):
    served = won_while_serving = 0
    for tl in timelines:
        for server, victor in zip(tl.servers(), tl.victors()):
            served += 1
            if server == victor:
                won_while_serving += 1
    return won_while_serving / served


def corpus_with_server_wins(n_units, n_wins, seed=0):
    """Synthetic corpus where the server wins exactly n_wins of n_units points."""
    rng = np.random.default_rng(seed)
    servers = rng.integers(1, 3, size=n_units).tolist()
    outcomes = [True] * n_wins + [False] * (n_units - n_wins)
    rng.shuffle(outcomes)
    victors = [s if win else 3 - s for s, win in zip(servers, outcomes)]
    return [make_timeline(victors, servers, match_id="syn")]


def test_counting_67_of_100():
    corpus = corpus_with_server_wins(100, 67)
    stats = labels.estimate_serve_win_posterior(corpus, unit="point")
    assert stats["p_win_given_serve"] == 0.67
    assert stats["p_lose_given_serve"] == pytest.approx(0.33)
    assert stats["p_win_given_serve"] == counting_oracle(corpus)


def test_symmetric_corpus_gives_half():
    corpus = corpus_with_server_wins(100, 50)
    stats = labels.estimate_serve_win_posterior(corpus, unit="point")
    assert stats["p_win_given_serve"] == 0.5
    assert stats["p_lose_given_serve"] == 0.5


def test_prior_composition_agrees_with_direct_ratio():
    rng = np.random.default_rng(2)
    for trial in range(20):
        corpus = [random_timeline(rng, int(rng.integers(20, 80)))]
        stats = labels.estimate_serve_win_posterior(corpus, unit="point")
        assert abs(posterior_via_prior(stats) - stats["p_win_given_serve"]) <= 1e-12


def test_monotonicity_extra_serve_win_never_decreases():
    base = corpus_with_server_wins(60, 40)
    p0 = labels.estimate_serve_win_posterior(base, unit="point")["p_win_given_serve"]
    extra = make_timeline([1], [1], match_id="extra")  # one more serve-win
    p1 = labels.estimate_serve_win_posterior(base + [extra], unit="point")["p_win_given_serve"]
    assert p1 >= p0


def test_game_and_set_units_use_first_server_and_last_victor():
    # two games of 4 points each: game 1 served by 1 and won by 1 (last point),
    # game 2 served by 2 and won by 1
    victors = [1, 2, 1, 1, 2, 1, 1, 1]
    servers = [1, 1, 1, 1, 2, 2, 2, 2]
    won = [0, 0]
    points_won = []
    for v in victors:
        won[v - 1] += 1
        points_won.append(list(won))
    tl = make_points(
        8,
        "g",
        server=servers,
        point_victor=victors,
        game_no=[1 + i // 4 for i in range(8)],
        p1_points_won=[w[0] for w in points_won],
        p2_points_won=[w[1] for w in points_won],
    )
    game_stats = labels.estimate_serve_win_posterior([tl], unit="game")
    assert game_stats["counts"]["units"] == 2
    assert game_stats["counts"]["serves"] == {"1": 1, "2": 1}
    assert game_stats["counts"]["serve_wins"] == {"1": 1, "2": 0}
    assert game_stats["p_win_given_serve"] == 0.5

    set_stats = labels.estimate_serve_win_posterior([tl], unit="set")
    assert set_stats["counts"]["units"] == 1
    assert set_stats["p_win_given_serve"] == 1.0  # player 1 served first and won


def test_unit_ends_mark_the_last_point_of_each_game_and_set():
    # games restart at 1 in each new set: (set, game) keys 1-1 1-1 1-2 2-1 2-1 2-2
    keys = [(1, 1), (1, 1), (1, 2), (2, 1), (2, 1), (2, 2)]
    tl = make_points(6, "u", set_no=[s for s, _ in keys], game_no=[g for _, g in keys])
    assert labels.unit_ends(tl, "point") == [0, 1, 2, 3, 4, 5]
    assert labels.unit_ends(tl, "game") == [1, 2, 4, 5]
    assert labels.unit_ends(tl, "set") == [2, 5]
    assert labels.unit_ends(make_points(0, "empty"), "game") == []


def test_a_match_boundary_ends_a_unit_even_where_set_and_game_run_on():
    # both matches are one game of one set, so the keys do not change at the boundary
    first = make_points(3, "a", server=1, point_victor=[2, 1, 1], game_no=1)
    second = make_points(2, "b", server=2, point_victor=[2, 1], game_no=1)
    for unit in ("game", "set"):
        stats = labels.estimate_serve_win_posterior([first, make_points(0, "e"), second], unit)
        assert stats["counts"]["units"] == 2, unit
        assert stats["counts"]["serves"] == {"1": 1, "2": 1}
        assert stats["counts"]["wins"] == {"1": 2, "2": 0}
        assert stats["counts"]["serve_wins"] == {"1": 1, "2": 0}


def unit_counts_oracle(timelines, unit):
    """serves, serve_wins and wins of each player, one match and one unit at a time."""
    counts = {name: {"1": 0, "2": 0} for name in ("serves", "serve_wins", "wins")}
    for tl in timelines:
        keys = {"point": ("point_no",), "game": ("set_no", "game_no"), "set": ("set_no",)}[unit]
        rows = list(zip(*(tl.columns[key].tolist() for key in keys),
                        tl.columns["server"].tolist(), tl.columns["point_victor"].tolist()))
        start = 0
        for i, row in enumerate(rows):
            if i + 1 < len(rows) and rows[i + 1][:len(keys)] == row[:len(keys)]:
                continue  # the unit goes on
            server, victor = rows[start][-2], row[-1]
            if server in (1, 2):
                counts["serves"][str(server)] += 1
                counts["wins"][str(victor)] += 1
                counts["serve_wins"][str(server)] += server == victor
            start = i + 1
    return counts


def test_joined_counts_equal_the_counts_of_one_match_at_a_time():
    rng = np.random.default_rng(5)
    timelines = []
    for k in range(6):
        n = int(rng.integers(0, 30))
        keys = np.sort(rng.integers(1, 4, size=(n, 2)), axis=0)
        timelines.append(make_points(n, f"m{k}", set_no=keys[:, 0], game_no=keys[:, 1],
                                     server=rng.integers(0, 3, n),
                                     point_victor=rng.integers(1, 3, n)))
    for unit in labels.UNITS:
        counts = labels.estimate_serve_win_posterior(timelines, unit)["counts"]
        want = unit_counts_oracle(timelines, unit)
        assert {name: counts[name] for name in want} == want, unit


def test_no_identified_server_is_insufficient_data():
    tl = make_points(5, "bad", server=0)
    with pytest.raises(DataError, match="insufficient data"):
        labels.estimate_serve_win_posterior([tl], unit="point")


def test_unknown_unit_rejected():
    with pytest.raises(DataError, match="unit"):
        labels.estimate_serve_win_posterior([make_timeline([1, 2])], unit="half")


def make_stats(p_win=0.6734):
    """A serve_stats payload of 10,000 points, the server winning p_win of them."""
    n = 10_000
    wins = int(round(p_win * n))
    return {
        "version": 1,
        "unit": "point",
        "p_win_given_serve": wins / n,
        "p_lose_given_serve": 1.0 - wins / n,
        "counts": {"serves": {"1": n // 2, "2": n // 2},
                   "serve_wins": {"1": wins // 2, "2": wins - wins // 2},
                   "wins": {"1": n // 2, "2": n // 2},
                   "units": n},
    }


def test_label_mapping_covers_all_four_cases():
    stats = make_stats()
    tl = make_timeline([1, 1, 2, 2], [1, 2, 1, 2])
    levels = labels.label_points(tl)
    values = [labels.LabelSet.from_stats(stats).values[level] for level in levels]
    assert values[0] == 1.0  # p1 wins on own serve
    assert values[1] == pytest.approx(0.6734)  # p1 breaks
    assert values[2] == pytest.approx(0.3266)  # p2 breaks
    assert values[3] == 0.0  # p2 holds
    assert levels.tolist() == [3, 2, 1, 0]


def test_labels_partition_the_timeline():
    rng = np.random.default_rng(8)
    for _ in range(10):
        tl = random_timeline(rng, 40)
        counts = Counter(labels.label_points(tl).tolist())
        assert sum(counts.values()) == len(tl)
        assert set(counts) <= {0, 1, 2, 3}


def test_label_set_requires_serve_advantage():
    with pytest.raises(DataError, match="ordered"):
        labels.LabelSet.from_stats(make_stats(p_win=0.5))
    with pytest.raises(DataError, match="ordered"):
        labels.LabelSet.from_stats(make_stats(p_win=0.4))


def test_label_set_describe():
    label_set = labels.LabelSet.from_stats(make_stats())
    assert label_set.winner(3) == 1
    assert label_set.winner(0) == 2

