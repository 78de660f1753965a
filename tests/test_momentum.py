import math

import numpy as np
import pytest

from matchflow.errors import DataError
from matchflow.momentum import (
    MomentumParams,
    find_swings,
    momentum_from_victors,
    momentum_series,
)

from util import make_timeline, momentum_oracle, point_result, swings_oracle, window_score

SCRIPTED_20 = [1, 1, 1, 2, 1, 2, 2, 2, 2, 1, 1, 2, 1, 1, 1, 1, 2, 2, 1, 2]


def test_point_result_signs():
    tl = make_timeline([1, 2, 1])
    assert point_result(tl, 1, 1) == 0.5
    assert point_result(tl, 1, 2) == -0.5
    for n in (1, 2, 3):
        assert point_result(tl, n, 1) + point_result(tl, n, 2) == 0.0


def test_point_result_out_of_range():
    tl = make_timeline([1, 2])
    with pytest.raises(IndexError):
        point_result(tl, 0, 1)
    with pytest.raises(IndexError):
        point_result(tl, 3, 1)


def test_first_point_window_truncates_and_renormalizes():
    # both points in the truncated opening window won by player 1
    tl = make_timeline([1, 1, 2, 2, 2])
    assert window_score(tl, 1, 1, half_width=1) == (0.5 + 0.5) / 2 + 0.5 == 1.0


def test_streak_bonus_in_short_window():
    # three straight wins centered at point 2 of [1,1,1,...]; run at point 2 is 2
    tl = make_timeline([1, 1, 1, 2, 2, 2, 2, 2])
    params = MomentumParams()
    got = window_score(tl, 2, 1, half_width=1, params=params)
    expected = (1.5 + params.short_streak_gain * math.exp(2 * 2)) / 3 + 0.5
    assert got == expected
    # at point 3 the run has length 3: bonus e^(2*3), window [1,1,2]
    got3 = window_score(tl, 3, 1, half_width=1, params=params)
    expected3 = (0.5 + params.short_streak_gain * math.exp(6)) / 3 + 0.5
    assert got3 == expected3


def test_no_bonus_below_streak_min():
    tl = make_timeline([1, 2, 1, 2, 1, 2])
    for n in range(2, 6):
        # alternating winners never build a run, so no bonus term appears
        sums = window_score(tl, n, 1, half_width=1)
        manual = sum(
            0.5 if v == 1 else -0.5 for v in [1, 2, 1, 2, 1, 2][n - 2 : n + 1]
        ) / 3 + 0.5
        assert sums == pytest.approx(manual)


def test_window_score_rejects_bad_half_width():
    tl = make_timeline([1, 2, 1])
    with pytest.raises(ValueError, match="half_width"):
        window_score(tl, 1, 1, half_width=2)


def test_series_matches_oracle_bit_for_bit():
    result = momentum_from_victors(SCRIPTED_20)
    oracle_p1, oracle_p2 = momentum_oracle(SCRIPTED_20)
    assert np.array_equal(result["p1"], oracle_p1)
    assert np.array_equal(result["p2"], oracle_p2)


def test_series_matches_oracle_on_random_timelines():
    rng = np.random.default_rng(17)
    for _ in range(200):
        v = rng.integers(1, 3, size=int(rng.integers(5, 80))).tolist()
        result = momentum_from_victors(v)
        oracle_p1, oracle_p2 = momentum_oracle(v)
        assert np.array_equal(result["p1"], oracle_p1)
        assert np.array_equal(result["p2"], oracle_p2)


def test_series_agrees_with_window_score_pointwise():
    params = MomentumParams()
    rng = np.random.default_rng(19)
    matrix = np.vstack([SCRIPTED_20, 3 - np.array(SCRIPTED_20), rng.integers(1, 3, size=(6, 20))])
    single = momentum_from_victors(SCRIPTED_20, params)
    rows = momentum_from_victors(matrix, params)
    for r, v in enumerate(matrix):
        for n in range(1, len(v) + 1):
            short = window_score(v, n, 1, half_width=1, params=params)
            long = window_score(v, n, 1, half_width=3, params=params)
            assert rows["short_p1"][r, n - 1] == short
            assert rows["long_p1"][r, n - 1] == long
            if r == 0:
                assert single["short_p1"][n - 1] == short
                assert single["long_p1"][n - 1] == long


def test_matrix_rows_equal_single_sequence_results():
    rng = np.random.default_rng(29)
    matrix = rng.integers(1, 3, size=(40, 33))
    matrix[0] = 1  # one run spanning the row
    for causal in (False, True):
        params = MomentumParams(causal=causal)
        rows = momentum_from_victors(matrix, params)
        for r, v in enumerate(matrix):
            single = momentum_from_victors(v, params)
            for key, values in single.items():
                assert rows[key].shape == matrix.shape
                assert np.array_equal(rows[key][r], values)


def test_outputs_stay_in_unit_interval():
    rng = np.random.default_rng(23)
    for _ in range(200):
        v = rng.integers(1, 3, size=40)
        result = momentum_from_victors(v)
        for key in ("p1", "p2"):
            assert np.all(result[key] >= 0.0)
            assert np.all(result[key] <= 1.0)


def test_balanced_windows_without_bonus_sit_at_half():
    # alternating start: point 1 has windows {1,2} and {1..4}, both balanced
    result = momentum_from_victors([1, 2, 1, 2, 1, 2, 1, 2])
    assert result["p1"][0] == 0.5
    assert result["p2"][0] == 0.5


def test_alternating_match_is_neutral_on_average():
    v = [1, 2] * 20
    result = momentum_from_victors(v)
    assert float(np.mean(result["p1"])) == pytest.approx(0.5, abs=1e-12)
    assert float(np.mean(result["p2"])) == pytest.approx(0.5, abs=1e-12)
    # pre-clamp complementarity holds pointwise
    assert np.allclose(result["p1"] + result["p2"], 1.0, atol=1e-12)


def test_sweeping_wins_saturate_both_ends():
    result = momentum_from_victors([1] * 15)
    assert np.all(result["p1"] == 1.0)
    assert np.all(result["p2"] == 0.0)


def test_label_swap_antisymmetry():
    rng = np.random.default_rng(31)
    for _ in range(100):
        v = rng.integers(1, 3, size=35)
        swapped = 3 - v
        a = momentum_from_victors(v)
        b = momentum_from_victors(swapped)
        assert np.array_equal(a["p1"], b["p2"])
        assert np.array_equal(a["p2"], b["p1"])


def test_locality_beyond_three_points():
    rng = np.random.default_rng(37)
    for _ in range(100):
        n = int(rng.integers(12, 50))
        v = rng.integers(1, 3, size=n)
        m = int(rng.integers(0, n))
        flipped = v.copy()
        flipped[m] = 3 - flipped[m]
        base = momentum_from_victors(v)
        changed = momentum_from_victors(flipped)
        far = np.abs(np.arange(n) - m) > 3
        assert np.array_equal(base["p1"][far], changed["p1"][far])
        assert np.array_equal(base["p2"][far], changed["p2"][far])


def test_determinism_bitwise():
    v = np.random.default_rng(41).integers(1, 3, size=64)
    a = momentum_from_victors(v)
    b = momentum_from_victors(v)
    for key in a:
        assert np.array_equal(a[key], b[key])


def test_momentum_series_wraps_timeline():
    series = momentum_series(make_timeline(SCRIPTED_20))
    assert len(series) == 20
    assert series.point_no[0] == 1
    assert np.array_equal(series.p1, momentum_from_victors(SCRIPTED_20)["p1"])


def test_causal_flag_uses_past_points_only():
    params = MomentumParams(causal=True)
    v = [1, 1, 2, 2, 2, 1, 1, 1]
    result = momentum_from_victors(v, params)
    # first point: only itself in both windows, no bonus
    assert result["short_p1"][0] == 0.5 / 1 + 0.5
    # future points must not leak: changing the tail leaves point 3 alone
    other = momentum_from_victors([1, 1, 2, 1, 1, 2, 2, 2], params)
    assert result["p1"][2] == other["p1"][2]


def test_param_validation():
    with pytest.raises(DataError, match="sum to 1"):
        MomentumParams(short_weight=0.8, long_weight=0.3).validate()
    with pytest.raises(DataError, match="non-negative"):
        MomentumParams(short_streak_gain=-0.1).validate()
    with pytest.raises(DataError, match="streak_min"):
        MomentumParams(streak_min=0).validate()
    with pytest.raises(DataError):
        momentum_from_victors([])
    with pytest.raises(DataError):
        momentum_from_victors([1, 2, 3])


@pytest.mark.parametrize("victors", [[1.5, 2.9, 1.0], [1, 2, 0], [1, 2, np.nan], [1, 2, None]])
def test_victors_other_than_exactly_1_or_2_are_rejected(victors):
    # an int conversion first would score [1.5, 2.9, 1.0] as [1, 2, 1]
    with pytest.raises(DataError, match="only players 1 and 2"):
        momentum_from_victors(victors)
    assert momentum_from_victors([1.0, 2.0, 1.0])["p1"].tolist() == \
        momentum_from_victors([1, 2, 1])["p1"].tolist()


def test_find_swings_marks_local_extrema():
    tl = make_timeline([1, 1, 1, 2, 2, 2, 1, 1, 1, 2, 2, 2, 1, 1])
    series = momentum_series(tl)
    swings = find_swings(series)
    assert swings["player"] == 1
    x = series.p1
    for point in swings["maxima"]:
        i = point - 1
        assert x[i] > x[i - 1] and x[i] > x[i + 1]
    for point in swings["minima"]:
        i = point - 1
        assert x[i] < x[i - 1] and x[i] < x[i + 1]
    rng = np.random.default_rng(5)
    for victors in ([1], [1, 2], [2, 1, 2], SCRIPTED_20, rng.integers(1, 3, 60).tolist()):
        for causal in (False, True):
            series = momentum_series(make_timeline(victors), MomentumParams(causal=causal))
            swings = find_swings(series)
            assert (swings["maxima"], swings["minima"]) == swings_oracle(series.point_no,
                                                                         series.p1)
