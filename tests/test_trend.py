import numpy as np
import pytest

from matchflow import trend
from matchflow.errors import DataError
from matchflow.momentum import MomentumParams

from util import make_timeline, permutation_oracle


def test_cosine_similarity_basics():
    assert trend.cosine_similarity([1, 2, 3], [1, 2, 3]) == pytest.approx(1.0)
    assert trend.cosine_similarity([1, 0], [0, 1]) == pytest.approx(0.0)
    assert trend.cosine_similarity([1, 2, 3], [2, 4, 6]) == pytest.approx(1.0)


def test_cosine_similarity_scale_invariance():
    rng = np.random.default_rng(0)
    a = rng.normal(size=12)
    b = rng.normal(size=12)
    base = trend.cosine_similarity(a, b)
    assert trend.cosine_similarity(7.5 * a, b) == pytest.approx(base, abs=1e-12)
    assert trend.cosine_similarity(a, 0.03 * b) == pytest.approx(base, abs=1e-12)


def test_cosine_similarity_errors():
    with pytest.raises(DataError, match="zero vector"):
        trend.cosine_similarity([0.0, 0.0], [1.0, 2.0])
    with pytest.raises(ValueError):
        trend.cosine_similarity([1.0, 2.0], [1.0])


def test_euclidean_distance_basics():
    assert trend.euclidean_distance([0, 0], [3, 4]) == pytest.approx(5.0)
    assert trend.euclidean_distance([1.5, -2.0], [1.5, -2.0]) == 0.0
    rng = np.random.default_rng(1)
    for _ in range(10):
        a, b = rng.normal(size=(2, 4))
        assert trend.euclidean_distance(a, b) == trend.euclidean_distance(b, a)
    with pytest.raises(ValueError, match="dimension"):
        trend.euclidean_distance([1.0], [1.0, 2.0])


def test_six_point_interpolation_is_exact():
    rng = np.random.default_rng(2)
    x = np.array([0.0, 1.0, 0.0, 1.0, 0.5, 0.3])
    y = np.array([0.0, 0.0, 1.0, 1.0, 0.5, 0.8])
    z = rng.normal(size=6)
    fit = trend.fit_poly22(x, y, z)
    assert np.allclose(fit.residuals, 0.0, atol=1e-9)
    assert fit.r_squared == pytest.approx(1.0)


def test_constant_surface_recovers_the_constant():
    x, y = np.meshgrid(np.arange(4.0), np.arange(4.0))
    z = np.full(16, 2.75)
    fit = trend.fit_poly22(x.ravel(), y.ravel(), z)
    assert fit.coefficient("p00") == pytest.approx(2.75, abs=1e-9)
    for term in ("p10", "p01", "p20", "p11", "p02"):
        assert abs(fit.coefficient(term)) < 1e-9
    assert fit.r_squared == 1.0  # zero-variance convention


def test_quadratic_recovery_on_grid():
    x, y = np.meshgrid(np.arange(4.0), np.arange(4.0))
    x, y = x.ravel(), y.ravel()
    z = x**2 + 2.0 * x * y
    fit = trend.fit_poly22(x, y, z)
    assert fit.coefficient("p20") == pytest.approx(1.0, abs=1e-8)
    assert fit.coefficient("p11") == pytest.approx(2.0, abs=1e-8)
    for term in ("p00", "p10", "p01", "p02"):
        assert abs(fit.coefficient(term)) <= 1e-8


def test_surface_fit_errors():
    with pytest.raises(DataError, match="6 samples"):
        trend.fit_poly22([0, 1, 2], [0, 1, 2], [1, 2, 3])
    x = np.zeros(8)  # all samples on the line x=0: quadratic basis collapses
    y = np.arange(8.0)
    with pytest.raises(DataError, match="singular"):
        trend.fit_poly22(x, y, y**2)


def test_residuals_orthogonal_to_scaled_basis():
    rng = np.random.default_rng(3)
    x = rng.uniform(-2, 2, size=30)
    y = rng.uniform(-2, 2, size=30)
    z = 0.3 * x - 0.1 * y + 0.2 * x * y + rng.normal(scale=0.3, size=30)
    fit = trend.fit_poly22(x, y, z)
    design = np.column_stack([np.ones(30), x, y, x**2, x * y, y**2])
    scaled = design / np.max(np.abs(design), axis=0)
    for column in scaled.T:
        assert abs(float(column @ fit.residuals)) < 1e-6


def test_r_squared_never_exceeds_one():
    rng = np.random.default_rng(4)
    for _ in range(10):
        x = rng.normal(size=25)
        y = rng.normal(size=25)
        z = rng.normal(size=25)
        assert trend.fit_poly22(x, y, z).r_squared <= 1.0


def test_predict_reproduces_fitted_values():
    rng = np.random.default_rng(5)
    x = rng.normal(size=20)
    y = rng.normal(size=20)
    z = 1.0 + x + y**2 + rng.normal(scale=0.1, size=20)
    fit = trend.fit_poly22(x, y, z)
    assert np.allclose(fit.predict(x, y), z - fit.residuals, atol=1e-10)


# ---------------------------------------------------------- permutation test

def test_same_seed_same_report():
    tl = make_timeline(np.random.default_rng(6).integers(1, 3, size=40).tolist())
    a = trend.randomness_test(tl, statistic="max_streak", n_permutations=99, seed=7)
    b = trend.randomness_test(tl, statistic="max_streak", n_permutations=99, seed=7)
    assert a == b


def test_preconditions():
    tl = make_timeline([1, 2] * 12)
    with pytest.raises(DataError, match="permutations"):
        trend.randomness_test(tl, n_permutations=50)
    with pytest.raises(DataError, match="20 points"):
        trend.randomness_test(make_timeline([1, 2] * 5))
    with pytest.raises(DataError, match="statistic"):
        trend.randomness_test(tl, statistic="entropy")


def test_pvalue_is_one_when_null_is_a_point_mass():
    # one player wins everything: every shuffle is the same sequence
    tl = make_timeline([1] * 30)
    report = trend.randomness_test(tl, statistic="max_streak", n_permutations=99, seed=0)
    assert report.degenerate
    assert report.p_value == 1.0
    assert report.null_sd == 0.0


def test_injected_streak_is_detected():
    rng = np.random.default_rng(9)
    victors = rng.integers(1, 3, size=60)
    victors[20:35] = 1
    tl = make_timeline(victors.tolist())
    report = trend.randomness_test(tl, statistic="max_streak", n_permutations=199, seed=5)
    assert report.p_value < 0.05


def test_add_one_formula_lower_bound():
    rng = np.random.default_rng(10)
    victors = rng.integers(1, 3, size=60)
    victors[10:40] = 2  # extreme run: observed beats every shuffle
    tl = make_timeline(victors.tolist())
    report = trend.randomness_test(tl, statistic="max_streak", n_permutations=199, seed=3)
    assert report.p_value == pytest.approx(1.0 / 200.0)


def test_stratified_shuffle_preserves_server_conditional_wins():
    # every server wins its own points; within-server shuffles cannot change that
    servers = [1] * 15 + [2] * 15
    victors = servers[:]
    tl = make_timeline(victors, servers)
    report = trend.randomness_test(
        tl, statistic="max_streak", n_permutations=99, seed=1, stratify_by_server=True
    )
    assert report.null_sd == 0.0
    assert report.p_value == 1.0
    free = trend.randomness_test(
        tl, statistic="max_streak", n_permutations=99, seed=1, stratify_by_server=False
    )
    assert free.null_sd > 0.0


def test_stratified_needs_server_information():
    with pytest.raises(DataError, match="server"):
        trend.randomness_test(
            np.ones(30, dtype=int) + 1, stratify_by_server=True, n_permutations=99
        )


def test_statistics_are_finite_and_sane():
    rng = np.random.default_rng(11)
    v = rng.integers(1, 3, size=50)
    params = MomentumParams()
    assert trend.stat_max_streak(v, params) >= 1.0
    assert 0.0 <= trend.stat_momentum_variance(v, params) <= 0.25
    assert -1.0 <= trend.stat_lag1_autocorr(v, params) <= 1.0


def test_report_serialization():
    tl = make_timeline(np.random.default_rng(12).integers(1, 3, size=30).tolist())
    payload = trend.randomness_test(tl, n_permutations=99, seed=2).to_dict()
    assert payload["version"] == 1
    assert 0.0 < payload["p_value"] <= 1.0
    assert set(payload["null"]["quantiles"]) == {"q05", "q25", "q50", "q75", "q95"}


def assert_matches_oracle(timeline, statistic, n_permutations, seed, stratify):
    victors, servers = timeline.victors(), timeline.servers()
    params = MomentumParams()
    observed, null, p_value = permutation_oracle(
        victors, servers if stratify else None, statistic, n_permutations, seed, params
    )
    got = trend._permutation_null(
        victors, servers if stratify else None, trend.STATISTICS[statistic], params,
        n_permutations, seed,
    )
    assert np.array_equal(got, null)
    report = trend.randomness_test(
        timeline, params, statistic, n_permutations, seed, stratify_by_server=stratify
    )
    assert report.observed == observed
    assert report.p_value == p_value
    assert report.null_mean == float(null.mean())
    assert report.null_sd == float(null.std())
    return report


@pytest.mark.parametrize("stratify", [False, True])
@pytest.mark.parametrize("statistic", sorted(trend.STATISTICS))
def test_null_and_pvalue_equal_the_one_at_a_time_oracle(statistic, stratify):
    rng = np.random.default_rng(13)
    tl = make_timeline(rng.integers(1, 3, size=57).tolist(), rng.integers(1, 3, size=57).tolist())
    assert_matches_oracle(tl, statistic, 99, 21, stratify)


def test_null_matches_oracle_on_a_one_player_sequence():
    tl = make_timeline([2] * 25)
    for statistic in trend.STATISTICS:
        assert assert_matches_oracle(tl, statistic, 99, 4, False).degenerate


def test_null_matches_oracle_when_one_server_has_no_points():
    rng = np.random.default_rng(14)
    tl = make_timeline(rng.integers(1, 3, size=30).tolist(), [1] * 30)
    assert_matches_oracle(tl, "max_streak", 99, 6, True)
    assert_matches_oracle(tl, "lag1_autocorr", 99, 6, True)


def test_null_matches_oracle_across_a_partial_block():
    rng = np.random.default_rng(15)
    tl = make_timeline(rng.integers(1, 3, size=40).tolist())
    n_permutations = 2 * trend.PERMUTATION_BLOCK + 3
    assert_matches_oracle(tl, "momentum_variance", n_permutations, 8, False)
