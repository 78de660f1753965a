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
    assert np.allclose(fit.predict(x, y), z, atol=1e-9)
    assert fit.r_squared == pytest.approx(1.0)


def test_constant_surface_recovers_the_constant():
    x, y = np.meshgrid(np.arange(4.0), np.arange(4.0))
    z = np.full(16, 2.75)
    fit = trend.fit_poly22(x.ravel(), y.ravel(), z)
    coefficients = fit.to_dict()["coefficients"]
    assert coefficients["p00"] == pytest.approx(2.75, abs=1e-9)
    for term in ("p10", "p01", "p20", "p11", "p02"):
        assert abs(coefficients[term]) < 1e-9
    assert fit.r_squared == 1.0  # zero-variance convention


def test_quadratic_recovery_on_grid():
    x, y = np.meshgrid(np.arange(4.0), np.arange(4.0))
    x, y = x.ravel(), y.ravel()
    z = x**2 + 2.0 * x * y
    fit = trend.fit_poly22(x, y, z)
    coefficients = fit.to_dict()["coefficients"]
    assert coefficients["p20"] == pytest.approx(1.0, abs=1e-8)
    assert coefficients["p11"] == pytest.approx(2.0, abs=1e-8)
    for term in ("p00", "p10", "p01", "p02"):
        assert abs(coefficients[term]) <= 1e-8


def test_surface_fit_errors():
    with pytest.raises(DataError, match="6 samples"):
        trend.fit_poly22([0, 1, 2], [0, 1, 2], [1, 2, 3])
    x = np.zeros(8)  # all samples on the line x=0: quadratic basis collapses
    y = np.arange(8.0)
    with pytest.raises(DataError, match="singular"):
        trend.fit_poly22(x, y, y**2)


@pytest.mark.parametrize("big", ["x", "y"])
def test_an_axis_whose_square_overflows_is_named_with_no_warning(big):
    """x**2 past the float range: a DataError naming the axis, not LAPACK's SVD failure
    (warnings are errors here)."""
    axes = {"x": np.arange(10.0), "y": np.arange(10.0) % 3}
    axes[big] = axes[big] * 1e160
    with pytest.raises(DataError, match=f"^trend axis {big}-axis is not finite or too large"):
        trend.fit_poly22(axes["x"], axes["y"], np.linspace(0, 1, 10), axes=("x-axis", "y-axis"))


def test_residuals_orthogonal_to_scaled_basis():
    rng = np.random.default_rng(3)
    x = rng.uniform(-2, 2, size=30)
    y = rng.uniform(-2, 2, size=30)
    z = 0.3 * x - 0.1 * y + 0.2 * x * y + rng.normal(scale=0.3, size=30)
    fit = trend.fit_poly22(x, y, z)
    design = np.column_stack([np.ones(30), x, y, x**2, x * y, y**2])
    scaled = design / np.max(np.abs(design), axis=0)
    residuals = z - fit.predict(x, y)
    for column in scaled.T:
        assert abs(float(column @ residuals)) < 1e-6


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
    design = np.column_stack([np.ones(20), x, y, x**2, x * y, y**2])
    assert np.allclose(fit.predict(x, y), design @ fit.coefficients, atol=1e-10)


# ---------------------------------------------------------- permutation test

def test_same_seed_same_report():
    victors = np.random.default_rng(6).integers(1, 3, size=40)
    a = trend.randomness_test(victors, statistic="max_streak", n_permutations=99, seed=7)
    b = trend.randomness_test(victors, statistic="max_streak", n_permutations=99, seed=7)
    assert a == b


def test_preconditions():
    victors = [1, 2] * 12
    with pytest.raises(DataError, match="permutations"):
        trend.randomness_test(victors, n_permutations=50)
    with pytest.raises(DataError, match="20 points"):
        trend.randomness_test([1, 2] * 5)
    with pytest.raises(DataError, match="statistic"):
        trend.randomness_test(victors, statistic="entropy")


@pytest.mark.parametrize("statistic", sorted(trend.STATISTICS))
@pytest.mark.parametrize("victors", [[1, 3] * 15, [1.5, 2.0] * 15, [0, 1, 2] * 10])
def test_victors_other_than_exactly_1_or_2_are_rejected(victors, statistic):
    # max_streak, the default, never reaches momentum's check: [1, 3] * 15 gave p = 1.0
    with pytest.raises(DataError, match="only players 1 and 2"):
        trend.randomness_test(victors, statistic=statistic, n_permutations=99)


def test_pvalue_is_one_when_null_is_a_point_mass():
    # one player wins everything: every shuffle is the same sequence
    report = trend.randomness_test([1] * 30, statistic="max_streak", n_permutations=99, seed=0)
    assert report["degenerate"]
    assert report["p_value"] == 1.0
    assert report["null"]["sd"] == 0.0


def test_injected_streak_is_detected():
    rng = np.random.default_rng(9)
    victors = rng.integers(1, 3, size=60)
    victors[20:35] = 1
    report = trend.randomness_test(victors, statistic="max_streak", n_permutations=199, seed=5)
    assert report["p_value"] < 0.05


def test_add_one_formula_lower_bound():
    rng = np.random.default_rng(10)
    victors = rng.integers(1, 3, size=60)
    victors[10:40] = 2  # extreme run: observed beats every shuffle
    report = trend.randomness_test(victors, statistic="max_streak", n_permutations=199, seed=3)
    assert report["p_value"] == pytest.approx(1.0 / 200.0)


def test_statistics_are_finite_and_sane():
    rng = np.random.default_rng(11)
    v = rng.integers(1, 3, size=50)
    params = MomentumParams()
    assert trend.stat_max_streak(v, params) >= 1.0
    assert 0.0 <= trend.stat_momentum_variance(v, params) <= 0.25
    assert -1.0 <= trend.stat_lag1_autocorr(v, params) <= 1.0


def test_report_serialization():
    victors = np.random.default_rng(12).integers(1, 3, size=30)
    payload = trend.randomness_test(victors, n_permutations=99, seed=2)
    assert payload["version"] == 1
    assert 0.0 < payload["p_value"] <= 1.0
    assert set(payload["null"]["quantiles"]) == {"q05", "q25", "q50", "q75", "q95"}


def assert_matches_oracle(victors, statistic, n_permutations, seed):
    params = MomentumParams()
    observed, null, p_value = permutation_oracle(victors, statistic, n_permutations, seed, params)
    got = trend._permutation_null(victors, trend.STATISTICS[statistic], params, n_permutations,
                                  seed)
    assert np.array_equal(got, null)
    report = trend.randomness_test(victors, params, statistic, n_permutations, seed)
    assert report["observed"] == observed
    assert report["p_value"] == p_value
    assert report["null"]["mean"] == float(null.mean())
    assert report["null"]["sd"] == float(null.std())
    return report


@pytest.mark.parametrize("statistic", sorted(trend.STATISTICS))
def test_null_and_pvalue_equal_the_one_at_a_time_oracle(statistic):
    victors = np.random.default_rng(13).integers(1, 3, size=57)
    assert_matches_oracle(victors, statistic, 99, 21)


def test_null_matches_oracle_on_a_one_player_sequence():
    victors = np.full(25, 2)
    for statistic in trend.STATISTICS:
        assert assert_matches_oracle(victors, statistic, 99, 4)["degenerate"]


def test_null_matches_oracle_when_one_server_has_no_points():
    # the null shuffles the match's whole victor sequence, whoever served each point
    victors = np.random.default_rng(14).integers(1, 3, size=30)
    match = make_timeline(victors, servers=[1] * victors.size)
    assert_matches_oracle(match.victors(), "max_streak", 99, 6)
    assert_matches_oracle(match.victors(), "lag1_autocorr", 99, 6)


def test_null_matches_oracle_across_a_partial_block():
    victors = np.random.default_rng(15).integers(1, 3, size=40)
    n_permutations = 2 * trend.PERMUTATION_BLOCK + 3
    assert_matches_oracle(victors, "momentum_variance", n_permutations, 8)
