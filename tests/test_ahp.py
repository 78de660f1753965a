import numpy as np
import pytest

from matchflow import ahp
from matchflow.errors import DataError

from util import eigenvalue_oracle


def test_empty_entries_give_all_ones():
    matrix = ahp.build_judgment_matrix(3)
    assert np.array_equal(matrix.values, np.ones((3, 3)))


def test_reciprocal_rule():
    matrix = ahp.build_judgment_matrix(3, [(0, 1, 3.0)])
    assert matrix.values[0, 1] == 3.0
    assert matrix.values[1, 0] == pytest.approx(1.0 / 3.0)


def test_matrix_from_ratio_vector_is_reciprocal():
    matrix = ahp.matrix_from_weights([0.5, 0.3, 0.2])
    assert np.allclose(matrix.values * matrix.values.T, 1.0, atol=1e-15)
    assert np.allclose(np.diag(matrix.values), 1.0)


def test_build_rejects_bad_entries():
    with pytest.raises(DataError, match="positive"):
        ahp.build_judgment_matrix(3, [(0, 1, -2.0)])
    with pytest.raises(DataError, match="nine-level"):
        ahp.build_judgment_matrix(3, [(0, 1, 12.0)])
    with pytest.raises(DataError, match="more than once"):
        ahp.build_judgment_matrix(3, [(0, 1, 2.0), (1, 0, 3.0)])
    with pytest.raises(DataError, match="invalid pair"):
        ahp.build_judgment_matrix(3, [(0, 3, 2.0)])


def test_judgment_matrix_validation():
    with pytest.raises(DataError, match="square"):
        ahp.JudgmentMatrix(np.ones((2, 3)))
    with pytest.raises(DataError, match="reciprocal"):
        ahp.JudgmentMatrix(np.array([[1.0, 2.0], [2.0, 1.0]]))
    with pytest.raises(DataError, match="diagonal"):
        ahp.JudgmentMatrix(np.array([[2.0, 1.0], [1.0, 2.0]]))


def test_uniform_matrix_gives_uniform_weights_both_methods():
    matrix = ahp.build_judgment_matrix(3)
    for method in ("geometric_mean", "shifted_row_sum"):
        w = ahp.weights(matrix, method=method)
        assert np.allclose(w, 1.0 / 3.0)
        assert w.sum() == pytest.approx(1.0)


def test_geometric_mean_recovers_generating_vector():
    target = np.array([0.5, 0.3, 0.2])
    matrix = ahp.matrix_from_weights(target)
    w = ahp.weights(matrix, method="geometric_mean")
    assert np.allclose(w, target, atol=1e-9)


def test_unknown_method_rejected():
    with pytest.raises(DataError, match="method"):
        ahp.weights(ahp.build_judgment_matrix(3), method="rowmax")


def test_consistent_matrices_have_zero_inconsistency():
    rng = np.random.default_rng(0)
    for n in range(3, 10):
        w = rng.uniform(0.1, 5.0, size=n)
        result = ahp.consistency(ahp.matrix_from_weights(w))
        assert abs(result.lambda_max - n) < 1e-9
        assert abs(result.ci) < 1e-9
        assert abs(result.cr) < 1e-9
        assert result.consistent


def test_order_two_has_zero_cr_by_convention():
    matrix = ahp.build_judgment_matrix(2, [(0, 1, 5.0)])
    result = ahp.consistency(matrix)
    assert result.cr == 0.0
    assert result.consistent


def test_perturbed_matrix_matches_eigenvalue_oracle():
    base = ahp.matrix_from_weights([0.4, 0.3, 0.2, 0.1]).values.copy()
    base[0, 1] *= 2.0
    base[1, 0] = 1.0 / base[0, 1]
    matrix = ahp.JudgmentMatrix(base)
    result = ahp.consistency(matrix)
    lam = eigenvalue_oracle(base)
    cr = ((lam - 4) / 3) / ahp.RANDOM_INDEX[4]
    assert result.lambda_max == pytest.approx(lam, abs=1e-6)
    assert result.cr == pytest.approx(cr, abs=1e-6)
    assert result.cr > 0.0


def test_supplied_weights_path_and_scale_freedom():
    base = ahp.matrix_from_weights([0.4, 0.3, 0.2, 0.1]).values.copy()
    base[0, 2] *= 1.5
    base[2, 0] = 1.0 / base[0, 2]
    matrix = ahp.JudgmentMatrix(base)
    w = ahp.weights(matrix)
    r1 = ahp.consistency(matrix, w)
    r2 = ahp.consistency(matrix, 17.0 * w)
    assert r1.lambda_max == pytest.approx(r2.lambda_max, abs=1e-12)
    assert r1.ci == pytest.approx(r2.ci, abs=1e-12)
    assert r1.cr == pytest.approx(r2.cr, abs=1e-12)


def test_large_order_needs_user_random_index():
    rng = np.random.default_rng(1)
    w = rng.uniform(0.5, 2.0, size=11)
    matrix = ahp.matrix_from_weights(w)
    with pytest.raises(DataError, match="random index"):
        ahp.consistency(matrix)
    result = ahp.consistency(matrix, random_index={10: 1.49, 11: 1.51})
    assert abs(result.cr) < 1e-9


def test_composite_consistency_ratio():
    cr = ahp.composite_consistency_ratio([0.01, 0.03], [0.58, 0.90], [0.6, 0.4])
    assert cr == pytest.approx((0.01 * 0.6 + 0.03 * 0.4) / (0.58 * 0.6 + 0.90 * 0.4))
    with pytest.raises(DataError, match="align"):
        ahp.composite_consistency_ratio([0.1], [0.58, 0.9], [1.0, 0.0])


def test_identical_rounds_all_rank_first():
    indicators = np.ones((4, 3))
    rounds = ahp.score_rounds(indicators, np.array([1 / 3, 1 / 3, 1 / 3]))
    assert rounds.ranking.tolist() == [1, 1, 1, 1]
    assert np.allclose(rounds.scores, rounds.scores[0])


def test_dominant_round_ranks_first():
    indicators = np.array(
        [[0.1, 0.2, 0.3], [0.9, 0.8, 0.7], [0.4, 0.5, 0.2], [0.2, 0.1, 0.1]]
    )
    rounds = ahp.score_rounds(indicators, np.array([0.5, 0.3, 0.2]))
    assert rounds.ranking[1] == 1


def test_five_round_hand_computed_scores():
    # raw indicators chosen so min-max scaling is easy to do on paper
    indicators = np.array(
        [
            [0.0, 10.0],
            [2.0, 20.0],
            [4.0, 30.0],
            [6.0, 40.0],
            [8.0, 50.0],
        ]
    )
    w = np.array([0.6, 0.4])
    rounds = ahp.score_rounds(indicators, w)
    # scaled columns are both [0, .25, .5, .75, 1]; score = 1.0 * scaled value
    expected = np.array([0.0, 0.25, 0.5, 0.75, 1.0])
    assert np.allclose(rounds.scores, expected)
    assert np.allclose(rounds.standardized, expected / 2.5)
    assert rounds.ranking.tolist() == [5, 4, 3, 2, 1]


def test_constant_indicator_column_maps_to_half():
    indicators = np.array([[1.0, 7.0], [2.0, 7.0], [3.0, 7.0]])
    rounds = ahp.score_rounds(indicators, np.array([0.5, 0.5]))
    assert np.allclose(rounds.scores, np.array([0.0, 0.5, 1.0]) * 0.5 + 0.25)


def test_ranking_invariant_under_affine_transform():
    rng = np.random.default_rng(3)
    indicators = rng.random((8, 4))
    w = np.array([0.4, 0.3, 0.2, 0.1])
    rounds = ahp.score_rounds(indicators, w)
    transformed = 3.5 * rounds.scores + 11.0
    distinct = np.unique(transformed)[::-1]
    rank_of = {value: i + 1 for i, value in enumerate(distinct.tolist())}
    assert [rank_of[v] for v in transformed.tolist()] == rounds.ranking.tolist()


def test_score_rounds_input_validation():
    with pytest.raises(DataError, match="sum to 1"):
        ahp.score_rounds(np.ones((3, 2)), np.array([0.7, 0.7]))
    with pytest.raises(DataError, match="per indicator"):
        ahp.score_rounds(np.ones((3, 2)), np.array([1.0]))


def test_non_finite_indicator_is_rejected_by_column():
    indicators = np.array([[0.1, 0.2, 0.3], [0.4, np.nan, 0.6], [0.7, 0.8, 0.9]])
    w = np.array([0.5, 0.3, 0.2])
    with pytest.raises(DataError, match="indicator column 1 holds a non-finite value"):
        ahp.score_rounds(indicators, w)
    indicators[1, 1] = 0.5
    indicators[2, 2] = np.inf
    with pytest.raises(DataError, match="indicator column 2"):
        ahp.score_rounds(indicators, w, normalize=False)
