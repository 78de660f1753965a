import json
import math

import numpy as np
import pytest

from matchflow import classifier, cli
from matchflow.classifier import SoftmaxModel, TrainConfig, nll_and_grad, sigmoid, softmax, train
from matchflow.errors import DataError
from matchflow.ingest import FeatureTable

from util import gradient_descent_oracle, split_oracle, standardized_design


def test_sigmoid_basics():
    assert sigmoid(0.0) == 0.5
    assert abs(sigmoid(40.0) - 1.0) <= 1e-12
    for z in (-3.0, 0.7, 12.0):
        assert sigmoid(z) + sigmoid(-z) == pytest.approx(1.0, abs=1e-12)


def test_sigmoid_stable_at_extremes():
    assert sigmoid(700.0) == 1.0
    assert sigmoid(-700.0) == pytest.approx(0.0, abs=1e-300)
    out = sigmoid(np.array([-700.0, 0.0, 700.0]))
    assert np.all(np.isfinite(out))


def separable_fixture():
    # two clusters in two features, labels by cluster
    x = np.array(
        [[1.0, 1.2], [0.8, 1.1], [1.1, 0.9], [0.9, 1.0], [1.2, 1.3],
         [-1.0, -0.8], [-1.2, -1.1], [-0.9, -1.0], [-1.1, -1.2], [-0.8, -0.9]]
    )
    y = [0] * 5 + [1] * 5
    return FeatureTable("toy", ["a", "b"], x), y


def test_separable_toy_reaches_perfect_train_accuracy():
    table, y = separable_fixture()
    model = train(table, y, TrainConfig(max_iters=200))
    pred = model.predict(table.values)
    assert np.array_equal(pred, np.array(y))
    # each row keeps its constructed label
    for row, label in zip(table.values, y):
        assert model.predict(row) == label


def test_degenerate_labels_error():
    table, _ = separable_fixture()
    with pytest.raises(DataError, match="degenerate"):
        train(table, [0] * 10, TrainConfig(), class_values=(0.0, 1.0))


def test_zero_iterations_uniform_four_class():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(12, 3))
    y = [0, 1, 2, 3] * 3
    model = train(FeatureTable("t", list("abc"), x), y, TrainConfig(max_iters=0))
    proba = model.predict_proba(x)
    assert np.allclose(proba, 0.25)
    assert model.n_iters == 0


def test_zero_coefficients_uniform_and_tie_break():
    model = SoftmaxModel(
        class_values=(0.0, 0.3, 0.7, 1.0),
        coef=np.zeros((3, 3)),
        feature_names=["a", "b"],
        mean=np.zeros(2),
        std=np.ones(2),
    )
    proba = model.predict_proba(np.array([3.0, -2.0]))
    assert np.allclose(proba, 0.25)
    assert model.predict(np.array([3.0, -2.0])) == 0  # exact tie -> lowest index


def test_three_class_zero_exponents_give_thirds():
    model = SoftmaxModel(
        class_values=(0.0, 0.5, 1.0),
        coef=np.zeros((2, 2)),
        feature_names=["x"],
        mean=np.zeros(1),
        std=np.ones(1),
    )
    proba = model.predict_proba(np.array([1.234]))
    assert np.allclose(proba, 1.0 / 3.0)


def intercept_only_model(probabilities):
    """Model with no features whose output is a fixed distribution."""
    p = np.asarray(probabilities, dtype=float)
    scores = np.log(p[:-1] / p[-1])
    return SoftmaxModel(
        class_values=(0.0, 0.3266, 0.6734, 1.0),
        coef=scores[:, None],
        feature_names=[],
        mean=np.zeros(0),
        std=np.ones(0),
    )


def test_published_style_probability_row_selects_the_break_class():
    probs = [7.19e-15, 0.859431, 9.17e-23, 0.140568]
    model = intercept_only_model(probs)
    out = model.predict_proba(np.zeros(0))
    assert np.allclose(out, np.array(probs) / sum(probs), rtol=1e-9)
    level = model.predict(np.zeros(0))
    assert level == 1
    assert model.class_values[level] == 0.3266


def test_argmax_tie_breaks_to_lowest_index():
    assert int(np.argmax([0.25, 0.25, 0.25, 0.25])) == 0
    assert int(np.argmax([0.1, 0.7, 0.1, 0.1])) == 1


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(123)
    for _ in range(20):
        x = rng.normal(size=(5, 3))
        design = np.hstack([np.ones((5, 1)), x])
        y = rng.integers(0, 4, size=5)
        y[0] = 3  # keep the reference class present
        coef = rng.normal(scale=0.5, size=(3, 4))
        _, grad = nll_and_grad(coef, design, y, 4)
        fd = np.zeros_like(coef)
        h = 1e-5
        for i in range(coef.shape[0]):
            for j in range(coef.shape[1]):
                up = coef.copy()
                up[i, j] += h
                down = coef.copy()
                down[i, j] -= h
                fd[i, j] = (nll_and_grad(up, design, y, 4)[0] - nll_and_grad(down, design, y, 4)[0]) / (2 * h)
        rel = np.linalg.norm(grad - fd) / max(1.0, np.linalg.norm(grad))
        assert rel <= 1e-5


def test_training_loss_is_monotone_in_iteration_budget():
    rng = np.random.default_rng(5)
    x = rng.normal(size=(40, 3))
    y = rng.integers(0, 4, size=40)
    y[:4] = [0, 1, 2, 3]
    table = FeatureTable("t", list("abc"), x)
    losses = [
        train(table, y, TrainConfig(max_iters=m)).final_loss for m in (0, 5, 20, 80)
    ]
    assert losses[0] == pytest.approx(math.log(4.0))
    assert all(b <= a + 1e-12 for a, b in zip(losses, losses[1:]))


def test_probability_simplex_property():
    rng = np.random.default_rng(9)
    for _ in range(50):
        coef = rng.normal(scale=5.0, size=(3, 5))
        model = SoftmaxModel(
            class_values=(0.0, 0.3, 0.7, 1.0),
            coef=coef,
            feature_names=list("abcd"),
            mean=np.zeros(4),
            std=np.ones(4),
        )
        proba = model.predict_proba(rng.normal(scale=3.0, size=(10, 4)))
        assert np.all(proba >= 0.0)
        assert np.allclose(proba.sum(axis=1), 1.0, atol=1e-9)


def test_softmax_shift_invariance():
    # adding one constant to every class score of a sample cannot move it
    rng = np.random.default_rng(4)
    scores = rng.normal(size=(6, 4))
    shift = rng.normal(size=(6, 1))
    assert np.allclose(softmax(scores), softmax(scores + shift), atol=1e-12)


def test_dimension_mismatch_raises():
    table, y = separable_fixture()
    model = train(table, y, TrainConfig(max_iters=10))
    with pytest.raises(ValueError, match="dimension"):
        model.predict_proba(np.zeros(5))


def test_divergent_input_raises():
    x = np.array([[1.0, np.inf], [0.0, 1.0], [1.0, 2.0], [3.0, 1.0]])
    with pytest.raises(ArithmeticError, match="divergence"):
        train(FeatureTable("t", ["a", "b"], x), [0, 1, 0, 1], TrainConfig(max_iters=5))


def test_training_accepts_class_labels():
    table, y = separable_fixture()
    model = train(table, y, TrainConfig(max_iters=50), class_values=(0.0, 1.0))
    assert model.class_values == (0.0, 1.0)


def test_training_is_deterministic():
    table, y = separable_fixture()
    a = train(table, y, TrainConfig(max_iters=60, seed=3)).to_dict()
    b = train(table, y, TrainConfig(max_iters=60, seed=3)).to_dict()
    assert a == b


def test_model_json_round_trip(tmp_path):
    table, y = separable_fixture()
    model = train(table, y, TrainConfig(max_iters=30))
    path = tmp_path / "model.json"
    cli._write_json(path, model.to_dict())
    with open(path) as fh:
        loaded = SoftmaxModel.from_dict(json.load(fh))
    rows = np.array([[0.3, -0.2], [1.0, 1.0]])
    assert np.allclose(model.predict_proba(rows), loaded.predict_proba(rows))


def test_train_test_split_stratified_and_deterministic():
    y = [0] * 10 + [1] * 6 + [2] * 4
    a_train, a_test = classifier.train_test_split(y, fraction=0.8, seed=2)
    b_train, b_test = classifier.train_test_split(y, fraction=0.8, seed=2)
    assert np.array_equal(a_train, b_train) and np.array_equal(a_test, b_test)
    assert set(a_train.tolist()) | set(a_test.tolist()) == set(range(20))
    assert not set(a_train.tolist()) & set(a_test.tolist())
    labels_arr = np.array(y)
    for side in (a_train, a_test):
        assert set(labels_arr[side].tolist()) == {0, 1, 2}


@pytest.mark.parametrize("sizes", [(10, 6, 4), (1, 1, 2), (3, 0, 250), (0,), (1,), (97, 13)])
def test_train_test_split_matches_the_loop_oracle(sizes):
    rng = np.random.default_rng(sum(sizes))
    y = rng.permutation(np.repeat(np.arange(len(sizes)), sizes))
    for fraction in (0.1, 0.5, 0.8, 1.0):
        for seed in range(3):
            got = classifier.train_test_split(y, fraction=fraction, seed=seed)
            want = split_oracle(y, fraction=fraction, seed=seed)
            for a, b in zip(got, want):
                assert a.dtype == b.dtype and a.tolist() == b.tolist()


def test_train_config_validation():
    with pytest.raises(DataError):
        TrainConfig(split=1.5).validate()
    with pytest.raises(DataError):
        TrainConfig(tol=0.0).validate()


@pytest.mark.parametrize("l2_penalty", [0.0, 0.3])
def test_hessian_matches_central_differences_of_the_gradient(l2_penalty):
    rng = np.random.default_rng(77)
    for _ in range(10):
        design = np.hstack([np.ones((30, 1)), rng.normal(size=(30, 3))])
        y = rng.integers(0, 4, size=30)
        coef = rng.normal(scale=0.7, size=(3, 4))
        hess = classifier._hessian(coef, design, l2_penalty)
        fd = np.zeros_like(hess)
        h = 1e-5
        for j in range(coef.size):
            up, down = coef.copy().ravel(), coef.copy().ravel()
            up[j] += h
            down[j] -= h
            g_up = nll_and_grad(up.reshape(coef.shape), design, y, 4, l2_penalty)[1]
            g_down = nll_and_grad(down.reshape(coef.shape), design, y, 4, l2_penalty)[1]
            fd[:, j] = (g_up - g_down).ravel() / (2 * h)
        assert np.linalg.norm(hess - fd) / np.linalg.norm(hess) <= 1e-5


def test_newton_converges_below_the_gradient_descent_loss():
    # random labels: the classes overlap, so a finite optimum exists
    for seed in range(20):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(80, 3))
        y = rng.integers(0, 4, size=80)
        y[:4] = [0, 1, 2, 3]
        cfg = TrainConfig()
        model = train(FeatureTable("t", list("abc"), x), y, cfg)
        _, oracle_loss, oracle_iters = gradient_descent_oracle(x, y, 4)
        _, grad = nll_and_grad(model.coef, standardized_design(x), y, 4)
        assert np.linalg.norm(grad) <= cfg.tol
        assert model.stop_reason == "converged" and model.converged
        assert model.final_loss <= oracle_loss + 1e-12
        assert model.n_iters < oracle_iters


def test_separable_toy_reports_separation_and_stops():
    table, y = separable_fixture()
    model = train(table, y, TrainConfig())
    assert model.stop_reason == "separable"
    assert model.converged is False
    assert math.isfinite(model.final_loss)
    assert model.n_iters <= 40
    assert model.to_dict()["training"]["stop_reason"] == "separable"


def test_l2_penalty_gives_the_separable_toy_a_finite_optimum():
    table, y = separable_fixture()
    model = train(table, y, TrainConfig(l2_penalty=0.1))
    assert model.stop_reason == "converged" and model.converged


def test_constant_feature_trains_and_keeps_zero_coefficients():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(60, 3))
    x[:, 1] = 2.5
    y = rng.integers(0, 4, size=60)
    y[:4] = [0, 1, 2, 3]
    model = train(FeatureTable("t", list("abc"), x), y, TrainConfig())
    assert model.stop_reason == "converged"
    # least squares gives the minimum-norm step: zero on the all-zero column, up to rounding
    assert np.all(np.abs(model.coef[:, 2]) <= 1e-12)


def test_max_iters_no_descent_and_legacy_model_json_stop_reasons(monkeypatch):
    rng = np.random.default_rng(5)
    x = rng.normal(size=(40, 3))
    y = rng.integers(0, 4, size=40)
    y[:4] = [0, 1, 2, 3]
    table = FeatureTable("t", list("abc"), x)
    # a Hessian 1e30 times too small makes each Newton step 1e30 times too long,
    # and 60 halvings leave every tried step far too long to lower the loss
    hessian = classifier._hessian
    with monkeypatch.context() as patch:
        patch.setattr(classifier, "_hessian", lambda *args: hessian(*args) * 1e-30)
        model = train(table, y, TrainConfig())
    assert (model.n_iters, model.stop_reason, model.converged) == (0, "no_descent", False)
    model = train(table, y, TrainConfig(max_iters=1))
    assert (model.n_iters, model.stop_reason, model.converged) == (1, "max_iters", False)
    payload = model.to_dict()
    del payload["training"]["stop_reason"]  # model.json written before stop reasons
    loaded = SoftmaxModel.from_dict(payload)
    assert loaded.stop_reason is None
    assert np.array_equal(loaded.predict_proba(x), model.predict_proba(x))
