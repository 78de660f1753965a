import json
import math
import sys
import tracemalloc

import numpy as np
import pytest

from matchflow import classifier, cli
from matchflow.classifier import ROW_BLOCK, SoftmaxModel, TrainConfig, nll_and_grad, train
from matchflow.errors import DataError
from matchflow.ingest import FeatureTable

from util import (
    gradient_descent_oracle,
    hessian_oracle,
    nll_and_grad_oracle,
    separates_oracle,
    split_oracle,
    stacked_proba_oracle,
    stacked_scores_oracle,
    standardized_design,
)


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
        assert model.predict(row[None]).tolist() == [label]


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
    proba = model.predict_proba(np.array([[3.0, -2.0]]))
    assert np.allclose(proba, 0.25)
    assert model.predict(np.array([[3.0, -2.0]])).tolist() == [0]  # exact tie -> lowest index


def test_three_class_zero_exponents_give_thirds():
    model = SoftmaxModel(
        class_values=(0.0, 0.5, 1.0),
        coef=np.zeros((2, 2)),
        feature_names=["x"],
        mean=np.zeros(1),
        std=np.ones(1),
    )
    proba = model.predict_proba(np.array([[1.234]]))
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
    out = model.predict_proba(np.zeros((1, 0)))
    assert np.allclose(out[0], np.array(probs) / sum(probs), rtol=1e-9)
    level = int(model.predict(np.zeros((1, 0)))[0])
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
        _, grad, _ = nll_and_grad(coef, design, y, 4)
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


def test_dimension_mismatch_raises():
    table, y = separable_fixture()
    model = train(table, y, TrainConfig(max_iters=10))
    with pytest.raises(ValueError, match="dimension mismatch"):
        model.predict_proba(np.zeros((1, 5)))
    with pytest.raises(ValueError, match=r"\(n, p\) matrix"):
        model.predict_proba(np.zeros(2))  # one row is passed as row[None]


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
        payload = json.load(fh)
    loaded = SoftmaxModel(
        class_values=tuple(payload["class_values"]),
        coef=np.array(payload["coefficients"]),
        feature_names=payload["feature_names"],
        mean=np.array(payload["standardization"]["mean"]),
        std=np.array(payload["standardization"]["std"]),
    )
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
        proba = stacked_proba_oracle(coef, design)[:, :-1]
        hess = classifier._hessian(proba, design, l2_penalty)
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


@pytest.mark.parametrize("l2_penalty", [0.0, 0.3])
@pytest.mark.parametrize("n", [1, 97, ROW_BLOCK, ROW_BLOCK + 1, 2 * ROW_BLOCK + 1,
                               ROW_BLOCK * 5 // 2])
def test_the_row_blocked_hessian_matches_the_one_product_oracle(n, l2_penalty):
    # one block (a one-row remainder joins the block before) is the one product;
    # over several, only the grouping of the row-block sums differs
    rng = np.random.default_rng(n)
    design = np.hstack([np.ones((n, 1)), rng.normal(size=(n, 10))])
    coef = rng.normal(scale=0.7, size=(3, 11))
    proba = stacked_proba_oracle(coef, design)[:, :-1]
    got, want = classifier._hessian(proba, design, l2_penalty), hessian_oracle(proba, design, l2_penalty)
    if n <= ROW_BLOCK + 1:
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
    else:
        assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)


def test_a_fit_over_several_row_blocks_follows_the_one_product_hessian(monkeypatch):
    # overlapping classes with some signal: a finite optimum, reached by several Newton steps
    rng = np.random.default_rng(2024)
    n = ROW_BLOCK * 5 // 2
    x = rng.normal(size=(n, 6))
    y = np.argmax(x[:, :4] + rng.normal(scale=1.5, size=(n, 4)), axis=1)
    table = FeatureTable("t", list("abcdef"), x)
    model = train(table, y, TrainConfig())
    with monkeypatch.context() as patch:
        patch.setattr(classifier, "_hessian", hessian_oracle)
        want = train(table, y, TrainConfig())
    assert (model.n_iters, model.stop_reason) == (want.n_iters, want.stop_reason)
    assert model.stop_reason == "converged" and model.n_iters >= 3
    assert np.linalg.norm(model.coef - want.coef) <= 1e-9 * np.linalg.norm(want.coef)


def test_the_loss_returns_the_probabilities_softmax_gives_bit_for_bit():
    # the Newton step builds its Hessian from these instead of recomputing softmax
    rng = np.random.default_rng(41)
    for n, k, l2_penalty in [(1, 2, 0.0), (50, 4, 0.0), (200, 3, 0.5), (37, 5, 0.0)]:
        design = np.hstack([np.ones((n, 1)), rng.normal(scale=3.0, size=(n, 4))])
        y = rng.integers(0, k, size=n)
        coef = rng.normal(scale=2.0, size=(k - 1, 5))
        _, _, proba = nll_and_grad(coef, design, y, k, l2_penalty)
        assert np.array_equal(proba, stacked_proba_oracle(coef, design)[:, :-1])
        assert proba.shape == (n, k - 1)


@pytest.mark.parametrize("k", [2, 3, 4, 5])
@pytest.mark.parametrize("n", [1, 7, 97, 200, 1000, ROW_BLOCK + 1, 2 * ROW_BLOCK + 1, 9000])
def test_the_column_kernel_matches_the_stacked_score_oracle_bit_for_bit(n, k):
    # the mid-sized n are where a change of BLAS operand layout moves bits
    rng = np.random.default_rng(1000 * n + k)
    design = np.hstack([np.ones((n, 1)), rng.normal(size=(n, 10))])
    y = rng.integers(0, k, size=n)
    for coef in (np.zeros((k - 1, 11)), rng.normal(scale=0.3, size=(k - 1, 11)),
                 rng.normal(scale=4.0, size=(k - 1, 11))):
        for l2_penalty in (0.0, 0.3):
            loss, grad, proba = nll_and_grad(coef, design, y, k, l2_penalty)
            want_loss, want_grad, want_proba = nll_and_grad_oracle(coef, design, y, k, l2_penalty)
            assert np.float64(loss).view(np.uint64) == np.float64(want_loss).view(np.uint64)
            assert np.array_equal(grad.view(np.uint64), want_grad.view(np.uint64))
            assert np.array_equal(proba.view(np.uint64), want_proba.view(np.uint64))
        # each row labelled with its top class, then one row relabelled
        own_first = np.argmax(stacked_scores_oracle(coef, design), axis=1)
        for labels in (y, own_first, np.where(np.arange(n) == n // 2, (own_first + 1) % k, own_first)):
            assert classifier._separates(coef, design, labels) == separates_oracle(coef, design, labels)


@pytest.mark.parametrize("k", [2, 3, 4, 5])
@pytest.mark.parametrize("n", [1, 7, 97, 200, 1000, ROW_BLOCK + 1, 2 * ROW_BLOCK + 1, 9000])
def test_predict_proba_matches_the_stacked_softmax_oracle_bit_for_bit(n, k):
    # every column, the reference class's included, on the grid of the kernel test above
    rng = np.random.default_rng(1000 * n + k)
    rows = rng.normal(size=(n, 10))
    design = np.hstack([np.ones((n, 1)), rows])  # zero mean, unit std: the model's own design
    for coef in (np.zeros((k - 1, 11)), rng.normal(scale=0.3, size=(k - 1, 11)),
                 rng.normal(scale=4.0, size=(k - 1, 11))):
        model = SoftmaxModel(tuple(range(k)), coef, [f"f{j}" for j in range(10)],
                             np.zeros(10), np.ones(10))
        proba = model.predict_proba(rows)
        assert proba.shape == (n, k)
        assert np.array_equal(proba.view(np.uint64),
                              stacked_proba_oracle(coef, design).view(np.uint64))


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
        _, grad, _ = nll_and_grad(model.coef, standardized_design(x), y, 4)
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


@pytest.mark.skipif(sys.version_info < (3, 11),
                    reason="CPython 3.10 keeps a call's arguments on the caller's stack")
def test_the_fit_holds_one_copy_of_a_feature_matrix_handed_over():
    # The matrix exists only inside the call.  Building the design holds it
    # beside its standardized copy; the Newton loop then holds the design, the
    # kernel's columns and a weighted buffer of at most ROW_BLOCK + 1 rows.
    # At 5000 rows that buffer is most of a design, and the fit peaks at about
    # 2.6 matrices; at 3 * ROW_BLOCK rows it peaks at about 2.3, where a
    # weighted copy of the whole design read 2.8.  Keeping the matrix too adds
    # one matrix to either.
    rng = np.random.default_rng(17)
    p = 10
    for n, bound in ((5000, 3.2), (3 * ROW_BLOCK, 2.4)):
        y = rng.integers(0, 4, size=n)
        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            model = train(FeatureTable("t", list("abcdefghij"), rng.normal(size=(n, p))), y)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            if not tracing:
                tracemalloc.stop()
        assert model.stop_reason == "converged"
        assert peak <= bound * n * p * 8, (n, peak / (n * p * 8))
