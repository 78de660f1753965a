"""Multi-class logistic regression with a reference class.

K-1 coefficient rows score the non-reference classes against the last class,
whose score is pinned at zero; class probabilities are the softmax of those
scores.  Training minimizes the mean negative log-likelihood (plus an optional
L2 penalty on the non-intercept coefficients) by damped Newton steps, the
textbook IRLS method for multinomial logistic regression, from an all-zeros
start, so a run is fully deterministic and max_iters=0 yields exactly uniform
predictions.  Each step's Hessian is built from the class probabilities that
nll_and_grad returned beside the loss of the accepted step.

Every product over the training rows but the gradient runs one row block of
ROW_BLOCK rows at a time (a one-row remainder joins the last block): the
scores design @ coef.T fill one (n, K-1) array block by block, and each class
block of the Hessian is summed over the row blocks, each weighed into one
reused buffer, so a step holds no weighted copy of the whole design.  A
block's products are small enough that BLAS runs them on one thread, without
the buffers of a second.  Scores are row by row, so they are the single
product's bits at any n.  So is the Hessian of one row block; over several,
its sums are grouped by block and differ from the single product's in the
last bits.

When the training rows are separable (some coefficients score every row's
own class strictly first), the likelihood has no finite maximizer: scaling
those coefficients up drives the loss towards zero.  Newton steps then shrink
the loss by about a factor e each, so the run still ends at the gradient
tolerance, and the model reports the separation instead of convergence.

The loss kernel works on the (n, K-1) scores design @ coef.T column by column,
in place: a running row maximum that counts the reference class's zero, one
exp, a left-to-right row sum and a divide.  It never stacks the (n, K) score
matrix, and predict_proba and the separation check share its column steps,
so the probabilities of the loss and of predict_proba agree bit for bit.

The fit holds one copy of the feature matrix: train drops its references to
the features once it has built the standardized design.  A caller that hands
the matrix over, as a temporary in the call with no name, list or wrapper of
its own still holding it, lets it be freed before the Newton loop allocates.
That takes CPython 3.11 or later, which moves a call's arguments into the
callee's frame; 3.10 keeps them on the caller's stack until the call returns.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import DataError

MAX_BACKTRACKS = 60
ROW_BLOCK = 4096  # training rows per block of the products over the rows


def _row_blocks(n) -> list:
    """Slices over n rows, ROW_BLOCK at a time; a one-row remainder joins the last block.

    numpy multiplies a one-row block as a vector, in another order than a
    matrix product, so that row alone would get other bits.
    """
    starts = range(0, max(n - 1, 1), ROW_BLOCK)
    return [slice(start, stop) for start, stop in zip(starts, [*starts[1:], n])]


def _scores(design, coef):
    """(n, K-1) scores design @ coef.T, filled one row block at a time."""
    scores = np.empty((design.shape[0], coef.shape[0]))
    for rows in _row_blocks(design.shape[0]):
        np.matmul(design[rows], coef.T, out=scores[rows])
    return scores


def _row_max(scores, ref):
    """Row maxima (n,) of the columns of scores (n, m) and of ref, a score or (n,) scores."""
    top = scores[:, 0].copy()
    for column in scores.T[1:]:
        np.maximum(top, column, out=top)
    return np.maximum(top, ref, out=top)


def _exp_columns(scores):
    """Exponentiate the columns of scores (n, m) in place, shifted by each row's maximum.

    The reference class scores 0 and is not held in scores.  Returns (top,
    total, e): the row maxima, the row sums of the exponentials, the
    reference class's last, and its (n,) exponentials.  The sums add the
    columns left to right, as numpy's sum(axis=1) adds fewer than eight
    columns, so the kernel gives the bits of the (n, K) reductions on a
    stacked score matrix without stacking it.
    """
    top = _row_max(scores, 0.0)
    for column in scores.T:
        np.subtract(column, top, out=column)
    np.exp(scores, out=scores)
    total = scores[:, 0].copy()
    for column in scores.T[1:]:
        total += column
    e = np.subtract(0.0, top)
    total += np.exp(e, out=e)
    return top, total, e


def _own_scores(scores, y):
    """(n,) score of each row's own class; the reference class, K-1, scores 0."""
    ref = y == scores.shape[1]
    own = np.take_along_axis(scores, np.where(ref, 0, y)[:, None], axis=1)[:, 0]
    own[ref] = 0.0
    return own


@dataclass
class TrainConfig:
    max_iters: int = 500
    tol: float = 1e-6
    l2_penalty: float = 0.0
    seed: int = 0
    split: float = 0.8  # train fraction used by callers that hold out a test split

    def validate(self):
        if self.max_iters < 0:
            raise DataError("max_iters must be >= 0")
        if self.tol <= 0:
            raise DataError("tol must be positive")
        if self.l2_penalty < 0:
            raise DataError("l2_penalty must be >= 0")
        if not (0.0 < self.split < 1.0):
            raise DataError("split must be in (0, 1)")


@dataclass
class SoftmaxModel:
    """Trained classifier: (K-1) x (p+1) coefficients, intercept first.

    The last class in class_values is the reference class with implicit zero
    score.  Inputs are standardized with the stored per-feature mean/std
    before scoring.  Instances are immutable in practice and safe to share
    across threads.
    """

    class_values: tuple
    coef: np.ndarray
    feature_names: list
    mean: np.ndarray
    std: np.ndarray
    n_iters: int = 0
    final_loss: float = float("nan")
    seed: int = 0
    stop_reason: str | None = None  # converged, separable, max_iters or no_descent once trained

    @property
    def converged(self) -> bool:
        return self.stop_reason == "converged"

    @property
    def n_features(self) -> int:
        return self.coef.shape[1] - 1

    def _design(self, rows):
        rows = np.asarray(rows, dtype=float)
        if rows.ndim != 2:
            raise ValueError(f"rows must be an (n, p) matrix, got {rows.ndim} dimension(s)")
        if rows.shape[1] != self.n_features:
            raise ValueError(
                f"feature dimension mismatch: expected {self.n_features}, got {rows.shape[1]}"
            )
        design = np.empty((rows.shape[0], self.n_features + 1))
        design[:, 0] = 1.0
        z = design[:, 1:]  # standardized in place, so no copy is stacked
        np.subtract(rows, self.mean, out=z)
        np.divide(z, self.std, out=z)
        return design

    def predict_proba(self, rows):
        """(n, K) class probabilities of an (n, p) feature matrix, by nll_and_grad's kernel."""
        scores = _scores(self._design(rows), self.coef)
        _, total, ref = _exp_columns(scores)
        proba = np.empty((scores.shape[0], scores.shape[1] + 1))
        np.divide(scores, total[:, None], out=proba[:, :-1])
        np.divide(ref, total, out=proba[:, -1])
        return proba

    def predict(self, rows):
        """(n,) most probable class levels of an (n, p) feature matrix.

        Ties go to the lowest class index.
        """
        return np.argmax(self.predict_proba(rows), axis=1)  # argmax takes the first maximum

    def to_dict(self) -> dict:
        return {
            "version": 1,
            "class_values": list(self.class_values),
            "coefficients": self.coef.tolist(),
            "feature_names": list(self.feature_names),
            "standardization": {"mean": self.mean.tolist(), "std": self.std.tolist()},
            "training": {
                "iterations": self.n_iters,
                "final_loss": self.final_loss,
                "converged": self.converged,
                "seed": self.seed,
                "stop_reason": self.stop_reason,
            },
        }


def nll_and_grad(coef, design, y, n_classes, l2_penalty=0.0):
    """(loss, grad, proba): the mean negative log-likelihood, its gradient w.r.t.
    the coefficients, and the probabilities they came from.

    coef has shape (K-1, p+1), design (n, p+1) with the intercept column
    first, y holds class levels in [0, K), n_classes is K.  The L2 penalty
    skips intercepts.
    proba is the (n, K-1) probabilities of the non-reference classes at coef,
    bit for bit the first K-1 columns predict_proba gives.  The scores design
    @ coef.T turn into proba in place, one column at a time, and the reference
    class's zero score is never stored.
    """
    n = design.shape[0]
    proba = _scores(design, coef)
    own = _own_scores(proba, y)  # read before the kernel overwrites the scores
    top, total, _ = _exp_columns(proba)
    loss = float(np.mean(np.log(total) + top - own))
    np.divide(proba, total[:, None], out=proba)
    delta = proba.copy()
    for level, column in enumerate(delta.T):
        column[y == level] -= 1.0
    grad = delta.T @ design / n
    if l2_penalty:
        penalty = coef.copy()
        penalty[:, 0] = 0.0
        loss += 0.5 * l2_penalty * float(np.sum(penalty**2))
        grad = grad + l2_penalty * penalty
    return loss, grad, proba


def _hessian(proba, design, l2_penalty):
    """Hessian of nll_and_grad's loss w.r.t. coef.ravel(): a (K-1)(p+1) square matrix.

    proba holds the (n, K-1) probabilities of the non-reference classes at
    coef, as nll_and_grad returns them.  Built one (a, b) class block at a
    time, X^T diag(p_a (delta_ab - p_b)) X / n, so no (n, K-1, K-1) array is
    formed.  Each block is summed over the row blocks, each weighed into one
    buffer of the longest block's rows; the first row block's product is
    assigned, not added to zeros (0.0 + -0.0 is 0.0), so one row block gets
    the single product's bits.  The L2 term skips intercepts.
    """
    n, m = design.shape
    k1 = proba.shape[1]
    blocks = _row_blocks(n)
    weighted = np.empty((min(n, ROW_BLOCK + 1), m))  # rows of the longest block
    hess = np.empty((k1 * m, k1 * m))
    for a in range(k1):
        for b in range(a, k1):
            for rows in blocks:
                x = design[rows]
                w = proba[rows, a] * (float(a == b) - proba[rows, b])
                part = x.T @ np.multiply(w[:, None], x, out=weighted[:len(x)])
                if rows.start:
                    block += part
                else:
                    block = part
            block /= n
            hess[a * m:(a + 1) * m, b * m:(b + 1) * m] = block
            hess[b * m:(b + 1) * m, a * m:(a + 1) * m] = block.T
    penalty = np.full(m, float(l2_penalty))
    penalty[0] = 0.0
    hess[np.diag_indices_from(hess)] += np.tile(penalty, k1)
    return hess


def _separates(coef, design, y) -> bool:
    """Whether coef scores every row's own class strictly above every other class."""
    scores = _scores(design, coef)
    own = _own_scores(scores, y)
    for level, column in enumerate(scores.T):
        column[y == level] = -np.inf  # a row's own class is not its rival
    rival = _row_max(scores, np.where(y == scores.shape[1], -np.inf, 0.0))
    return bool(np.all(own > rival))


def train(features, labels, cfg: TrainConfig | None = None, class_values=None) -> SoftmaxModel:
    """Fit the softmax classifier by damped Newton steps from all-zero coefficients.

    Each iteration solves H d = g (Hessian and gradient of the mean NLL plus
    the L2 term at the last accepted coefficients; the Hessian reuses the
    probabilities that step's loss evaluation computed) and tries
    coef - step * d with the full Newton step, step = 1, first, halving it up
    to MAX_BACKTRACKS times until the loss does not increase.  Training stops
    when the gradient norm is at most cfg.tol ("converged"), after
    cfg.max_iters steps ("max_iters"), or when no step descends
    ("no_descent").  Without an L2 penalty, final coefficients that rank
    every training row's own class strictly first mean the data are separable
    and no finite maximum likelihood estimate exists: stop_reason is then
    "separable" and converged is False.

    features is a FeatureTable; its columns are standardized with the
    statistics of the rows passed in (the caller's training split).  Every
    class must appear at least once.  train keeps no reference to the
    features once the design is built, so a table passed as a temporary, held
    by nothing else, is freed before the first Newton step.

    Raises:
        DataError: a class is absent from the labels (degenerate labels), or
            a column's mean or std overflows.
        ArithmeticError: loss went non-finite (divergence).
    """
    cfg = cfg or TrainConfig()
    cfg.validate()
    x = np.asarray(features.values, dtype=float)
    if not np.all(np.isfinite(x)):
        raise ArithmeticError("divergence: features contain non-finite values")
    y = np.asarray(labels, dtype=int)
    if class_values is None:
        class_values = tuple(float(i) for i in range(int(y.max()) + 1))
    class_values = tuple(class_values)
    if x.shape[0] != y.size:
        raise ValueError("features and labels disagree on sample count")
    k = len(class_values)
    present = set(y.tolist())
    if len(present) < k:
        missing = sorted(set(range(k)) - present)
        raise DataError(f"degenerate labels: class level(s) {missing} absent from training data")

    mean, std = features.standardization()
    model = SoftmaxModel(class_values, np.zeros((k - 1, x.shape[1] + 1)),
                         list(features.feature_names), mean, std, seed=cfg.seed)
    design = model._design(x)
    del features, x  # the fit holds the design, not also its source (see the module docstring)

    coef = model.coef
    loss, grad, proba = nll_and_grad(coef, design, y, k, cfg.l2_penalty)
    if not np.isfinite(loss):
        raise ArithmeticError("divergence: training loss is not finite")
    iters = 0
    while True:
        if float(np.linalg.norm(grad)) <= cfg.tol:
            stop_reason = "converged"
            break
        if iters >= cfg.max_iters:
            stop_reason = "max_iters"
            break
        # a constant feature is an all-zero column after standardization and
        # makes the Hessian singular, hence least squares
        g = grad.ravel()
        d = np.linalg.lstsq(_hessian(proba, design, cfg.l2_penalty), g, rcond=None)[0]
        del proba  # only the Hessian reads the probabilities; free them for the line search
        direction = d.reshape(grad.shape) if float(d @ g) > 0.0 else grad
        step = 1.0
        for _ in range(MAX_BACKTRACKS):
            candidate = coef - step * direction
            new_loss, new_grad, proba = nll_and_grad(candidate, design, y, k, cfg.l2_penalty)
            if np.isfinite(new_loss) and new_loss <= loss:
                break
            step *= 0.5
        else:
            if not np.isfinite(new_loss):
                raise ArithmeticError("divergence: training loss is not finite")
            stop_reason = "no_descent"  # no descent possible at float precision
            break
        coef, loss, grad = candidate, new_loss, new_grad
        iters += 1
    if not cfg.l2_penalty and _separates(coef, design, y):
        stop_reason = "separable"

    return replace(model, coef=coef, n_iters=iters, final_loss=loss, stop_reason=stop_reason)


def train_test_split(labels, fraction=0.8, seed=0):
    """Stratified index split: (train_idx, test_idx), deterministic per seed.

    Every class keeps at least one sample on each side whenever it has two.
    Each class, in sorted order, is shuffled by the next
    ``np.random.default_rng(seed).permutation`` call on one stream, and its
    first n_train shuffled samples train.  ``rng.Stream`` draws that stream
    bit for bit without importing numpy.random.
    """
    from . import rng  # only a draw compiles the generator

    y = np.asarray(labels, dtype=int)
    stream = rng.Stream(seed)
    in_train = np.ones(y.size, dtype=bool)
    for level in sorted(set(y.tolist())):
        idx = np.flatnonzero(y == level)
        n_train = int(round(fraction * idx.size))
        n_train = min(max(n_train, 1), idx.size - 1) if idx.size > 1 else idx.size
        in_train[idx[stream.tail(idx.size, idx.size - n_train)]] = False
    return np.flatnonzero(in_train), np.flatnonzero(~in_train)
