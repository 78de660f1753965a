"""Multi-class logistic regression with a reference class.

K-1 coefficient rows score the non-reference classes against the last class,
whose score is pinned at zero; class probabilities are the softmax of those
scores.  Training minimizes the mean negative log-likelihood (plus an optional
L2 penalty on the non-intercept coefficients) by damped Newton steps, the
textbook IRLS method for multinomial logistic regression, from an all-zeros
start, so a run is fully deterministic and max_iters=0 yields exactly uniform
predictions.  Each step's Hessian is built from the class probabilities that
nll_and_grad returned beside the loss of the accepted step, and weighs the
design into one buffer reused for every class block, so a step holds one
weighted copy of the design at most.

When the training rows are separable (some coefficients score every row's
own class strictly first), the likelihood has no finite maximizer: scaling
those coefficients up drives the loss towards zero.  Newton steps then shrink
the loss by about a factor e each, so the run still ends at the gradient
tolerance, and the model reports the separation instead of convergence.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import DataError

MAX_BACKTRACKS = 60


def softmax(scores):
    """Row-wise softmax of a score matrix (n, K)."""
    scores = np.asarray(scores, dtype=float)
    shifted = scores - scores.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


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
        """(n, K) class probabilities of an (n, p) feature matrix; each row sums to one."""
        return softmax(_scores(self.coef, self._design(rows)))

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


def _scores(coef, design):
    """Class scores (n, K): one column per coefficient row, then the reference class's zero."""
    return np.hstack([design @ coef.T, np.zeros((design.shape[0], 1))])


def nll_and_grad(coef, design, y, n_classes, l2_penalty=0.0):
    """(loss, grad, proba): the mean negative log-likelihood, its gradient w.r.t.
    the coefficients, and the probabilities they came from.

    coef has shape (K-1, p+1), design (n, p+1) with the intercept column
    first, y holds class levels in [0, K).  The L2 penalty skips intercepts.
    proba is the (n, K-1) probabilities of the non-reference classes at coef,
    bit for bit softmax(_scores(coef, design))[:, :-1].
    """
    n = design.shape[0]
    rows = np.arange(n)
    scores = _scores(coef, design)
    top = scores.max(axis=1, keepdims=True)
    own = scores[rows, y]  # the last read of the scores, whose buffer e then takes
    e = np.exp(np.subtract(scores, top, out=scores), out=scores)
    total = e.sum(axis=1, keepdims=True)
    loss = float(np.mean(np.log(total[:, 0]) + top[:, 0] - own))
    proba = e[:, : n_classes - 1] / total  # probabilities of the non-reference classes
    delta = proba.copy()
    one_hot = y < n_classes - 1
    delta[rows[one_hot], y[one_hot]] -= 1.0
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
    formed; every block weighs the design into one reused buffer.  The L2
    term skips intercepts.
    """
    n, m = design.shape
    k1 = proba.shape[1]
    weighted = np.empty_like(design)
    hess = np.empty((k1 * m, k1 * m))
    for a in range(k1):
        for b in range(a, k1):
            w = proba[:, a] * (float(a == b) - proba[:, b])
            block = design.T @ np.multiply(w[:, None], design, out=weighted) / n
            hess[a * m:(a + 1) * m, b * m:(b + 1) * m] = block
            hess[b * m:(b + 1) * m, a * m:(a + 1) * m] = block.T
    penalty = np.full(m, float(l2_penalty))
    penalty[0] = 0.0
    hess[np.diag_indices_from(hess)] += np.tile(penalty, k1)
    return hess


def _separates(coef, design, y) -> bool:
    """Whether coef scores every row's own class strictly above every other class."""
    rows = np.arange(design.shape[0])
    scores = _scores(coef, design)
    own = scores[rows, y].copy()
    scores[rows, y] = -np.inf
    return bool(np.all(own > scores.max(axis=1)))


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
    class must appear at least once.

    Raises:
        DataError: a class is absent from the labels (degenerate labels).
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

    mean = x.mean(axis=0)
    std = x.std(axis=0)
    std[std == 0.0] = 1.0
    model = SoftmaxModel(class_values, np.zeros((k - 1, x.shape[1] + 1)),
                         list(features.feature_names), mean, std, seed=cfg.seed)
    design = model._design(x)

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
    """
    y = np.asarray(labels, dtype=int)
    rng = np.random.default_rng(seed)
    in_train = np.zeros(y.size, dtype=bool)
    for level in sorted(set(y.tolist())):
        idx = np.flatnonzero(y == level)
        idx = idx[rng.permutation(idx.size)]
        n_train = int(round(fraction * idx.size))
        n_train = min(max(n_train, 1), idx.size - 1) if idx.size > 1 else idx.size
        in_train[idx[:n_train]] = True
    return np.flatnonzero(in_train), np.flatnonzero(~in_train)

