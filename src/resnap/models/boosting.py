"""Gradient-boosted trees with multiclass softmax loss.

Per round, one regression tree per class is fit to the softmax gradient
residuals (one-hot target minus predicted probability). The trees come
from the shared core in :mod:`resnap.models.tree`: with the gradient as
the per-row statistic, its split score
``sum(left)**2 / n_left + sum(right)**2 / n_right`` picks the split of
least squared error, and ties take the first float maximum, which is the
lowest feature index, then the lowest threshold. Leaves apply the
standard multiclass Newton step
``(K-1)/K * sum(residual) / sum(p * (1 - p))`` and are shrunk by the
learning rate. Scores start at the log class priors, so a learning rate
of zero predicts the prior argmax. Rows can be subsampled per round and
features per tree. The random draws are made round by round from one
generator, so the first ``n`` rounds of a fitted model are exactly the
model fitted with ``n_estimators=n``.
"""
from __future__ import annotations

from typing import Iterator

import numpy as np

from ..errors import ValidationError, check_deadline
from ..seeding import derive_seed
from .params import FRACTION, LEARNING_RATE, MAX_DEPTH, N_ESTIMATORS, check_params, params_of
from .tree import (
    Tree,
    apply_trees,
    check_features,
    check_training_data,
    grow,
    presort,
    sorted_cuts,
    subset_order,
)

_EPS = 1e-12


def _newton_step(grad_sum: float, hess: np.ndarray, factor: float) -> float:
    denom = hess.sum()
    if denom < _EPS:
        return 0.0
    return factor * grad_sum / denom


def _softmax(scores: np.ndarray) -> np.ndarray:
    shifted = scores - scores.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=1, keepdims=True)


class GradientBoostedTrees:
    """Multiclass softmax boosting over regression trees."""

    PARAMETERS = {
        "n_estimators": N_ESTIMATORS,
        "max_depth": MAX_DEPTH,
        "learning_rate": LEARNING_RATE,
        "subsample": FRACTION,
        "colsample": FRACTION,
    }

    def __init__(
        self,
        n_estimators: int = 100,
        max_depth: int | None = None,
        learning_rate: float = 0.1,
        subsample: float = 1.0,
        colsample: float = 1.0,
        seed: int = 0,
    ):
        self.n_estimators = n_estimators
        self.max_depth = max_depth
        self.learning_rate = learning_rate
        self.subsample = subsample
        self.colsample = colsample
        self.seed = seed
        self.classes_: np.ndarray | None = None
        self.init_scores_: np.ndarray | None = None
        self.rounds_: list[list[Tree]] = []
        self.train_log_loss_: list[float] = []
        self.n_features_in_: int | None = None

    def fit(self, X, y, deadline: float | None = None) -> "GradientBoostedTrees":
        """Fit the rounds in order.

        Before each round, raise :class:`CellTimeoutError` once
        ``time.monotonic()`` has passed ``deadline``.
        """
        check_params(self)
        X, y = check_training_data(X, y)
        self.n_features_in_ = X.shape[1]
        self.classes_ = np.unique(y)
        n, d = X.shape
        n_classes = len(self.classes_)
        self.rounds_ = []
        self.train_log_loss_ = []
        if n_classes == 1:
            self.init_scores_ = np.zeros(1)
            return self
        codes = np.searchsorted(self.classes_, y)
        onehot = np.zeros((n, n_classes))
        onehot[np.arange(n), codes] = 1.0
        priors = np.bincount(codes, minlength=n_classes) / n
        self.init_scores_ = np.log(priors)
        scores = np.tile(self.init_scores_, (n, 1))
        rng = np.random.default_rng(derive_seed(self.seed, "boost"))
        factor = (n_classes - 1) / n_classes
        probs = _softmax(scores)  # the loss so far, and what the next round fits
        self.train_log_loss_.append(self._log_loss(probs, codes))
        X = np.asfortranarray(X)  # the trees read X column by column
        order = presort(X)  # shared by every class tree of every round
        # the root's sorted values and cuts, shared while rows and features stay
        root = sorted_cuts(X, order) if self.colsample >= 1.0 else None
        for _ in range(self.n_estimators):
            check_deadline(deadline)
            rest = None  # rows left out of the round
            if self.subsample < 1.0:
                n_rows = max(1, int(round(self.subsample * n)))
                rows = np.sort(rng.choice(n, size=n_rows, replace=False))
                rest = np.setdiff1d(np.arange(n), rows, assume_unique=True)
                X_rows, order_rows = X[rows], subset_order(order, rows)
                if root is not None:
                    root = sorted_cuts(X_rows, order_rows)
            else:
                rows = np.arange(n)
                X_rows, order_rows = X, order
            round_trees: list[Tree] = []
            for k in range(n_classes):
                if self.colsample < 1.0:
                    n_feats = max(1, int(round(self.colsample * d)))
                    feats = np.sort(rng.choice(d, size=n_feats, replace=False))
                else:
                    feats = np.arange(d)
                p = probs[rows, k]
                grad = onehot[rows, k] - p
                hess = p * (1.0 - p)
                leaf = np.empty(n, dtype=np.int64)
                reached = leaf if rest is None else np.empty(rows.size, dtype=np.int64)
                tree = grow(
                    X_rows,
                    grad,
                    max_depth=self.max_depth,
                    features=feats,
                    order=order_rows,
                    root=root,
                    node_value=lambda r, total: _newton_step(total, hess[r], factor),
                    reached=reached,
                )
                if rest is not None:
                    leaf[rows] = reached
                    leaf[rest] = tree.apply(X[rest])
                scores[:, k] += self.learning_rate * tree.value[leaf]
                round_trees.append(tree)
            self.rounds_.append(round_trees)
            probs = _softmax(scores)
            self.train_log_loss_.append(self._log_loss(probs, codes))
        return self

    @staticmethod
    def _log_loss(probs: np.ndarray, codes: np.ndarray) -> float:
        picked = np.clip(probs[np.arange(len(codes)), codes], _EPS, None)
        return float(-np.mean(np.log(picked)))

    def _staged_scores(self, X) -> Iterator[np.ndarray]:
        """Raw scores before the first round, then after each round.

        Every stage is the same array, updated in place; within a round the
        classes are added in order. The trees descend together
        (:func:`apply_trees`), which gives each the leaves of its own
        descent. A single-class fit grows no trees, so its scores stay at
        the prior through all ``n_estimators`` rounds.
        """
        if self.classes_ is None:
            raise ValidationError("model is not fitted")
        trees = [tree for round_trees in self.rounds_ for tree in round_trees]
        X = check_features(X, self.n_features_in_)
        scores = np.tile(self.init_scores_, (X.shape[0], 1))
        yield scores
        rounds = self.rounds_ if len(self.classes_) > 1 else [[]] * self.n_estimators
        leaves = apply_trees(trees, X)
        for round_trees in rounds:
            for k, tree in enumerate(round_trees):
                scores[:, k] += self.learning_rate * tree.value[next(leaves)]
            yield scores

    def staged_predict(self, X) -> Iterator[np.ndarray]:
        """Yield the predictions after 1, 2, ..., n_estimators rounds."""
        stages = self._staged_scores(X)
        next(stages)
        for scores in stages:
            yield self.classes_[np.argmax(scores, axis=1)]

    def _raw_scores(self, X) -> np.ndarray:
        for scores in self._staged_scores(X):
            pass
        return scores

    def predict(self, X) -> np.ndarray:
        return self.classes_[np.argmax(self._raw_scores(X), axis=1)]

    def to_dict(self) -> dict:
        return {
            "kind": "boosted",
            "seed": self.seed,
            "params": params_of(self),
            "classes": [int(c) for c in self.classes_],
            "init_scores": [float(v) for v in self.init_scores_],
            "rounds": [[tree.to_dict() for tree in trees] for trees in self.rounds_],
        }
