"""Random forest over the CART base learner."""
from __future__ import annotations

import math
from typing import Iterator

import numpy as np

from ..errors import ValidationError
from ..seeding import derive_seed
from .params import (
    BOOL,
    MAX_DEPTH,
    MAX_FEATURES_OR_SQRT,
    MIN_SAMPLES_LEAF,
    MIN_SAMPLES_SPLIT,
    N_ESTIMATORS,
    check_params,
    params_of,
)
from .tree import DecisionTree, apply_trees, check_features, check_training_data


class RandomForest:
    """Bagged CART trees with per-node feature subsampling.

    Prediction is a plurality vote over the trees; vote ties resolve to
    the lowest class id. With ``bootstrap=False``, ``n_estimators=1`` and
    ``max_features=None`` the forest reduces exactly to a single tree.
    Tree ``i`` draws its bootstrap rows and node features from seeds
    derived from ``i`` alone, so the first ``n`` trees of a fitted forest
    are exactly the forest fitted with ``n_estimators=n``.
    """

    PARAMETERS = {
        "n_estimators": N_ESTIMATORS,
        "max_depth": MAX_DEPTH,
        "min_samples_split": MIN_SAMPLES_SPLIT,
        "min_samples_leaf": MIN_SAMPLES_LEAF,
        "bootstrap": BOOL,
        "max_features": MAX_FEATURES_OR_SQRT,
    }

    def __init__(
        self,
        n_estimators: int = 100,
        max_depth: int | None = None,
        min_samples_split: int = 2,
        min_samples_leaf: int = 1,
        bootstrap: bool = True,
        max_features: int | str | None = "sqrt",
        seed: int = 0,
    ):
        self.n_estimators = n_estimators
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.bootstrap = bootstrap
        self.max_features = max_features
        self.seed = seed
        self.classes_: np.ndarray | None = None
        self.trees_: list[DecisionTree] = []
        self.n_features_in_: int | None = None

    def fit(self, X, y, deadline: float | None = None) -> "RandomForest":
        """Fit on all of ``X`` and ``y``: :meth:`fit_many` of this forest alone."""
        RandomForest.fit_many([self], X, y, [np.arange(np.size(y))], deadline)
        return self

    @staticmethod
    def fit_many(forests, X, y, row_sets, deadline: float | None = None) -> None:
        """Fit ``forests[i]`` on the rows ``row_sets[i]`` of ``X`` and ``y``,
        growing every tree of every forest in one :meth:`DecisionTree.fit_many` call.

        Each forest ends exactly as ``fit(X[rows], y[rows])`` leaves it.
        Tree ``i`` of a forest is the :class:`DecisionTree` fit on its
        bootstrap sample ``rows[rng.integers(0, n, n)]``. The forests may
        differ in ``seed``, ``n_estimators`` and ``bootstrap`` only.
        Before each lock-step batch, raise :class:`CellTimeoutError` once
        ``time.monotonic()`` has passed ``deadline``.
        """
        for forest in forests:
            check_params(forest)
        X, y = check_training_data(X, y)  # "sqrt" needs the width before the trees exist
        trees, samples = [], []  # (forest, tree) of every forest, and each tree's rows
        for forest, rows in zip(forests, row_sets):
            rows = np.asarray(rows, dtype=np.int64)
            n = rows.size
            if n == 0:
                raise ValidationError("training data must be a non-empty 2-D matrix")
            forest.n_features_in_ = X.shape[1]
            forest.classes_ = np.unique(y[rows])
            forest.trees_ = []
            params = forest._tree_params(X.shape[1])
            for i in range(forest.n_estimators):
                idx = rows
                if forest.bootstrap:
                    draw = np.random.default_rng(derive_seed(forest.seed, "bootstrap", i))
                    idx = rows[draw.integers(0, n, size=n)]
                seed = derive_seed(forest.seed, "features", i)
                trees.append((forest, DecisionTree(seed=seed, **params)))
                samples.append(idx)
        DecisionTree.fit_many([tree for _, tree in trees], X, y, samples, deadline)
        for forest, tree in trees:
            forest.trees_.append(tree)

    def _features_per_node(self, n_features: int) -> int | None:
        if self.max_features == "sqrt":
            return max(1, round(math.sqrt(n_features)))
        return self.max_features

    def _tree_params(self, n_features: int) -> dict:
        """The parameters of each of the forest's trees on ``n_features`` columns."""
        params = {name: getattr(self, name) for name in DecisionTree.PARAMETERS}
        params["max_features"] = self._features_per_node(n_features)
        return params

    def staged_predict(self, X) -> Iterator[np.ndarray]:
        """Yield the plurality vote of the first 1, 2, ..., n_estimators trees."""
        if not self.trees_:
            raise ValidationError("model is not fitted")
        trees = [tree.tree_ for tree in self.trees_]
        X = check_features(X, self.n_features_in_)
        rows = np.arange(X.shape[0])
        votes = np.zeros((X.shape[0], len(self.classes_)), dtype=np.int64)
        for tree, leaf in zip(self.trees_, apply_trees(trees, X)):
            # each node's vote, a tree's class of most counts (the lowest id
            # of a tie), as an index into the forest's classes
            vote = np.searchsorted(self.classes_, tree.classes_)[tree.tree_.value.argmax(axis=1)]
            votes[rows, vote[leaf]] += 1
            yield self.classes_[np.argmax(votes, axis=1)]

    def predict(self, X) -> np.ndarray:
        for prediction in self.staged_predict(X):
            pass
        return prediction

    def to_dict(self) -> dict:
        return {
            "kind": "forest",
            "seed": self.seed,
            "params": params_of(self),
            "classes": [int(c) for c in self.classes_],
            "trees": [tree.to_dict() for tree in self.trees_],
        }
