"""Random forest over the CART base learner."""
from __future__ import annotations

import math
from typing import Iterator

import numpy as np

from ..errors import ValidationError, check_deadline
from ..seeding import derive_seed
from .tree import (
    DecisionTree,
    check_bool,
    check_estimators,
    check_features,
    check_max_features,
    check_training_data,
)


class RandomForest:
    """Bagged CART trees with per-node feature subsampling.

    Prediction is a plurality vote over the trees; vote ties resolve to
    the lowest class id. With ``bootstrap=False``, ``n_estimators=1`` and
    ``max_features=None`` the forest reduces exactly to a single tree.
    Tree ``i`` draws its bootstrap rows and node features from seeds
    derived from ``i`` alone, so the first ``n`` trees of a fitted forest
    are exactly the forest fitted with ``n_estimators=n``.
    """

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
        self.n_features_in_: int | None = None  # None once loaded by from_dict

    def _features_per_node(self, n_features: int) -> int | None:
        if self.max_features == "sqrt":
            return max(1, round(math.sqrt(n_features)))
        return self.max_features

    def fit(self, X, y, deadline: float | None = None) -> "RandomForest":
        """Fit the trees in index order.

        Before each tree, raise :class:`CellTimeoutError` once
        ``time.monotonic()`` has passed ``deadline``.
        """
        check_estimators(self.n_estimators)
        check_max_features(self.max_features, sqrt=True)
        check_bool("bootstrap", self.bootstrap)  # each tree's fit checks its own parameters
        X, y = check_training_data(X, y)
        self.n_features_in_ = X.shape[1]
        self.classes_ = np.unique(y)
        n = X.shape[0]
        per_node = self._features_per_node(X.shape[1])
        self.trees_ = []
        for i in range(self.n_estimators):
            check_deadline(deadline)
            if self.bootstrap:
                rng = np.random.default_rng(derive_seed(self.seed, "bootstrap", i))
                idx = rng.integers(0, n, size=n)
                Xi, yi = X[idx], y[idx]
            else:
                Xi, yi = X, y
            tree = DecisionTree(
                max_depth=self.max_depth,
                min_samples_split=self.min_samples_split,
                min_samples_leaf=self.min_samples_leaf,
                max_features=per_node,
                seed=derive_seed(self.seed, "features", i),
            )
            self.trees_.append(tree.fit(Xi, yi))
        return self

    def staged_predict(self, X) -> Iterator[np.ndarray]:
        """Yield the plurality vote of the first 1, 2, ..., n_estimators trees."""
        if not self.trees_:
            raise ValidationError("model is not fitted")
        X = check_features(X, self.n_features_in_, [tree.tree_ for tree in self.trees_])
        rows = np.arange(X.shape[0])
        votes = np.zeros((X.shape[0], len(self.classes_)), dtype=np.int64)
        for tree in self.trees_:
            votes[rows, np.searchsorted(self.classes_, tree.predict(X))] += 1
            yield self.classes_[np.argmax(votes, axis=1)]

    def predict(self, X) -> np.ndarray:
        for prediction in self.staged_predict(X):
            pass
        return prediction

    def to_dict(self) -> dict:
        return {
            "kind": "forest",
            "seed": self.seed,
            "params": {
                "n_estimators": self.n_estimators,
                "max_depth": self.max_depth,
                "min_samples_split": self.min_samples_split,
                "min_samples_leaf": self.min_samples_leaf,
                "bootstrap": self.bootstrap,
                "max_features": self.max_features,
            },
            "classes": [int(c) for c in self.classes_],
            "trees": [tree.to_dict() for tree in self.trees_],
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "RandomForest":
        model = cls(seed=payload["seed"], **payload["params"])
        model.classes_ = np.array(payload["classes"], dtype=np.int64)
        model.trees_ = [DecisionTree.from_dict(t) for t in payload["trees"]]
        return model
