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
from .tree import DecisionTree, check_features, check_training_data, grow_trees, row_groups


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
        self.n_features_in_: int | None = None  # None once loaded by from_dict

    def _features_per_node(self, n_features: int) -> int | None:
        if self.max_features == "sqrt":
            return max(1, round(math.sqrt(n_features)))
        return self.max_features

    def fit(self, X, y, deadline: float | None = None) -> "RandomForest":
        """Grow every tree in one lock-step :func:`grow_trees` call.

        Tree ``i`` is the :class:`DecisionTree` fit on its bootstrap
        sample, grown on the distinct rows of ``X`` with the sample's
        class counts. Before each lock-step batch, raise
        :class:`CellTimeoutError` once ``time.monotonic()`` has passed
        ``deadline``.
        """
        check_params(self)
        X, y = check_training_data(X, y)
        self.n_features_in_ = X.shape[1]
        self.classes_, codes = np.unique(y, return_inverse=True)
        k = len(self.classes_)
        distinct, group = row_groups(X)
        n = X.shape[0]
        seeds = [derive_seed(self.seed, "features", i) for i in range(self.n_estimators)]
        samples, present = [], []
        for i, seed in enumerate(seeds):
            idx = np.arange(n)
            if self.bootstrap:
                rng = np.random.default_rng(derive_seed(self.seed, "bootstrap", i))
                idx = rng.integers(0, n, size=n)
            counts = np.bincount(group[idx] * k + codes[idx], minlength=distinct.shape[0] * k)
            counts = counts.reshape(-1, k)
            rows = counts.any(axis=1).nonzero()[0]
            samples.append((rows, counts[rows], np.random.default_rng(seed)))
            present.append(counts.any(axis=0).nonzero()[0])  # the sample's classes
        params = {name: getattr(self, name) for name in DecisionTree.PARAMETERS}
        params["max_features"] = self._features_per_node(X.shape[1])
        grown = grow_trees(distinct, samples, deadline=deadline, **params)
        self.trees_ = []
        for seed, tree, classes in zip(seeds, grown, present):
            model = DecisionTree(seed=seed, **params)
            model.n_features_in_ = X.shape[1]
            model.classes_ = self.classes_[classes]
            tree.value = tree.value[:, classes]
            model.tree_ = tree
            self.trees_.append(model)
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
            "params": params_of(self),
            "classes": [int(c) for c in self.classes_],
            "trees": [tree.to_dict() for tree in self.trees_],
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "RandomForest":
        model = cls(seed=payload["seed"], **payload["params"])
        model.classes_ = np.array(payload["classes"], dtype=np.int64)
        model.trees_ = [DecisionTree.from_dict(t) for t in payload["trees"]]
        return model
