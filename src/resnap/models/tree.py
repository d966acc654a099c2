"""Flat-array decision trees: the core shared by CART, forests and boosting.

One grower and one split finder serve every tree learner. Each training
row carries a vector of statistics: a one-hot class row for the CART
classifier, the softmax gradient for a boosting tree. A split candidate
is the midpoint of two consecutive distinct values of a feature, and the
best candidate maximises, over the two children, the squared statistic
sums divided by the child size,
``sum(left)**2 / n_left + sum(right)**2 / n_right``. For class counts
this is minimising the weighted Gini impurity; for gradients it is
minimising the children's squared error.

Ties resolve to the lowest feature index, then the lowest threshold.
Integer statistics make the score a small-integer rational, so
candidates within a float window of the best are re-compared with exact
integer arithmetic; float statistics take the first float maximum.
Training is therefore fully deterministic.
"""
from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Callable

import numpy as np

from ..errors import ValidationError

# float pre-filter window; exact integer comparison decides inside it
_NEAR_RTOL = 1e-7


@dataclass
class Tree:
    """Binary tree as parallel arrays over its nodes in preorder.

    Node ``i`` sends a row to ``left[i]`` when
    ``row[feature[i]] <= threshold[i]`` and to ``right[i]`` otherwise.
    Leaves have ``feature == left == right == -1``. ``value[i]`` is the
    node's output: class counts for CART, the Newton step for boosting.
    """

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    value: np.ndarray

    def apply(self, X: np.ndarray) -> np.ndarray:
        """Leaf index of every row, descending all rows one level at a time."""
        node = np.zeros(X.shape[0], dtype=np.int64)
        active = np.flatnonzero(self.feature[node] >= 0)
        while active.size:
            at = node[active]
            go_left = X[active, self.feature[at]] <= self.threshold[at]
            node[active] = np.where(go_left, self.left[at], self.right[at])
            active = active[self.feature[node[active]] >= 0]
        return node

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name).tolist() for f in fields(self)}

    @classmethod
    def from_dict(cls, payload: dict) -> "Tree":
        return cls(**{f.name: np.asarray(payload[f.name]) for f in fields(cls)})


def presort(X: np.ndarray) -> np.ndarray:
    """(columns x rows) row ids of ``X``: row ``c`` lists the rows in
    ascending order of column ``c``, equal values in ascending row id."""
    return np.ascontiguousarray(np.argsort(X, axis=0, kind="stable").T)


def subset_order(order: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """The :func:`presort` of ``X[rows]``, given the presort ``order`` of ``X``.

    ``rows`` must be ascending. Filtering keeps each column's stable
    order, and the running count of kept rows renumbers them.
    """
    keep = np.zeros(order.shape[1], dtype=bool)
    keep[rows] = True
    local = np.cumsum(keep) - 1
    return local[order[keep[order]].reshape(order.shape[0], -1)]


def _best_split(
    xs: np.ndarray,
    order: np.ndarray,
    stats: np.ndarray,
    total: np.ndarray,
    min_samples_leaf: int,
    integer: bool,
) -> tuple[int, float] | None:
    """Best (candidate, threshold) for one node, or None if none is valid.

    ``order`` (candidates x rows) holds the node's rows of ``stats`` in
    each candidate feature's ascending order and ``xs`` the matching
    feature values. All candidates are scored in one pass: the statistics
    are gathered in each sorted order and summed cumulatively along it.
    ``integer`` says whether ``stats`` holds integers, which selects the
    exact tie comparison.
    """
    n = xs.shape[1]
    left_n = np.arange(1, n)
    right_n = n - left_n
    ok = xs[:, :-1] < xs[:, 1:]
    # position i leaves i + 1 rows on the left; both children need min_samples_leaf
    ok[:, : max(min_samples_leaf - 1, 0)] = False
    ok[:, max(n - min_samples_leaf, 0) :] = False
    if not ok.any():
        return None
    left = np.cumsum(np.take(stats, order[:, :-1], axis=0), axis=1)
    right = total - left
    sq_left = np.einsum("ijk,ijk->ij", left, left)
    sq_right = np.einsum("ijk,ijk->ij", right, right)
    # C order runs over candidates first, then thresholds
    score = np.where(ok, sq_left / left_n + sq_right / right_n, -np.inf)
    if integer:
        top = score.max()
        best = None
        best_num = best_den = 0  # exact python ints
        for j, i in zip(*np.nonzero(score >= top - abs(top) * _NEAR_RTOL)):
            nl, nr = int(left_n[i]), int(right_n[i])
            num = int(sq_left[j, i]) * nr + int(sq_right[j, i]) * nl
            if best is None or num * best_den > best_num * nl * nr:
                best, best_num, best_den = (j, i), num, nl * nr
        j, i = best
    else:
        j, i = divmod(int(np.argmax(score)), n - 1)
    lo, hi = xs[j, i], xs[j, i + 1]
    threshold = (lo + hi) / 2.0
    if threshold >= hi:  # the midpoint of adjacent floats can round up
        threshold = lo
    return int(j), float(threshold)


def grow(
    X: np.ndarray,
    stats: np.ndarray,
    *,
    max_depth: int | None = None,
    min_samples_split: int = 2,
    min_samples_leaf: int = 1,
    max_features: int | None = None,
    features: np.ndarray | None = None,
    order: np.ndarray | None = None,
    rng: np.random.Generator | None = None,
    node_value: Callable[[np.ndarray], object] | None = None,
) -> Tree:
    """Grow a tree on ``X`` with per-row ``stats`` (rows x k).

    Nodes grow depth-first, left child first, so node ids are preorder
    and a node draws its ``max_features`` candidates from ``rng`` before
    any of its descendants. Split candidates come from ``features``
    (default: every column). A node stays a leaf at ``max_depth``, below
    ``min_samples_split`` rows, when integer statistics hold one class
    only, or when no split leaves ``min_samples_leaf`` rows on each
    side. ``node_value(rows)`` gives each node's value; by default it is
    the node's statistic sums.

    When every node scores every feature, the columns are sorted once:
    ``order`` is :func:`presort` of ``X`` (computed when omitted), and a
    child that may split gets its parent's sorted rows filtered by the
    split. With ``max_features`` subsampling, each node sorts its own
    candidates, which costs less than filtering every feature's sorted
    rows for every child. Both give the same sorted rows, so the same
    tree.
    """
    if features is None:
        features = np.arange(X.shape[1])
    integer = np.issubdtype(stats.dtype, np.integer)
    presorted = max_features is None or max_features >= features.size
    block = None
    if presorted:
        block = (presort(X) if order is None else order)[features]
        # X[r, features[c]] is columns[r + offsets[c]]
        columns = np.ascontiguousarray(X.T).ravel()
        offsets = (features * X.shape[0])[:, None]
        side = np.zeros(X.shape[0], dtype=bool)
    feature: list[int] = []
    threshold: list[float] = []
    left: list[int] = []
    right: list[int] = []
    value: list = []
    # (rows, depth, parent whose right child this is or -1, sorted rows or None)
    stack = [(np.arange(X.shape[0]), 0, -1, block)]
    while stack:
        rows, depth, parent, block = stack.pop()
        node = len(feature)
        if parent >= 0:
            right[parent] = node
        node_stats = stats[rows]
        total = node_stats.sum(axis=0)
        value.append(total if node_value is None else node_value(rows))
        feature.append(-1)
        threshold.append(0.0)
        left.append(-1)
        right.append(-1)
        if (
            (max_depth is not None and depth >= max_depth)
            or rows.size < min_samples_split
            or (integer and np.count_nonzero(total) <= 1)
        ):
            continue
        if presorted:  # global row ids into stats
            candidates, ids, pool = features, block, stats
            xs = np.take(columns, block + offsets)
        else:  # row ids local to the node, into node_stats
            candidates = features[
                np.sort(rng.choice(features.size, size=max_features, replace=False))
            ]
            values = X[rows[:, None], candidates]
            local = np.argsort(values, axis=0, kind="stable")
            xs, ids, pool = values[local, np.arange(candidates.size)].T, local.T, node_stats
        split = _best_split(xs, ids, pool, total, min_samples_leaf, integer)
        if split is None:
            continue
        column, cut = split
        f = int(candidates[column])
        feature[node], threshold[node], left[node] = f, cut, node + 1
        mask = X[rows, f] <= cut
        left_rows, right_rows = rows[mask], rows[~mask]
        left_block = right_block = None
        if presorted and (max_depth is None or depth + 1 < max_depth):
            side[rows] = mask
            goes_left = side[block].ravel()
            if left_rows.size >= min_samples_split:
                left_block = np.compress(goes_left, block).reshape(features.size, -1)
            if right_rows.size >= min_samples_split:
                right_block = np.compress(~goes_left, block).reshape(features.size, -1)
        stack.append((right_rows, depth + 1, node, right_block))
        stack.append((left_rows, depth + 1, -1, left_block))
    return Tree(
        np.array(feature, dtype=np.int64),
        np.array(threshold, dtype=float),
        np.array(left, dtype=np.int64),
        np.array(right, dtype=np.int64),
        np.array(value),
    )


class DecisionTree:
    """CART classifier with optional per-node feature subsampling."""

    def __init__(
        self,
        max_depth: int | None = None,
        min_samples_split: int = 2,
        min_samples_leaf: int = 1,
        max_features: int | None = None,
        seed: int = 0,
    ):
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.seed = seed
        self.classes_: np.ndarray | None = None
        self.tree_: Tree | None = None

    def fit(self, X, y) -> "DecisionTree":
        X = np.asarray(X, dtype=float)
        y = np.asarray(y)
        if X.ndim != 2 or X.shape[0] == 0:
            raise ValidationError("training data must be a non-empty 2-D matrix")
        if X.shape[0] != y.shape[0]:
            raise ValidationError("X and y must have equal length")
        self.classes_, codes = np.unique(y, return_inverse=True)
        self.tree_ = grow(
            X,
            np.eye(len(self.classes_), dtype=np.int64)[codes],
            max_depth=self.max_depth,
            min_samples_split=self.min_samples_split,
            min_samples_leaf=self.min_samples_leaf,
            max_features=self.max_features,
            rng=np.random.default_rng(self.seed),
        )
        return self

    def predict(self, X) -> np.ndarray:
        if self.tree_ is None:
            raise ValidationError("model is not fitted")
        counts = self.tree_.value[self.tree_.apply(np.asarray(X, dtype=float))]
        return self.classes_[np.argmax(counts, axis=1)]  # first max = lowest class id

    def root_split(self) -> tuple[int, float] | None:
        """The fitted root's (feature, threshold), or None for a leaf root."""
        if self.tree_ is None:
            raise ValidationError("model is not fitted")
        if self.tree_.feature[0] < 0:
            return None
        return int(self.tree_.feature[0]), float(self.tree_.threshold[0])

    def to_dict(self) -> dict:
        return {
            "kind": "tree",
            "seed": self.seed,
            "params": {
                "max_depth": self.max_depth,
                "min_samples_split": self.min_samples_split,
                "min_samples_leaf": self.min_samples_leaf,
                "max_features": self.max_features,
            },
            "classes": [int(c) for c in self.classes_],
            "tree": self.tree_.to_dict(),
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "DecisionTree":
        model = cls(seed=payload["seed"], **payload["params"])
        model.classes_ = np.array(payload["classes"], dtype=np.int64)
        model.tree_ = Tree.from_dict(payload["tree"])
        return model


class MajorityClassifier:
    """Always predicts the most frequent training label.

    Frequency ties resolve to the lowest label id, which is the
    lexicographically smallest decoded activity because the label
    encoder assigns ids in lexicographic order.
    """

    def __init__(self, seed: int = 0):
        self.seed = seed
        self.classes_: np.ndarray | None = None
        self.label_: int | None = None

    def fit(self, X, y) -> "MajorityClassifier":
        y = np.asarray(y)
        if y.shape[0] == 0:
            raise ValidationError("targets must be non-empty")
        self.classes_, counts = np.unique(y, return_counts=True)
        self.label_ = int(self.classes_[counts == counts.max()].min())
        return self

    def predict(self, X) -> np.ndarray:
        if self.label_ is None:
            raise ValidationError("model is not fitted")
        return np.full(np.asarray(X).shape[0], self.label_, dtype=np.int64)

    def to_dict(self) -> dict:
        return {
            "kind": "majority",
            "seed": self.seed,
            "classes": [int(c) for c in self.classes_],
            "label": self.label_,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "MajorityClassifier":
        model = cls(seed=payload["seed"])
        model.classes_ = np.array(payload["classes"], dtype=np.int64)
        model.label_ = payload["label"]
        return model
