"""Independent test oracles, kept deliberately separate from the package.

The split oracle enumerates every (feature, midpoint) candidate and
scores it with exact Fractions, so comparisons against the production
tree are free of float-tie ambiguity. The reference grower sorts every
candidate feature at every node, one feature at a time, the way the
split search worked before columns were presorted once per fit.
"""
from __future__ import annotations

from collections import Counter
from fractions import Fraction

import numpy as np


def brute_force_root_split(X, y) -> tuple[int, float] | None:
    """Exhaustive minimum-weighted-Gini root split with exact arithmetic.

    Returns (feature, threshold) or None when the labels are pure or no
    feature has two distinct values. Ties keep the lowest feature index,
    then the lowest threshold, mirroring the documented tree contract.
    """
    X = np.asarray(X, dtype=float)
    y = list(y)
    n = len(y)
    if len(set(y)) <= 1:
        return None
    best_score: Fraction | None = None
    best: tuple[int, float] | None = None
    for f in range(X.shape[1]):
        values = sorted(set(X[:, f].tolist()))
        for lo, hi in zip(values, values[1:]):
            thr = (lo + hi) / 2.0
            if thr >= hi:
                thr = lo
            left = [y[i] for i in range(n) if X[i, f] <= thr]
            right = [y[i] for i in range(n) if X[i, f] > thr]
            score = _score(left) + _score(right)
            if best_score is None or score > best_score:
                best_score = score
                best = (f, thr)
    return best


def _score(labels) -> Fraction:
    counts = Counter(labels)
    return Fraction(sum(c * c for c in counts.values()), len(labels))


def reference_grow(
    X,
    stats,
    *,
    max_depth=None,
    min_samples_split=2,
    min_samples_leaf=1,
    max_features=None,
    features=None,
    rng=None,
) -> dict[str, np.ndarray]:
    """Per-node-argsort tree grower with the contract of ``tree.grow``.

    Returns the five preorder node arrays of ``Tree`` by field name.
    Each node stable-argsorts its own rows on each candidate feature and
    scans that feature's thresholds in order. Integer statistics are
    scored with exact Fractions; float statistics with the float formula
    ``sum(left**2) / n_left + sum(right**2) / n_right``, whose cumulative
    sums run down the sorted rows. The first best candidate wins (lowest
    feature, then lowest threshold). Nodes are visited in preorder, so a
    node draws its ``max_features`` candidates before its descendants.
    """
    X = np.asarray(X, dtype=float)
    stats = np.asarray(stats)
    features = np.arange(X.shape[1]) if features is None else np.asarray(features)
    integer = np.issubdtype(stats.dtype, np.integer)
    nodes: dict[str, list] = {
        "feature": [], "threshold": [], "left": [], "right": [], "value": []
    }

    def visit(rows, depth) -> int:
        node = len(nodes["feature"])
        total = stats[rows].sum(axis=0)
        for name, init in (("feature", -1), ("threshold", 0.0), ("left", -1), ("right", -1)):
            nodes[name].append(init)
        nodes["value"].append(total)
        if (
            (max_depth is not None and depth >= max_depth)
            or len(rows) < min_samples_split
            or (integer and np.count_nonzero(total) <= 1)
        ):
            return node
        candidates = features
        if max_features is not None and max_features < features.size:
            candidates = features[
                np.sort(rng.choice(features.size, size=max_features, replace=False))
            ]
        split = _reference_split(X[rows], stats[rows], total, candidates, min_samples_leaf, integer)
        if split is None:
            return node
        f, cut = split
        goes_left = X[rows, f] <= cut
        nodes["feature"][node], nodes["threshold"][node] = f, cut
        nodes["left"][node] = visit(rows[goes_left], depth + 1)
        nodes["right"][node] = visit(rows[~goes_left], depth + 1)
        return node

    visit(np.arange(X.shape[0]), 0)
    return {
        "feature": np.array(nodes["feature"], dtype=np.int64),
        "threshold": np.array(nodes["threshold"], dtype=float),
        "left": np.array(nodes["left"], dtype=np.int64),
        "right": np.array(nodes["right"], dtype=np.int64),
        "value": np.array(nodes["value"]),
    }


def _reference_split(X, stats, total, candidates, min_samples_leaf, integer):
    n = X.shape[0]
    best_score = None
    best = None
    for f in candidates:
        order = np.argsort(X[:, f], kind="stable")
        xs = X[order, f]
        left = np.cumsum(stats[order], axis=0)
        for i in range(n - 1):
            nl, nr = i + 1, n - i - 1
            if xs[i] == xs[i + 1] or nl < min_samples_leaf or nr < min_samples_leaf:
                continue
            right = total - left[i]
            if integer:
                score = Fraction(int((left[i] ** 2).sum()), nl) + Fraction(
                    int((right**2).sum()), nr
                )
            else:
                score = (left[i] ** 2).sum() / nl + (right**2).sum() / nr
            if best_score is None or score > best_score:
                thr = (xs[i] + xs[i + 1]) / 2.0
                if thr >= xs[i + 1]:
                    thr = xs[i]
                best_score, best = score, (int(f), float(thr))
    return best
