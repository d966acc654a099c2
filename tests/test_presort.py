"""The presorted split search against a per-node-argsort reference grower.

``grow`` sorts each column once and hands every child its parent's
sorted rows filtered by the split (or, with feature subsampling, sorts
each node's candidates itself). The reference in ``oracles`` sorts every
candidate at every node. Both must give the same tree, array for array.
"""
from __future__ import annotations

import numpy as np
import pytest

from resnap.models.tree import Tree, grow, presort, subset_order

from oracles import reference_grow


def tied_matrix(rng, n, d, levels=4):
    """Small integer levels, so most columns hold many equal values."""
    return rng.integers(0, levels, size=(n, d)).astype(float)


def assert_same_tree(tree: Tree, reference: dict) -> None:
    for name in ("feature", "threshold", "left", "right", "value"):
        got = getattr(tree, name)
        assert got.dtype == reference[name].dtype, name
        assert np.array_equal(got, reference[name]), name


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize(
    "params",
    [
        {"min_samples_leaf": 1},
        {"min_samples_leaf": 3},
        {"max_depth": 3},
        {"max_depth": 4, "min_samples_split": 9, "min_samples_leaf": 2},
    ],
)
def test_grow_matches_reference_on_class_counts(seed, params):
    rng = np.random.default_rng(seed)
    X = tied_matrix(rng, 90, 6)
    stats = np.eye(4, dtype=np.int64)[rng.integers(0, 4, size=90)]
    tree = grow(X, stats, **params)
    assert tree.feature.size > 1
    assert_same_tree(tree, reference_grow(X, stats, **params))


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("max_depth", [None, 3])
def test_grow_matches_reference_on_gradients_with_row_and_feature_subsets(seed, max_depth):
    rng = np.random.default_rng(100 + seed)
    X = tied_matrix(rng, 120, 8, levels=5)
    grad = rng.normal(size=120)
    rows = np.sort(rng.choice(120, size=95, replace=False))
    features = np.sort(rng.choice(8, size=5, replace=False))
    stats = grad[rows, None]
    expected = reference_grow(X[rows], stats, max_depth=max_depth, features=features)
    order = subset_order(presort(X), rows)
    tree = grow(X[rows], stats, max_depth=max_depth, features=features, order=order)
    assert tree.feature.size > 1
    assert_same_tree(tree, expected)
    # sorting inside grow instead of passing the order gives the same tree
    assert_same_tree(grow(X[rows], stats, max_depth=max_depth, features=features), expected)


@pytest.mark.parametrize("seed", range(3))
def test_grow_with_feature_subsampling_matches_reference(seed):
    rng = np.random.default_rng(200 + seed)
    X = tied_matrix(rng, 80, 9)
    stats = np.eye(3, dtype=np.int64)[rng.integers(0, 3, size=80)]
    tree = grow(X, stats, max_features=3, rng=np.random.default_rng(seed))
    expected = reference_grow(X, stats, max_features=3, rng=np.random.default_rng(seed))
    assert_same_tree(tree, expected)


@pytest.mark.parametrize("seed", range(3))
def test_subset_order_equals_argsort_of_the_subset(seed):
    rng = np.random.default_rng(300 + seed)
    X = tied_matrix(rng, 60, 5, levels=3)
    rows = np.sort(rng.choice(60, size=41, replace=False))
    expected = np.argsort(X[rows], axis=0, kind="stable").T
    assert np.array_equal(subset_order(presort(X), rows), expected)
    assert np.array_equal(presort(X), np.argsort(X, axis=0, kind="stable").T)
