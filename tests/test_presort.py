"""The presorted split search against a per-node-argsort reference grower.

``grow`` grows boosting's trees of float gradients: it sorts each
column once, hands every child its parent's sorted rows filtered by the
split, and scores only the cuts where a sorted column's value rises.
``grow_trees`` grows trees of class counts in lock-step and searches
one node of each tree per batch; a lone tree is a batch of one sample
(``grow_counts``). ``DecisionTree.fit_many``, which every
``DecisionTree`` and ``RandomForest`` fit goes through, grows on the
distinct rows of the data (``row_groups``) with class counts. The reference in
``oracles`` sorts every candidate at every node and scans every position
of the uncollapsed rows. Both must give the same tree, array for array.

The reference draws each node's candidates with ``Generator.choice``;
the trees draw them in batches. The draws, and the generator state they
leave, are also checked against the installed numpy directly.
"""
from __future__ import annotations

import json

import numpy as np
import pytest

from resnap import ValidationError
from resnap.models import DecisionTree, GradientBoostedTrees, RandomForest
from resnap.models import tree as tree_core
from resnap.models.boosting import _softmax
from resnap.models.tree import (
    Tree,
    _CandidateDraws,
    grow,
    grow_trees,
    presort,
    row_groups,
    sorted_cuts,
    subset_order,
)
from resnap.seeding import derive_seed

from oracles import reference_grow


def tied_matrix(rng, n, d, levels=4):
    """Small integer levels, so most columns hold many equal values."""
    return rng.integers(0, levels, size=(n, d)).astype(float)


def duplicate_heavy(rng, n, d, n_distinct=20, levels=3):
    """``n`` rows drawn from ``n_distinct`` low-cardinality rows: most rows repeat."""
    return rng.integers(0, levels, size=(n_distinct, d)).astype(float)[
        rng.integers(0, n_distinct, size=n)
    ]


def assert_same_tree(tree: Tree, reference: dict) -> None:
    for name in ("feature", "threshold", "left", "right", "value"):
        got = getattr(tree, name)
        assert got.dtype == reference[name].dtype, name
        assert np.array_equal(got, reference[name]), name


def distinct_counts(X, codes, n_classes):
    """The distinct rows of ``X`` (:func:`row_groups`) and each one's class
    counts; ``codes`` are the rows' class ids in ``range(n_classes)``."""
    distinct, group = row_groups(X)
    counts = np.bincount(group * n_classes + codes, minlength=distinct.shape[0] * n_classes)
    return distinct, counts.reshape(-1, n_classes)


def grow_counts(X, counts, rng=None, **params) -> Tree:
    """The one tree of class ``counts`` over every row of ``X``."""
    return grow_trees(X, [(np.arange(X.shape[0]), counts, rng)], **params)[0]


def reference_on_gradients(X, grad, **params) -> dict:
    """``reference_grow`` on the one-column statistic ``grad[:, None]``,
    whose node sums are the values of ``grow`` on ``grad``."""
    reference = reference_grow(X, grad[:, None], **params)
    return {**reference, "value": reference["value"][:, 0]}


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
    tree = grow_counts(X, stats, **params)
    assert tree.feature.size > 1
    assert_same_tree(tree, reference_grow(X, stats, **params))


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize(
    "params",
    [
        pytest.param({"max_depth": None}, id="None"),
        pytest.param({"max_depth": 3}, id="3"),
        pytest.param({"min_samples_leaf": 3}, id="leaf3"),
        pytest.param({"min_samples_leaf": 20}, id="leaf20"),  # LightGBM's default leaf floor
    ],
)
def test_grow_matches_reference_on_gradients_with_row_and_feature_subsets(seed, params):
    rng = np.random.default_rng(100 + seed)
    X = tied_matrix(rng, 120, 8, levels=5)
    grad = rng.normal(size=120)
    rows = np.sort(rng.choice(120, size=95, replace=False))
    features = np.sort(rng.choice(8, size=5, replace=False))
    expected = reference_on_gradients(X[rows], grad[rows], features=features, **params)
    order = subset_order(presort(X), rows)
    tree = grow(X[rows], grad[rows], features=features, order=order, **params)
    assert tree.feature.size > 1
    assert_same_tree(tree, expected)
    # sorting inside grow instead of passing the order gives the same tree
    assert_same_tree(grow(X[rows], grad[rows], features=features, **params), expected)


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("tied", [False, True])
@pytest.mark.parametrize("min_samples_leaf", [3, 20])
def test_grow_stops_nodes_under_twice_the_leaf_floor_like_the_reference(
    min_samples_leaf, tied, seed
):
    """A node of fewer than ``2 * min_samples_leaf`` rows has no cut that
    leaves the floor on both sides, so ``grow`` stops it unsearched; the
    reference searches it and finds none."""
    rng = np.random.default_rng(160 + seed)
    X = tied_matrix(rng, 200, 6, levels=5) if tied else rng.normal(size=(200, 4))
    grad = rng.normal(size=200)
    tree = grow(X, grad, min_samples_leaf=min_samples_leaf)
    assert_same_tree(tree, reference_on_gradients(X, grad, min_samples_leaf=min_samples_leaf))
    assert any(1 < rows.size < 2 * min_samples_leaf for rows, _ in node_rows(tree, X))


def test_float_threshold_is_the_guarded_midpoint():
    lo = np.nextafter(1.0, 2.0)  # odd last bit, so the halfway sum rounds to hi
    hi = np.nextafter(lo, 2.0)
    assert tree_core._midpoint(lo, hi) == lo  # unguarded, grow would split the node forever
    X, grad = np.array([[hi], [lo]]), np.array([1.0, -1.0])
    tree = grow(X, grad)
    assert_same_tree(tree, reference_on_gradients(X, grad))
    assert tree.threshold[0] == lo and tree.value.tolist() == [0.0, -1.0, 1.0]


@pytest.mark.parametrize("seed", range(3))
def test_grow_with_feature_subsampling_matches_reference(seed):
    rng = np.random.default_rng(200 + seed)
    X = tied_matrix(rng, 80, 9)
    stats = np.eye(3, dtype=np.int64)[rng.integers(0, 3, size=80)]
    tree = grow_counts(X, stats, max_features=3, rng=np.random.default_rng(seed))
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


CART_PARAMS = [
    {},
    {"min_samples_split": 5, "min_samples_leaf": 2},
    {"max_depth": 3},
    {"min_samples_leaf": 4},
    {"max_features": 2},
]


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("params", CART_PARAMS)
def test_decision_tree_on_repeated_rows_matches_reference_on_uncollapsed_rows(seed, params):
    rng = np.random.default_rng(400 + seed)
    X = duplicate_heavy(rng, 160, 5)
    y = rng.choice([3, 5, 8], size=160)  # repeated rows carry mixed labels
    model = DecisionTree(seed=seed, **params).fit(X, y)
    _, codes = np.unique(y, return_inverse=True)
    expected = reference_grow(
        X, np.eye(3, dtype=np.int64)[codes], rng=np.random.default_rng(seed), **params
    )
    assert model.tree_.feature.size > 1
    assert_same_tree(model.tree_, expected)


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("params", CART_PARAMS[:2])
def test_bootstrap_trees_match_reference_on_the_sample(seed, params):
    rng = np.random.default_rng(450 + seed)
    X = duplicate_heavy(rng, 120, 6, n_distinct=40)
    y = rng.choice([0, 1, 2, 3], size=120)
    forest = RandomForest(n_estimators=4, seed=seed, **params).fit(X, y)
    for i, tree in enumerate(forest.trees_):
        rng_i = np.random.default_rng(derive_seed(seed, "bootstrap", i))
        idx = rng_i.integers(0, 120, size=120)
        _, codes = np.unique(y[idx], return_inverse=True)
        expected = reference_grow(
            X[idx],
            np.eye(codes.max() + 1, dtype=np.int64)[codes],
            max_features=forest._features_per_node(6),
            rng=np.random.default_rng(tree.seed),
            **params,
        )
        assert_same_tree(tree.tree_, expected)


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("params", [{}, {"min_samples_split": 6, "min_samples_leaf": 3}])
def test_grow_on_class_counts_matches_weighted_reference(seed, params):
    rng = np.random.default_rng(500 + seed)
    X = duplicate_heavy(rng, 100, 4, n_distinct=30)
    codes = rng.integers(0, 3, size=100)
    distinct, counts = distinct_counts(X, codes, 3)
    assert counts.sum() == 100 and distinct.shape[0] == len(np.unique(X, axis=0))
    tree = grow_counts(distinct, counts, **params)
    assert_same_tree(tree, reference_grow(distinct, counts, **params))
    assert_same_tree(tree, reference_grow(X, np.eye(3, dtype=np.int64)[codes], **params))


@pytest.mark.parametrize(
    "counts", [[[1, 0], [0, 0], [0, 0], [0, 1]], [[1, 0], [2, -1], [0, 1], [0, 1]]],
    ids=["zero-weight row", "negative count"],
)
def test_grow_rejects_a_row_weighing_nothing_or_a_negative_count(counts):
    X = np.arange(4.0)[:, None]
    with pytest.raises(ValidationError, match="class counts"):
        grow_counts(X, np.array(counts))


def test_distinct_rows_merges_bit_equal_rows_only():
    X = np.array([[0.0, 1.0], [-0.0, 1.0], [0.0, 1.0], [2.0, 1.0], [0.0, 1.0]])
    distinct, group = row_groups(X)
    assert distinct.shape == (3, 2)  # -0.0 is a row of its own
    assert np.array_equal(distinct[group].view(np.uint64), X.view(np.uint64))
    assert group[0] == group[2] == group[4] and len({group[0], group[1], group[3]}) == 3
    no_columns, group = row_groups(np.empty((4, 0)))
    assert no_columns.shape == (1, 0) and group.tolist() == [0, 0, 0, 0]


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("integer", [True, False])
@pytest.mark.parametrize("min_samples_leaf", [1, 3])
def test_every_position_a_cut(seed, integer, min_samples_leaf):
    rng = np.random.default_rng(600 + seed)
    X = np.column_stack([rng.permutation(50) for _ in range(4)]).astype(float)
    xs, (column, position) = sorted_cuts(X, presort(X))
    assert column.size == 4 * 49
    if integer:
        stats = np.eye(3, dtype=np.int64)[rng.integers(0, 3, size=50)]
        tree = grow_counts(X, stats, min_samples_leaf=min_samples_leaf)
        expected = reference_grow(X, stats, min_samples_leaf=min_samples_leaf)
    else:
        grad = rng.normal(size=50)
        tree = grow(X, grad, min_samples_leaf=min_samples_leaf)
        expected = reference_on_gradients(X, grad, min_samples_leaf=min_samples_leaf)
    assert tree.feature.size > 1
    assert_same_tree(tree, expected)


@pytest.mark.parametrize("max_features", [None, 2])
def test_no_position_a_cut(max_features):
    X = np.tile([1.0, -2.0, 0.5], (30, 1))
    stats = np.eye(3, dtype=np.int64)[np.arange(30) % 3]
    assert sorted_cuts(X, presort(X))[1][0].size == 0
    rng = np.random.default_rng(7)
    tree = grow_counts(X, stats, max_features=max_features, rng=rng)
    assert tree.feature.tolist() == [-1] and tree.value.tolist() == [[10, 10, 10]]
    expected_rng = np.random.default_rng(7)
    assert_same_tree(
        tree, reference_grow(X, stats, max_features=max_features, rng=expected_rng)
    )


def test_one_distinct_row_still_draws_its_candidates():
    """A node holding one distinct row with mixed classes reaches the split
    search on the uncollapsed rows, so the merged tree must draw there too."""
    X = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 0.0], [1.0, 1.0, 1.0], [1.0, 0.0, 1.0]] * 3)
    y = np.array([0, 1, 0, 1] * 3)
    for seed in range(5):
        model = DecisionTree(max_features=1, seed=seed).fit(X, y)
        expected = reference_grow(
            X, np.eye(2, dtype=np.int64)[y], max_features=1, rng=np.random.default_rng(seed)
        )
        assert_same_tree(model.tree_, expected)


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("max_depth", [None, 3])
def test_grown_leaf_of_every_row_equals_apply(seed, max_depth):
    rng = np.random.default_rng(700 + seed)
    X = tied_matrix(rng, 110, 6, levels=5)
    grad = rng.normal(size=110)
    order = presort(X)
    reached = np.full(110, -1)
    tree = grow(X, grad, max_depth=max_depth, order=order, root=sorted_cuts(X, order),
                reached=reached)
    assert tree.feature.size > 1
    assert np.array_equal(reached, tree.apply(X))
    assert_same_tree(tree, reference_on_gradients(X, grad, max_depth=max_depth))


@pytest.mark.parametrize("sample", [1.0, 0.8])
def test_boosting_scores_rows_by_their_grown_leaf(sample):
    """Training scores built from each row's grown leaf (and ``apply`` for
    rows outside a subsampled round) equal the staged scores of the fitted
    trees, which apply every row."""
    rng = np.random.default_rng(800)
    X = duplicate_heavy(rng, 90, 5, n_distinct=35)
    y = rng.choice([1, 4, 6], size=90)
    model = GradientBoostedTrees(
        n_estimators=4, max_depth=None, subsample=sample, colsample=sample, seed=3
    ).fit(X, y)
    codes = np.searchsorted(model.classes_, y)
    for stage, loss in zip(model._staged_scores(X), model.train_log_loss_):
        assert model._log_loss(_softmax(stage), codes) == loss


@pytest.mark.parametrize("learner", [RandomForest, GradientBoostedTrees, DecisionTree])
@pytest.mark.parametrize(
    "X, y",
    [
        (np.zeros(5), np.zeros(5)),
        (np.zeros((5, 2, 1)), np.zeros(5)),
        (np.zeros((5, 2)), np.zeros(4)),
        (np.zeros((5, 2)), np.zeros((5, 1))),
        (np.zeros((0, 2)), np.zeros(0)),
    ],
    ids=["1-D X", "3-D X", "short y", "2-D y", "empty"],
)
def test_learners_reject_malformed_training_data(learner, X, y):
    with pytest.raises(ValidationError):
        learner().fit(X, y)


# --- small nodes: one distinct row, two distinct rows, float statistics -----


def node_rows(tree: Tree, X: np.ndarray) -> list[tuple[np.ndarray, int]]:
    """(rows of ``X`` reaching the node, depth) for every node, in preorder."""
    reach: list = [None] * tree.feature.size
    stack = [(0, np.arange(X.shape[0]), 0)]
    while stack:
        node, rows, depth = stack.pop()
        reach[node] = (rows, depth)
        f = tree.feature[node]
        if f >= 0:
            goes_left = X[rows, f] <= tree.threshold[node]
            stack.append((int(tree.right[node]), rows[~goes_left], depth + 1))
            stack.append((int(tree.left[node]), rows[goes_left], depth + 1))
    return reach


def one_hot_rows(X: np.ndarray, counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The uncollapsed data set of distinct rows ``X`` with class ``counts``."""
    repeat = counts.ravel()
    rows = np.repeat(np.repeat(np.arange(X.shape[0]), counts.shape[1]), repeat)
    classes = np.repeat(np.tile(np.arange(counts.shape[1]), X.shape[0]), repeat)
    return X[rows], np.eye(counts.shape[1], dtype=np.int64)[classes]


@pytest.mark.parametrize("min_samples_leaf", [1, 2, 3])
@pytest.mark.parametrize("swap", [False, True])
def test_two_distinct_rows_with_unequal_weights(min_samples_leaf, swap):
    """Two distinct rows weighing 3 and 2 split only while both weigh at least
    ``min_samples_leaf``; with 3 the node must stay a leaf."""
    X = np.array([[4.0, 1.0, 7.0], [4.0, 3.0, 5.0]])
    counts = np.array([[2, 1], [0, 2]], dtype=np.int64)
    if swap:  # the heavier row holds the larger value
        X, counts = X[::-1].copy(), counts[::-1].copy()
    for seed in range(4):
        tree = grow_counts(X, counts, min_samples_leaf=min_samples_leaf, max_features=2,
                           rng=np.random.default_rng(seed))
        assert_same_tree(tree, reference_grow(
            X, counts, min_samples_leaf=min_samples_leaf, max_features=2,
            rng=np.random.default_rng(seed),
        ))
        assert_same_tree(tree, reference_grow(
            *one_hot_rows(X, counts), min_samples_leaf=min_samples_leaf, max_features=2,
            rng=np.random.default_rng(seed),
        ))
        assert tree.value[0].tolist() == [2, 3]
        if min_samples_leaf == 3:
            assert tree.feature.tolist() == [-1]
        else:
            assert tree.feature[0] in (1, 2)
            low = int(np.argmin(X[:, tree.feature[0]]))
            assert tree.value[1].tolist() == counts[low].tolist()
            assert tree.value[2].tolist() == counts[1 - low].tolist()


@pytest.mark.parametrize("seed", range(6))
def test_two_row_node_splits_on_the_first_candidate_whose_values_differ(seed):
    """Columns 0 and 2 hold one value; the split takes the first drawn candidate
    among columns 1, 3 and 4, whatever its score would be on other data."""
    X = np.array([[5.0, 1.0, -2.0, 9.0, 0.5], [5.0, 2.0, -2.0, 3.0, 0.25]])
    counts = np.array([[1, 0, 2], [0, 1, 0]], dtype=np.int64)
    draw = np.sort(np.random.default_rng(seed).choice(5, size=3, replace=False))
    differing = [int(f) for f in draw if f in (1, 3, 4)]
    tree = grow_counts(X, counts, max_features=3, rng=np.random.default_rng(seed))
    assert_same_tree(tree, reference_grow(X, counts, max_features=3,
                                          rng=np.random.default_rng(seed)))
    if differing:
        f = differing[0]
        assert tree.feature[0] == f
        lo, hi = sorted(X[:, f])
        assert tree.threshold[0] == (lo + hi) / 2.0
    else:
        assert tree.feature.tolist() == [-1]


def test_two_row_draws_cover_a_first_candidate_that_does_not_differ():
    firsts = {
        int(np.sort(np.random.default_rng(seed).choice(5, size=3, replace=False))[0])
        for seed in range(6)
    }
    assert firsts & {0, 2}


def test_two_row_threshold_is_the_guarded_midpoint():
    lo = np.nextafter(1.0, 2.0)  # odd last bit, so the halfway sum rounds to hi
    hi = np.nextafter(lo, 2.0)
    assert (lo + hi) / 2.0 >= hi  # the plain midpoint rounds up to the larger value
    X = np.array([[hi, hi], [lo, lo]])
    counts = np.array([[1, 0], [0, 1]], dtype=np.int64)
    for seed in range(3):
        tree = grow_counts(X, counts, max_features=1, rng=np.random.default_rng(seed))
        expected = reference_grow(X, counts, max_features=1, rng=np.random.default_rng(seed))
        assert_same_tree(tree, expected)
        assert tree.threshold[0] == lo and tree.value[1].tolist() == [0, 1]


@pytest.mark.parametrize("max_features", [None, 1])
def test_near_tie_is_decided_exactly(max_features):
    """The two cuts score within the float window of each other; the second
    is better in exact arithmetic, so the first in C order must not win."""
    X = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]])
    counts = np.array([[82, 255], [122, 392], [109, 361]], dtype=np.int64)
    tree = grow_counts(X, counts, max_features=max_features, rng=np.random.default_rng(0))
    assert_same_tree(tree, reference_grow(X, counts, max_features=max_features,
                                          rng=np.random.default_rng(0)))
    assert tree.threshold[0] == 1.5


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("min_samples_leaf", [1, 2, 3])
def test_two_distinct_row_nodes_in_grown_trees(seed, min_samples_leaf):
    """Trees over class counts of distinct rows reach many nodes of two distinct
    rows (weights from 2 up); they must match the reference on the uncollapsed
    rows, refusals under ``min_samples_leaf`` included."""
    rng = np.random.default_rng(900 + seed)
    X = duplicate_heavy(rng, 240, 6, n_distinct=60, levels=4)
    y = rng.choice([0, 1, 2], size=240, p=[0.5, 0.3, 0.2])
    _, codes = np.unique(y, return_inverse=True)
    distinct, counts = distinct_counts(X, codes, 3)
    tree = grow_counts(distinct, counts, min_samples_leaf=min_samples_leaf, max_features=2,
                       rng=np.random.default_rng(seed))
    assert_same_tree(tree, reference_grow(
        X, np.eye(3, dtype=np.int64)[codes], min_samples_leaf=min_samples_leaf,
        max_features=2, rng=np.random.default_rng(seed),
    ))
    reach = node_rows(tree, distinct)
    two = [n for n, (rows, _) in enumerate(reach)
           if rows.size == 2 and np.count_nonzero(counts[rows].sum(axis=0)) > 1]
    weights = [counts[reach[n][0]].sum(axis=1) for n in two]
    assert any(w[0] != w[1] for w in weights)
    if min_samples_leaf > 1:  # some mixed two-row nodes must refuse to split
        assert any(tree.feature[n] < 0 and w.min() < min_samples_leaf
                   for n, w in zip(two, weights))


@pytest.mark.parametrize("seed", range(4))
def test_one_distinct_row_nodes_deep_in_a_tree_keep_later_draws(seed):
    """Nodes of one distinct row with mixed classes sit below the root and
    before other splitting nodes in preorder; each still draws, so every
    later node matches the reference."""
    rng = np.random.default_rng(950 + seed)
    X = duplicate_heavy(rng, 200, 5, n_distinct=40, levels=3)
    y = rng.choice([0, 1, 2], size=200)
    distinct, counts = distinct_counts(X, y, 3)
    got_rng, expected_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    tree = grow_counts(distinct, counts, max_features=2, rng=got_rng)
    assert_same_tree(tree, reference_grow(X, np.eye(3, dtype=np.int64)[y], max_features=2,
                                          rng=expected_rng))
    reach = node_rows(tree, distinct)
    mixed = [n for n, (rows, depth) in enumerate(reach)
             if rows.size == 1 and depth >= 2 and np.count_nonzero(counts[rows[0]]) > 1]
    assert mixed
    assert (tree.feature[mixed[0] + 1:] >= 0).any()  # later nodes still split


# --- batched candidate draws against numpy's Generator.choice -----------------

PCG64_MULTIPLIER = 0x2360ED051FC65DA44385DF649FCCF645


def buffered(rng):
    """``rng`` after one 32-bit draw, which leaves the output's high half buffered."""
    rng.integers(1 << 32, dtype=np.uint32)
    assert rng.bit_generator.state["has_uint32"] == 1
    return rng


def assert_draws_match_numpy(make_rng, d, m, n):
    """``n`` sampler draws equal ``n`` sorted ``rng.choice(d, m, replace=False)``
    calls; returns the generator those calls were made with."""
    draws = _CandidateDraws(make_rng(), d, m)
    expected_rng = make_rng()
    for _ in range(n):
        row = next(draws)
        expected = np.sort(expected_rng.choice(d, m, replace=False))
        assert row.dtype == expected.dtype and np.array_equal(row, expected)
    return expected_rng


@pytest.mark.parametrize("start_buffered", [False, True])
@pytest.mark.parametrize("d", [2, 3, 10, 20, 32, 37, 100, 222])
def test_candidate_draws_match_sorted_numpy_choice(d, start_buffered):
    for m in sorted({1, round(np.sqrt(d)), d - 1}):
        for seed in range(16):
            n = 1 + (seed * 37) % 200  # ends inside the first, second or third batch

            def make_rng():
                rng = np.random.default_rng(seed)
                return buffered(rng) if start_buffered else rng

            assert_draws_match_numpy(make_rng, d, m, n)


def pcg64_with_zero_word(position: int, seed: int = 0) -> np.random.Generator:
    """A PCG64 generator whose 32-bit word ``position`` is zero.

    Output ``t`` gives words ``2t`` (its low half) and ``2t + 1``. An
    output is the XSL-RR permutation of the state stepped before it,
    ``rotr64(high ^ low, high >> 58)``, and the state before a step is
    ``(state - inc) * multiplier⁻¹ mod 2¹²⁸``.
    """
    source = np.random.default_rng(seed)
    inc = np.random.PCG64(seed).state["state"]["inc"]
    output, half = divmod(position, 2)
    target = int(source.integers(1 << 63)) << 1 & ~(0xFFFFFFFF << (32 * half))
    high = int(source.integers(1 << 63)) << 1
    rotation = high >> 58
    mask64 = (1 << 64) - 1
    low = high ^ ((target << rotation | target >> (64 - rotation)) & mask64)
    state = high << 64 | low
    inverse = pow(PCG64_MULTIPLIER, -1, 1 << 128)
    for _ in range(output + 1):
        state = (state - inc) * inverse % (1 << 128)
    bit_generator = np.random.PCG64()
    bit_generator.state = {
        "bit_generator": "PCG64", "state": {"state": state, "inc": inc},
        "has_uint32": 0, "uinteger": 0,
    }
    check = np.random.PCG64()
    check.state = bit_generator.state
    assert int(check.random_raw(output + 1)[-1]) >> (32 * half) & 0xFFFFFFFF == 0
    return np.random.Generator(bit_generator)


@pytest.mark.parametrize("start_buffered", [False, True])
@pytest.mark.parametrize(
    "position",
    [0, 1, 3, 5 * 20 + 2, 5 * 63 + 3, 5 * 64, 5 * 150 + 1],
    ids=["first", "second", "shuffle", "mid-batch", "batch-end", "batch-start", "third-batch"],
)
def test_candidate_draws_retry_a_rejected_word(position, start_buffered):
    """Word ``position`` of the draws (the buffered word is word 0) is zero.

    With d=12, m=3 a draw reads its five words as integers in [0, 9],
    [0, 10], [0, 11], [0, 2] and [0, 1]. A zero word is a Lemire rejection
    for every bound but a power of two, so each position here is one.
    """
    d, m, n = 12, 3, 200

    def make_rng():
        if not start_buffered:
            return pcg64_with_zero_word(position)
        rng = pcg64_with_zero_word(position - 1) if position else np.random.default_rng(0)
        state = rng.bit_generator.state
        state["has_uint32"], state["uinteger"] = 1, 0 if position == 0 else 123456789
        rng.bit_generator.state = state
        return rng

    expected_rng = assert_draws_match_numpy(make_rng, d, m, n)
    # one word more than 2m - 1 per draw flips the parity of the words read
    assert expected_rng.bit_generator.state["has_uint32"] != (n * (2 * m - 1) - start_buffered) % 2


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("start_buffered", [False, True])
def test_grow_draws_like_numpy_choice_from_a_fresh_or_buffered_generator(seed, start_buffered):
    rng = np.random.default_rng(1100 + seed)
    X = tied_matrix(rng, 90, 10, levels=5)
    stats = np.eye(3, dtype=np.int64)[rng.integers(0, 3, size=90)]
    got_rng, expected_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    if start_buffered:
        buffered(got_rng), buffered(expected_rng)
    tree = grow_counts(X, stats, max_features=3, rng=got_rng)
    assert_same_tree(tree, reference_grow(X, stats, max_features=3, rng=expected_rng))


@pytest.mark.parametrize(
    "make_rng, d, m",
    [
        (lambda: np.random.Generator(np.random.PCG64DXSM(5)), 37, 6),
        (lambda: buffered(np.random.Generator(np.random.PCG64DXSM(5))), 37, 6),
        (lambda: np.random.Generator(np.random.MT19937(5)), 37, 6),
        (lambda: np.random.Generator(np.random.Philox(5)), 10, 3),
        (lambda: np.random.default_rng(5), 20_000, 401),  # numpy's tail shuffle
        (lambda: np.random.default_rng(5), 20_000, 400),  # still Floyd's algorithm
    ],
    ids=["pcg64dxsm", "pcg64dxsm-buffered", "mt19937", "philox", "tail-shuffle", "floyd-20000"],
)
def test_candidate_draws_on_other_generators_and_sizes(make_rng, d, m):
    assert_draws_match_numpy(make_rng, d, m, 70)


def test_grow_with_another_bit_generator_matches_reference():
    rng = np.random.default_rng(1200)
    X = tied_matrix(rng, 80, 9)
    stats = np.eye(3, dtype=np.int64)[rng.integers(0, 3, size=80)]
    got_rng = np.random.Generator(np.random.MT19937(3))
    expected_rng = np.random.Generator(np.random.MT19937(3))
    tree = grow_counts(X, stats, max_features=3, rng=got_rng)
    assert_same_tree(tree, reference_grow(X, stats, max_features=3, rng=expected_rng))


# --- trees grown in lock-step against the reference, tree by tree --------------

MAKE_RNG = {
    "pcg64": np.random.default_rng,
    "mt19937": lambda seed: np.random.Generator(np.random.MT19937(seed)),  # choice fallback
}


def lockstep_sample(group, codes, n_classes, idx, rng):
    """``grow_trees``' sample of the data rows ``idx``: the distinct rows they
    hit (``group`` maps a data row to its distinct row) and their class counts."""
    counts = np.bincount(group[idx] * n_classes + codes[idx],
                         minlength=(group.max() + 1) * n_classes).reshape(-1, n_classes)
    rows = counts.any(axis=1).nonzero()[0]
    return rows, counts[rows], rng


def assert_lockstep_matches_reference(X, codes, n_classes, samples_idx, make_rng, **params):
    """Grow one tree per row sample in one call; each equals the reference on
    the sample's uncollapsed one-hot rows, drawn from a generator of the
    same seed. Returns the trees."""
    distinct, group = row_groups(X)
    rngs = [make_rng(seed) for seed in range(len(samples_idx))]
    samples = [lockstep_sample(group, codes, n_classes, idx, rng)
               for idx, rng in zip(samples_idx, rngs)]
    trees = grow_trees(distinct, samples, **params)
    for seed, (idx, tree) in enumerate(zip(samples_idx, trees)):
        assert_same_tree(tree, reference_grow(
            X[idx], np.eye(n_classes, dtype=np.int64)[codes[idx]], rng=make_rng(seed), **params
        ))
    return trees, distinct, samples


LOCKSTEP_PARAMS = [
    {"max_features": 2},
    {"max_features": 2, "min_samples_leaf": 3},
    {"max_features": 3, "max_depth": 3},
    {"max_features": 2, "min_samples_split": 6},
    {"max_features": None},
]


@pytest.mark.parametrize("make_rng", MAKE_RNG.values(), ids=MAKE_RNG.keys())
@pytest.mark.parametrize("params", LOCKSTEP_PARAMS)
@pytest.mark.parametrize("seed", range(3))
def test_lockstep_trees_match_reference(seed, params, make_rng):
    """Samples from 3 to 300 rows grow trees of very different sizes, which
    finish at different steps; small skewed samples miss classes, and the
    duplicate-heavy rows give nodes of one and of two distinct rows."""
    rng = np.random.default_rng(1300 + seed)
    X = duplicate_heavy(rng, 300, 6, n_distinct=70, levels=4)
    codes = rng.choice(4, size=300, p=[0.55, 0.3, 0.1, 0.05])
    sizes = [300, 12, 150, 3, 60, 200, 25]
    samples_idx = [rng.integers(0, 300, size=size) for size in sizes]
    trees, distinct, samples = assert_lockstep_matches_reference(
        X, codes, 4, samples_idx, make_rng, **params
    )
    assert any(np.unique(codes[idx]).size < 4 for idx in samples_idx)
    if "max_depth" not in params:
        node_counts = [tree.feature.size for tree in trees]
        assert max(node_counts) > 10 * min(node_counts)
        sizes_seen = set()
        for tree, (rows, counts, _) in zip(trees, samples):
            for reach, _ in node_rows(tree, distinct[rows]):
                if np.count_nonzero(counts[reach].sum(axis=0)) > 1:
                    sizes_seen.add(min(reach.size, 3))
        assert {1, 2} <= sizes_seen  # mixed nodes of one and of two distinct rows


def test_lockstep_near_tie_is_decided_exactly_next_to_other_trees():
    """The near-tie sample of ``test_near_tie_is_decided_exactly`` grown in
    one call with random samples of the same rows."""
    X = np.repeat(np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]]), [337, 514, 470], axis=0)
    near = np.array([[82, 255], [122, 392], [109, 361]])
    codes = np.concatenate([np.repeat([0, 1], pair) for pair in near])
    rng = np.random.default_rng(1400)
    samples_idx = [np.arange(X.shape[0])] + [rng.integers(0, X.shape[0], size=s)
                                            for s in (40, 400, 900)]
    trees, _, _ = assert_lockstep_matches_reference(
        X, codes, 2, samples_idx, np.random.default_rng, max_features=1
    )
    assert trees[0].threshold[0] == 1.5


def test_lockstep_batches_split_at_the_element_cap(monkeypatch):
    """A step whose nodes hold more values than the cap is searched in
    several batches, with the same trees."""
    rng = np.random.default_rng(1500)
    X = duplicate_heavy(rng, 200, 5, n_distinct=80, levels=5)
    codes = rng.integers(0, 3, size=200)
    samples_idx = [rng.integers(0, 200, size=200) for _ in range(6)]
    expected, _, _ = assert_lockstep_matches_reference(
        X, codes, 3, samples_idx, np.random.default_rng, max_features=2
    )
    batches = []
    search = tree_core._search

    def counting(batch, shared):
        batches.append(len(batch))
        return search(batch, shared)

    monkeypatch.setattr(tree_core, "_search", counting)
    monkeypatch.setattr(tree_core, "_STEP_ELEMENTS", 300)
    trees, _, _ = assert_lockstep_matches_reference(
        X, codes, 3, samples_idx, np.random.default_rng, max_features=2
    )
    assert batches[0] < len(samples_idx)  # the roots no longer fit one batch
    for tree, reference in zip(trees, expected, strict=True):
        assert_same_tree(tree, {name: getattr(reference, name) for name in
                                ("feature", "threshold", "left", "right", "value")})


def test_first_trees_of_a_larger_forest_are_the_smaller_forest():
    rng = np.random.default_rng(1600)
    X = duplicate_heavy(rng, 150, 9, n_distinct=60, levels=4)
    y = rng.choice([2, 5, 7, 9], size=150)
    large = RandomForest(n_estimators=20, seed=4).fit(X, y)
    small = RandomForest(n_estimators=10, seed=4).fit(X, y)
    for a, b in zip(large.trees_[:10], small.trees_, strict=True):
        assert json.dumps(a.to_dict()) == json.dumps(b.to_dict())
