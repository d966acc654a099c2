from __future__ import annotations

import json
import time
from types import SimpleNamespace

import numpy as np
import pytest

from resnap import CellTimeoutError, ValidationError, errors
from resnap.models import (
    DecisionTree,
    GradientBoostedTrees,
    MajorityClassifier,
    RandomForest,
)
from resnap.models import tree as tree_core
from resnap.seeding import derive_seed

from oracles import brute_force_root_split


# --- majority baseline ------------------------------------------------------


def test_majority_predicts_most_frequent():
    model = MajorityClassifier().fit(np.zeros((3, 1)), [0, 0, 1])
    assert model.predict(np.zeros((4, 1))).tolist() == [0, 0, 0, 0]


def test_majority_all_equal():
    model = MajorityClassifier().fit(np.zeros((2, 1)), [7, 7])
    assert model.predict(np.zeros((1, 1))).tolist() == [7]


def test_majority_tie_takes_lowest_id():
    # ids are assigned lexicographically, so the lowest id decodes to "A"
    model = MajorityClassifier().fit(np.zeros((2, 1)), [1, 0])
    assert model.predict(np.zeros((1, 1))).tolist() == [0]


def test_majority_empty_raises():
    with pytest.raises(ValidationError):
        MajorityClassifier().fit(np.zeros((0, 1)), [])


@pytest.mark.parametrize(
    "X, y",
    [
        (np.zeros((5, 2)), np.zeros(3)),
        (np.zeros(5), np.zeros(5)),
        (np.zeros((5, 2)), np.zeros((5, 1))),
    ],
    ids=["short y", "1-D X", "2-D y"],
)
def test_majority_rejects_malformed_training_data(X, y):
    with pytest.raises(ValidationError):
        MajorityClassifier().fit(X, y)


# --- decision tree -----------------------------------------------------------


def test_tree_single_midpoint_split():
    X = np.array([[0.0], [1.0]])
    tree = DecisionTree().fit(X, [0, 1])
    assert tree.root_split() == (0, 0.5)
    assert tree.predict(X).tolist() == [0, 1]


def test_tree_pure_labels_single_leaf():
    X = np.array([[0.0], [1.0], [2.0]])
    tree = DecisionTree().fit(X, [3, 3, 3])
    assert tree.root_split() is None
    assert tree.predict(X).tolist() == [3, 3, 3]


def test_tree_matches_brute_force_on_small_instance():
    X = np.array([[0.0, 3.0], [1.0, 2.0], [2.0, 1.0], [3.0, 0.0]])
    y = np.array([0, 0, 1, 1])
    tree = DecisionTree().fit(X, y)
    assert tree.root_split() == brute_force_root_split(X, y)


def test_tree_tie_breaks_to_lowest_feature_and_threshold():
    # both features separate the labels equally well
    X = np.array([[0.0, 0.0], [1.0, 1.0]])
    y = np.array([0, 1])
    tree = DecisionTree().fit(X, y)
    assert tree.root_split() == (0, 0.5)


def test_tree_respects_max_depth():
    X = np.array([[0.0], [1.0], [2.0], [3.0]])
    y = np.array([0, 1, 0, 1])
    tree = DecisionTree(max_depth=0).fit(X, y)
    assert tree.root_split() is None


def test_tree_min_samples_leaf_blocks_unbalanced_split():
    X = np.array([[0.0], [1.0], [2.0], [3.0]])
    y = np.array([0, 1, 1, 1])
    tree = DecisionTree(min_samples_leaf=2).fit(X, y)
    split = tree.root_split()
    assert split is not None
    mask = X[:, split[0]] <= split[1]
    assert mask.sum() >= 2 and (~mask).sum() >= 2


def test_tree_empty_data_raises():
    with pytest.raises(ValidationError):
        DecisionTree().fit(np.zeros((0, 2)), [])


def test_tree_predictions_stay_in_label_space():
    rng = np.random.default_rng(5)
    X = rng.normal(size=(40, 3))
    y = rng.integers(5, 8, size=40)
    tree = DecisionTree(max_depth=3).fit(X, y)
    assert set(tree.predict(rng.normal(size=(200, 3)))) <= set(y.tolist())


def _json_leaf(tree: dict, x) -> int:
    """Leaf of one row in a tree's JSON form, read as plain lists."""
    node = 0
    while tree["feature"][node] >= 0:
        go_left = x[tree["feature"][node]] <= tree["threshold"][node]
        node = tree["left"][node] if go_left else tree["right"][node]
    return node


def _json_tree_predict(model: dict, x) -> int:
    """A CART tree's class of one row, from its JSON form: most counts, lowest id of a tie."""
    counts = model["tree"]["value"][_json_leaf(model["tree"], x)]
    return model["classes"][counts.index(max(counts))]


def _json_round_trip(model) -> dict:
    """The model's JSON form after a trip through JSON text, checked to be unchanged."""
    form = json.loads(json.dumps(model.to_dict()))
    assert form == model.to_dict()
    return form


def test_tree_json_round_trip():
    rng = np.random.default_rng(11)
    X = rng.normal(size=(30, 2))
    y = rng.integers(0, 3, size=30)
    tree = DecisionTree(max_depth=4).fit(X, y)
    form = _json_round_trip(tree)
    assert form["kind"] == "tree" and form["params"]["max_depth"] == 4
    probe = rng.normal(size=(50, 2))
    assert [_json_tree_predict(form, x) for x in probe] == tree.predict(probe).tolist()


# --- random forest -------------------------------------------------------------


def test_forest_degenerate_case_equals_tree():
    rng = np.random.default_rng(3)
    X = rng.normal(size=(25, 3))
    y = rng.integers(0, 3, size=25)
    forest = RandomForest(
        n_estimators=1, bootstrap=False, max_features=None, seed=9
    ).fit(X, y)
    tree = DecisionTree().fit(X, y)
    probe = rng.normal(size=(100, 3))
    assert forest.predict(probe).tolist() == tree.predict(probe).tolist()


def test_forest_same_seed_same_predictions():
    rng = np.random.default_rng(4)
    X = rng.normal(size=(30, 4))
    y = rng.integers(0, 2, size=30)
    probe = rng.normal(size=(60, 4))
    first = RandomForest(n_estimators=5, seed=42).fit(X, y).predict(probe)
    second = RandomForest(n_estimators=5, seed=42).fit(X, y).predict(probe)
    assert first.tolist() == second.tolist()


def test_forest_separable_blobs_reach_training_accuracy():
    rng = np.random.default_rng(8)
    X = np.vstack(
        [rng.normal(loc=-3.0, size=(100, 2)), rng.normal(loc=3.0, size=(100, 2))]
    )
    y = np.array([0] * 100 + [1] * 100)
    # brute-force oracle confirms a single split already separates the blobs
    split = brute_force_root_split(X, y)
    mask = X[:, split[0]] <= split[1]
    majority_acc = max(
        np.mean(np.where(mask, 0, 1) == y), np.mean(np.where(mask, 1, 0) == y)
    )
    assert majority_acc >= 0.95
    forest = RandomForest(n_estimators=10, seed=1).fit(X, y)
    assert np.mean(forest.predict(X) == y) >= 0.95


def test_forest_json_round_trip():
    rng = np.random.default_rng(13)
    X = rng.normal(size=(30, 3))
    y = rng.integers(0, 3, size=30)
    forest = RandomForest(n_estimators=3, max_depth=3, seed=2).fit(X, y)
    form = _json_round_trip(forest)
    assert form["kind"] == "forest" and len(form["trees"]) == 3
    probe = rng.normal(size=(40, 3))
    predicted = []
    for x in probe:
        votes = [0] * len(form["classes"])
        for tree in form["trees"]:
            votes[form["classes"].index(_json_tree_predict(tree, x))] += 1
        predicted.append(form["classes"][votes.index(max(votes))])
    assert predicted == forest.predict(probe).tolist()


# --- gradient boosting -----------------------------------------------------------


def test_boosting_single_class_constant_prediction():
    X = np.arange(6, dtype=float).reshape(-1, 1)
    model = GradientBoostedTrees(n_estimators=5).fit(X, [4] * 6)
    assert model.predict(X).tolist() == [4] * 6


def test_boosting_learns_1d_threshold():
    rng = np.random.default_rng(17)
    X = np.concatenate([rng.uniform(-2, -0.1, 60), rng.uniform(0.1, 2, 60)]).reshape(-1, 1)
    y = np.array([0] * 60 + [1] * 60)
    model = GradientBoostedTrees(n_estimators=50, max_depth=2, learning_rate=0.1, seed=3)
    model.fit(X, y)
    assert np.mean(model.predict(X) == y) >= 0.95


def test_boosting_zero_learning_rate_predicts_prior_argmax():
    X = np.arange(6, dtype=float).reshape(-1, 1)
    y = np.array([0, 1, 1, 1, 2, 2])
    model = GradientBoostedTrees(n_estimators=5, learning_rate=0.0).fit(X, y)
    assert model.predict(X).tolist() == [1] * 6


def test_boosting_log_loss_non_increasing_on_separable_data():
    rng = np.random.default_rng(23)
    X = np.vstack(
        [rng.normal(loc=-4.0, size=(40, 2)), rng.normal(loc=4.0, size=(40, 2))]
    )
    y = np.array([0] * 40 + [1] * 40)
    model = GradientBoostedTrees(n_estimators=30, max_depth=3, learning_rate=0.1, seed=7)
    model.fit(X, y)
    losses = model.train_log_loss_
    assert len(losses) == 31
    for before, after in zip(losses, losses[1:]):
        assert after <= before + 1e-9


def test_boosting_subsampling_stays_deterministic():
    rng = np.random.default_rng(29)
    X = rng.normal(size=(50, 4))
    y = rng.integers(0, 3, size=50)
    kwargs = dict(n_estimators=8, max_depth=3, subsample=0.8, colsample=0.8, seed=11)
    probe = rng.normal(size=(80, 4))
    first = GradientBoostedTrees(**kwargs).fit(X, y).predict(probe)
    second = GradientBoostedTrees(**kwargs).fit(X, y).predict(probe)
    assert first.tolist() == second.tolist()


def test_boosting_predictions_stay_in_label_space():
    rng = np.random.default_rng(31)
    X = rng.normal(size=(40, 2))
    y = rng.integers(2, 5, size=40)
    model = GradientBoostedTrees(n_estimators=5, max_depth=2, seed=1).fit(X, y)
    assert set(model.predict(rng.normal(size=(100, 2)))) <= set(y.tolist())


def test_boosting_json_round_trip():
    rng = np.random.default_rng(37)
    X = rng.normal(size=(40, 3))
    y = rng.integers(0, 3, size=40)
    model = GradientBoostedTrees(n_estimators=4, max_depth=2, seed=5).fit(X, y)
    form = _json_round_trip(model)
    assert form["kind"] == "boosted" and len(form["rounds"]) == 4
    probe = rng.normal(size=(60, 3))
    scores = np.tile(form["init_scores"], (len(probe), 1))
    for round_trees in form["rounds"]:
        for k, tree in enumerate(round_trees):
            leaves = [_json_leaf(tree, x) for x in probe]
            scores[:, k] += form["params"]["learning_rate"] * np.array(tree["value"])[leaves]
    assert np.array_equal(scores, model._raw_scores(probe))  # bit for bit
    assert np.array(form["classes"])[scores.argmax(axis=1)].tolist() == model.predict(probe).tolist()


# --- staged predictions and in-fit deadlines -------------------------------------


def _staged_data(seed):
    rng = np.random.default_rng(seed)
    X = rng.integers(0, 4, size=(60, 5)).astype(float)
    y = (X[:, 0].astype(int) + (rng.random(60) < 0.3)) % 3
    probe = rng.integers(0, 4, size=(40, 5)).astype(float)
    return X, y, probe


@pytest.mark.parametrize("bootstrap", [True, False])
@pytest.mark.parametrize("max_features", ["sqrt", None])
def test_forest_staged_predict_matches_smaller_forests(bootstrap, max_features):
    X, y, probe = _staged_data(41)
    params = dict(max_depth=4, bootstrap=bootstrap, max_features=max_features, seed=3)
    forest = RandomForest(n_estimators=6, **params).fit(X, y)
    staged = list(forest.staged_predict(probe))
    assert len(staged) == 6
    assert staged[-1].tolist() == forest.predict(probe).tolist()
    for k, prediction in enumerate(staged, start=1):
        smaller = RandomForest(n_estimators=k, **params).fit(X, y)
        assert prediction.tolist() == smaller.predict(probe).tolist()


@pytest.mark.parametrize(
    "params",
    [
        dict(max_depth=2),
        dict(max_depth=3, subsample=0.7, colsample=0.6),
        dict(max_depth=None, subsample=0.8),
    ],
)
def test_boosting_staged_predict_matches_fewer_rounds(params):
    X, y, probe = _staged_data(43)
    model = GradientBoostedTrees(n_estimators=5, seed=4, **params).fit(X, y)
    staged = list(model.staged_predict(probe))
    scores = [s.copy() for s in model._staged_scores(probe)]
    assert len(staged) == 5 and len(scores) == 6
    for k, prediction in enumerate(staged, start=1):
        fewer = GradientBoostedTrees(n_estimators=k, seed=4, **params).fit(X, y)
        assert prediction.tolist() == fewer.predict(probe).tolist()
        assert np.array_equal(scores[k], fewer._raw_scores(probe))  # bit for bit


def test_boosting_single_class_stages_every_round():
    X = np.arange(6, dtype=float).reshape(-1, 1)
    model = GradientBoostedTrees(n_estimators=3).fit(X, [4] * 6)
    assert [p.tolist() for p in model.staged_predict(X)] == [[4] * 6] * 3


def counted_batches(monkeypatch) -> list:
    """Record the node count of every lock-step batch the tree core searches."""
    batches: list[int] = []
    search = tree_core._search

    def counting(batch, shared):
        batches.append(len(batch))
        return search(batch, shared)

    monkeypatch.setattr(tree_core, "_search", counting)
    return batches


def test_forest_fit_checks_the_deadline_before_every_batch(monkeypatch):
    X, y, _ = _staged_data(47)
    forest = RandomForest(n_estimators=50, seed=1)
    batches = counted_batches(monkeypatch)
    # the clock reads the number of lock-step batches searched so far
    monkeypatch.setattr(errors, "time", SimpleNamespace(monotonic=lambda: len(batches)))
    with pytest.raises(CellTimeoutError):
        forest.fit(X, y, deadline=2.5)
    assert len(batches) == 3
    assert batches[0] > 1  # a batch holds nodes of many trees


@pytest.mark.parametrize(
    "make",
    [lambda: RandomForest(n_estimators=12, seed=1), lambda: DecisionTree(max_features=2, seed=1)],
    ids=["RandomForest", "DecisionTree"],
)
def test_forest_fit_past_its_deadline_raises_and_a_generous_one_changes_nothing(make):
    X, y, _ = _staged_data(47)
    with pytest.raises(CellTimeoutError):
        make().fit(X, y, deadline=time.monotonic() - 1.0)
    free = make().fit(X, y)
    timed = make().fit(X, y, deadline=time.monotonic() + 3600)
    assert json.dumps(free.to_dict()) == json.dumps(timed.to_dict())


def test_boosting_fit_stops_within_one_round_of_deadline(monkeypatch):
    X, y, _ = _staged_data(53)
    model = GradientBoostedTrees(n_estimators=50, max_depth=2, seed=1)
    # the clock reads the number of rounds fitted so far
    monkeypatch.setattr(errors, "time", SimpleNamespace(monotonic=lambda: len(model.rounds_)))
    with pytest.raises(CellTimeoutError):
        model.fit(X, y, deadline=2.5)
    assert len(model.rounds_) == 3


# --- prediction input width -------------------------------------------------

WIDTH_LEARNERS = [
    lambda: DecisionTree(),
    lambda: RandomForest(n_estimators=6, seed=1),
    lambda: GradientBoostedTrees(n_estimators=3, max_depth=2, seed=1),
]


def _trees(model):
    if hasattr(model, "rounds_"):
        return [tree for trees in model.rounds_ for tree in trees]
    return [t.tree_ for t in getattr(model, "trees_", [model])]


def _fitted_on_column_one(make):
    """A model fitted on two columns whose labels follow column 1 only."""
    X = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]] * 5)
    model = make().fit(X, X[:, 1].astype(int))
    assert max(int(tree.feature.max()) for tree in _trees(model)) == 1
    return model


def _predictions(model, X):
    yield lambda: model.predict(X)
    if hasattr(model, "staged_predict"):
        yield lambda: next(iter(model.staged_predict(X)))


@pytest.mark.parametrize("make", WIDTH_LEARNERS, ids=["tree", "forest", "boosted"])
@pytest.mark.parametrize(
    "X",
    [np.zeros((3, 1)), np.zeros((3, 3)), np.zeros(3), np.zeros((3, 2, 1))],
    ids=["narrower", "wider", "1-D", "3-D"],
)
def test_predict_rejects_X_of_another_width_or_rank(make, X):
    model = _fitted_on_column_one(make)
    for predict in _predictions(model, X):
        with pytest.raises(ValidationError):
            predict()
    assert model.predict(np.zeros((3, 2))).shape == (3,)


# --- training and prediction input -------------------------------------------

ALL_LEARNERS = WIDTH_LEARNERS + [lambda: MajorityClassifier()]


@pytest.mark.parametrize("make", ALL_LEARNERS, ids=["tree", "forest", "boosted", "majority"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
def test_fit_and_predict_reject_non_finite_X(make, bad):
    with pytest.raises(ValidationError, match="NaN or infinite"):
        make().fit([[0.0], [bad], [1.0], [2.0]], [0, 1, 0, 1])
    model = make().fit([[0.0], [3.0], [1.0], [2.0]], [0, 1, 0, 1])
    for predict in _predictions(model, np.array([[0.0], [bad]])):
        with pytest.raises(ValidationError, match="NaN or infinite"):
            predict()


@pytest.mark.parametrize(
    "X",
    [5, np.zeros(3), np.zeros((3, 1)), np.zeros((3, 3)), np.zeros((3, 2, 1))],
    ids=["scalar", "1-D", "narrower", "wider", "3-D"],
)
def test_majority_predict_checks_X_like_the_tree_learners(X):
    model = MajorityClassifier().fit(np.zeros((4, 2)), [1, 0, 1, 1])
    with pytest.raises(ValidationError):
        model.predict(X)
    assert model.predict(np.zeros((3, 2))).tolist() == [1, 1, 1]


@pytest.mark.parametrize("make", [RandomForest, GradientBoostedTrees], ids=["forest", "boosted"])
@pytest.mark.parametrize("n_estimators", [0, -1, 2.5, True])
def test_ensemble_fit_rejects_n_estimators_that_is_not_a_positive_integer(make, n_estimators):
    with pytest.raises(ValidationError, match="n_estimators must be a positive integer"):
        make(n_estimators=n_estimators).fit(np.eye(3), [0, 1, 2])
    assert make(n_estimators=np.int64(2)).fit(np.eye(3), [0, 1, 2]).predict(np.eye(3)).shape == (3,)


@pytest.mark.parametrize(
    "make, value",
    [
        (RandomForest, "log2"), (RandomForest, 0), (RandomForest, -1), (RandomForest, 1.5),
        (RandomForest, True), (DecisionTree, "sqrt"), (DecisionTree, 0),
    ],
)
def test_fit_rejects_max_features_it_cannot_draw(make, value):
    with pytest.raises(ValidationError, match=f"max_features must be .*, got {value!r}"):
        make(max_features=value).fit(np.eye(3), [0, 1, 2])


@pytest.mark.parametrize("key", ["subsample", "colsample"])
@pytest.mark.parametrize("value", [0, -1, 1.5, float("nan"), True, "most"])
def test_boosting_fit_rejects_a_fraction_outside_zero_to_one(key, value):
    with pytest.raises(ValidationError, match=f"{key} must be a number in"):
        GradientBoostedTrees(n_estimators=2, **{key: value}).fit(np.eye(3), [0, 1, 2])


# (learner, parameter, value) that fit rejects; search.check_grid rejects them too
OUT_OF_RANGE = [
    (GradientBoostedTrees, "learning_rate", "fast"),
    (GradientBoostedTrees, "learning_rate", -0.1), (GradientBoostedTrees, "learning_rate", True),
    (GradientBoostedTrees, "learning_rate", float("nan")),
    (GradientBoostedTrees, "learning_rate", float("inf")), (RandomForest, "bootstrap", "no"),
    (RandomForest, "bootstrap", 1), (RandomForest, "min_samples_leaf", 0),
    (RandomForest, "min_samples_split", -3), (RandomForest, "min_samples_split", 1),
    (DecisionTree, "min_samples_leaf", 1.5), (DecisionTree, "min_samples_split", True),
    (DecisionTree, "max_depth", "x"), (DecisionTree, "max_depth", -1),
    (RandomForest, "max_depth", "x"), (RandomForest, "max_depth", 2.7),
    (GradientBoostedTrees, "max_depth", "x"), (GradientBoostedTrees, "max_depth", True),
]


@pytest.mark.parametrize("make, key, value", OUT_OF_RANGE)
def test_fit_rejects_a_parameter_outside_its_range(make, key, value):
    with pytest.raises(ValidationError, match=f"{key} must be .*, got {value!r}"):
        make(**{key: value}).fit(np.eye(3), [0, 1, 2])


@pytest.mark.parametrize(
    "make, params",
    [
        (GradientBoostedTrees, dict(learning_rate=0)),
        (GradientBoostedTrees, dict(learning_rate=np.float64(0.3))),
        (RandomForest, dict(bootstrap=np.bool_(False), min_samples_split=np.int64(2))),
        (DecisionTree, dict(min_samples_leaf=np.int64(2), min_samples_split=5)),
        (DecisionTree, dict(max_depth=0)),
        (RandomForest, dict(max_depth=np.int64(1))),
        (GradientBoostedTrees, dict(max_depth=None)),
    ],
)
def test_fit_accepts_the_edges_of_each_parameter_range(make, params):
    assert make(**params).fit(np.eye(3), [0, 1, 2]).predict(np.eye(3)).shape == (3,)


# --- several forests grown together, and trees descending together -----------


def _fold_data():
    """Repeated rows over four classes; class 9 has one row, so a fold lacks it."""
    rng = np.random.default_rng(71)
    X = rng.integers(0, 3, size=(45, 5)).astype(float)
    y = (X[:, 0].astype(int) + (rng.random(45) < 0.3)) % 3
    y[7] = 9
    folds = [np.setdiff1d(np.arange(45), np.arange(f, 45, 3)) for f in range(3)]
    assert 9 not in y[folds[1]]
    return X, y, folds


def assert_same_forest(many: RandomForest, alone: RandomForest):
    assert many.classes_.tolist() == alone.classes_.tolist()
    assert many.n_features_in_ == alone.n_features_in_
    assert len(many.trees_) == len(alone.trees_)
    for a, b in zip(many.trees_, alone.trees_):
        assert (a.seed, a.max_features, a.n_features_in_) == (b.seed, b.max_features, b.n_features_in_)
        assert a.classes_.tolist() == b.classes_.tolist()
        for name in ("feature", "threshold", "left", "right", "value"):
            x, z = getattr(a.tree_, name), getattr(b.tree_, name)
            assert x.dtype == z.dtype and np.array_equal(x, z), name


@pytest.mark.parametrize(
    "params",
    [
        {},
        {"bootstrap": False},
        {"max_depth": 3},
        {"min_samples_split": 6, "min_samples_leaf": 3},
        {"max_features": None, "bootstrap": False, "max_depth": 2},
    ],
    ids=["default", "no bootstrap", "max_depth", "min_samples", "all features"],
)
def test_fit_many_equals_one_fit_per_row_set(params):
    X, y, folds = _fold_data()
    seeds = [derive_seed(2, "fold", f) for f in range(3)]
    forests = [RandomForest(n_estimators=n, seed=s, **params) for s, n in zip(seeds, (7, 4, 6))]
    RandomForest.fit_many(forests, X, y, folds)
    for forest, seed, rows in zip(forests, seeds, folds):
        alone = RandomForest(n_estimators=forest.n_estimators, seed=seed, **params)
        assert_same_forest(forest, alone.fit(X[rows], y[rows]))
    assert 9 not in forests[1].classes_ and 9 in forests[0].classes_


def test_fit_many_raises_once_its_deadline_has_passed():
    X, y, folds = _fold_data()
    forests = [RandomForest(n_estimators=5, seed=f) for f in range(3)]
    with pytest.raises(CellTimeoutError):
        RandomForest.fit_many(forests, X, y, folds, deadline=time.monotonic() - 1.0)


def test_fit_many_needs_shared_tree_parameters_and_rows_in_every_set():
    X, y, folds = _fold_data()
    with pytest.raises(ValidationError, match="share their tree parameters"):
        RandomForest.fit_many([RandomForest(max_depth=2), RandomForest(max_depth=3)], X, y, folds[:2])
    with pytest.raises(ValidationError, match="non-empty"):
        RandomForest.fit_many([RandomForest(n_estimators=2)], X, y, [np.array([], dtype=int)])


def _descend(tree, x) -> int:
    """Reference descent of one row."""
    node = 0
    while tree.feature[node] >= 0:
        go_left = x[tree.feature[node]] <= tree.threshold[node]
        node = tree.left[node] if go_left else tree.right[node]
    return int(node)


@pytest.mark.parametrize("elements", [1, 100, 1 << 16], ids=["a tree a block", "small blocks", "one block"])
def test_apply_trees_equals_each_trees_own_descent(monkeypatch, elements):
    monkeypatch.setattr(tree_core, "_APPLY_ELEMENTS", elements)
    X, y, probe = _staged_data(73)
    forest = RandomForest(n_estimators=9, seed=2).fit(X, y)
    boosted = GradientBoostedTrees(n_estimators=3, max_depth=3, seed=2).fit(X, y)
    for model in (forest, boosted):
        trees = _trees(model)
        leaves = list(tree_core.apply_trees(trees, probe))
        assert len(leaves) == len(trees)
        for tree, leaf in zip(trees, leaves):
            assert leaf.tolist() == [_descend(tree, x) for x in probe]
            assert np.array_equal(tree.apply(probe), leaf)
    assert list(tree_core.apply_trees(_trees(forest), probe[:0]))[0].shape == (0,)


@pytest.mark.parametrize("elements", [100, 1 << 16], ids=["small blocks", "one block"])
def test_staged_votes_and_scores_equal_the_per_tree_loop(monkeypatch, elements):
    monkeypatch.setattr(tree_core, "_APPLY_ELEMENTS", elements)
    X, y, probe = _staged_data(79)
    forest = RandomForest(n_estimators=8, max_depth=4, seed=5).fit(X, y)
    votes = np.zeros((len(probe), len(forest.classes_)), dtype=np.int64)
    for tree, staged in zip(forest.trees_, forest.staged_predict(probe), strict=True):
        votes[np.arange(len(probe)), np.searchsorted(forest.classes_, tree.predict(probe))] += 1
        assert staged.tolist() == forest.classes_[votes.argmax(axis=1)].tolist()
    boosted = GradientBoostedTrees(n_estimators=4, max_depth=3, subsample=0.8, seed=5).fit(X, y)
    scores = np.tile(boosted.init_scores_, (len(probe), 1))
    stages = boosted._staged_scores(probe)
    assert np.array_equal(next(stages), scores)
    for round_trees, staged in zip(boosted.rounds_, stages, strict=True):
        for k, tree in enumerate(round_trees):
            scores[:, k] += boosted.learning_rate * tree.value[_apply_alone(tree, probe)]
        assert np.array_equal(staged, scores)  # bit for bit


def _apply_alone(tree, X):
    return np.array([_descend(tree, x) for x in X], dtype=np.int64)
