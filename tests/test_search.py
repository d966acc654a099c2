from __future__ import annotations

import inspect
import json
import time
from types import SimpleNamespace

import numpy as np
import pytest

from resnap import CellTimeoutError, ConfigError, errors
from resnap.models import (
    GRADIENT_BOOSTING_GRID,
    MODEL_KINDS,
    RANDOM_FOREST_GRID,
    DecisionTree,
    GradientBoostedTrees,
    MajorityClassifier,
    RandomForest,
    expand_grid,
    grid_search_cv,
    make_classifier,
    normalize_depth,
    stratified_kfold,
)
from resnap.models import tree as tree_core
from resnap.models.search import _LEARNERS, check_grid, fit_unit, plan, select
from resnap.seeding import derive_seed

from test_models import OUT_OF_RANGE


def test_published_grid_shapes():
    assert len(expand_grid(RANDOM_FOREST_GRID)) == 4 * 4 * 3 * 3 * 2
    assert len(expand_grid(GRADIENT_BOOSTING_GRID)) == 3 * 3 * 2 * 2 * 2
    # one fit unit per group of points that differ only in n_estimators
    assert len(plan("forest", expand_grid(RANDOM_FOREST_GRID), 3, seed=0)) == 4 * 3 * 3 * 2
    assert len(plan("boosted", expand_grid(GRADIENT_BOOSTING_GRID), 3, seed=0)) == 3 * 2 * 2 * 2
    assert plan("majority", expand_grid({}), 3, seed=0) == []


def test_expand_grid_preserves_key_order():
    points = expand_grid({"a": [1, 2], "b": [10]})
    assert points == [{"a": 1, "b": 10}, {"a": 2, "b": 10}]


def test_expand_grid_empty_is_single_point():
    assert expand_grid({}) == [{}]


def test_expand_grid_rejects_empty_candidate_list():
    with pytest.raises(ConfigError):
        expand_grid({"a": []})


def test_normalize_depth_sentinels():
    assert normalize_depth(None) is None
    assert normalize_depth(-1) is None
    assert normalize_depth("None") is None
    assert normalize_depth(10) == 10


def test_make_classifier_unknown_kind():
    with pytest.raises(ConfigError):
        make_classifier("svm", {}, seed=0)


def test_the_search_serves_the_experiment_learners_only():
    assert MODEL_KINDS == ("majority", "forest", "boosted")
    X, y = np.eye(6), np.array([0, 1] * 3)
    accepted = "unknown model kind 'tree'; accepted: majority, forest, boosted"
    with pytest.raises(ConfigError, match=accepted):
        grid_search_cv("tree", X, y, {}, folds=3, seed=0)
    with pytest.raises(ConfigError, match=accepted):
        make_classifier("tree", {}, seed=0)


def test_stratified_kfold_partitions_everything():
    y = np.array([0] * 9 + [1] * 6)
    folds = stratified_kfold(y, 3, seed=1)
    combined = np.sort(np.concatenate(folds))
    assert combined.tolist() == list(range(15))
    for fold in folds:
        assert np.sum(y[fold] == 0) == 3
        assert np.sum(y[fold] == 1) == 2


def test_stratified_kfold_spreads_rare_classes():
    y = np.array([0, 0, 0, 0, 1, 1])
    folds = stratified_kfold(y, 3, seed=0)
    rare_folds = [f for f, idx in enumerate(folds) if np.any(y[idx] == 1)]
    assert len(rare_folds) == 2  # the two rare samples land in distinct folds
    for fold in folds:
        assert len(fold) >= 1


def test_stratified_kfold_needs_enough_samples():
    with pytest.raises(ConfigError):
        stratified_kfold(np.array([0, 1]), 3)


def _one_tree(**grid):
    """A forest grid of one tree grown on every row and feature."""
    return {"n_estimators": [1], "bootstrap": [False], "max_features": [None], **grid}


def test_grid_search_single_point_returns_it():
    rng = np.random.default_rng(0)
    X = rng.normal(size=(12, 2))
    y = np.array([0, 1] * 6)
    outcome = grid_search_cv("forest", X, y, _one_tree(max_depth=[2]), folds=3, seed=1)
    assert outcome.best_params["max_depth"] == 2
    assert len(outcome.per_fold) == 3
    assert outcome.mean_fold_accuracy == pytest.approx(np.mean(outcome.per_fold))


def test_grid_search_prefers_depth_that_separates():
    # XOR-ish data: a stump cannot split it, depth 2 can
    rng = np.random.default_rng(2)
    base = rng.uniform(0, 1, size=(80, 2))
    X = np.vstack([base + [0, 0], base + [2, 0], base + [0, 2], base + [2, 2]])
    y = np.array([0] * 80 + [1] * 80 + [1] * 80 + [0] * 80)
    outcome = grid_search_cv("forest", X, y, _one_tree(max_depth=[1, 2]), folds=3, seed=3)
    assert outcome.best_params["max_depth"] == 2


def test_grid_search_tie_keeps_enumeration_order():
    X = np.array([[0.0], [1.0], [0.0], [1.0], [0.0], [1.0]])
    y = np.array([0, 1, 0, 1, 0, 1])
    outcome = grid_search_cv("forest", X, y, _one_tree(max_depth=[3, 5]), folds=3, seed=0)
    assert outcome.best_params["max_depth"] == 3


def test_grid_search_refits_on_full_data():
    X = np.array([[0.0], [1.0], [0.0], [1.0], [0.0], [1.0]])
    y = np.array([0, 1, 0, 1, 0, 1])
    outcome = grid_search_cv("forest", X, y, _one_tree(), folds=3, seed=0)
    assert outcome.model.predict(X).tolist() == y.tolist()


def test_grid_search_deadline_raises():
    rng = np.random.default_rng(5)
    X = rng.normal(size=(60, 4))
    y = rng.integers(0, 3, size=60)
    with pytest.raises(CellTimeoutError):
        grid_search_cv(
            "forest",
            X,
            y,
            {"n_estimators": [50, 50, 50]},
            folds=3,
            seed=0,
            deadline=time.monotonic() - 1.0,
        )


def test_grid_search_majority_has_single_point():
    X = np.zeros((8, 1))
    y = np.array([0, 0, 0, 1, 0, 1, 0, 1])
    outcome = grid_search_cv("majority", X, y, folds=2, seed=0)
    assert outcome.best_params == {}
    assert outcome.model.predict(X).tolist() == [0] * 8


def test_grid_search_majority_only_refits(monkeypatch):
    fitted = []
    fit = MajorityClassifier.fit
    monkeypatch.setattr(
        MajorityClassifier,
        "fit",
        lambda self, X, y, deadline=None: fitted.append(len(y)) or fit(self, X, y),
    )
    X = np.zeros((8, 1))
    y = np.array([0, 0, 0, 1, 0, 1, 0, 1])
    outcome = grid_search_cv("majority", X, y, folds=2, seed=0)
    assert fitted == [8]  # the refit on all rows, no fold fits
    assert outcome.per_fold == [] and np.isnan(outcome.mean_fold_accuracy)
    with pytest.raises(ConfigError, match="cannot make 3 folds from 2 samples"):
        grid_search_cv("majority", X[:2], y[:2], folds=3, seed=0)


def _naive_search(kind, X, y, grid, folds, seed):
    """Reference search: one fit per grid point and fold, scored with predict."""
    fold_idx = stratified_kfold(y, folds, seed)
    best = None
    for point in expand_grid(grid):
        per_fold = []
        for f, test_idx in enumerate(fold_idx):
            train_idx = np.setdiff1d(np.arange(len(y)), test_idx)
            model = make_classifier(kind, point, derive_seed(seed, "fold", f))
            model.fit(X[train_idx], y[train_idx])
            per_fold.append(float(np.mean(model.predict(X[test_idx]) == y[test_idx])))
        if best is None or np.mean(per_fold) > best[1]:
            best = (point, float(np.mean(per_fold)), per_fold)
    return best


STAGED_CASES = [
    ("forest", {"n_estimators": [3, 1, 5], "max_depth": [2, None], "bootstrap": [True, False]}),
    ("forest", {"n_estimators": [4, 2, 4], "max_depth": [3]}),  # points 0 and 2 tie
    ("boosted", {"n_estimators": [4, 2], "max_depth": [2], "subsample": [0.8, 1.0]}),
    ("boosted", {"n_estimators": [3, 3], "max_depth": [None], "colsample": [0.6]}),
]


@pytest.mark.parametrize("kind, grid", STAGED_CASES)
def test_grid_search_staged_scores_match_naive_loop(kind, grid):
    rng = np.random.default_rng(61)
    X = rng.integers(0, 4, size=(48, 4)).astype(float)
    y = (X[:, 0].astype(int) + (rng.random(48) < 0.4)) % 3
    outcome = grid_search_cv(kind, X, y, grid, folds=3, seed=2)
    best_params, mean_acc, per_fold = _naive_search(kind, X, y, grid, folds=3, seed=2)
    assert outcome.best_params == best_params
    assert outcome.per_fold == per_fold
    assert outcome.mean_fold_accuracy == mean_acc
    refit = make_classifier(kind, best_params, derive_seed(2, "refit")).fit(X, y)
    assert outcome.model.predict(X).tolist() == refit.predict(X).tolist()


@pytest.mark.parametrize("kind, grid", STAGED_CASES)
def test_plan_units_fit_in_any_order_through_json(kind, grid):
    rng = np.random.default_rng(61)
    X = rng.integers(0, 4, size=(48, 4)).astype(float)
    y = (X[:, 0].astype(int) + (rng.random(48) < 0.4)) % 3
    points = expand_grid(grid)
    units = json.loads(json.dumps(plan(kind, points, 3, seed=2)))[::-1]
    fold_idx = stratified_kfold(y, 3, seed=2)
    results = [json.loads(json.dumps(fit_unit(kind, unit, X, y, fold_idx))) for unit in units]
    chosen = select(points, units, results)
    outcome = grid_search_cv(kind, X, y, grid, folds=3, seed=2)
    assert chosen.best_params == outcome.best_params
    assert chosen.per_fold == outcome.per_fold
    assert chosen.mean_fold_accuracy == outcome.mean_fold_accuracy


def test_grid_search_fits_each_group_once_per_fold_at_its_largest_size(monkeypatch):
    rng = np.random.default_rng(67)
    X = rng.normal(size=(30, 3))
    y = rng.integers(0, 2, size=30)
    calls = []
    fit_many = RandomForest.fit_many

    def recording_fit_many(forests, X, y, row_sets, deadline=None):
        calls.append(
            ([(f.n_estimators, f.max_depth, f.seed) for f in forests], [r.tolist() for r in row_sets])
        )
        return fit_many(forests, X, y, row_sets, deadline)

    monkeypatch.setattr(RandomForest, "fit_many", staticmethod(recording_fit_many))
    grid = {"n_estimators": [2, 4, 3], "max_depth": [2, 3]}
    outcome = grid_search_cv("forest", X, y, grid, folds=3, seed=1)
    train = [
        np.setdiff1d(np.arange(30), test).tolist() for test in stratified_kfold(y, 3, seed=1)
    ]
    seeds = [derive_seed(1, "fold", f) for f in range(3)]
    refit = (outcome.best_params["n_estimators"], outcome.best_params["max_depth"])
    assert calls == [
        ([(4, 2, s) for s in seeds], train),  # one call per group, all three folds
        ([(4, 3, s) for s in seeds], train),
        ([(*refit, derive_seed(1, "refit"))], [list(range(30))]),
    ]


@pytest.mark.parametrize("kind", ["forest", "boosted"])
def test_grid_search_staged_tie_keeps_enumeration_order(kind):
    X = np.array([[0.0], [1.0]] * 6)
    y = np.array([0, 1] * 6)
    outcome = grid_search_cv(kind, X, y, {"n_estimators": [5, 3]}, folds=3, seed=0)
    assert outcome.per_fold == [1.0, 1.0, 1.0]  # both points score 1.0 on every fold
    assert outcome.best_params == {"n_estimators": 5}


def test_grid_search_deadline_reaches_inside_ensemble_fits(monkeypatch):
    rng = np.random.default_rng(5)
    X = rng.normal(size=(60, 4))
    y = rng.integers(0, 3, size=60)
    batches = []
    search = tree_core._search

    def counting(batch, shared):
        batches.append(1)
        return search(batch, shared)

    monkeypatch.setattr(tree_core, "_search", counting)
    # the clock reads the number of lock-step batches searched so far
    monkeypatch.setattr(errors, "time", SimpleNamespace(monotonic=lambda: len(batches)))
    with pytest.raises(CellTimeoutError):
        grid_search_cv("forest", X, y, {"n_estimators": [50]}, folds=3, seed=0, deadline=5.5)
    assert len(batches) == 6


@pytest.mark.parametrize("budget", [0.05, 0.2])
def test_a_cell_budget_is_overshot_by_at_most_the_longest_unchecked_step(budget):
    # a boosting fit checks its deadline before each round, so the search
    # raises within one round (presort included) of a deadline that falls mid-fit
    rng = np.random.default_rng(83)
    X = rng.integers(0, 4, size=(400, 30)).astype(float)
    y = rng.integers(0, 8, size=400)
    one_round = []
    for _ in range(2):  # the slower of two timings, so one fast timing cannot set it
        start = time.monotonic()
        GradientBoostedTrees(n_estimators=1, seed=0).fit(X, y)
        one_round.append(time.monotonic() - start)
    deadline = time.monotonic() + budget
    with pytest.raises(CellTimeoutError):
        grid_search_cv("boosted", X, y, {"n_estimators": [50]}, folds=3, seed=0, deadline=deadline)
    overshoot = time.monotonic() - deadline
    assert 0 < overshoot < 2 * max(one_round) + 0.05, (overshoot, one_round)


@pytest.mark.parametrize(
    "grid, key",
    [
        ({"n_estimators": 5}, "n_estimators"),
        ({"n_estimators": []}, "n_estimators"),
        ({"n_estimators": [0]}, "n_estimators"),
        ({"n_estimators": [2.5]}, "n_estimators"),
        ({"max_depth": ["deep"]}, "max_depth"),
    ],
)
def test_check_grid_rejects_bad_values(grid, key):
    with pytest.raises(ConfigError, match=key):
        check_grid("forest", grid)


@pytest.mark.parametrize("cls", [*_LEARNERS.values(), DecisionTree], ids=[*_LEARNERS, "tree"])
def test_parameter_table_lists_the_constructor_parameters_in_order(cls):
    accepted = [p for p in inspect.signature(cls).parameters if p != "seed"]
    assert list(cls.PARAMETERS) == accepted
    if accepted:  # the tree learners save their parameters in table order
        model = cls(seed=3).fit(np.eye(3), [0, 1, 2])
        assert list(model.to_dict()["params"]) == accepted


# a forest passes its tree parameters to its DecisionTrees
KINDS = {**{learner: kind for kind, learner in _LEARNERS.items()}, DecisionTree: "forest"}


@pytest.mark.parametrize(
    "make, key, value",
    [
        (make, key, value)
        for make, key, value in OUT_OF_RANGE
        if not (key == "max_depth" and normalize_depth(value) is None)  # a grid's "unlimited"
    ],
)
def test_check_grid_rejects_what_fit_rejects(make, key, value):
    with pytest.raises(ConfigError, match=f"{key} must be"):
        check_grid(KINDS[make], {key: [value]})
