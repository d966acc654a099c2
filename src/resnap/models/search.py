"""Hyperparameter grids and cross-validated exhaustive grid search."""
from __future__ import annotations

import inspect
import itertools
import numbers
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from ..errors import ConfigError, ValidationError, check_deadline
from ..seeding import derive_seed
from .boosting import GradientBoostedTrees
from .ensemble import RandomForest
from .tree import DecisionTree, MajorityClassifier

# "None" and -1 both mean unlimited depth
RANDOM_FOREST_GRID: dict[str, list] = {
    "n_estimators": [50, 100, 200, 300],
    "max_depth": [None, 10, 20, 30],
    "min_samples_split": [2, 5, 10],
    "min_samples_leaf": [1, 2, 4],
    "bootstrap": [True, False],
}

GRADIENT_BOOSTING_GRID: dict[str, list] = {
    "n_estimators": [50, 100, 200],
    "max_depth": [None, 10, 20],
    "learning_rate": [0.05, 0.1],
    "subsample": [0.8, 1.0],
    "colsample": [0.8, 1.0],
}

DEFAULT_GRIDS: dict[str, dict[str, list]] = {
    "majority": {},
    "tree": {},
    "forest": RANDOM_FOREST_GRID,
    "boosted": GRADIENT_BOOSTING_GRID,
}

_LEARNERS = {
    "majority": MajorityClassifier,
    "tree": DecisionTree,
    "forest": RandomForest,
    "boosted": GradientBoostedTrees,
}

MODEL_KINDS = tuple(_LEARNERS)


def normalize_depth(value) -> int | None:
    """Map the unlimited-depth sentinels (None, -1, "None") to None."""
    if value is None or value == -1 or value == "None":
        return None
    try:
        return int(value)
    except (TypeError, ValueError):
        raise ConfigError(f"max_depth must be an integer or None, got {value!r}") from None


def _learner(kind: str):
    try:
        return _LEARNERS[kind]
    except KeyError:
        raise ConfigError(f"unknown model kind {kind!r}") from None


def make_classifier(kind: str, params: Mapping, seed: int):
    """Instantiate a classifier of the given kind with grid-point params."""
    params = dict(params)
    if "max_depth" in params:
        params["max_depth"] = normalize_depth(params["max_depth"])
    return _learner(kind)(seed=seed, **params)


def check_grid(kind: str, grid: Mapping[str, Sequence]) -> None:
    """Raise ConfigError for a grid the learner cannot be built from.

    The grid must be a mapping. Every key must be a parameter of the
    learner's constructor and every value a non-empty list of
    candidates; ``max_depth`` candidates must be depths and
    ``n_estimators`` candidates positive integers, which staged scoring
    needs as stage numbers.
    """
    if not isinstance(grid, Mapping):
        raise ConfigError(f"{kind} grid must be an object, got {grid!r}")
    accepted = [p for p in inspect.signature(_learner(kind)).parameters if p != "seed"]
    unknown = [key for key in grid if key not in accepted]
    if unknown:
        raise ConfigError(
            f"unknown {kind} grid parameter(s) {', '.join(map(repr, unknown))}; "
            f"accepted: {', '.join(accepted) or 'none'}"
        )
    for key, values in grid.items():
        if not isinstance(values, (list, tuple)) or not values:
            raise ConfigError(
                f"{kind} grid parameter {key!r} must be a non-empty list, got {values!r}"
            )
    for value in grid.get("max_depth", ()):
        normalize_depth(value)
    for value in grid.get("n_estimators", ()):
        if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < 1:
            raise ConfigError(f"n_estimators must be a positive integer, got {value!r}")


def expand_grid(grid: Mapping[str, Sequence]) -> list[dict]:
    """Cartesian product of the grid in key insertion order."""
    if not grid:
        return [{}]
    keys = list(grid)
    for key in keys:
        if not grid[key]:
            raise ConfigError(f"grid parameter {key!r} has no candidate values")
    return [dict(zip(keys, combo)) for combo in itertools.product(*(grid[k] for k in keys))]


def stratified_kfold(y, folds: int, seed: int = 0) -> list[np.ndarray]:
    """Fold index arrays with per-class shuffling and a rotating cursor.

    Classes rarer than the fold count are still spread over distinct
    folds, so every training fold keeps at least one instance whenever
    the class has two or more.
    """
    y = np.asarray(y)
    if folds < 2:
        raise ConfigError("cross-validation needs at least 2 folds")
    if len(y) < folds:
        raise ConfigError(f"cannot make {folds} folds from {len(y)} samples")
    rng = np.random.default_rng(derive_seed(seed, "kfold"))
    assignment = np.empty(len(y), dtype=np.int64)
    cursor = 0
    for cls in np.unique(y):
        idx = rng.permutation(np.nonzero(y == cls)[0])
        for offset, i in enumerate(idx):
            assignment[i] = (cursor + offset) % folds
        cursor = (cursor + len(idx)) % folds
    return [np.nonzero(assignment == f)[0] for f in range(folds)]


@dataclass
class CVOutcome:
    """Winning grid point with its per-fold accuracies and refit model."""

    best_params: dict
    mean_fold_accuracy: float
    per_fold: list[float]
    model: object = field(repr=False, default=None)


def _staged_groups(points: list[dict]) -> list[list[int]]:
    """Indices of the grid points that differ only in ``n_estimators``.

    Points are compared by the ``repr`` of their other parameters, so
    values that compare equal but differ in type (``1`` and ``True``)
    stay apart.
    """
    groups: dict[str, list[int]] = {}
    for i, point in enumerate(points):
        rest = [(key, value) for key, value in point.items() if key != "n_estimators"]
        groups.setdefault(repr(rest), []).append(i)
    return list(groups.values())


def grid_search_cv(
    kind: str,
    X,
    y,
    grid: Mapping[str, Sequence] | None = None,
    folds: int = 3,
    seed: int = 0,
    deadline: float | None = None,
) -> CVOutcome:
    """Exhaustive stratified-CV search; refits the winner on all data.

    The best point is the highest mean fold accuracy; ties keep the
    earlier grid-enumeration point. For a learner with
    ``staged_predict`` (the ensembles), the points that differ only in
    ``n_estimators`` share one fit per fold at their largest
    ``n_estimators``, and each point is scored from the prediction after
    its own number of trees or rounds, which is exactly the prediction of
    a model fitted with that number. ``deadline`` (time.monotonic value)
    aborts the search with :class:`CellTimeoutError` when exceeded; the
    ensembles also check it before every tree or round.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y)
    if X.shape[0] != y.shape[0] or X.shape[0] == 0:
        raise ValidationError("X and y must be non-empty and of equal length")
    if grid is None:
        grid = DEFAULT_GRIDS.get(kind, {})
    check_grid(kind, grid)
    points = expand_grid(grid)
    staged = hasattr(_learner(kind), "staged_predict")
    groups = _staged_groups(points) if staged else [[i] for i in range(len(points))]
    fit_args = {"deadline": deadline} if staged else {}
    fold_idx = stratified_kfold(y, folds, seed)
    all_idx = np.arange(len(y))
    per_fold: list[list[float]] = [[] for _ in points]
    for f, test_idx in enumerate(fold_idx):
        train_idx = np.setdiff1d(all_idx, test_idx, assume_unique=True)
        X_train, y_train = X[train_idx], y[train_idx]
        X_test, y_test = X[test_idx], y[test_idx]
        for members in groups:
            check_deadline(deadline)
            top = max(members, key=lambda i: points[i].get("n_estimators", 0))
            model = make_classifier(kind, points[top], derive_seed(seed, "fold", f))
            model.fit(X_train, y_train, **fit_args)
            if staged:
                # hits[n - 1]: fold accuracy after n trees or rounds
                hits = [float(np.mean(p == y_test)) for p in model.staged_predict(X_test)]
                for i in members:
                    n = points[i].get("n_estimators", model.n_estimators)
                    per_fold[i].append(hits[n - 1])
            else:
                per_fold[top].append(float(np.mean(model.predict(X_test) == y_test)))
    best: CVOutcome | None = None
    for point, scores in zip(points, per_fold):
        mean_acc = float(np.mean(scores))
        if best is None or mean_acc > best.mean_fold_accuracy:
            best = CVOutcome(best_params=point, mean_fold_accuracy=mean_acc, per_fold=scores)
    check_deadline(deadline)
    refit = make_classifier(kind, best.best_params, derive_seed(seed, "refit"))
    best.model = refit.fit(X, y, **fit_args)
    return best
