"""Hyperparameter grids and cross-validated exhaustive grid search."""
from __future__ import annotations

import inspect
import itertools
import time
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from ..errors import CellTimeoutError, ConfigError, ValidationError
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
    return int(value)


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
    """Raise ConfigError naming the grid keys the learner's constructor does not take."""
    accepted = [p for p in inspect.signature(_learner(kind)).parameters if p != "seed"]
    unknown = [key for key in grid if key not in accepted]
    if unknown:
        raise ConfigError(
            f"unknown {kind} grid parameter(s) {', '.join(map(repr, unknown))}; "
            f"accepted: {', '.join(accepted) or 'none'}"
        )


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
    earlier grid-enumeration point. ``deadline`` (time.monotonic value)
    aborts the search with :class:`CellTimeoutError` when exceeded.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y)
    if X.shape[0] != y.shape[0] or X.shape[0] == 0:
        raise ValidationError("X and y must be non-empty and of equal length")
    if grid is None:
        grid = DEFAULT_GRIDS.get(kind, {})
    points = expand_grid(grid)
    fold_idx = stratified_kfold(y, folds, seed)
    all_idx = np.arange(len(y))
    best: CVOutcome | None = None
    for point in points:
        per_fold: list[float] = []
        for f, test_idx in enumerate(fold_idx):
            if deadline is not None and time.monotonic() > deadline:
                raise CellTimeoutError("grid search exceeded its wall-time budget")
            train_idx = np.setdiff1d(all_idx, test_idx, assume_unique=True)
            model = make_classifier(kind, point, derive_seed(seed, "fold", f))
            model.fit(X[train_idx], y[train_idx])
            preds = model.predict(X[test_idx])
            per_fold.append(float(np.mean(preds == y[test_idx])))
        mean_acc = float(np.mean(per_fold))
        if best is None or mean_acc > best.mean_fold_accuracy:
            best = CVOutcome(best_params=point, mean_fold_accuracy=mean_acc, per_fold=per_fold)
    if deadline is not None and time.monotonic() > deadline:
        raise CellTimeoutError("grid search exceeded its wall-time budget")
    refit = make_classifier(kind, best.best_params, derive_seed(seed, "refit"))
    best.model = refit.fit(X, y)
    return best
