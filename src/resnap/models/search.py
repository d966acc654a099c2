"""Hyperparameter grids and cross-validated exhaustive grid search."""
from __future__ import annotations

import itertools
import numbers
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from ..errors import ConfigError, ValidationError, check_deadline
from ..seeding import derive_seed
from .boosting import GradientBoostedTrees
from .ensemble import RandomForest
from .params import check_value
from .tree import MajorityClassifier

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
    "forest": RANDOM_FOREST_GRID,
    "boosted": GRADIENT_BOOSTING_GRID,
}

_LEARNERS = {
    "majority": MajorityClassifier,
    "forest": RandomForest,
    "boosted": GradientBoostedTrees,
}

MODEL_KINDS = tuple(_LEARNERS)


def normalize_depth(value):
    """Map the unlimited-depth sentinels (None, the integer -1, "None") to None;
    keep any other value."""
    unlimited = value is None or value == "None" or (
        isinstance(value, numbers.Integral) and value == -1
    )
    return None if unlimited else value


def _learner(kind: str):
    try:
        return _LEARNERS[kind]
    except KeyError:
        raise ConfigError(f"unknown model kind {kind!r}; accepted: {', '.join(_LEARNERS)}") from None


def make_classifier(kind: str, params: Mapping, seed: int):
    """Instantiate a classifier of the given kind with grid-point params."""
    params = dict(params)
    if "max_depth" in params:
        params["max_depth"] = normalize_depth(params["max_depth"])
    return _learner(kind)(seed=seed, **params)


def check_grid(kind: str, grid: Mapping[str, Sequence]) -> None:
    """Raise ConfigError for a grid the learner cannot be built from.

    The grid must map parameters of the learner to non-empty lists of
    candidates, and every candidate must pass its parameter's rule in the
    learner's ``PARAMETERS`` table (:mod:`resnap.models.params`), the rule
    ``fit`` checks. ``max_depth`` candidates go through
    :func:`normalize_depth` first.
    """
    if not isinstance(grid, Mapping):
        raise ConfigError(f"{kind} grid must be an object, got {grid!r}")
    table = _learner(kind).PARAMETERS
    unknown = [key for key in grid if key not in table]
    if unknown:
        raise ConfigError(
            f"unknown {kind} grid parameter(s) {', '.join(map(repr, unknown))}; "
            f"accepted: {', '.join(table) or 'none'}"
        )
    for key, values in grid.items():
        if not isinstance(values, (list, tuple)) or not values:
            raise ConfigError(
                f"{kind} grid parameter {key!r} must be a non-empty list, got {values!r}"
            )
        for value in values:
            if key == "max_depth":
                value = normalize_depth(value)
            try:
                check_value(key, value, table[key])
            except ValidationError as exc:
                raise ConfigError(f"{kind} grid: {exc}") from None


def expand_grid(grid: Mapping[str, Sequence]) -> list[dict]:
    """Cartesian product of the grid in key insertion order."""
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


def plan(kind: str, points: list[dict], folds: int, seed: int) -> list[dict]:
    """The fit units of a search: one per group of ``points`` that differ
    only in ``n_estimators`` (by the ``repr`` of their other parameters,
    so ``1`` and ``True`` stay apart), none for a learner without
    parameters. A unit is plain JSON: its ``members`` (indices into
    ``points``), their ``stages`` (``n_estimators``, or None when unset),
    the ``params`` of its first member of most trees or rounds, and the
    ``seeds`` of its ``folds`` fold models."""
    groups: dict[str, list[int]] = {}
    for i, point in enumerate(points if _learner(kind).PARAMETERS else []):
        rest = [(key, value) for key, value in point.items() if key != "n_estimators"]
        groups.setdefault(repr(rest), []).append(i)
    seeds = [derive_seed(seed, "fold", f) for f in range(folds)]
    units = []
    for members in groups.values():
        top = max(members, key=lambda i: points[i].get("n_estimators", 0))
        stages = [points[i].get("n_estimators") for i in members]
        units.append({"members": members, "stages": stages, "params": points[top], "seeds": seeds})
    return units


def fit_unit(kind: str, unit: Mapping, X, y, fold_idx, deadline: float | None = None):
    """Fit ``unit`` on every fold (tested on ``fold_idx[f]``, trained on the
    other rows); each member's fold accuracies as floats. A member scores
    the stage of its own number of trees or rounds, exactly the prediction
    of a model fitted with that number."""
    models = [make_classifier(kind, unit["params"], seed) for seed in unit["seeds"]]
    train_idx = [np.setdiff1d(np.arange(len(y)), test, assume_unique=True) for test in fold_idx]
    if hasattr(models[0], "fit_many"):  # every fold's trees in one lock-step call
        type(models[0]).fit_many(models, X, y, train_idx, deadline)
    else:
        for model, train in zip(models, train_idx):
            model.fit(X[train], y[train], deadline=deadline)
    hits = []  # hits[f][n - 1]: fold f's accuracy after n trees or rounds
    for model, test in zip(models, fold_idx):
        hits.append([float(np.mean(p == y[test])) for p in model.staged_predict(X[test])])
    return [[fold[(n or len(fold)) - 1] for fold in hits] for n in unit["stages"]]


def select(points: list[dict], units: list[Mapping], results: list) -> CVOutcome:
    """The point of highest mean fold accuracy in the units' :func:`fit_unit`
    results, the earlier point on a tie; a point of no unit has no fold
    scores and a NaN mean."""
    per_fold = {i: hits for u, r in zip(units, results) for i, hits in zip(u["members"], r)}
    best: CVOutcome | None = None
    for i, point in enumerate(points):
        scores = per_fold.get(i, [])
        mean_acc = float(np.mean(scores)) if scores else float("nan")
        if best is None or mean_acc > best.mean_fold_accuracy:
            best = CVOutcome(best_params=point, mean_fold_accuracy=mean_acc, per_fold=scores)
    return best


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

    :func:`select` picks the winner from the :func:`fit_unit` results of
    the units of :func:`plan`. ``deadline`` (time.monotonic value) aborts
    the search with :class:`CellTimeoutError` once passed; every learner's
    ``fit`` checks it too. ``majority`` has no units and is only refit,
    with no fold scores and a NaN mean, but its folds are still made: too
    few samples for ``folds`` raise ConfigError as for every other learner.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y)
    if X.shape[0] != y.shape[0] or X.shape[0] == 0:
        raise ValidationError("X and y must be non-empty and of equal length")
    if grid is None:
        grid = DEFAULT_GRIDS.get(kind, {})
    check_grid(kind, grid)
    points = expand_grid(grid)
    fold_idx = stratified_kfold(y, folds, seed)
    units = plan(kind, points, folds, seed)
    best = select(points, units, [fit_unit(kind, u, X, y, fold_idx, deadline) for u in units])
    check_deadline(deadline)
    refit = make_classifier(kind, best.best_params, derive_seed(seed, "refit"))
    best.model = refit.fit(X, y, deadline=deadline)
    return best
