"""Experiment runner: rare-class handling, splitting, and the full sweep.

One train/test split is drawn per (dataset, prefix length, seed) and
reused by every encoding and model, so accuracy comparisons within a
prefix length are paired. Mutual-information feature selection for the
2-gram encodings is fit on the training rows of that split only.
"""
from __future__ import annotations

import numbers
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from typing import Mapping, Sequence

import numpy as np

from .encodings import (
    ENCODINGS,
    CapabilityMap,
    SelectedBigrams,
    bigram_count_columns,
    capability_map,
    encode_s2g,
    encode_s2gr,
    encode_scap,
    encode_seq_only,
    select_top_k,
)
from .errors import CellTimeoutError, ConfigError, ValidationError
from .eventlog import EventLog, resource_view
from .models.search import MODEL_KINDS, check_grid, grid_search_cv
from .prefixes import (
    DEFAULT_PREFIX_CANDIDATES,
    PrefixDataset,
    build_prefix_dataset,
    check_candidates,
    prefix_grid,
)
from .profiling import example_leakage
from .seeding import derive_seed

RARE_LABEL = "__RARE__"


@dataclass(frozen=True)
class ExperimentConfig:
    """All knobs for one dataset sweep."""

    dataset_id: str = "dataset"
    prefix_candidates: tuple[int, ...] = DEFAULT_PREFIX_CANDIDATES
    min_resources: int = 100
    encodings: tuple[str, ...] = ENCODINGS
    models: tuple[str, ...] = MODEL_KINDS
    split_ratio: float = 0.8
    seed: int = 0
    cv_folds: int = 3
    mi_k: int = 20
    grids: Mapping[str, Mapping[str, Sequence]] = field(default_factory=dict)
    cell_timeout: float | None = None
    workers: int = 1

    def validate(self) -> None:
        """Raise ConfigError naming the first field of the wrong type or range."""
        check_candidates(self.prefix_candidates)
        for key, known in (("encodings", ENCODINGS), ("models", MODEL_KINDS)):
            names = getattr(self, key)
            if not isinstance(names, (list, tuple)) or not all(isinstance(n, str) for n in names):
                raise ConfigError(f"{key} must be a list of names, got {names!r}")
            unknown = [n for n in names if n not in known]
            if unknown:
                raise ConfigError(f"unknown {key}: {', '.join(unknown)}")
            if len(set(names)) < len(names):
                raise ConfigError(f"{key} must not repeat a name, got {names!r}")
        if not self.encodings or not self.models:
            raise ConfigError("at least one encoding and one model are required")
        ratio = self.split_ratio
        if isinstance(ratio, bool) or not isinstance(ratio, numbers.Real) or not 0 < ratio < 1:
            raise ConfigError(f"split_ratio must be a number strictly between 0 and 1, got {ratio!r}")
        for key, low in (
            ("seed", None), ("min_resources", 1), ("cv_folds", 2), ("mi_k", 0), ("workers", 1)
        ):
            value = getattr(self, key)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ConfigError(f"{key} must be an integer, got {value!r}")
            if low is not None and value < low:
                bound = "non-negative" if low == 0 else f"at least {low}"
                raise ConfigError(f"{key} must be {bound}, got {value!r}")
        timeout = self.cell_timeout
        if timeout is not None and (
            isinstance(timeout, bool) or not isinstance(timeout, numbers.Real) or not timeout > 0
        ):
            raise ConfigError(f"cell_timeout must be null or a positive number, got {timeout!r}")
        if not isinstance(self.grids, Mapping):
            raise ConfigError(f"experiment.grids must be a JSON object, got {self.grids!r}")
        for model, grid in self.grids.items():
            check_grid(model, grid)


@dataclass(frozen=True)
class ResultRecord:
    """One accuracy measurement for (dataset, model, encoding, prefix length)."""

    dataset: str
    model: str
    encoding: str
    prefix_length: int
    accuracy: float | None
    n_train: int
    n_test: int
    leakage_fraction: float
    best_params: Mapping
    wall_time: float = 0.0
    status: str = "ok"


def handle_rare_classes(ds: PrefixDataset) -> PrefixDataset:
    """Duplicate a lone singleton class, or merge several into a placeholder.

    With exactly one target class of count 1, its sample is appended a
    second time (the resource then contributes two identical samples).
    With several, those targets are relabelled to a placeholder appended
    to ``activities``, whose fresh code ``len(activities)`` no activity of
    the log holds, even one named like it. Afterwards every class has
    count >= 2.
    """
    classes, counts = np.unique(ds.targets, return_counts=True)
    rare = classes[counts == 1]
    if not len(rare):
        return ds
    if len(rare) == 1:
        (row,) = np.flatnonzero(ds.targets == rare[0])
        return replace(ds, resource_ids=ds.resource_ids + (ds.resource_ids[row],),
                       samples=np.vstack([ds.samples, ds.samples[row]]))
    samples = ds.samples.copy()
    samples[np.isin(ds.targets, rare), -1] = len(ds.activities)
    return replace(ds, samples=samples, activities=ds.activities + (RARE_LABEL,))


def stratified_split(
    ds: PrefixDataset, ratio: float = 0.8, seed: int = 0
) -> tuple[np.ndarray, np.ndarray]:
    """Per-class split: each class sends max(1, round((1-ratio)*n)) to test."""
    if not (0.0 < ratio < 1.0):
        raise ConfigError("split ratio must be strictly between 0 and 1")
    targets = ds.targets
    classes, counts = np.unique(targets, return_counts=True)
    if counts.min() < 2:
        raise ValidationError(
            "every class needs at least 2 samples; apply rare-class handling first"
        )
    rng = np.random.default_rng(derive_seed(seed, "split"))
    test: list[int] = []
    for cls in classes:
        idx = rng.permutation(np.nonzero(targets == cls)[0])
        n_test = max(1, round((1.0 - ratio) * len(idx)))
        test.extend(int(i) for i in idx[:n_test])
    test_idx = np.array(sorted(test), dtype=np.int64)
    train_idx = np.setdiff1d(np.arange(len(targets)), test_idx, assume_unique=True)
    return train_idx, test_idx


def accuracy(predicted, truth) -> float:
    """Fraction of matching positions."""
    predicted = np.asarray(predicted)
    truth = np.asarray(truth)
    if predicted.shape != truth.shape or predicted.size == 0:
        raise ValidationError("predictions and truth must be non-empty and aligned")
    return float(np.mean(predicted == truth))


@dataclass(frozen=True, eq=False)
class _Cell:
    dataset: str
    prefix_length: int
    encoding: str
    model: str
    X_train: np.ndarray
    y_train: np.ndarray
    X_test: np.ndarray
    y_test: np.ndarray
    grid: Mapping | None
    folds: int
    seed: int
    timeout: float | None
    leakage: float


def _run_cell(cell: _Cell) -> ResultRecord:
    start = time.perf_counter()
    deadline = None if cell.timeout is None else time.monotonic() + cell.timeout
    try:
        outcome = grid_search_cv(
            cell.model,
            cell.X_train,
            cell.y_train,
            cell.grid,
            folds=cell.folds,
            seed=cell.seed,
            deadline=deadline,
        )
        acc = accuracy(outcome.model.predict(cell.X_test), cell.y_test)
        best_params, status = outcome.best_params, "ok"
    except CellTimeoutError:
        acc, best_params, status = None, {}, "failed"
    return ResultRecord(
        dataset=cell.dataset,
        model=cell.model,
        encoding=cell.encoding,
        prefix_length=cell.prefix_length,
        accuracy=acc,
        n_train=len(cell.y_train),
        n_test=len(cell.y_test),
        leakage_fraction=cell.leakage,
        best_params=best_params,
        wall_time=time.perf_counter() - start,
        status=status,
    )


def _encode(
    encoding: str,
    ds: PrefixDataset,
    cap: CapabilityMap | None,
    selection: SelectedBigrams | None,
):
    if encoding == "SeqOnly":
        return encode_seq_only(ds)
    if encoding == "SCap":
        return encode_scap(ds, cap)
    if encoding == "S2g":
        return encode_s2g(ds, selection)
    return encode_s2gr(ds, selection)  # validate() admits no other encoding


def run_experiment(log: EventLog, cfg: ExperimentConfig) -> list[ResultRecord]:
    """Sweep prefix lengths x encodings x models over one log."""
    cfg.validate()
    view = resource_view(log)
    lengths = prefix_grid(view, cfg.prefix_candidates, cfg.min_resources)
    if not lengths:
        raise ConfigError(
            f"no admissible prefix length: every candidate keeps fewer than "
            f"min_resources={cfg.min_resources} resources"
        )
    cap = capability_map(log) if "SCap" in cfg.encodings else None
    needs_selection = any(e in ("S2g", "S2gR") for e in cfg.encodings)

    cells: list[_Cell] = []
    for length in lengths:
        ds = handle_rare_classes(build_prefix_dataset(view, length))
        split_seed = derive_seed(cfg.seed, cfg.dataset_id, length, "split")
        train_idx, test_idx = stratified_split(ds, cfg.split_ratio, split_seed)
        if len(train_idx) < cfg.cv_folds:  # checked before any cell runs
            raise ConfigError(
                f"prefix length {length}: {len(train_idx)} training sample(s) cannot make "
                f"{cfg.cv_folds} folds; raise min_resources or drop the length"
            )
        prefixes = ds.prefixes.tolist()
        train_prefixes = [prefixes[i] for i in train_idx]
        leak = example_leakage(train_prefixes, [prefixes[i] for i in test_idx]).leaked_fraction
        selection = None
        if needs_selection:
            columns = bigram_count_columns(train_prefixes)
            selection = select_top_k(columns, ds.targets[train_idx].tolist(), cfg.mi_k)
        for encoding in cfg.encodings:
            encoded = _encode(encoding, ds, cap, selection)
            for model in cfg.models:
                cells.append(
                    _Cell(
                        dataset=cfg.dataset_id,
                        prefix_length=length,
                        encoding=encoding,
                        model=model,
                        X_train=encoded.rows[train_idx],
                        y_train=encoded.targets[train_idx],
                        X_test=encoded.rows[test_idx],
                        y_test=encoded.targets[test_idx],
                        grid=cfg.grids.get(model),
                        folds=cfg.cv_folds,
                        seed=derive_seed(cfg.seed, cfg.dataset_id, length, encoding, model),
                        timeout=cfg.cell_timeout,
                        leakage=leak,
                    )
                )

    # a fork pool starts all its workers at once, so ask for no more than there are cells
    workers = min(cfg.workers, len(cells))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            records = list(pool.map(_run_cell, cells))
    else:
        records = [_run_cell(cell) for cell in cells]
    records.sort(key=lambda r: (r.dataset, r.prefix_length, r.encoding, r.model))
    return records
