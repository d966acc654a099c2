"""Experiment runner: rare-class handling, splitting, and the full sweep.

One train/test split is drawn per (dataset, prefix length, seed) and
reused by every encoding and model, so accuracy comparisons within a
prefix length are paired. Mutual-information feature selection for the
2-gram encodings is fit on the training rows of that split only.
"""
from __future__ import annotations

import numbers
import time
from collections import Counter
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
from .models.search import DEFAULT_GRIDS, check_grid, grid_search_cv
from .prefixes import (
    DEFAULT_PREFIX_CANDIDATES,
    PrefixDataset,
    build_prefix_dataset,
    fit_label_encoder,
    prefix_grid,
)
from .profiling import example_leakage
from .seeding import derive_seed

RARE_LABEL = "__RARE__"
EXPERIMENT_MODELS = ("majority", "forest", "boosted")


@dataclass(frozen=True)
class ExperimentConfig:
    """All knobs for one dataset sweep."""

    dataset_id: str = "dataset"
    prefix_candidates: tuple[int, ...] = DEFAULT_PREFIX_CANDIDATES
    min_resources: int = 100
    encodings: tuple[str, ...] = ENCODINGS
    models: tuple[str, ...] = EXPERIMENT_MODELS
    split_ratio: float = 0.8
    seed: int = 0
    cv_folds: int = 3
    mi_k: int = 20
    grids: Mapping[str, Mapping[str, Sequence]] = field(default_factory=dict)
    cell_timeout: float | None = None
    workers: int = 1

    def validate(self) -> None:
        if not (0.0 < self.split_ratio < 1.0):
            raise ConfigError("split_ratio must be strictly between 0 and 1")
        if not self.encodings or not self.models:
            raise ConfigError("at least one encoding and one model are required")
        unknown_enc = [e for e in self.encodings if e not in ENCODINGS]
        if unknown_enc:
            raise ConfigError(f"unknown encodings: {', '.join(unknown_enc)}")
        unknown_models = [m for m in self.models if m not in EXPERIMENT_MODELS]
        if unknown_models:
            raise ConfigError(f"unknown models: {', '.join(unknown_models)}")
        for model, grid in self.grids.items():
            check_grid(model, grid)
        if self.workers < 1:
            raise ConfigError(f"workers must be at least 1, got {self.workers!r}")
        timeout = self.cell_timeout
        if timeout is not None and (
            isinstance(timeout, bool) or not isinstance(timeout, numbers.Real) or not timeout > 0
        ):
            raise ConfigError(f"cell_timeout must be null or a positive number, got {timeout!r}")

    def grid_for(self, model: str) -> Mapping[str, Sequence]:
        if model in self.grids:
            return self.grids[model]
        return DEFAULT_GRIDS[model]


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
    With several, those targets are relabelled to a reserved placeholder
    id appended to the encoder. Afterwards every class has count >= 2.
    """
    counts = Counter(s.target for s in ds.samples)
    rare = sorted(t for t, c in counts.items() if c == 1)
    if not rare:
        return ds
    if len(rare) == 1:
        extra = next(s for s in ds.samples if s.target == rare[0])
        return PrefixDataset(ds.prefix_length, ds.samples + (extra,), ds.encoder)
    encoder = ds.encoder.with_extra(RARE_LABEL)
    rare_id = encoder.encode(RARE_LABEL)
    rare_set = set(rare)
    samples = tuple(
        replace(s, target=rare_id) if s.target in rare_set else s for s in ds.samples
    )
    return PrefixDataset(ds.prefix_length, samples, encoder)


def stratified_split(
    ds: PrefixDataset, ratio: float = 0.8, seed: int = 0
) -> tuple[np.ndarray, np.ndarray]:
    """Per-class split: each class sends max(1, round((1-ratio)*n)) to test."""
    if not (0.0 < ratio < 1.0):
        raise ConfigError("split ratio must be strictly between 0 and 1")
    targets = np.array([s.target for s in ds.samples])
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
    grid: Mapping
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
    if encoding == "S2gR":
        return encode_s2gr(ds, selection)
    raise ConfigError(f"unknown encoding {encoding!r}")


def run_experiment(log: EventLog, cfg: ExperimentConfig) -> list[ResultRecord]:
    """Sweep prefix lengths x encodings x models over one log."""
    cfg.validate()
    view = resource_view(log)
    encoder = fit_label_encoder(log)
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
        ds = handle_rare_classes(build_prefix_dataset(view, length, encoder))
        split_seed = derive_seed(cfg.seed, cfg.dataset_id, length, "split")
        train_idx, test_idx = stratified_split(ds, cfg.split_ratio, split_seed)
        prefixes = [s.prefix for s in ds.samples]
        leak = example_leakage(
            {prefixes[i] for i in train_idx}, [prefixes[i] for i in test_idx]
        ).leaked_fraction
        selection = None
        if needs_selection:
            train_prefixes = [prefixes[i] for i in train_idx]
            train_targets = [ds.samples[i].target for i in train_idx]
            selection = select_top_k(
                bigram_count_columns(train_prefixes), train_targets, cfg.mi_k
            )
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
                        grid=cfg.grid_for(model),
                        folds=cfg.cv_folds,
                        seed=derive_seed(cfg.seed, cfg.dataset_id, length, encoding, model),
                        timeout=cfg.cell_timeout,
                        leakage=leak,
                    )
                )

    if cfg.workers > 1:
        with ProcessPoolExecutor(max_workers=cfg.workers) as pool:
            records = list(pool.map(_run_cell, cells))
    else:
        records = [_run_cell(cell) for cell in cells]
    records.sort(key=lambda r: (r.dataset, r.prefix_length, r.encoding, r.model))
    return records
