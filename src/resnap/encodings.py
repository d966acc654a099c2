"""Feature encodings for prefix datasets.

Four strategies build the numeric matrix handed to the classifiers:

* ``SeqOnly``: the raw label-encoded prefix, one column per position.
* ``SCap``: SeqOnly plus one binary column per activity marking whether
  the sample's resource ever performs it anywhere in the log. This is
  deliberately computed on the full log.
* ``S2g``: SeqOnly plus the per-prefix counts of selected 2-gram
  transitions. Selection keeps the top-k bigrams by mutual information
  with the target, fit on training rows only.
* ``S2gR``: S2g plus two run statistics, the number of maximal blocks of
  equal adjacent activities and their average length.

Each is the SeqOnly columns followed by zero, one or two feature blocks:
capability bits, selected-bigram counts and run statistics.
"""
from __future__ import annotations

import csv
import math
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .errors import ValidationError
from .eventlog import EventLog
from .prefixes import PrefixDataset

ENCODINGS = ("SeqOnly", "SCap", "S2g", "S2gR")

Bigram = tuple[int, int]


@dataclass(frozen=True)
class EncodedDataset:
    """Numeric feature matrix aligned with its targets."""

    feature_names: tuple[str, ...]
    rows: np.ndarray
    targets: np.ndarray
    encoding_id: str

    def __post_init__(self) -> None:
        if self.rows.shape[0] != self.targets.shape[0]:
            raise ValidationError("rows and targets must have equal length")
        if self.rows.ndim != 2 or self.rows.shape[1] != len(self.feature_names):
            raise ValidationError("row width must match the number of feature names")


@dataclass(frozen=True)
class CapabilityMap:
    """Per resource, a 0/1 vector over the full activity alphabet."""

    activities: tuple[str, ...]
    vectors: Mapping[str, tuple[int, ...]]

    def vector_for(self, resource_id: str) -> tuple[int, ...]:
        try:
            return self.vectors[resource_id]
        except KeyError:
            raise ValidationError(f"unknown resource {resource_id!r}") from None


@dataclass(frozen=True)
class SelectedBigrams:
    """Bigrams kept by feature selection, in selection order."""

    bigrams: tuple[Bigram, ...]


def _encoded(ds: PrefixDataset, encoding_id: str, *blocks) -> EncodedDataset:
    """The prefix columns followed by each ``(names, columns)`` block, as reals."""
    names = [f"pos_{i}" for i in range(1, ds.prefix_length + 1)]
    rows = [ds.prefixes.astype(float)]
    for block_names, columns in blocks:
        names += block_names
        rows.append(np.array(columns, dtype=float).reshape(len(ds.samples), len(block_names)))
    return EncodedDataset(tuple(names), np.hstack(rows), ds.targets.copy(), encoding_id)


def encode_seq_only(ds: PrefixDataset) -> EncodedDataset:
    """Row i is the label-encoded prefix of sample i, as reals."""
    return _encoded(ds, "SeqOnly")


def capability_map(log: EventLog) -> CapabilityMap:
    """Which activities each resource ever performs, over the whole log."""
    performed = np.zeros((len(log.resources), len(log.activities)), dtype=np.int64)
    performed[log.resource_codes, log.activity_codes] = 1
    vectors = dict(zip(log.resources, map(tuple, performed.tolist())))
    return CapabilityMap(activities=log.activities, vectors=vectors)


def _capability_block(ds: PrefixDataset, cap: CapabilityMap):
    return [f"cap_{a}" for a in cap.activities], [cap.vector_for(r) for r in ds.resource_ids]


def encode_scap(ds: PrefixDataset, cap: CapabilityMap) -> EncodedDataset:
    """SeqOnly columns followed by the resource's capability bits."""
    return _encoded(ds, "SCap", _capability_block(ds, cap))


def count_2grams(prefix: Sequence) -> dict[Bigram, int]:
    """Counts of adjacent ordered pairs; the counts sum to len(prefix) - 1."""
    return dict(Counter(zip(prefix, prefix[1:])))


def mutual_information(column: Sequence, targets: Sequence) -> float:
    """Plug-in discrete mutual information, natural log.

    Every distinct value is its own category:
    I = sum over (x, y) of p(x, y) * ln(p(x, y) / (p(x) p(y))).
    """
    if len(column) != len(targets):
        raise ValidationError("column and targets must have equal length")
    n = len(column)
    if n == 0:
        raise ValidationError("column must be non-empty")
    joint = Counter(zip(column, targets))
    px = Counter(column)
    py = Counter(targets)
    mi = 0.0
    for (x, y), n_xy in joint.items():
        mi += (n_xy / n) * math.log(n_xy * n / (px[x] * py[y]))
    return max(mi, 0.0)


def bigram_count_columns(
    prefixes: Sequence[Sequence[int]],
) -> dict[Bigram, list[int]]:
    """One count column per bigram observed anywhere in the given prefixes."""
    per_prefix = [count_2grams(p) for p in prefixes]
    universe = sorted({bg for counts in per_prefix for bg in counts})
    return {bg: [counts.get(bg, 0) for counts in per_prefix] for bg in universe}


def select_top_k(
    bigram_columns: Mapping[Bigram, Sequence[int]],
    targets: Sequence[int],
    k: int = 20,
) -> SelectedBigrams:
    """Keep the k bigram columns of highest mutual information with the target.

    Ties resolve to the lexicographically smaller bigram. Must be fed
    columns computed on the training split only.
    """
    if k < 0:
        raise ValidationError("k must be non-negative")
    scored = sorted(
        ((-mutual_information(col, targets), bg) for bg, col in bigram_columns.items()),
    )
    return SelectedBigrams(tuple(bg for _, bg in scored[:k]))


def _bigram_block(ds: PrefixDataset, selection: SelectedBigrams):
    names = [f"2g_{ds.encoder.decode(a)}->{ds.encoder.decode(b)}" for a, b in selection.bigrams]
    counts = [count_2grams(p) for p in ds.prefixes.tolist()]
    return names, [[c.get(bg, 0) for bg in selection.bigrams] for c in counts]


def encode_s2g(ds: PrefixDataset, selection: SelectedBigrams) -> EncodedDataset:
    """SeqOnly columns followed by one count column per selected bigram."""
    return _encoded(ds, "S2g", _bigram_block(ds, selection))


def run_features(prefix: Sequence) -> tuple[int, float]:
    """Number of maximal same-activity blocks and their average length."""
    if not prefix:
        raise ValidationError("prefix must be non-empty")
    n_runs = 1 + sum(1 for a, b in zip(prefix, prefix[1:]) if a != b)
    return n_runs, len(prefix) / n_runs


def _run_block(ds: PrefixDataset):
    return ["n_runs", "avg_run_len"], [run_features(p) for p in ds.prefixes.tolist()]


def encode_s2gr(ds: PrefixDataset, selection: SelectedBigrams) -> EncodedDataset:
    """S2g columns followed by the two run statistics."""
    return _encoded(ds, "S2gR", _bigram_block(ds, selection), _run_block(ds))


def encoded_to_csv(encoded: EncodedDataset, path: str | Path) -> None:
    """Write the feature matrix as CSV with a trailing target column."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(list(encoded.feature_names) + ["target"])
        for row, target in zip(encoded.rows, encoded.targets):
            writer.writerow([repr(float(v)) for v in row] + [int(target)])
