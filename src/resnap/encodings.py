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


def _seq_matrix(ds: PrefixDataset) -> tuple[list[str], np.ndarray, np.ndarray]:
    names = [f"pos_{i}" for i in range(1, ds.prefix_length + 1)]
    rows = np.array([s.prefix for s in ds.samples], dtype=float)
    targets = np.array([s.target for s in ds.samples], dtype=np.int64)
    return names, rows.reshape(len(ds.samples), ds.prefix_length), targets


def encode_seq_only(ds: PrefixDataset) -> EncodedDataset:
    """Row i is the label-encoded prefix of sample i, as reals."""
    names, rows, targets = _seq_matrix(ds)
    return EncodedDataset(tuple(names), rows, targets, "SeqOnly")


def capability_map(log: EventLog) -> CapabilityMap:
    """Which activities each resource ever performs, over the whole log."""
    performed = np.zeros((len(log.resources), len(log.activities)), dtype=np.int64)
    performed[log.resource_codes, log.activity_codes] = 1
    vectors = dict(zip(log.resources, map(tuple, performed.tolist())))
    return CapabilityMap(activities=log.activities, vectors=vectors)


def encode_scap(ds: PrefixDataset, cap: CapabilityMap) -> EncodedDataset:
    """SeqOnly columns followed by the resource's capability bits."""
    names, rows, targets = _seq_matrix(ds)
    names += [f"cap_{a}" for a in cap.activities]
    cap_rows = np.array([cap.vector_for(s.resource_id) for s in ds.samples], dtype=float)
    return EncodedDataset(tuple(names), np.hstack([rows, cap_rows]), targets, "SCap")


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


def _bigram_matrix(ds: PrefixDataset, selection: SelectedBigrams) -> np.ndarray:
    rows = np.zeros((len(ds.samples), len(selection.bigrams)), dtype=float)
    for i, sample in enumerate(ds.samples):
        counts = count_2grams(sample.prefix)
        for j, bg in enumerate(selection.bigrams):
            rows[i, j] = counts.get(bg, 0)
    return rows


def _bigram_names(ds: PrefixDataset, selection: SelectedBigrams) -> list[str]:
    return [
        f"2g_{ds.encoder.decode(a)}->{ds.encoder.decode(b)}" for a, b in selection.bigrams
    ]


def encode_s2g(ds: PrefixDataset, selection: SelectedBigrams) -> EncodedDataset:
    """SeqOnly columns followed by one count column per selected bigram."""
    names, rows, targets = _seq_matrix(ds)
    names += _bigram_names(ds, selection)
    rows = np.hstack([rows, _bigram_matrix(ds, selection)])
    return EncodedDataset(tuple(names), rows, targets, "S2g")


def run_features(prefix: Sequence) -> tuple[int, float]:
    """Number of maximal same-activity blocks and their average length."""
    if not prefix:
        raise ValidationError("prefix must be non-empty")
    n_runs = 1 + sum(1 for a, b in zip(prefix, prefix[1:]) if a != b)
    return n_runs, len(prefix) / n_runs


def encode_s2gr(ds: PrefixDataset, selection: SelectedBigrams) -> EncodedDataset:
    """S2g columns followed by the two run statistics."""
    names, rows, targets = _seq_matrix(ds)
    names += _bigram_names(ds, selection)
    names += ["n_runs", "avg_run_len"]
    runs = np.array([run_features(s.prefix) for s in ds.samples], dtype=float)
    rows = np.hstack([rows, _bigram_matrix(ds, selection), runs])
    return EncodedDataset(tuple(names), rows, targets, "S2gR")


def encoded_to_csv(encoded: EncodedDataset, path: str | Path) -> None:
    """Write the feature matrix as CSV with a trailing target column."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(list(encoded.feature_names) + ["target"])
        for row, target in zip(encoded.rows, encoded.targets):
            writer.writerow([repr(float(v)) for v in row] + [int(target)])
