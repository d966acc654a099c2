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

import math
from collections import Counter
from dataclasses import dataclass
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
        rows.append(np.asarray(columns, dtype=float).reshape(len(ds.samples), len(block_names)))
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


def encode_scap(ds: PrefixDataset, cap: CapabilityMap) -> EncodedDataset:
    """SeqOnly columns followed by the resource's capability bits."""
    bits = [cap.vector_for(r) for r in ds.resource_ids]
    return _encoded(ds, "SCap", ([f"cap_{a}" for a in cap.activities], bits))


def count_2grams(prefix: Sequence) -> dict[Bigram, int]:
    """Counts of adjacent ordered pairs; the counts sum to len(prefix) - 1."""
    return dict(Counter(zip(prefix, prefix[1:])))


def _codes(values: Sequence) -> np.ndarray:
    """Each value's index among the distinct values, told apart as ``Counter`` keys are."""
    index: dict = {}
    return np.array([index.setdefault(v, len(index)) for v in values], dtype=np.int64)


def mutual_information(column: Sequence, targets: Sequence) -> float:
    """Plug-in discrete mutual information, natural log.

    Every distinct value is its own category:
    I = sum over (x, y) of p(x, y) * ln(p(x, y) / (p(x) p(y))).
    """
    return _mutual_informations(_codes(column).reshape(1, -1), targets)[0]


def _mutual_informations(columns: np.ndarray, targets: Sequence) -> list[float]:
    """:func:`mutual_information` of each row of a non-negative integer matrix:
    each row adds its ``math.log`` terms in the order its (value, target)
    pairs first appear, as a loop over a ``Counter`` does, float for float."""
    m, n = columns.shape
    if n == 0 or len(targets) != n:
        raise ValidationError("column and targets must have equal, non-zero length")
    y = _codes(targets)
    cells = np.arange(m)[:, None] * (int(columns.max()) + 1) + columns  # (row, value) ids
    n_y = int(y.max()) + 1
    pairs, first, joint = np.unique(cells * n_y + y, return_index=True, return_counts=True)
    order = np.argsort(first)  # by row, then by first appearance
    pairs, joint = pairs[order], joint[order]
    ratio = joint * n / (np.bincount(cells.ravel())[pairs // n_y] * np.bincount(y)[pairs % n_y])
    mi = [0.0] * m
    for row, p, r in zip((first[order] // n).tolist(), (joint / n).tolist(), ratio.tolist()):
        mi[row] += p * math.log(r)
    return [max(v, 0.0) for v in mi]


def bigram_count_columns(prefixes: Sequence[Sequence[int]]) -> dict[Bigram, np.ndarray]:
    """One count column per bigram observed anywhere in the given prefixes
    (of one length, holding non-negative integer ids; none give ``{}``): in bigram
    order, the rows of one ``bincount`` of the bigram codes ``a * K + b``."""
    if not len(prefixes):
        return {}
    matrix = np.asarray(prefixes, dtype=np.int64)
    n, base = len(matrix), int(matrix.max()) + 1
    universe, index = np.unique(matrix[:, :-1] * base + matrix[:, 1:], return_inverse=True)
    cells = index.reshape(n, -1) * n + np.arange(n)[:, None]
    counts = np.bincount(cells.ravel(), minlength=universe.size * n).reshape(-1, n)
    return dict(zip(zip((universe // base).tolist(), (universe % base).tolist()), counts))


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
    if not bigram_columns:
        return SelectedBigrams(())
    scores = _mutual_informations(np.array(list(bigram_columns.values())), targets)
    scored = sorted(zip((-v for v in scores), bigram_columns))
    return SelectedBigrams(tuple(bg for _, bg in scored[:k]))


def _bigram_block(ds: PrefixDataset, selection: SelectedBigrams):
    columns = bigram_count_columns(ds.prefixes)
    absent = np.zeros(len(ds.samples), dtype=np.int64)
    names = [f"2g_{ds.activities[a]}->{ds.activities[b]}" for a, b in selection.bigrams]
    return names, np.array([columns.get(bg, absent) for bg in selection.bigrams]).T


def encode_s2g(ds: PrefixDataset, selection: SelectedBigrams) -> EncodedDataset:
    """SeqOnly columns followed by one count column per selected bigram."""
    return _encoded(ds, "S2g", _bigram_block(ds, selection))


def run_features(prefix: Sequence) -> tuple[int, float]:
    """Number of maximal same-activity blocks and their average length."""
    if not prefix:
        raise ValidationError("prefix must be non-empty")
    n_runs = 1 + sum(1 for a, b in zip(prefix, prefix[1:]) if a != b)
    return n_runs, len(prefix) / n_runs


def encode_s2gr(ds: PrefixDataset, selection: SelectedBigrams) -> EncodedDataset:
    """S2g columns followed by the two run statistics, counted over the prefix matrix."""
    n_runs = 1 + np.count_nonzero(ds.prefixes[:, 1:] != ds.prefixes[:, :-1], axis=1)
    runs = ["n_runs", "avg_run_len"], np.column_stack([n_runs, ds.prefix_length / n_runs])
    return _encoded(ds, "S2gR", _bigram_block(ds, selection), runs)

