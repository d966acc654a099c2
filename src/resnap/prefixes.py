"""Prefix dataset construction over the resource view.

Each eligible resource contributes exactly one sample: the first L
activities of its chronological sequence as the prefix and the activity
at position L+1 as the prediction target. A resource is eligible for
length L when its sequence holds at least L+1 activities, so a target
always exists.
"""
from __future__ import annotations

import numbers
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import ConfigError, ValidationError
from .eventlog import EventLog, ResourceView

DEFAULT_PREFIX_CANDIDATES = (5, 10, 20, 50, 100, 200, 500, 1000, 1500, 2000, 3000)


@dataclass(frozen=True)
class LabelEncoder:
    """Bijection between activity strings and dense integer ids.

    Ids follow lexicographic activity order, so the lowest id always
    belongs to the lexicographically smallest label. Labels appended
    later via :meth:`with_extra` receive the next free id.
    """

    classes: tuple[str, ...]
    _index: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        index = {label: i for i, label in enumerate(self.classes)}
        if len(index) != len(self.classes):
            raise ValidationError("encoder labels must be unique")
        object.__setattr__(self, "_index", index)

    def __len__(self) -> int:
        return len(self.classes)

    def __contains__(self, label: str) -> bool:
        return label in self._index

    def encode(self, label: str) -> int:
        try:
            return self._index[label]
        except KeyError:
            raise ValidationError(f"unknown activity label {label!r}") from None

    def decode(self, label_id: int) -> str:
        try:
            return self.classes[label_id]
        except IndexError:
            raise ValidationError(f"unknown activity id {label_id}") from None

    def with_extra(self, label: str) -> "LabelEncoder":
        """Return a copy with ``label`` appended under the next free id."""
        if label in self._index:
            return self
        return LabelEncoder(self.classes + (label,))


@dataclass(frozen=True, eq=False)
class PrefixDataset:
    """One sample per resource, as one row of an int64 code matrix.

    Row i of ``samples`` holds the first L activity ids of
    ``resource_ids[i]``, then the id of its target.
    """

    prefix_length: int
    resource_ids: tuple[str, ...]
    samples: np.ndarray
    encoder: LabelEncoder

    def __post_init__(self) -> None:
        shape = (len(self.resource_ids), self.prefix_length + 1)
        if not isinstance(self.samples, np.ndarray) or self.samples.shape != shape:
            raise ValidationError(f"samples must be {shape[0]} x {shape[1]}: one row per resource id")

    @property
    def prefixes(self) -> np.ndarray:
        return self.samples[:, :-1]

    @property
    def targets(self) -> np.ndarray:
        return self.samples[:, -1]


def fit_label_encoder(log: EventLog) -> LabelEncoder:
    """Fit one encoder over the full log alphabet so every split shares it."""
    return LabelEncoder(log.activities)


def eligible_resources(view: ResourceView, prefix_length: int) -> list[str]:
    """Resources with at least prefix_length + 1 activities, in sorted order."""
    if prefix_length < 1:
        raise ValidationError("prefix length must be at least 1")
    return [
        rid
        for rid in sorted(view.sequences)
        if len(view.sequences[rid]) >= prefix_length + 1
    ]


def build_prefix_dataset(
    view: ResourceView, prefix_length: int, encoder: LabelEncoder
) -> PrefixDataset:
    """One sample per eligible resource: first L activities plus the next one."""
    resources = eligible_resources(view, prefix_length)
    if not resources:
        raise ValidationError(
            f"no resource has {prefix_length + 1} or more activities; "
            "shorten the prefix grid"
        )
    samples = np.array(
        [[encoder.encode(a) for a in view.sequences[r][: prefix_length + 1]] for r in resources],
        dtype=np.int64,
    )
    return PrefixDataset(prefix_length, tuple(resources), samples, encoder)


def check_candidates(lengths) -> None:
    """ConfigError unless ``lengths`` is a non-empty list of strictly
    ascending positive integers."""
    if not (
        isinstance(lengths, (list, tuple))
        and lengths
        and all(isinstance(v, numbers.Integral) and not isinstance(v, bool) for v in lengths)
        and lengths[0] >= 1
        and all(a < b for a, b in zip(lengths, lengths[1:]))
    ):
        raise ConfigError(
            "prefix_candidates must be a list of positive integers, non-empty and "
            f"strictly ascending, got {lengths!r}"
        )


def prefix_grid(
    view: ResourceView,
    candidate_lengths: Sequence[int],
    min_resources: int = 100,
) -> list[int]:
    """Longest ascending head of candidates keeping enough eligible resources.

    Candidates after the first one whose eligible-resource count drops
    below ``min_resources`` are discarded.
    """
    check_candidates(candidate_lengths)
    kept: list[int] = []
    for length in candidate_lengths:
        if len(eligible_resources(view, length)) < min_resources:
            break
        kept.append(length)
    return kept

