"""Prefix dataset construction over the resource view.

Each eligible resource contributes exactly one sample: the first L
activities of its chronological sequence as the prefix and the activity
at position L+1 as the prediction target. A resource is eligible for
length L when its sequence holds at least L+1 activities, so a target
always exists.
"""
from __future__ import annotations

import numbers
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ConfigError, ValidationError
from .eventlog import ResourceView

DEFAULT_PREFIX_CANDIDATES = (5, 10, 20, 50, 100, 200, 500, 1000, 1500, 2000, 3000)


@dataclass(frozen=True, eq=False)
class PrefixDataset:
    """One sample per resource, as one row of an int64 code matrix.

    Row i of ``samples`` holds the first L activity codes of
    ``resource_ids[i]``, then the code of its target; ``activities[code]``
    names an activity.
    """

    prefix_length: int
    resource_ids: tuple[str, ...]
    samples: np.ndarray
    activities: tuple[str, ...]

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


def eligible_resources(view: ResourceView, prefix_length: int) -> list[str]:
    """Resources with at least prefix_length + 1 activities, in sorted order."""
    if prefix_length < 1:
        raise ValidationError("prefix length must be at least 1")
    return [
        rid
        for rid in sorted(view.sequences)
        if len(view.sequences[rid]) >= prefix_length + 1
    ]


def build_prefix_dataset(view: ResourceView, prefix_length: int) -> PrefixDataset:
    """One sample per eligible resource: first L activity codes plus the next one."""
    resources = eligible_resources(view, prefix_length)
    if not resources:
        raise ValidationError(
            f"no resource has {prefix_length + 1} or more activities; "
            "shorten the prefix grid"
        )
    samples = np.array([view.sequences[r][: prefix_length + 1] for r in resources], dtype=np.int64)
    return PrefixDataset(prefix_length, tuple(resources), samples, view.activities)


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

