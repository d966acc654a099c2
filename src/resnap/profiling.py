"""Descriptive statistics over event logs and their views.

Covers variant ratios, sequence-length and repetition averages, the
entropy-based specialization score, the majority-class baseline, and the
prefix leakage measurement between train and test sets.
"""
from __future__ import annotations

import math
from collections import Counter
from dataclasses import asdict, dataclass
from typing import Hashable, Iterable, Sequence

from .errors import ValidationError
from .eventlog import CaseView, EventLog, ResourceView, case_view, resource_view


@dataclass(frozen=True)
class DatasetProfile:
    """One row of summary statistics for a parsed log."""

    n_cases: int
    n_events: int
    n_activities: int
    n_resources: int
    avg_seq_len_per_resource: float
    avg_specialization: float
    avg_repetition: float
    variant_resource_ratio: float
    variant_case_ratio: float

    def as_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class LeakageReport:
    """Fraction of test prefixes that also occur in the training set."""

    prefix_length: int
    leaked_fraction: float
    n_test: int
    n_leaked: int


def variant_ratio(view: ResourceView | CaseView) -> float:
    """Number of distinct full sequences divided by the number of keys."""
    if not view.sequences:
        raise ValidationError("view has no sequences")
    variants = {tuple(seq) for seq in view.sequences.values()}
    return len(variants) / len(view.sequences)


def avg_sequence_length(view: ResourceView) -> float:
    """Total number of events divided by the number of resources."""
    if not view.sequences:
        raise ValidationError("view has no sequences")
    total = sum(len(seq) for seq in view.sequences.values())
    return total / len(view.sequences)


def specialization(sequence: Sequence[Hashable], log_alphabet_size: int) -> float:
    """How narrowly a sequence focuses on few activities (codes or names), in [0, 1].

    Computed as 1 minus the Shannon entropy (natural log) of the activity
    distribution, normalised by ln of the log-wide alphabet size. A
    single-activity specialist scores 1; a uniform generalist over the
    full alphabet scores 0.
    """
    if not sequence:
        raise ValidationError("cannot compute specialization of an empty sequence")
    if log_alphabet_size < 1:
        raise ValidationError("alphabet size must be at least 1")
    distinct = len(set(sequence))
    if log_alphabet_size < distinct:
        raise ValidationError(
            f"alphabet size {log_alphabet_size} is smaller than the "
            f"{distinct} distinct activities in the sequence"
        )
    if log_alphabet_size == 1:
        return 1.0
    n = len(sequence)
    entropy = 0.0
    for count in Counter(sequence).values():
        p = count / n
        entropy -= p * math.log(p)
    return 1.0 - entropy / math.log(log_alphabet_size)


def avg_specialization(view: ResourceView, log_alphabet_size: int) -> float:
    """Unweighted mean specialization over all resources."""
    if not view.sequences:
        raise ValidationError("view has no sequences")
    scores = [specialization(seq, log_alphabet_size) for seq in view.sequences.values()]
    return sum(scores) / len(scores)


def repetition(sequence: Sequence[Hashable]) -> float:
    """Occurrences beyond each activity's first, per distinct activity;
    activities may be codes or names."""
    if not sequence:
        raise ValidationError("cannot compute repetition of an empty sequence")
    distinct = len(set(sequence))
    return (len(sequence) - distinct) / distinct


def avg_repetition(view: ResourceView) -> float:
    """Unweighted mean repetition over all resources."""
    if not view.sequences:
        raise ValidationError("view has no sequences")
    scores = [repetition(seq) for seq in view.sequences.values()]
    return sum(scores) / len(scores)


def majority_class_accuracy(train_targets: Sequence, test_targets: Sequence) -> float:
    """Accuracy of always predicting the most frequent training label.

    Frequency ties resolve to the smallest label.
    """
    if not train_targets or not test_targets:
        raise ValidationError("train and test targets must both be non-empty")
    counts = Counter(train_targets)
    top = max(counts.values())
    majority = min(label for label, count in counts.items() if count == top)
    hits = sum(1 for t in test_targets if t == majority)
    return hits / len(test_targets)


def example_leakage(
    train_prefixes: Iterable[Sequence], test_prefixes: Sequence[Sequence]
) -> LeakageReport:
    """Count test prefixes whose exact sequence occurs among train prefixes.

    Duplicates in the test list each count. All prefixes must share one
    length.
    """
    train = {tuple(p) for p in train_prefixes}
    test = [tuple(p) for p in test_prefixes]
    if not test:
        raise ValidationError("test prefixes must be non-empty")
    lengths = {len(p) for p in train} | {len(p) for p in test}
    if len(lengths) > 1:
        raise ValidationError(f"prefixes have mixed lengths: {sorted(lengths)}")
    n_leaked = sum(1 for p in test if p in train)
    return LeakageReport(
        prefix_length=lengths.pop(),
        leaked_fraction=n_leaked / len(test),
        n_test=len(test),
        n_leaked=n_leaked,
    )


def profile(log: EventLog) -> DatasetProfile:
    """Assemble the full summary-statistics record for a log."""
    rview = resource_view(log)
    cview = case_view(log)
    alphabet_size = len(log.activities)
    return DatasetProfile(
        n_cases=len(log.cases),
        n_events=log.n_events,
        n_activities=alphabet_size,
        n_resources=len(log.resources),
        avg_seq_len_per_resource=avg_sequence_length(rview),
        avg_specialization=avg_specialization(rview, alphabet_size),
        avg_repetition=avg_repetition(rview),
        variant_resource_ratio=variant_ratio(rview),
        variant_case_ratio=variant_ratio(cview),
    )
