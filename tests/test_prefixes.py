from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, strategies as st

from resnap import (
    ConfigError,
    PrefixDataset,
    ResourceView,
    ValidationError,
    build_prefix_dataset,
    eligible_resources,
    prefix_grid,
)

from conftest import seq_view


# --- eligibility ----------------------------------------------------------


def test_eligible_resources_requires_room_for_target():
    v = seq_view(r1="ABCDE", r2="ABC")
    assert eligible_resources(v, 3) == ["r1"]


def test_eligible_resources_length_one():
    v = seq_view(r1="AB", r2="BC", r3="CA")
    assert eligible_resources(v, 1) == ["r1", "r2", "r3"]


def test_eligible_resources_none_eligible():
    v = seq_view(r1="AB")
    assert eligible_resources(v, 10) == []


@given(st.integers(min_value=1, max_value=12))
def test_eligible_count_non_increasing_in_length(length):
    v = seq_view(r1="ABCABCABC", r2="ABCD", r3="AB", r4="ABCABCABCABC")
    assert len(eligible_resources(v, length)) >= len(eligible_resources(v, length + 1))


# --- prefix dataset --------------------------------------------------------


def test_build_prefix_dataset_takes_first_l_and_next():
    v = seq_view(r1="ABAC")
    ds = build_prefix_dataset(v, 2)
    assert ds.samples.tolist() == [[0, 1, 0]]  # A, B, then A
    assert ds.prefixes.tolist() == [[0, 1]]
    assert ds.targets.tolist() == [0]


def test_build_prefix_dataset_excludes_targetless_resource():
    v = seq_view(r1="AB", r2="ABC")
    ds = build_prefix_dataset(v, 2)
    assert ds.resource_ids == ("r2",)


def test_build_prefix_dataset_one_sample_per_eligible_resource():
    v = seq_view(r1="ABC", r2="BCA")
    ds = build_prefix_dataset(v, 2)
    assert len(ds.samples) == 2


def test_build_prefix_dataset_errors_when_nothing_eligible():
    v = seq_view(r1="AB")
    with pytest.raises(ValidationError, match="grid"):
        build_prefix_dataset(v, 5)


@given(st.integers(min_value=1, max_value=6))
def test_prefix_plus_target_reproduces_sequence_head(length):
    v = seq_view(r1="ABCABCA", r2="BCABCAB")
    ds = build_prefix_dataset(v, length)
    assert ds.activities == ("A", "B", "C")
    for rid, prefix, target in zip(ds.resource_ids, ds.prefixes.tolist(), ds.targets.tolist()):
        decoded = "".join(ds.activities[i] for i in [*prefix, target])
        assert decoded == {"r1": "ABCABCA", "r2": "BCABCAB"}[rid][: length + 1]


def test_build_prefix_dataset_deterministic_order():
    v = seq_view(r2="ABC", r1="BCA")
    first = build_prefix_dataset(v, 1)
    second = build_prefix_dataset(v, 1)
    assert first.resource_ids == second.resource_ids
    assert np.array_equal(first.samples, second.samples)
    assert first.resource_ids == ("r1", "r2")


@pytest.mark.parametrize("shape", [(2,), (2, 2), (3, 3), (2, 3, 1)])
def test_prefix_dataset_rejects_a_matrix_of_the_wrong_shape(shape):
    with pytest.raises(ValidationError, match="must be 2 x 3"):
        PrefixDataset(2, ("r1", "r2"), np.zeros(shape, dtype=np.int64), ("A",))


# --- prefix grid ------------------------------------------------------------


def grid_view(counts: dict[int, int]):
    """A view with `count` resources of each sequence length."""
    sequences = {}
    for length, count in counts.items():
        for i in range(count):
            sequences[f"r{length}_{i}"] = (0,) * length
    return ResourceView(("A",), sequences)


def test_prefix_grid_stops_at_first_failure():
    # lengths 10/20/30 keep 150/120/80 resources
    v = grid_view({11: 30, 21: 40, 31: 80})
    assert prefix_grid(v, [10, 20, 30], min_resources=100) == [10, 20]


def test_prefix_grid_keeps_all_when_counts_hold():
    v = grid_view({31: 120})
    assert prefix_grid(v, [10, 20, 30], min_resources=100) == [10, 20, 30]


def test_prefix_grid_empty_when_first_fails():
    v = grid_view({11: 10})
    assert prefix_grid(v, [10, 20], min_resources=100) == []


def test_prefix_grid_rejects_non_ascending():
    v = grid_view({11: 10})
    with pytest.raises(ConfigError):
        prefix_grid(v, [10, 10], min_resources=1)
    with pytest.raises(ConfigError):
        prefix_grid(v, [20, 10], min_resources=1)
    with pytest.raises(ConfigError):
        prefix_grid(v, [0, 10], min_resources=1)

