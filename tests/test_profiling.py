from __future__ import annotations

import math

import pytest
from hypothesis import given, strategies as st

from resnap import (
    ResourceView,
    ValidationError,
    avg_repetition,
    avg_sequence_length,
    avg_specialization,
    example_leakage,
    majority_class_accuracy,
    profile,
    repetition,
    specialization,
    variant_ratio,
)

from conftest import make_log, seq_view

ACTIVITIES = st.sampled_from(["A", "B", "C", "D"])


# --- variant ratio -------------------------------------------------------


def test_variant_ratio_all_distinct():
    assert variant_ratio(seq_view(r1="ABC", r2="ACB", r3="BAC")) == 1.0


def test_variant_ratio_shared_variant():
    assert variant_ratio(seq_view(r1="ABC", r2="ABC")) == 0.5


def test_variant_ratio_empty_view_raises():
    with pytest.raises(ValidationError):
        variant_ratio(ResourceView((), {}))


@given(st.integers(min_value=1, max_value=8))
def test_variant_ratio_all_equal_is_one_over_n(n):
    assert variant_ratio(seq_view(**{f"r{i}": "AB" for i in range(n)})) == pytest.approx(1 / n)


# --- sequence length -----------------------------------------------------


def test_avg_sequence_length():
    assert avg_sequence_length(seq_view(r1="AB", r2="CDEF")) == 3.0


def test_avg_sequence_length_single_resource():
    assert avg_sequence_length(seq_view(r1="AAAAA")) == 5.0


# --- specialization ------------------------------------------------------


def test_specialization_single_activity_is_one():
    assert specialization(["A", "A", "A"], 4) == pytest.approx(1.0, abs=1e-9)


def test_specialization_uniform_full_alphabet_is_zero():
    assert specialization(["A", "B", "C", "D"], 4) == pytest.approx(0.0, abs=1e-9)


def test_specialization_half_entropy():
    # H = ln 2 and ln 4 = 2 ln 2, so the score is exactly one half
    assert specialization(["A", "A", "B", "B"], 4) == pytest.approx(0.5, abs=1e-9)


def test_specialization_alphabet_of_one():
    assert specialization(["A", "A"], 1) == 1.0


def test_specialization_empty_sequence_raises():
    with pytest.raises(ValidationError):
        specialization([], 3)


def test_specialization_alphabet_smaller_than_sequence_raises():
    with pytest.raises(ValidationError):
        specialization(["A", "B", "C"], 2)


@given(st.lists(ACTIVITIES, min_size=1, max_size=30))
def test_specialization_invariant_under_renaming(seq):
    renamed = [{"A": "W", "B": "X", "C": "Y", "D": "Z"}[a] for a in seq]
    assert specialization(seq, 4) == pytest.approx(specialization(renamed, 4), abs=1e-9)


def test_avg_specialization_is_mean():
    v = seq_view(r1="AAA", r2="ABCD")
    assert avg_specialization(v, 4) == pytest.approx(0.5, abs=1e-9)


def test_avg_specialization_single_repeating_resource():
    assert avg_specialization(seq_view(r1="AA"), 2) == 1.0


# --- repetition ----------------------------------------------------------


def test_repetition_no_repeats():
    assert repetition(["A", "B", "C"]) == 0.0


def test_repetition_all_same():
    assert repetition(["A", "A", "A"]) == pytest.approx(2.0, abs=1e-9)


def test_repetition_mixed():
    assert repetition(["A", "A", "B", "B", "B"]) == pytest.approx(1.5, abs=1e-9)


@given(st.lists(ACTIVITIES, min_size=1, max_size=20))
def test_repetition_grows_under_self_concatenation(seq):
    assert repetition(seq + seq) > repetition(seq)


def test_avg_repetition():
    assert avg_repetition(seq_view(r1="ABC", r2="AAA")) == pytest.approx(1.0, abs=1e-9)


def test_avg_repetition_all_singletons():
    assert avg_repetition(seq_view(r1="A", r2="B")) == 0.0


# --- majority baseline ---------------------------------------------------


def test_majority_class_accuracy_basic():
    assert majority_class_accuracy(["X", "X", "Y"], ["X", "Y"]) == 0.5


def test_majority_class_accuracy_perfect():
    assert majority_class_accuracy(["X", "X", "Y"], ["X", "X", "X"]) == 1.0


def test_majority_class_accuracy_tie_is_lexicographic():
    assert majority_class_accuracy(["X", "Y"], ["X"]) == 1.0
    assert majority_class_accuracy(["X", "Y"], ["Y"]) == 0.0


@given(
    st.lists(ACTIVITIES, min_size=1, max_size=20),
    st.lists(ACTIVITIES, min_size=1, max_size=20),
)
def test_majority_accuracy_equals_test_frequency_of_majority(train, test):
    counts = {a: train.count(a) for a in set(train)}
    top = max(counts.values())
    majority = min(a for a, c in counts.items() if c == top)
    expected = test.count(majority) / len(test)
    assert majority_class_accuracy(train, test) == pytest.approx(expected)


# --- example leakage -----------------------------------------------------


def test_example_leakage_half():
    report = example_leakage({("A", "B"), ("B", "C")}, [("A", "B"), ("C", "D")])
    assert report.leaked_fraction == 0.5
    assert report.n_leaked == 1
    assert report.n_test == 2
    assert report.prefix_length == 2


def test_example_leakage_disjoint():
    assert example_leakage({("A",)}, [("B",), ("C",)]).leaked_fraction == 0.0


def test_example_leakage_subset():
    assert example_leakage({("A",), ("B",)}, [("A",), ("B",), ("A",)]).leaked_fraction == 1.0


def test_example_leakage_mixed_lengths_raise():
    with pytest.raises(ValidationError):
        example_leakage({("A",)}, [("A", "B")])


@given(
    st.lists(st.tuples(ACTIVITIES, ACTIVITIES), min_size=0, max_size=10),
    st.lists(st.tuples(ACTIVITIES, ACTIVITIES), min_size=1, max_size=10),
    st.tuples(ACTIVITIES, ACTIVITIES),
)
def test_example_leakage_monotone_in_train_set(train, test, extra):
    before = example_leakage(set(train), test).leaked_fraction
    after = example_leakage(set(train) | {extra}, test).leaked_fraction
    assert after >= before


# --- profile composition --------------------------------------------------


def test_profile_composes_component_statistics(tiny_log):
    prof = profile(tiny_log)
    assert prof.n_cases == 3
    assert prof.n_events == 5
    assert prof.n_activities == 3
    assert prof.n_resources == 2
    assert prof.avg_seq_len_per_resource == 2.5
    # r1 = (A, C, B): 3 distinct of alphabet 3; r2 = (B, A): 2 of 3
    expected_spec = (
        (1 - math.log(3) / math.log(3)) + (1 - math.log(2) / math.log(3))
    ) / 2
    assert prof.avg_specialization == pytest.approx(expected_spec, abs=1e-9)
    assert prof.avg_repetition == 0.0
    assert prof.variant_resource_ratio == 1.0
    assert prof.variant_case_ratio == 1.0


def test_profile_counts_follow_filtering():
    log = make_log([("c1", "A", "r1", 1), ("c1", "B", "r1", 2), ("c2", "A", None, 3)])
    prof = profile(log)
    assert prof.n_events == 2
    assert prof.n_cases == 1
