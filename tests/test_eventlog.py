from __future__ import annotations

from datetime import datetime, timedelta, timezone

import pytest
from hypothesis import given, strategies as st

from resnap import (
    EmptyLogError,
    Event,
    ValidationError,
    build_event_log,
    case_view,
    resource_view,
)

from conftest import make_log, ts


def test_event_requires_activity():
    with pytest.raises(ValidationError):
        Event("c1", "", "r1", ts(0), 0)


def test_event_requires_nonnegative_file_order():
    with pytest.raises(ValidationError):
        Event("c1", "A", "r1", ts(0), -1)


def test_build_event_log_drops_and_counts_missing_resources():
    log = make_log([("c1", "A", "r1", 1), ("c1", "B", None, 2), ("c2", "C", "r1", 3)])
    assert len(log.events) == 2
    assert log.dropped_event_count == 1
    assert log.activity_alphabet == {"A", "C"}


def test_build_event_log_rejects_duplicate_file_order():
    events = [
        Event("c1", "A", "r1", ts(0), 0),
        Event("c1", "B", "r1", ts(1), 0),
    ]
    with pytest.raises(ValidationError, match="file_order"):
        build_event_log(events)


@pytest.mark.parametrize(
    "stamp",
    [
        datetime(1, 1, 1, 0, 30, tzinfo=timezone(timedelta(hours=1))),
        datetime(9999, 12, 31, 23, 30, tzinfo=timezone(timedelta(hours=-1))),
    ],
)
def test_build_event_log_rejects_instants_outside_datetime_range(stamp):
    with pytest.raises(ValidationError, match="event 4: .*years 1 to 9999"):
        build_event_log([Event("c1", "A", "r1", stamp, 4)])


def test_build_event_log_rejects_empty_input():
    with pytest.raises(EmptyLogError):
        build_event_log([])


def decoded(view):
    """A view's sequences with each activity code replaced by its name."""
    return {key: tuple(view.activities[a] for a in seq) for key, seq in view.sequences.items()}


def test_view_codes_follow_lexicographic_order():
    # the majority baseline's tie rule relies on the lowest code naming the smallest activity
    log = make_log([("c1", "B", "r1", 1), ("c1", "A", "r1", 2), ("c2", "C", "r2", 3)])
    for view in (resource_view(log), case_view(log)):
        assert view.activities == log.activities == ("A", "B", "C")
    assert resource_view(log).sequences == {"r1": (1, 0), "r2": (2,)}
    assert case_view(log).sequences == {"c1": (1, 0), "c2": (2,)}


def test_resource_view_groups_and_sorts():
    log = make_log([("c1", "A", "r1", 1), ("c2", "B", "r2", 1), ("c3", "C", "r1", 2)])
    view = resource_view(log)
    assert decoded(view) == {"r1": ("A", "C"), "r2": ("B",)}


def test_resource_view_equal_timestamps_keep_file_order():
    log = make_log([("c1", "A", "r1", 5), ("c2", "B", "r1", 5)])
    assert decoded(resource_view(log))["r1"] == ("A", "B")


def test_resource_view_single_event():
    log = make_log([("c1", "A", "r1", 1)])
    assert resource_view(log).sequences == {"r1": (0,)}
    assert decoded(resource_view(log)) == {"r1": ("A",)}


def test_case_view_groups_by_case():
    log = make_log([("c1", "A", "r1", 1), ("c1", "B", "r2", 2), ("c2", "A", "r1", 1)])
    view = case_view(log)
    assert decoded(view) == {"c1": ("A", "B"), "c2": ("A",)}


def test_case_view_single_case():
    log = make_log([("c1", "A", "r1", 1), ("c1", "B", "r1", 2)])
    assert decoded(case_view(log)) == {"c1": ("A", "B")}


def test_case_view_equal_timestamps_tiebreak():
    log = make_log([("c1", "B", "r1", 3), ("c1", "A", "r2", 3)])
    assert decoded(case_view(log))["c1"] == ("B", "A")


def test_views_conserve_event_counts(tiny_log):
    rv = resource_view(tiny_log)
    cv = case_view(tiny_log)
    assert sum(map(len, rv.sequences.values())) == len(tiny_log.events)
    assert sum(map(len, cv.sequences.values())) == len(tiny_log.events)


def test_view_alphabet_closure(tiny_log):
    rv = resource_view(tiny_log)
    seen = {a for seq in decoded(rv).values() for a in seq}
    assert seen <= tiny_log.activity_alphabet


def test_views_reject_empty_log():
    log = make_log([("c1", "A", None, 1)])  # the only event is dropped
    assert len(log.events) == 0
    with pytest.raises(EmptyLogError):
        resource_view(log)


@given(
    rows=st.lists(
        st.tuples(
            st.sampled_from(["c1", "c2"]),
            st.sampled_from(["A", "B", "C"]),
            st.sampled_from(["r1", "r2", "r3"]),
            st.integers(min_value=0, max_value=20),
        ),
        min_size=1,
        max_size=30,
    )
)
def test_views_match_independent_chronological_sort(rows):
    log = make_log(rows)
    ordered = sorted(log.events, key=lambda e: (e.timestamp, e.file_order))
    expected_by_resource: dict[str, list[str]] = {}
    expected_by_case: dict[str, list[str]] = {}
    for ev in ordered:
        expected_by_resource.setdefault(ev.resource, []).append(ev.activity)
        expected_by_case.setdefault(ev.case_id, []).append(ev.activity)
    assert {k: list(v) for k, v in decoded(resource_view(log)).items()} == expected_by_resource
    assert {k: list(v) for k, v in decoded(case_view(log)).items()} == expected_by_case
