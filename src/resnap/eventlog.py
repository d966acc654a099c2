"""In-memory event log model and its resource- and case-ordered views.

An :class:`EventLog` is the single product of ingestion: validated,
immutable, integer-coded columns (one entry per retained event, in file
order) plus the sorted activity, resource and case alphabets the codes
index. Events without a resource are dropped at construction time (and
counted), so both the resource view and the case view describe the same
filtered set of events and their statistics stay comparable.
"""
from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from datetime import datetime, timedelta, timezone
from functools import cached_property
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import EmptyLogError, ValidationError

EPOCH = datetime(1970, 1, 1, tzinfo=timezone.utc)
MICROSECOND = timedelta(microseconds=1)
_EPOCH_NAIVE = datetime(1970, 1, 1)


# the UTC instants a datetime can hold, in epoch microseconds
_MIN_US = (datetime.min - _EPOCH_NAIVE) // MICROSECOND
_MAX_US = (datetime.max - _EPOCH_NAIVE) // MICROSECOND


def epoch_us(ts: datetime) -> int:
    """Microseconds since the Unix epoch; naive timestamps are taken as UTC.

    Raises ValueError when the UTC instant falls outside the years 1 to
    9999, which no ``datetime`` can hold (``0001-01-01T00:30:00+01:00``).
    """
    us = (ts - (_EPOCH_NAIVE if ts.utcoffset() is None else EPOCH)) // MICROSECOND
    if not _MIN_US <= us <= _MAX_US:
        raise ValueError(f"{ts.isoformat()} falls outside the years 1 to 9999 in UTC")
    return us


@dataclass(frozen=True)
class Event:
    """One executed activity: which case, which activity, who, and when.

    ``file_order`` is the event's position in the source file and is the
    tie-breaker for equal timestamps; it must be unique within one log.
    """

    case_id: str
    activity: str
    resource: str | None
    timestamp: datetime
    file_order: int

    def __post_init__(self) -> None:
        if not self.activity:
            raise ValidationError("event activity must be non-empty")
        if self.file_order < 0:
            raise ValidationError("file_order must be non-negative")


@dataclass
class EventColumns:
    """The events a reader read, in file order, before validation.

    ``names`` codes each case id, activity and resource in first-read
    order; the resource name "" means none. ``codes`` holds each event's
    case, activity and resource code and its UTC epoch microseconds, 8
    bytes apiece. Event ``i`` has file order ``i``.
    """

    names: tuple[dict[str, int], ...] = field(default_factory=lambda: ({}, {}, {}))
    codes: tuple[array, ...] = field(default_factory=lambda: tuple(array("q") for _ in range(4)))

    def __len__(self) -> int:
        return len(self.codes[3])

    def add(self, case: str, activity: str, resource: str | None, timestamp_us: int) -> None:
        """Append one event; a resource of None reads as ""."""
        cases, activities, resources = self.names
        case_codes, activity_codes, resource_codes, stamps = self.codes
        case_codes.append(cases.setdefault(case, len(cases)))
        activity_codes.append(activities.setdefault(activity, len(activities)))
        resource_codes.append(resources.setdefault(resource or "", len(resources)))
        stamps.append(timestamp_us)

    def extend(self, case_codes, activity_codes, resource_codes, timestamps_us) -> None:
        """Append a block of events: arrays of codes into ``names``, and timestamps."""
        block = (case_codes, activity_codes, resource_codes, timestamps_us)
        for codes, column in zip(self.codes, block):
            codes.frombytes(memoryview(np.ascontiguousarray(column, dtype=np.int64)).cast("B"))


@dataclass(frozen=True, eq=False)
class EventLog:
    """Retained events as integer-coded columns plus the sorted alphabets.

    Entry ``i`` of every column describes the ``i``-th retained event in
    file order: ``activities[activity_codes[i]]`` is its activity, and
    likewise for resources and cases; ``timestamps_us`` are UTC epoch
    microseconds. Codes follow the sorted alphabets, so code order is
    string order. Every retained event carries a resource; events lacking
    one are not stored but are counted in ``dropped_event_count``.
    """

    activities: tuple[str, ...]
    resources: tuple[str, ...]
    cases: tuple[str, ...]
    activity_codes: np.ndarray
    resource_codes: np.ndarray
    case_codes: np.ndarray
    timestamps_us: np.ndarray
    file_order: np.ndarray
    dropped_event_count: int = 0

    @property
    def n_events(self) -> int:
        return len(self.file_order)

    @cached_property
    def activity_alphabet(self) -> frozenset[str]:
        return frozenset(self.activities)

    @cached_property
    def resource_set(self) -> frozenset[str]:
        return frozenset(self.resources)

    @cached_property
    def case_set(self) -> frozenset[str]:
        return frozenset(self.cases)

    @cached_property
    def events(self) -> tuple[Event, ...]:
        """The retained events as :class:`Event` objects (UTC timestamps),
        built on first access; the pipeline itself reads only the columns."""
        return tuple(
            Event(self.cases[c], self.activities[a], self.resources[r], EPOCH + us * MICROSECOND, o)
            for c, a, r, us, o in zip(
                self.case_codes.tolist(),
                self.activity_codes.tolist(),
                self.resource_codes.tolist(),
                self.timestamps_us.tolist(),
                self.file_order.tolist(),
            )
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, EventLog):
            return NotImplemented
        return (
            (self.activities, self.resources, self.cases, self.dropped_event_count)
            == (other.activities, other.resources, other.cases, other.dropped_event_count)
            and all(
                np.array_equal(getattr(self, name), getattr(other, name))
                for name in _COLUMNS
            )
        )


_COLUMNS = ("activity_codes", "resource_codes", "case_codes", "timestamps_us", "file_order")


@dataclass(frozen=True)
class ResourceView:
    """Chronologically ordered activity codes per resource.

    ``activities[code]`` names an activity; ``activities`` is the log's
    sorted alphabet, so code order is string order.
    """

    activities: tuple[str, ...]
    sequences: Mapping[str, tuple[int, ...]]


@dataclass(frozen=True)
class CaseView:
    """Chronologically ordered activity codes per case, as in :class:`ResourceView`."""

    activities: tuple[str, ...]
    sequences: Mapping[str, tuple[int, ...]]


def build_event_log(events: Iterable[Event] | EventColumns) -> EventLog:
    """Assemble an EventLog from :class:`Event` objects or a reader's columns.

    Events whose resource is missing (None or empty) are dropped and
    counted. Raises :class:`ValidationError` on duplicate file_order or a
    timestamp outside the years 1 to 9999 in UTC, and
    :class:`EmptyLogError` when no events are supplied at all.
    """
    file_order = None
    if not isinstance(events, EventColumns):
        columns = EventColumns()
        orders: list[int] = []
        seen_orders: set[int] = set()
        for ev in events:
            if ev.file_order in seen_orders:
                raise ValidationError(f"duplicate file_order {ev.file_order}")
            seen_orders.add(ev.file_order)
            orders.append(ev.file_order)
            try:
                timestamp_us = epoch_us(ev.timestamp)
            except ValueError as exc:
                raise ValidationError(f"event {ev.file_order}: {exc}") from exc
            columns.add(ev.case_id, ev.activity, ev.resource, timestamp_us)
        events = columns
        file_order = np.array(orders, dtype=np.int64)
    n = len(events)
    if not n:
        raise EmptyLogError("no events in source")
    if file_order is None:
        file_order = np.arange(n, dtype=np.int64)
    case_codes, activity_codes, resource_codes, timestamps_us = map(np.asarray, events.codes)
    kept = np.flatnonzero(resource_codes != events.names[2].get("", -1))
    cases, activities, resources = map(list, events.names)
    resources, resource_codes = _recoded(resources, resource_codes[kept])
    activities, activity_codes = _recoded(activities, activity_codes[kept])
    cases, case_codes = _recoded(cases, case_codes[kept])
    return EventLog(
        activities=activities,
        resources=resources,
        cases=cases,
        activity_codes=activity_codes,
        resource_codes=resource_codes,
        case_codes=case_codes,
        timestamps_us=timestamps_us[kept],
        file_order=file_order[kept],
        dropped_event_count=n - len(kept),
    )


def _recoded(names: Sequence[str], codes: np.ndarray) -> tuple[tuple[str, ...], np.ndarray]:
    """Sorted alphabet of the names ``codes`` use, and each code's index into it."""
    used = np.flatnonzero(np.bincount(codes, minlength=len(names)))
    alphabet = tuple(sorted(names[u] for u in used.tolist()))
    index = {name: i for i, name in enumerate(alphabet)}
    recode = np.zeros(len(names), dtype=np.int64)
    recode[used] = [index[names[u]] for u in used.tolist()]
    return alphabet, recode[codes]


def _grouped_sequences(
    log: EventLog, codes: np.ndarray, names: tuple[str, ...]
) -> dict[str, tuple[int, ...]]:
    """Activity codes grouped by ``codes``, keys in code order, each group
    ordered by (timestamp, file_order)."""
    if not log.n_events:
        raise EmptyLogError("event log has no events")
    order = np.lexsort((log.file_order, log.timestamps_us, codes))
    activity_codes = log.activity_codes[order].tolist()
    # the alphabets hold only names of retained events, so no group is empty
    ends = np.cumsum(np.bincount(codes, minlength=len(names))).tolist()
    return {name: tuple(activity_codes[lo:hi]) for name, lo, hi in zip(names, [0, *ends], ends)}


def resource_view(log: EventLog) -> ResourceView:
    """Group activity codes by resource, ordered by (timestamp, file_order)."""
    return ResourceView(log.activities, _grouped_sequences(log, log.resource_codes, log.resources))


def case_view(log: EventLog) -> CaseView:
    """Group activity codes by case, ordered by (timestamp, file_order).

    Events dropped at ingestion for missing resources are not restored,
    so case statistics describe the same filtered log as the resource view.
    """
    return CaseView(log.activities, _grouped_sequences(log, log.case_codes, log.cases))
