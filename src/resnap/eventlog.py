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
    """Per-event lists a reader fills in file order, before validation.

    ``resources`` holds None (or "") for events without a resource;
    ``timestamps_us`` holds each event's UTC epoch microseconds, 8 bytes
    apiece. Event ``i`` has file order ``i``.
    """

    cases: list[str] = field(default_factory=list)
    activities: list[str] = field(default_factory=list)
    resources: list[str | None] = field(default_factory=list)
    timestamps_us: array = field(default_factory=lambda: array("q"))

    def coded(self) -> CodedColumns:
        """The same events as codes into sorted names; a missing resource reads as ""."""
        resources = [r or "" for r in self.resources]
        names, codes = zip(*map(_coded, (self.cases, self.activities, resources)))
        stamps = np.array(self.timestamps_us, dtype=np.int64)
        return CodedColumns(*names, *codes, stamps)


@dataclass
class CodedColumns:
    """Per-event integer codes a reader made, in file order, before validation.

    ``cases[case_codes[i]]`` is event ``i``'s case id, and likewise for
    activities and resources; the resource name "" means none. Each
    sequence of names holds distinct names in any order, and may hold
    names no event uses. Event ``i`` has file order ``i``.
    """

    cases: Sequence[str]
    activities: Sequence[str]
    resources: Sequence[str]
    case_codes: np.ndarray
    activity_codes: np.ndarray
    resource_codes: np.ndarray
    timestamps_us: np.ndarray


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


def build_event_log(events: Iterable[Event] | EventColumns | CodedColumns) -> EventLog:
    """Assemble an EventLog from :class:`Event` objects or a reader's columns.

    Events whose resource is missing (None or empty) are dropped and
    counted. Raises :class:`ValidationError` on duplicate file_order or a
    timestamp outside the years 1 to 9999 in UTC, and
    :class:`EmptyLogError` when no events are supplied at all.
    """
    file_order = None
    if isinstance(events, EventColumns):
        events = events.coded()
    elif not isinstance(events, CodedColumns):
        raw = EventColumns()
        orders: list[int] = []
        seen_orders: set[int] = set()
        for ev in events:
            if ev.file_order in seen_orders:
                raise ValidationError(f"duplicate file_order {ev.file_order}")
            seen_orders.add(ev.file_order)
            orders.append(ev.file_order)
            raw.cases.append(ev.case_id)
            raw.activities.append(ev.activity)
            raw.resources.append(ev.resource)
            try:
                raw.timestamps_us.append(epoch_us(ev.timestamp))
            except ValueError as exc:
                raise ValidationError(f"event {ev.file_order}: {exc}") from exc
        events = raw.coded()
        file_order = np.array(orders, dtype=np.int64)
    n = len(events.case_codes)
    if not n:
        raise EmptyLogError("no events in source")
    if file_order is None:
        file_order = np.arange(n, dtype=np.int64)
    named = np.array([bool(name) for name in events.resources], dtype=bool)
    kept = np.flatnonzero(named[events.resource_codes])
    resources, resource_codes = _recoded(events.resources, events.resource_codes[kept])
    activities, activity_codes = _recoded(events.activities, events.activity_codes[kept])
    cases, case_codes = _recoded(events.cases, events.case_codes[kept])
    return EventLog(
        activities=activities,
        resources=resources,
        cases=cases,
        activity_codes=activity_codes,
        resource_codes=resource_codes,
        case_codes=case_codes,
        timestamps_us=events.timestamps_us[kept],
        file_order=file_order[kept],
        dropped_event_count=n - len(kept),
    )


def _coded(values: list[str]) -> tuple[tuple[str, ...], np.ndarray]:
    """Sorted alphabet of ``values`` and each value's index into it."""
    alphabet = tuple(sorted(set(values)))
    index = {name: i for i, name in enumerate(alphabet)}
    codes = np.fromiter(map(index.__getitem__, values), dtype=np.int64, count=len(values))
    return alphabet, codes


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
