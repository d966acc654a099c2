"""Synthetic run-structured log used by the directional checks.

Every resource repeats its current activity k times (k fixed per
resource, drawn from {2, 3, 4}) before cycling A -> B -> C -> A.
Starting activity and the position inside the first run are randomised
per resource, so the raw positional encoding alone does not reveal the
run structure directly.
"""
from __future__ import annotations

from datetime import datetime, timedelta, timezone

import numpy as np

from resnap import Event, EventLog, build_event_log

_CYCLE = ("A", "B", "C")


def run_structured_log(
    n_resources: int = 500,
    events_per_resource: int = 30,
    seed: int = 20240301,
) -> EventLog:
    rng = np.random.default_rng(seed)
    base = datetime(2024, 3, 1, tzinfo=timezone.utc)
    events: list[Event] = []
    order = 0
    for r in range(n_resources):
        k = int(rng.choice([2, 3, 4]))
        start = int(rng.integers(0, len(_CYCLE)))
        offset = int(rng.integers(0, k))
        for j in range(events_per_resource):
            step = offset + j
            activity = _CYCLE[(start + step // k) % len(_CYCLE)]
            events.append(
                Event(
                    case_id=f"c{r:04d}",
                    activity=activity,
                    resource=f"r{r:04d}",
                    timestamp=base + timedelta(seconds=j),
                    file_order=order,
                )
            )
            order += 1
    return build_event_log(events)


_XES_TZ = timezone(timedelta(hours=1))


def run_structured_xes(
    n_resources: int = 80,
    events_per_resource: int = 14,
    seed: int = 20240316,
) -> bytes:
    """The run-structured log written as an XES document.

    Each resource's events are cut into cases of one to four events, the
    traces are shuffled, timestamps carry a +01:00 offset (resources share
    their clock, so there are many equal timestamps), and about one event
    in nine is written without ``org:resource``.
    """
    rng = np.random.default_rng(seed)
    log = run_structured_log(n_resources, events_per_resource, seed)
    traces: list[list[Event]] = []
    for r in range(n_resources):
        own = list(log.events[r * events_per_resource:(r + 1) * events_per_resource])
        while own:
            cut = int(rng.integers(1, 5))
            traces.append(own[:cut])
            own = own[cut:]
    parts = ['<?xml version="1.0" encoding="UTF-8"?>\n<log xmlns="http://www.xes-standard.org/">\n']
    for t in rng.permutation(len(traces)):
        parts.append(f'<trace>\n<string key="concept:name" value="case-{t:04d}"/>\n')
        for ev in traces[t]:
            stamp = ev.timestamp.astimezone(_XES_TZ).isoformat(timespec="milliseconds")
            resource = "" if rng.random() < 1 / 9 else (
                f'<string key="org:resource" value="{ev.resource}"/>'
            )
            parts.append(
                f'<event><string key="concept:name" value="{ev.activity}"/>{resource}'
                f'<date key="time:timestamp" value="{stamp}"/>'
                f'<string key="org:group" value="g{int(rng.integers(0, 3))}"/></event>\n'
            )
        parts.append("</trace>\n")
    parts.append("</log>\n")
    return "".join(parts).encode()
