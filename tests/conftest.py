from __future__ import annotations

from datetime import datetime, timedelta, timezone

import pytest

from resnap import Event, ResourceView, build_event_log

BASE_TS = datetime(2024, 3, 1, 12, 0, 0, tzinfo=timezone.utc)


def ts(seconds: float) -> datetime:
    return BASE_TS + timedelta(seconds=seconds)


def seq_view(**sequences):
    """A view of letter sequences, coded into the sorted letters they use."""
    alphabet = tuple(sorted(set("".join(sequences.values()))))
    return ResourceView(alphabet, {k: tuple(map(alphabet.index, v)) for k, v in sequences.items()})


def make_log(rows, start_order: int = 0):
    """Build an EventLog from (case, activity, resource, seconds) tuples."""
    events = [
        Event(case_id=c, activity=a, resource=r, timestamp=ts(t), file_order=start_order + i)
        for i, (c, a, r, t) in enumerate(rows)
    ]
    return build_event_log(events)


@pytest.fixture
def tiny_log():
    return make_log(
        [
            ("c1", "A", "r1", 1),
            ("c1", "B", "r2", 2),
            ("c2", "C", "r1", 3),
            ("c2", "A", "r2", 4),
            ("c3", "B", "r1", 5),
        ]
    )


def xes_bytes(traces, declare_ns: bool = False) -> bytes:
    """Render traces as a minimal XES document.

    ``traces`` maps case id -> list of event attribute dicts; a key set to
    None is omitted from the event element.
    """
    ns = ' xmlns="http://www.xes-standard.org/"' if declare_ns else ""
    parts = [f"<?xml version='1.0' encoding='UTF-8'?>\n<log{ns}>"]
    for case_id, events in traces:
        parts.append("<trace>")
        parts.append(f'<string key="concept:name" value="{case_id}"/>')
        for attrs in events:
            parts.append("<event>")
            for key, value in attrs.items():
                if value is None:
                    continue
                tag = "date" if key == "time:timestamp" else "string"
                parts.append(f'<{tag} key="{key}" value="{value}"/>')
            parts.append("</event>")
        parts.append("</trace>")
    parts.append("</log>")
    return "\n".join(parts).encode()


def xes_event(activity, resource, stamp="2024-03-01T12:00:00.000+00:00"):
    return {
        "concept:name": activity,
        "org:resource": resource,
        "time:timestamp": stamp,
    }
