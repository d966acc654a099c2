"""Differential ingestion tests: the columnar readers against the reference readers.

``tests/oracles.py`` keeps the row-at-a-time readers (``iterparse`` for
XES, ``DictReader`` for CSV) that built one ``Event`` per row and grouped
and sorted them per key. Seeded generated documents go through both; the
materialised events, alphabets, dropped counts, both views and the
profile must be equal, and failures must raise the same exception class
with the same message. The error cases include an unreadable timestamp
before a later error of another kind, and the array decoder of the
columnar paths is checked against the per-value read,
``epoch_us(_iso(text))``.
"""
from __future__ import annotations

import gzip
import html
import io
import random
import re
import sys
from datetime import timedelta, timezone
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from resnap import (
    CsvMapping,
    Event,
    build_event_log,
    case_view,
    parse_csv,
    parse_xes,
    profile,
    resource_view,
)
from resnap.eventlog import epoch_us
from resnap.parsers import _LAYOUTS, _iso, decode_timestamp_fields, decode_timestamps

from conftest import xes_bytes, xes_event
from oracles import (
    reference_build,
    reference_case_view,
    reference_parse_csv,
    reference_parse_xes,
    reference_profile,
    reference_resource_view,
    reference_timestamp,
)

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))
import check_iso_layouts  # noqa: E402

INSTANTS = [
    # the same instant written several ways, so equal timestamps meet different spellings
    ("2024-03-01T12:00:00Z", "2024-03-01T12:00:00", "2024-03-01T13:00:00+01:00"),
    ("2024-03-01T12:00:00.5Z", "2024-03-01T12:00:00.500000000", "2024-03-01T07:00:00.5-05:00"),
    ("2024-03-01T12:00:01.1234567Z", "2024-03-01T12:00:01.123456",
     "2024-03-01T12:00:01.12345678+00:00"),
    ("2024-02-29T23:59:59.999999z", "2024-03-01T01:59:59.999999+02:00",
     "2024-02-29T23:59:59.9999999"),
    ("2023-12-31T23:00:00-01:00", "2024-01-01T00:00:00Z", "2024-01-01T00:00:00.000"),
]
ACTIVITIES = ["A", "B", "C", "D & E", "Ä"]
RESOURCES = ["r1", "r2", "r3", "R10"]


def _outcome(fn, *args):
    try:
        return "ok", fn(*args)
    except Exception as exc:  # noqa: BLE001 - the class and message are what is compared
        return type(exc), str(exc)


def _assert_same(new_src, ref_src, parse, reference):
    new, ref = _outcome(parse, new_src), _outcome(reference, ref_src)
    if new[0] != "ok" or ref[0] != "ok":
        assert new == ref
        return
    new, ref = new[1], ref[1]
    assert new.events == ref.events
    assert new.activity_alphabet == ref.activity_alphabet
    assert new.resource_set == ref.resource_set
    assert new.case_set == ref.case_set
    assert new.dropped_event_count == ref.dropped_event_count
    views = ((resource_view, reference_resource_view), (case_view, reference_case_view))
    for view, reference_view in views:
        a, b = _outcome(view, new), _outcome(reference_view, ref)
        if a[0] == "ok" and b[0] == "ok":
            assert list(a[1].sequences.items()) == list(b[1].sequences.items())
        else:
            assert a == b
    assert _outcome(profile, new) == _outcome(reference_profile, ref)


# --- XES -----------------------------------------------------------------


def _attr(key, value, tag="string", nested=""):
    value = html.escape(value)
    if nested:
        return f'<{tag} key="{key}" value="{value}">{nested}</{tag}>'
    return f'<{tag} key="{key}" value="{value}"/>'


def _xes_event(rng: random.Random) -> str:
    parts = []
    if rng.random() < 0.15:  # a list whose members must not count as event attributes
        listed = _attr("concept:name", "LISTED") + _attr("org:resource", "rX")
        parts.append(f'<list key="l">{listed}</list>')
    parts.append(_attr("concept:name", rng.choice(ACTIVITIES)))
    if rng.random() < 0.1:  # duplicate key: the first one wins
        parts.append(_attr("concept:name", "SECOND"))
    roll = rng.random()
    if roll < 0.15:
        pass  # no resource
    elif roll < 0.2:
        parts.append(_attr("org:resource", ""))
    elif roll < 0.3:  # an attribute of an attribute
        nested = _attr("org:resource", "NESTED")
        parts.append(_attr("org:resource", rng.choice(RESOURCES), nested=nested))
    else:
        tag = rng.choice(["string", "string", "int"])
        parts.append(_attr("org:resource", rng.choice(RESOURCES), tag=tag))
    parts.append(_attr("time:timestamp", rng.choice(rng.choice(INSTANTS)), tag="date"))
    if rng.random() < 0.3:
        parts.append(_attr("org:group", "g1") + "<id key='x' value='y'/>")
    rng.shuffle(parts)
    return "<event>" + "".join(parts) + "</event>"


def _xes_trace(rng: random.Random, index: int) -> str:
    body = [_xes_event(rng) for _ in range(rng.randint(0, 6))]
    roll = rng.random()
    if roll < 0.15:
        pass  # no concept:name: the reader names it trace-<n>
    elif roll < 0.2:
        body.append(_attr("concept:name", ""))
    else:
        body.insert(rng.randint(0, len(body)), _attr("concept:name", f"case {index % 7}"))
        if rng.random() < 0.2:
            body.append(_attr("concept:name", "LATER"))
    if rng.random() < 0.1:
        body.append(f'<list key="meta">{_attr("concept:name", "INNER")}</list>')
    return "<trace>" + "".join(body) + "</trace>"


def xes_document(seed: int) -> bytes:
    rng = random.Random(seed)
    ns = ' xmlns="http://www.xes-standard.org/"' if rng.random() < 0.5 else ""
    items = []
    for i in range(rng.randint(1, 12)):
        items.append(_xes_trace(rng, i))
        if rng.random() < 0.1:
            items.append(_xes_event(rng))  # an event outside any trace
    sep = "\n" if rng.random() < 0.5 else ""
    return (
        f"<?xml version='1.0' encoding='UTF-8'?>\n<log{ns}>{sep}"
        + sep.join(items)
        + f"{sep}</log>\n"
    ).encode()


@pytest.mark.parametrize("seed", range(60))
def test_xes_matches_reference(seed):
    doc = xes_document(seed)
    _assert_same(doc, doc, parse_xes, reference_parse_xes)


@pytest.mark.parametrize("seed", range(6))
def test_gzip_xes_from_file_matches_reference(seed, tmp_path):
    path = tmp_path / "log.xes.gz"
    path.write_bytes(gzip.compress(xes_document(seed)))
    _assert_same(path, path, parse_xes, reference_parse_xes)


@pytest.mark.parametrize("seed", range(20))
def test_truncated_xes_fails_like_reference(seed):
    doc = xes_document(seed)
    cut = random.Random(seed).randint(1, len(doc) - 2)
    _assert_same(doc[:cut], doc[:cut], parse_xes, reference_parse_xes)


XES_ERRORS = {
    "missing activity": "<log><trace><event><string key='org:resource' value='r'/>"
    "<date key='time:timestamp' value='2024-03-01T12:00:00Z'/></event></trace></log>",
    "empty activity": "<log><trace><string key='concept:name' value='c9'/><event>"
    "<string key='concept:name' value=''/><date key='time:timestamp' value='2024-03-01'/>"
    "</event></trace></log>",
    "missing timestamp": "<log><trace><string key='concept:name' value='c7'/><event>"
    "<string key='concept:name' value='A'/></event></trace></log>",
    "unreadable timestamp": "<log><trace><event><string key='concept:name' value='A'/>"
    "<date key='time:timestamp' value='yesterday'/></event></trace></log>",
    "malformed": "<log>\n<trace>\n<event></trace></log>",
    "error before malformed": "<log><trace><event/></trace><trace></log>",
    "bad token": "<log><trace a=b></trace></log>",
    "no traces": "<?xml version='1.0'?><log><event/></log>",
    "no events": "<log><trace><string key='concept:name' value='c'/></trace></log>",
    "empty document": "",
    "no resources": "<log><trace><event><string key='concept:name' value='A'/>"
    "<date key='time:timestamp' value='2024-03-01T12:00:00Z'/></event></trace></log>",
    "bad timestamp before malformed": "<log><trace><event><string key='concept:name' value='A'/>"
    "<date key='time:timestamp' value='2024-02-30T12:00:00Z'/></event></trace><trace></log>",
    "bad timestamp before a later missing activity": "<log><trace><event>"
    "<string key='concept:name' value='A'/><date key='time:timestamp' value='noon'/></event>"
    "</trace><trace><event><date key='time:timestamp' value='2024-03-01'/></event></trace></log>",
    "bad timestamp before missing timestamp in its trace": "<log><trace><event>"
    "<string key='concept:name' value='A'/><date key='time:timestamp' value=' 24:00 '/></event>"
    "<event><string key='concept:name' value='B'/></event></trace></log>",
}


@pytest.mark.parametrize("name", sorted(XES_ERRORS))
def test_xes_errors_match_reference(name):
    doc = XES_ERRORS[name].encode()
    _assert_same(doc, doc, parse_xes, reference_parse_xes)


# --- CSV -----------------------------------------------------------------

ISO = CsvMapping(case="case", activity="act", resource="who", timestamp="when")
STRPTIME = CsvMapping(
    case="case", activity="act", resource="who", timestamp="when",
    timestamp_format="%Y-%m-%d %H:%M:%S", delimiter=";",
)


def csv_document(seed: int) -> tuple[bytes, CsvMapping]:
    rng = random.Random(seed)
    mapping = rng.choice([ISO, STRPTIME])
    columns = ["case", "act", "when", "extra"]
    rng.shuffle(columns)
    columns.append("who")  # last, so a short row can lack only the resource
    if rng.random() < 0.2:
        columns.insert(0, "who")  # a repeated header name: the last column wins
    sep = mapping.delimiter
    lines = [sep.join(columns)]
    for _ in range(rng.randint(0, 25)):
        if mapping.timestamp_format is None:
            stamp = rng.choice(rng.choice(INSTANTS))
        else:
            stamp = f"2024-03-01 12:{rng.randint(0, 3):02d}:{rng.randint(0, 2):02d}"
        cells = {
            "case": f" c{rng.randint(0, 5)} ",
            "act": rng.choice(ACTIVITIES),
            "when": stamp,
            "extra": "e",
            "who": rng.choice(RESOURCES + ["", "  "]),
        }
        if rng.random() < 0.1:
            cells["act"] = f'"{cells["act"]}{sep}x"'  # a quoted delimiter
        row = [cells[c] for c in columns]
        if rng.random() < 0.1:
            row = row[:-1]  # short row: the missing resource reads as empty
        lines.append(sep.join(row))
        if rng.random() < 0.15:
            lines.append("")  # blank lines are skipped and not counted
    newline = rng.choice(["\n", "\r\n"])
    bom = "\ufeff" if rng.random() < 0.2 else ""
    return (bom + newline.join(lines) + newline).encode(), mapping


@pytest.mark.parametrize("seed", range(60))
def test_csv_matches_reference(seed):
    doc, mapping = csv_document(seed)
    _assert_same_csv(doc, mapping)
    _assert_same_csv(doc.replace(b"\r\n", b"\n").replace(b"\n", b"\r"), mapping)  # lone CRs


@pytest.mark.parametrize("seed", range(4))
def test_gzip_csv_matches_reference(seed):
    doc, mapping = csv_document(seed)
    _assert_same_csv(gzip.compress(doc), mapping)


def _assert_same_csv(doc: bytes, mapping: CsvMapping) -> None:
    _assert_same(
        doc, doc, lambda s: parse_csv(s, mapping), lambda s: reference_parse_csv(s, mapping)
    )


CSV_ERRORS = {
    "empty case id": "case,act,who,when\n c1 ,A,r1,2024-03-01T12:00\n  ,B,r1,2024-03-01T12:00\n",
    "empty activity": "case,act,who,when\n\nc1,,r1,2024-03-01T12:00:00\n",
    "short row": "case,act,who,when\nc1,A,r1,2024-03-01T12:00:00\n\nc2\n",
    "short row without timestamp": "case,act,who,when\nc1,A,r1\n",
    "bad timestamp": "case,act,who,when\nc1,A,r1,2024-03-01T12:00:00\nc1,A,r1,noon\n",
    "missing column": "case,act,when\nc1,A,2024-03-01T12:00:00\n",
    "no header": "",
    "blank header": "\ncase,act,who,when\n",
    "no data rows": "case,act,who,when\n\n\n",
    "no resources": "case,act,who,when\nc1,A,,2024-03-01T12:00:00\n",
    "bad timestamp before empty activity": "case,act,who,when\nc1,A,r1,2024-03-01T12:00:00\n"
    "c1,A,r1,2024-03-01 12:00\nc1,A,r1,2024-03-01T12:00:60\nc1,A,r1,2024-03-01\nc2,,r1,x\n",
    "bad timestamp before empty case id": "case,act,who,when\nc1,A,r1,2023-02-29T00:00:00Z\n"
    "\n ,A,r1,2024-03-01T12:00:00\n",
    "bad timestamp before short row": "case,act,who,when\nc1,A,r1,2024-03-01T12:00:00+24:00\nc2\n",
}


@pytest.mark.parametrize("name", sorted(CSV_ERRORS))
def test_csv_errors_match_reference(name):
    _assert_same_csv(CSV_ERRORS[name].encode(), ISO)


# --- streams -------------------------------------------------------------


class OneWayStream:
    """A pipe-like source: ``read`` only, no seek, tell or peek; logs read sizes."""

    def __init__(self, data: bytes):
        self._data = io.BytesIO(data)
        self.requests: list[int] = []

    def read(self, size=-1):
        self.requests.append(size)
        return self._data.read(size)


@pytest.mark.parametrize("compress", [False, True])
def test_non_seekable_xes_stream_is_read_in_chunks(compress):
    traces = [(f"c{i}", [xes_event("A", "r1"), xes_event("B", "r2")]) for i in range(2000)]
    body = xes_bytes(traces)
    data = gzip.compress(body) if compress else body
    stream = OneWayStream(data)
    assert parse_xes(stream) == parse_xes(body)
    assert len(stream.requests) > 1
    assert all(0 < size <= 64 * 1024 for size in stream.requests)


class ByteAtATimeStream(OneWayStream):
    """A source whose every read returns at most one byte."""

    def read(self, size=-1):
        return super().read(1)


def test_gzip_stream_with_short_reads_is_detected():
    csv_doc, mapping = csv_document(5)
    xes_doc = xes_bytes([("c1", [xes_event("A", "r1"), xes_event("B", "r2")])])
    packed_csv, packed_xes = gzip.compress(csv_doc), gzip.compress(xes_doc)
    assert parse_csv(ByteAtATimeStream(packed_csv), mapping) == parse_csv(packed_csv, mapping)
    assert parse_xes(ByteAtATimeStream(packed_xes)) == parse_xes(packed_xes)


def test_non_seekable_csv_stream_is_read_in_chunks():
    doc, mapping = csv_document(5)
    doc = doc + b"".join(doc.splitlines(keepends=True)[1:]) * 300
    stream = OneWayStream(gzip.compress(doc))
    assert parse_csv(stream, mapping) == parse_csv(doc, mapping)
    assert len(stream.requests) > 1
    assert all(0 < size <= 64 * 1024 for size in stream.requests)


# --- Event input ---------------------------------------------------------


@pytest.mark.parametrize("seed", range(20))
def test_event_input_matches_reference(seed):
    """Events handed over out of file order, with equal timestamps in other zones."""
    rng = random.Random(seed)
    orders = rng.sample(range(100), rng.randint(1, 40))
    events = [
        Event(
            case_id=f"c{rng.randint(0, 4)}",
            activity=rng.choice(ACTIVITIES),
            resource=rng.choice(RESOURCES + [None, ""]),
            timestamp=reference_timestamp(rng.choice(rng.choice(INSTANTS))).astimezone(
                timezone(timedelta(hours=rng.randint(-12, 12)))
            ),
            file_order=order,
        )
        for order in orders
    ]
    _assert_same(events, events, build_event_log, reference_build)


# --- timestamps decoded as arrays ----------------------------------------

# the texts the array decoder must read: everything else goes to _iso one by one
STRICT = re.compile(
    r"\d{4}-\d\d-\d\d[T ]\d\d:\d\d:\d\d(\.\d{3}|\.\d{6})?([Zz]|[+-]\d\d:[0-5]\d)?", re.ASCII
)
EDGES = [
    "2024-02-29T00:00:00", "2023-02-29T00:00:00", "1900-02-29 00:00:00", "2000-02-29T12:00:00Z",
    "2024-01-01T24:00:00", "2024-01-01T23:59:60", "2024-01-01T23:60:00", "2024-13-01T00:00:00",
    "2024-04-31T00:00:00", "0000-01-01T00:00:00", "0001-01-01T00:00:00",
    "0001-01-01T00:30:00+01:00", "0001-01-01T00:30:00-01:00", "9999-12-31T23:59:59.999999",
    "9999-12-31T23:30:00-01:00", "9999-12-31T23:30:00+01:00", "2024-01-01T10:00:00+23:59",
    "2024-01-01T10:00:00-23:59", "2024-01-01T10:00:00+24:00", "2024-01-01T10:00:00+00:60",
    "2024-01-01T10:00:00-00:00", "2024-01-01t10:00:00", "2024-01-01T10:00:00.1",
    "2024-01-01T10:00:00.1234567", "2024-01-01T10:00:00.123456789Z", "2024-01-01T10:00:00.123z",
    "\u0662\u0660\u0662\u0664-01-01T10:00:00", "2024-01-01T10:00:00+\uff10\uff11:00",
    "2024-01-01T10:00:0\u0663", "2024-01-01T10:00:00.12\u0663", "2024-01-01T10:00:00Z ",
]
NOT_ASCII_DIGITS = "\u0663\uff13\u09e9"  # Arabic-Indic, fullwidth and Bengali three


def _per_value(text: str) -> int | None:
    try:
        return epoch_us(_iso(text))
    except ValueError:
        return None


@st.composite
def timestamp_texts(draw) -> str:
    """Texts near the strict layout: every field at and past its edges."""
    year = draw(st.sampled_from([0, 1, 1900, 2000, 2023, 2024, 9999]) | st.integers(0, 9999))
    month = draw(st.sampled_from([1, 2, 12]) | st.integers(0, 13))
    day = draw(st.sampled_from([1, 28, 29, 30, 31]) | st.integers(0, 32))
    clock = [
        draw(st.sampled_from([0, limit - 1, limit]) | st.integers(0, limit))
        for limit in (24, 60, 60)
    ]
    text = f"{year:04d}-{month:02d}-{day:02d}{draw(st.sampled_from('T tx'))}"
    text += ":".join(f"{v:02d}" for v in clock)
    fraction = draw(st.sampled_from([0, 1, 3, 6, 7, 9]))
    if fraction:
        text += "." + draw(st.text("0123456789", min_size=fraction, max_size=fraction))
    suffix = draw(st.sampled_from(["", "Z", "z", "offset"]))
    if suffix == "offset":
        sign = draw(st.sampled_from("+-"))
        hours, minutes = draw(st.integers(0, 24)), draw(st.sampled_from([0, 30, 59, 60]))
        suffix = f"{sign}{hours:02d}:{minutes:02d}"
    text += suffix
    if draw(st.integers(0, 9)) == 0:  # one digit in another script, or a stray character
        at = draw(st.integers(0, len(text) - 1))
        text = text[:at] + draw(st.sampled_from(NOT_ASCII_DIGITS + "x-: ")) + text[at + 1 :]
    return text


@given(st.lists(timestamp_texts(), min_size=1, max_size=12))
@example(EDGES)
def test_decoder_reads_the_strict_layout_as_the_per_value_read_does(texts):
    """Mixed layouts in one call: each text the decoder reads has the
    per-value value, and it reads every strict-layout text that has one.
    The same texts as UTF-8 byte fields of one buffer read the same."""
    us, ok = decode_timestamps(texts)
    for text, value, read in zip(texts, us.tolist(), ok.tolist()):
        expected = _per_value(text)
        assert read == (expected is not None and STRICT.fullmatch(text) is not None), text
        if read:
            assert value == expected, text
    fields = [text.encode() for text in texts]
    lengths = np.array([len(field) for field in fields])
    data = np.frombuffer(b"".join(fields), dtype=np.uint8)
    byte_us, byte_ok = decode_timestamp_fields(data, np.cumsum(lengths) - lengths, lengths)
    assert byte_ok.tolist() == ok.tolist() and byte_us.tolist() == us.tolist()


def test_fromisoformat_reads_every_layout_the_decoder_reads():
    """``tools/check_iso_layouts.py`` under this interpreter: its samples
    cover every length decoded as arrays, and both reads agree on each."""
    assert check_iso_layouts.failures() == []
    samples = check_iso_layouts.layouts()
    assert {len(text) for text, _ in samples} == set(_LAYOUTS)
    us, ok = decode_timestamps([text for text, _ in samples])
    assert ok.all()
    assert us.tolist() == [epoch_us(instant) for _, instant in samples]


def test_decoder_reads_the_benchmark_layouts():
    texts = ["2011-01-05T22:13:44.000+01:00", "2011-01-05 22:13:44", "2011-01-05T22:13:44.123456Z"]
    us, ok = decode_timestamps(texts)
    assert ok.all()
    assert us.tolist() == [_per_value(t) for t in texts]


def _csv_rows(n: int) -> list[str]:
    stamps = [s for spellings in INSTANTS for s in spellings] + [
        "2024-03-01 12:00:00", "2024-03-01T12:00:00.123-00:00", "2024-03-01T12:00:00.123456+05:30",
    ]
    return [f"c{i % 7},{ACTIVITIES[i % 5]},{RESOURCES[i % 4]},{stamps[i % len(stamps)]}"
            for i in range(n)]


@pytest.mark.parametrize("quoted", [False, True])
def test_mixed_layouts_match_reference(quoted):
    """Every layout in one long log, read by the columnar path and, with
    one field quoted, by the csv module."""
    rows = _csv_rows(16_387)
    if quoted:
        rows[0] = '"c0"' + rows[0][2:]
    _assert_same_csv(("\n".join(["case,act,who,when"] + rows) + "\n").encode(), ISO)


# Row 8192 is where the earlier batched timestamp decoder cut its queue. The
# readers now decode each event's timestamp as they read it; these cases keep
# the first error in file order checked deep into a long file, on both sides.
_BATCH = 8192


@pytest.mark.parametrize("bad", [_BATCH - 1, _BATCH, _BATCH + 1])
def test_bad_timestamp_at_a_batch_boundary_matches_reference(bad):
    """Data row ``bad + 1`` has an unreadable timestamp and the next row an
    empty activity; the timestamp error comes first on both sides."""
    rows = _csv_rows(_BATCH + 4)
    rows[bad] = "c1,A,r1,2024-02-30T00:00:00"
    rows[bad + 1] = "c1,,r1,2024-03-01T00:00:00"
    _assert_same_csv(("\n".join(["case,act,who,when"] + rows) + "\n").encode(), ISO)


def test_bad_xes_timestamp_after_a_batch_boundary_matches_reference():
    """Event ``_BATCH + 1`` of a trace has an hour of 25 and the document is
    malformed after it; the timestamp error comes first on both sides."""
    events = [xes_event("A", "r1") for _ in range(_BATCH + 2)]
    events[_BATCH] = xes_event("A", "r1", stamp="2024-03-01T25:00:00Z")
    doc = xes_bytes([("c1", events)])
    doc = doc.replace(b"</log>", b"<trace></log>")  # malformed after the bad timestamp
    _assert_same(doc, doc, parse_xes, reference_parse_xes)
