"""Readers for XES (XML) and delimited-text event logs.

Both readers fill the same per-event columns and produce the same kind
of validated :class:`EventLog`:

* events lacking a resource are dropped and counted,
* timestamps are normalised to UTC epoch microseconds (naive values are
  taken as UTC),
* gzip-compressed input is detected by its magic bytes and decompressed
  transparently; files and streams are read in chunks, never whole,
* equal timestamps keep their source-file order.

Only the XES subset actually used here is read: per event the
``concept:name`` (activity), ``org:resource`` and ``time:timestamp``
attributes, plus the trace-level ``concept:name`` as the case id.
"""
from __future__ import annotations

import csv
import gzip
import io
import re
import xml.etree.ElementTree as ET
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass
from datetime import datetime
from pathlib import Path
from typing import BinaryIO, Iterator

from .errors import ConfigError, EmptyLogError, ParseError, ValidationError
from .eventlog import EventColumns, EventLog, build_event_log, epoch_us

_GZIP_MAGIC = b"\x1f\x8b"
_CHUNK = 64 * 1024
_LONG_FRACTION = re.compile(r"(\.\d{6})\d+")
_XES_ATTRIBUTES = frozenset(("string", "date", "int", "float", "boolean"))


@dataclass(frozen=True)
class CsvMapping:
    """Column mapping for delimited-text logs.

    ``timestamp_format`` is a strptime pattern; when None, timestamps are
    read as ISO-8601.
    """

    case: str
    activity: str
    resource: str
    timestamp: str
    timestamp_format: str | None = None
    delimiter: str = ","


class _RawReader(io.RawIOBase):
    """Raw-stream face of any object with ``read``, so it can be buffered."""

    def __init__(self, source: BinaryIO):
        self._source = source

    def readable(self) -> bool:
        return True

    def readinto(self, buffer) -> int:
        data = self._source.read(len(buffer))
        buffer[: len(data)] = data
        return len(data)


@contextmanager
def _open_binary(source: bytes | str | Path | BinaryIO) -> Iterator[BinaryIO]:
    """A binary stream over the source, decompressing gzip if present.

    Files, file-like sources and gzip members are streamed rather than
    loaded whole (the gzip magic is peeked through a buffered reader), so
    multi-million-event logs parse within bounded memory. What is opened
    here is closed on exit; a caller's stream is left open.
    """
    with ExitStack() as owned:
        if isinstance(source, (str, Path)):
            stream = owned.enter_context(open(source, "rb"))
        elif isinstance(source, (bytes, bytearray)):
            stream = io.BufferedReader(io.BytesIO(source))
        elif hasattr(source, "peek"):
            stream = source
        else:
            stream = io.BufferedReader(_RawReader(source))
        if stream.peek(2)[:2] == _GZIP_MAGIC:
            stream = owned.enter_context(gzip.GzipFile(fileobj=stream))
        yield stream


def _iso(value: str) -> datetime:
    """An ISO-8601 timestamp; ``Z`` reads as UTC."""
    text = value.strip()
    if text.endswith(("Z", "z")):
        text = text[:-1] + "+00:00"
    try:
        return datetime.fromisoformat(text)
    except ValueError:
        # some exporters emit more than 6 fractional-second digits
        return datetime.fromisoformat(_LONG_FRACTION.sub(r"\1", text))


class _XesTarget:
    """Expat target that keeps only the attributes XES traces and events carry.

    For every open ``<trace>`` and ``<event>`` it collects the key/value
    pairs of its direct attribute children (the first of a duplicate key
    wins); nested attributes, lists and everything else are skipped, and
    no ``Element`` is ever built. A trace's events become columns when
    the trace closes.
    """

    def __init__(self, columns: EventColumns):
        self.columns = columns
        self.frames: list[dict[str, str] | None] = [None]  # one per open element
        self.kinds: dict[str, str] = {}  # tag -> "attribute", "event", "trace" or ""
        self.pending: list[dict[str, str]] = []
        self.in_trace = False
        self.n_traces = 0

    def _kind(self, tag: str) -> str:
        name = tag.rpartition("}")[2]
        if name in _XES_ATTRIBUTES:
            kind = "attribute"
        elif name in ("event", "trace"):
            kind = name
        else:
            kind = ""
        self.kinds[tag] = kind
        return kind

    def start(self, tag: str, attrib: dict[str, str]) -> None:
        kind = self.kinds.get(tag)
        if kind is None:
            kind = self._kind(tag)
        if kind == "attribute":
            attrs = self.frames[-1]
            if attrs is not None:
                key = attrib.get("key")
                value = attrib.get("value")
                if key is not None and value is not None and key not in attrs:
                    attrs[key] = value
            self.frames.append(None)
        elif kind:
            self.frames.append({})
            if kind == "trace":
                self.in_trace = True
        else:
            self.frames.append(None)

    def end(self, tag: str) -> None:
        attrs = self.frames.pop()
        if attrs is None:
            return
        if self.kinds[tag] == "trace":
            self.in_trace = False
            self.n_traces += 1
            self._close_trace(attrs.get("concept:name") or f"trace-{self.n_traces}")
        elif self.in_trace:
            self.pending.append(attrs)

    def _close_trace(self, case_id: str) -> None:
        cols = self.columns
        for attrs in self.pending:
            activity = attrs.get("concept:name", "")
            if not activity:
                raise ValidationError(f"event without concept:name in trace '{case_id}'")
            ts_text = attrs.get("time:timestamp")
            if ts_text is None:
                raise ValidationError(f"event without time:timestamp in trace '{case_id}'")
            try:
                ts = _iso(ts_text)
            except ValueError as exc:
                raise ValidationError(
                    f"unreadable timestamp {ts_text!r} in trace '{case_id}'"
                ) from exc
            try:
                ts_us = epoch_us(ts)
            except ValueError as exc:
                raise ValidationError(f"timestamp {ts_text!r} in trace '{case_id}': {exc}") from exc
            cols.cases.append(case_id)
            cols.activities.append(activity)
            cols.resources.append(attrs.get("org:resource"))
            cols.timestamps_us.append(ts_us)
        self.pending.clear()


def parse_xes(source: bytes | str | Path | BinaryIO) -> EventLog:
    """Parse an XES document into an :class:`EventLog`.

    Raises :class:`ParseError` with line/column on malformed XML,
    :class:`ValidationError` naming the trace when an event lacks an
    activity or timestamp, and :class:`EmptyLogError` when the document
    has no traces.
    """
    target = _XesTarget(EventColumns())
    parser = ET.XMLParser(target=target)
    try:
        with _open_binary(source) as stream:
            while chunk := stream.read(_CHUNK):
                parser.feed(chunk)
        parser.close()
    except ET.ParseError as exc:
        line, column = exc.position
        raise ParseError(f"malformed XML at line {line}, column {column}: {exc.msg}") from exc
    if target.n_traces == 0:
        raise EmptyLogError("XES document contains no traces")
    if not target.columns.cases:
        raise EmptyLogError("XES document contains no events")
    return build_event_log(target.columns)


def parse_csv(source: bytes | str | Path | BinaryIO, mapping: CsvMapping) -> EventLog:
    """Parse a delimited-text log into an :class:`EventLog`.

    The first row must be a header containing every mapped column. Blank
    lines are skipped; data rows are numbered from 1 in error messages.
    Raises :class:`ConfigError` when a mapped column is missing and
    :class:`ValidationError` with the row number on bad cell values (a
    short row's missing cells read as empty).
    """
    cols = EventColumns()
    with _open_binary(source) as stream:
        text = io.TextIOWrapper(stream, encoding="utf-8-sig", newline="")
        try:
            reader = csv.reader(text, delimiter=mapping.delimiter)
            header = next(reader, None)
            if not header:
                raise ConfigError("CSV input has no header row")
            index = {name: i for i, name in enumerate(header)}  # a repeated name: last wins
            wanted = (mapping.case, mapping.activity, mapping.resource, mapping.timestamp)
            missing = [col for col in wanted if col not in index]
            if missing:
                raise ConfigError(f"CSV header is missing mapped columns: {', '.join(missing)}")
            _read_csv_rows(reader, [index[col] for col in wanted], mapping.timestamp_format, cols)
        finally:
            text.detach()  # leave the underlying stream to its owner
    if not cols.cases:
        raise EmptyLogError("CSV input contains no data rows")
    return build_event_log(cols)


def _read_csv_rows(
    reader, positions: list[int], timestamp_format: str | None, cols: EventColumns
) -> None:
    i_case, i_activity, i_resource, i_ts = positions
    width = max(positions) + 1
    row_no = 0
    for row in reader:
        if not row:
            continue
        row_no += 1
        if len(row) < width:
            row = row + [""] * (width - len(row))
        case_id = row[i_case].strip()
        activity = row[i_activity].strip()
        ts_text = row[i_ts].strip()
        if not case_id:
            raise ValidationError(f"empty case id in row {row_no}")
        if not activity:
            raise ValidationError(f"empty activity in row {row_no}")
        try:
            if timestamp_format is None:
                ts = _iso(ts_text)
            else:
                ts = datetime.strptime(ts_text, timestamp_format)
        except ValueError as exc:
            raise ValidationError(
                f"timestamp {ts_text!r} does not match the expected format in row {row_no}"
            ) from exc
        try:
            ts_us = epoch_us(ts)
        except ValueError as exc:
            raise ValidationError(f"timestamp {ts_text!r} in row {row_no}: {exc}") from exc
        cols.cases.append(case_id)
        cols.activities.append(activity)
        cols.resources.append(row[i_resource].strip())
        cols.timestamps_us.append(ts_us)
