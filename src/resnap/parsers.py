"""Readers for XES (XML) and delimited-text event logs.

Every path of both readers fills one :class:`EventColumns`, coding each
case id, activity and resource as it reads it, and
:func:`build_event_log` makes the same kind of validated :class:`EventLog`:

* events lacking a resource are dropped and counted,
* timestamps are normalised to UTC epoch microseconds (naive values are
  taken as UTC); the csv-module and expat readers decode each event's
  text as they read it, so the first error in file order is raised,
* gzip-compressed input is detected by its magic bytes and decompressed
  transparently,
* equal timestamps keep their source-file order.

Only the XES subset actually used here is read: per event the
``concept:name`` (activity), ``org:resource`` and ``time:timestamp``
attributes, plus the trace-level ``concept:name`` as the case id.

Each reader has two paths that give the same log. A path or bytes
source goes the columnar way first: the decompressed bytes are read in
blocks of about ``_BLOCK`` (1 MiB) bytes that end with a whole line
(CSV) or a whole trace (XES), and numpy finds each block's fields, codes
the case, activity and resource values (each distinct value is decoded
once per block) and decodes strict-layout timestamps as byte matrices.
That path holds only clean input. For CSV: UTF-8 text without a quote
character, a lone ``\\r`` or NUL, no line over ``csv.field_size_limit()``,
and no row the csv-module path rejects. For XES: UTF-8 XML with a
``<log>`` root, ``<trace>`` children and ``<event>`` grandchildren,
attribute elements written as ``key="K" value="V"``, no comment past the
prologue, no CDATA, DOCTYPE, processing instruction, reference other
than the five predefined entities or namespace prefix, and no event the
expat path rejects (see :mod:`.xes_columnar`, imported on the first
columnar read, so a run that reads only CSV never compiles it). A helper
that finds other input raises :class:`_Declined`, and the columnar reader
catches it and declines the input. Declined input, a ``timestamp_format``
mapping and a caller's stream (which cannot be read twice) go through
the csv module or expat (fed in chunks of ``_CHUNK`` bytes) from the
start, so every error message is theirs.
"""
from __future__ import annotations

import codecs
import csv
import gzip
import io
import re
import xml.etree.ElementTree as ET
import zlib
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass
from datetime import datetime
from itertools import chain, islice, repeat
from pathlib import Path
from typing import BinaryIO, Iterator, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ConfigError, EmptyLogError, ParseError, ValidationError
from .eventlog import (
    _MAX_US,
    _MIN_US,
    EventColumns,
    EventLog,
    build_event_log,
    epoch_us,
)

_GZIP_MAGIC = b"\x1f\x8b"
_CHUNK = 64 * 1024
_LONG_FRACTION = re.compile(r"(\.\d{6})\d+")
_XES_ATTRIBUTES = frozenset(("string", "date", "int", "float", "boolean"))
# what a truncated or corrupt gzip stream raises while it is read
_GZIP_ERRORS = (EOFError, zlib.error, gzip.BadGzipFile)
# what expat raises for a declared encoding it cannot decode: unknown, or multi-byte
_ENCODING_ERRORS = (LookupError, ValueError)


def _name(source) -> str:
    """The source as an error message names it."""
    if isinstance(source, (str, Path)):
        return str(source)
    return str(getattr(source, "name", "input"))


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
        """Fill ``buffer`` unless the source ends first, so a source whose
        reads come back short still shows the whole gzip magic to ``peek``."""
        filled = 0
        while filled < len(buffer):
            data = self._source.read(len(buffer) - filled)
            if not data:
                break
            buffer[filled : filled + len(data)] = data
            filled += len(data)
        return filled


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


def _layout(fraction: int, suffix: str) -> np.ndarray:
    """Per position of the layout, which ASCII codes it admits: ``d`` a
    digit, ``T`` a ``T`` or a space, ``Z`` either case and ``+`` either sign."""
    pattern = "dddd-dd-ddTdd:dd:dd" + ("." + "d" * fraction if fraction else "") + suffix
    table = np.zeros((len(pattern), 128), dtype=bool)
    for pos, ch in enumerate(pattern):
        table[pos, [ord(c) for c in _ADMITS.get(ch, ch)]] = True
    return table


_ADMITS = {"d": "0123456789", "T": "T ", "Z": "Zz", "+": "+-"}
# text length -> (fractional digits, admitted codes per position); the nine lengths differ.
# Python 3.10's fromisoformat reads no other fraction length.
_LAYOUTS = {
    table.shape[0]: (fraction, table)
    for fraction in (0, 3, 6)
    for table in (_layout(fraction, suffix) for suffix in ("", "Z", "+dd:dd"))
}
_MONTH_DAYS = np.array([0, 31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31])


def decode_timestamps(texts: Sequence[str]) -> tuple[np.ndarray, np.ndarray]:
    """UTC epoch microseconds of the texts in one strict layout, and which those are.

    The layout is ``YYYY-MM-DD[T| ]HH:MM:SS[.fff|.ffffff][Z|z|±HH:MM]``
    with ASCII digits; no suffix reads as UTC. A text is read only when
    every field is in range: the day exists in its month and year, the
    hour and the offset's hours are at most 23, minutes and seconds at
    most 59, and the UTC instant falls in the years 1 to 9999. For every
    text read, the value equals ``epoch_us(_iso(text))``; every other
    text has ``ok`` False and value 0.
    """
    fields = [text.encode("utf-8", "surrogatepass") for text in texts]
    lengths = np.fromiter(map(len, fields), dtype=np.int64, count=len(fields))
    data = np.frombuffer(b"".join(fields), dtype=np.uint8)
    return decode_timestamp_fields(data, np.cumsum(lengths) - lengths, lengths)


def decode_timestamp_fields(
    data: np.ndarray, starts: np.ndarray, lengths: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """:func:`decode_timestamps` of UTF-8 byte fields: text ``i`` is
    ``data[starts[i] : starts[i] + lengths[i]]`` of a uint8 array. Only
    ASCII fields pass a layout's table, and their byte and character
    lengths are equal."""
    us = np.zeros(len(lengths), dtype=np.int64)
    ok = np.zeros(len(lengths), dtype=bool)
    for length, (fraction, table) in _LAYOUTS.items():
        rows = np.flatnonzero(lengths == length)
        if rows.size:
            codes = sliding_window_view(data, length)[starts[rows]]
            us[rows], ok[rows] = _decode_layout(codes, fraction, table)
    return us, ok


def _decode_layout(codes: np.ndarray, fraction: int, table: np.ndarray):
    """Read each row of ``codes`` (texts x positions) in one layout, column by column."""
    length = table.shape[0]
    ok = np.take(table, np.minimum(codes, 127) + 128 * np.arange(length)).all(axis=1)
    digits = codes.astype(np.int64) - ord("0")

    def number(start: int, width: int) -> np.ndarray:
        value = digits[:, start]
        for pos in range(start + 1, start + width):
            value = value * 10 + digits[:, pos]
        return value

    year, month, day = number(0, 4), number(5, 2), number(8, 2)
    hour, minute, second = number(11, 2), number(14, 2), number(17, 2)
    leap = (year % 4 == 0) & ((year % 100 != 0) | (year % 400 == 0))
    month_days = _MONTH_DAYS[np.clip(month, 0, 12)] + (leap & (month == 2))
    ok &= (year >= 1) & (month >= 1) & (month <= 12) & (day >= 1) & (day <= month_days)
    ok &= (hour <= 23) & (minute <= 59) & (second <= 59)
    seconds = hour * 3600 + minute * 60 + second
    end = 20 + fraction if fraction else 19
    if length == end + 6:  # a "±HH:MM" offset
        off_hour, off_minute = number(end + 1, 2), number(end + 4, 2)
        ok &= (off_hour <= 23) & (off_minute <= 59)
        sign = np.where(codes[:, end] == ord("-"), -1, 1)
        seconds -= sign * (off_hour * 3600 + off_minute * 60)
    # days since 1970-01-01 of the proleptic Gregorian date, from a March-based year
    y = year - (month <= 2)
    era, yoe = np.divmod(y, 400)
    doy = (153 * ((month + 9) % 12) + 2) // 5 + day - 1
    days = era * 146097 + yoe * 365 + yoe // 4 - yoe // 100 + doy - 719468
    us = (days * 86400 + seconds) * 1_000_000
    if fraction:
        us += number(20, fraction) * 10 ** (6 - fraction)
    ok &= (us >= _MIN_US) & (us <= _MAX_US)
    return np.where(ok, us, 0), ok


def _timestamp_reader(timestamp_format: str | None, prefix: str, unreadable: str, place: str):
    """``read(text, at)``: UTC epoch microseconds of an event's timestamp
    text, read by :func:`_iso` or, stripped, by ``strptime`` with
    ``timestamp_format``. The text's place is ``place.format(at)``, built
    only for an error: ValidationError ``prefix + unreadable`` (fields
    ``text`` and ``place``) when the text does not read, and one naming
    the text and its place when :func:`epoch_us` rejects its instant."""

    def read(text: str, at) -> int:
        try:
            if timestamp_format is None:
                ts = _iso(text)
            else:
                ts = datetime.strptime(text.strip(), timestamp_format)
        except ValueError as exc:
            where = place.format(at)
            raise ValidationError(prefix + unreadable.format(text=text, place=where)) from exc
        try:
            return epoch_us(ts)
        except ValueError as exc:
            raise ValidationError(f"{prefix}timestamp {text!r} {place.format(at)}: {exc}") from exc

    return read


class _XesTarget:
    """Expat target that keeps only the attributes XES traces and events carry.

    For every open ``<trace>`` and ``<event>`` it collects the key/value
    pairs of its direct attribute children (the first of a duplicate key
    wins); nested attributes, lists and everything else are skipped, and
    no ``Element`` is ever built. A trace's events become columns when
    the trace closes. Every data error starts with ``prefix``.
    """

    def __init__(self, columns: EventColumns, prefix: str):
        self.columns = columns
        self.prefix = prefix
        unreadable = "unreadable timestamp {text!r} {place}"
        self.timestamp_us = _timestamp_reader(None, prefix, unreadable, "in trace '{}'")
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
                raise ValidationError(
                    f"{self.prefix}event without concept:name in trace '{case_id}'"
                )
            ts_text = attrs.get("time:timestamp")
            if ts_text is None:
                raise ValidationError(
                    f"{self.prefix}event without time:timestamp in trace '{case_id}'"
                )
            timestamp_us = self.timestamp_us(ts_text, case_id)
            cols.add(case_id, activity, attrs.get("org:resource"), timestamp_us)
        self.pending.clear()


def parse_xes(source: bytes | str | Path | BinaryIO) -> EventLog:
    """Parse an XES document into an :class:`EventLog`.

    Raises :class:`ParseError` on malformed XML (with line and column),
    truncated or corrupt gzip data or a declared encoding it cannot
    decode, :class:`ValidationError` naming the trace when an event
    lacks an activity or has an unreadable timestamp, and
    :class:`EmptyLogError` when the document has no traces or no events.
    Every message but the last two starts with the source's name.

    A path or bytes source takes the columnar path (:mod:`.xes_columnar`)
    first; when that declines the document, and for a caller's stream,
    which cannot be read twice, expat reads it from the start
    (:func:`_parse_xes_expat`). Both give the same log.
    """
    if isinstance(source, (str, Path, bytes, bytearray)):
        from .xes_columnar import columnar_xes  # compiled on first use, not by CSV-only runs

        columns = columnar_xes(source)
        if columns is not None:
            return build_event_log(columns)
    return _parse_xes_expat(source)


def _parse_xes_expat(source) -> EventLog:
    """:func:`parse_xes` through expat, fed in chunks of ``_CHUNK`` bytes."""
    name = _name(source)
    target = _XesTarget(EventColumns(), f"{name}: ")
    parser = ET.XMLParser(target=target)
    try:
        with _open_binary(source) as stream:
            while chunk := stream.read(_CHUNK):
                parser.feed(chunk)
            parser.close()
    except ET.ParseError as exc:
        line, column = exc.position
        raise ParseError(
            f"{name}: malformed XML at line {line}, column {column}: {exc.msg}"
        ) from exc
    except _GZIP_ERRORS as exc:
        raise ParseError(f"{name}: truncated or corrupt gzip data ({exc})") from exc
    except _ENCODING_ERRORS as exc:
        raise ParseError(f"{name}: unreadable XML encoding ({exc})") from exc
    if target.n_traces == 0:
        raise EmptyLogError("XES document contains no traces")
    if not target.columns:
        raise EmptyLogError("XES document contains no events")
    return build_event_log(target.columns)


def parse_csv(source: bytes | str | Path | BinaryIO, mapping: CsvMapping) -> EventLog:
    """Parse a delimited-text log into an :class:`EventLog`.

    The first row must be a header containing every mapped column. Blank
    lines are skipped; data rows are numbered from 1 in error messages.
    Raises :class:`ConfigError` when there is no header row or a mapped
    column is missing, :class:`ValidationError` with the row number on
    bad cell values (a short row's missing cells read as empty),
    :class:`ParseError` naming the row on bytes that are not UTF-8 text,
    a field over ``csv.field_size_limit()`` or truncated or corrupt gzip
    data, and :class:`EmptyLogError` when there is no data row. Every
    message but the first and the last starts with the source's name.
    For every source, a stream too, the first error in file order is
    the one raised, and its row is named.

    A path or bytes source read as ISO timestamps takes the columnar
    path (:func:`_columnar_csv`); when that declines the input, and for
    every other input, the rows go through the csv module
    (:func:`_parse_csv_rows`). Both give the same log.
    """
    if mapping.timestamp_format is None and isinstance(source, (str, Path, bytes, bytearray)):
        columns = _columnar_csv(source, mapping)
        if columns is not None:
            return build_event_log(columns)
    return _parse_csv_rows(source, mapping)


def _parse_csv_rows(source, mapping: CsvMapping) -> EventLog:
    """:func:`parse_csv` through the csv module, one row at a time, in one
    pass over the source: each line is decoded when the csv module reads
    it, so the first error in file order is the one raised, and a row of
    bytes that are not UTF-8 is named as any other row is."""
    cols = _read_csv(source, mapping)
    if not cols:
        raise EmptyLogError("CSV input contains no data rows")
    return build_event_log(cols)


def _read_csv(source, mapping: CsvMapping) -> EventColumns:
    """The columns of every data row. The lines are split as
    ``TextIOWrapper(newline="")`` splits them, at ``\\r\\n``, ``\\r`` and
    ``\\n`` (bytes that no UTF-8 character holds), by reading the source
    as latin-1, one character per byte; each line is then decoded as UTF-8,
    the first as ``utf-8-sig``, so a BOM at the start is dropped."""
    cols = EventColumns()
    header = None
    try:
        with _open_binary(source) as stream:
            text = io.TextIOWrapper(stream, encoding="latin-1", newline="")
            try:
                lines = map(str.encode, text, repeat("latin-1"))
                first = map(bytes.decode, islice(lines, 1), repeat("utf-8-sig"))
                utf8 = chain(first, map(bytes.decode, lines))
                reader = csv.reader(utf8, delimiter=mapping.delimiter)
                header = next(reader, None)
                if not header:
                    raise ConfigError("CSV input has no header row")
                index = {name: i for i, name in enumerate(header)}  # a repeated name: last wins
                wanted = (mapping.case, mapping.activity, mapping.resource, mapping.timestamp)
                missing = [col for col in wanted if col not in index]
                if missing:
                    raise ConfigError(
                        f"{_name(source)}: CSV header is missing mapped columns: "
                        + ", ".join(missing)
                    )
                positions = [index[col] for col in wanted]
                _read_csv_rows(reader, positions, mapping.timestamp_format, cols, _name(source))
            finally:
                text.detach()  # leave the underlying stream to its owner
    except (csv.Error, UnicodeDecodeError, *_GZIP_ERRORS) as exc:
        # every data row read before the error added one event
        place = "the header row" if header is None else f"row {len(cols) + 1}"
        if isinstance(exc, UnicodeDecodeError):
            raise ParseError(f"{_name(source)}: {place} is not UTF-8 text") from exc
        what = "unreadable CSV" if isinstance(exc, csv.Error) else "truncated or corrupt gzip data"
        raise ParseError(f"{_name(source)}: {what} in {place} ({exc})") from exc
    return cols


def _read_csv_rows(
    reader, positions: list[int], timestamp_format: str | None, cols: EventColumns, name: str
) -> None:
    i_case, i_activity, i_resource, i_ts = positions
    width = max(positions) + 1
    unreadable = "timestamp {text!r} does not match the expected format {place}"
    timestamp_us = _timestamp_reader(timestamp_format, f"{name}: ", unreadable, "in row {}")
    row_no = 0  # data rows count from 1
    for row in reader:
        if not row:
            continue
        row_no += 1
        if len(row) < width:
            row = row + [""] * (width - len(row))
        case_id = row[i_case].strip()
        activity = row[i_activity].strip()
        if not case_id:
            raise ValidationError(f"{name}: empty case id in row {row_no}")
        if not activity:
            raise ValidationError(f"{name}: empty activity in row {row_no}")
        stamp = timestamp_us(row[i_ts].strip(), row_no)
        cols.add(case_id, activity, row[i_resource].strip(), stamp)


# --- the columnar CSV path ------------------------------------------------

_BLOCK = 1 << 20  # bytes of whole lines the columnar path reads at once
_WIDE = 64  # longest field, in bytes, the columnar path codes as an array row
_MIX = np.uint64(0x9E3779B97F4A7C15)  # odd multiplier of the field hash


class _Declined(Exception):
    """A columnar reader's input is not clean: the plain reader takes it."""


def _columnar_csv(source, mapping: CsvMapping) -> EventColumns | None:
    """The events of a clean CSV source; None when it is declined as not clean.

    The decompressed source is read in blocks of whole lines
    (:func:`_blocks`), and each block's lines, fields and columns
    are found with array operations (:func:`_block_rows`). A source is
    clean when its header names every mapped column, it has a data row,
    every block is UTF-8 text without a quote character, a lone ``\\r``
    or NUL, no line is longer than ``csv.field_size_limit()`` bytes,
    every case id and activity is non-empty once stripped, every
    timestamp reads as ISO-8601 in the years 1 to 9999, and no two
    distinct fields of a block share a hash. On a clean source the csv
    module would split every line at each delimiter, as here.
    """
    delimiter = mapping.delimiter
    if len(delimiter) != 1 or not delimiter.isascii() or delimiter in '"\r\n\0':
        return None
    limit = csv.field_size_limit()
    events = EventColumns()
    names = events.names  # stripped text -> code, per column
    positions = None
    try:
        with _open_binary(source) as stream:
            for block in _blocks(stream, b"\n"):
                if positions is None:
                    block = block.removeprefix(codecs.BOM_UTF8)
                data, starts, stops, delimiters = _block_rows(block, ord(delimiter), limit)
                if positions is None:
                    positions = _positions(block, starts, stops, delimiter, mapping)
                    starts, stops = starts[1:], stops[1:]
                fields = _fields(starts, stops, delimiters, positions, stops > starts)
                columns = [_code(block, data, *field, known) for field, known in zip(fields, names)]
                if "" in names[0] or "" in names[1]:
                    raise _Declined
                events.extend(*columns, _stamps(block, data, *fields[3]))
    except (_Declined, *_GZIP_ERRORS):
        return None
    return events or None


def _blocks(stream: BinaryIO, end: bytes) -> Iterator[bytes]:
    """The stream's bytes in blocks that end with ``end``: each read of
    ``_BLOCK`` bytes up to its last ``end``, after the rest of the reads
    before it. Only the last block may lack a final ``end``."""
    rest: list[bytes] = []
    tail = b""  # the last bytes before this read, where an ``end`` may begin
    while chunk := stream.read(_BLOCK):
        joined = tail + chunk
        cut = joined.rfind(end)
        if cut >= 0:
            cut += len(end) - len(tail)
            yield b"".join([*rest, chunk[:cut]])
            rest = []
        rest.append(chunk[max(cut, 0) :])
        tail = joined[len(joined) + 1 - len(end) :]
    if last := b"".join(rest):
        yield last


def _block_rows(block: bytes, delimiter: int, limit: int):
    """A clean block's bytes (zero-padded by ``_WIDE``), the start and
    stop of every line (before its ``\\r\\n`` or ``\\n``) and the positions
    of every delimiter, ending with the block's length; declined when not clean."""
    lone_cr = b"\r" in block and block.count(b"\r") != block.count(b"\r\n")
    if b'"' in block or b"\0" in block or lone_cr:
        raise _Declined
    if not block.isascii():
        try:
            block.decode("utf-8")
        except UnicodeDecodeError:
            raise _Declined from None
    data = np.frombuffer(block + bytes(_WIDE), dtype=np.uint8)
    body = data[: len(block)]
    ends = np.flatnonzero(body == 10)
    if not block.endswith(b"\n"):
        ends = np.append(ends, len(block))
    starts = np.concatenate(([0], ends[:-1] + 1))
    stops = ends - ((ends > starts) & (data[ends - 1] == 13))
    if (stops - starts).max() > limit:
        raise _Declined
    delimiters = np.append(np.flatnonzero(body == delimiter), len(block))
    return data, starts, stops, delimiters


def _positions(block: bytes, starts, stops, delimiter: str, mapping: CsvMapping):
    """The header's column index of each mapped column (a repeated name:
    the last wins); declined when the first line lacks one."""
    header = block[starts[0] : stops[0]].decode().split(delimiter)
    index = {name: i for i, name in enumerate(header)}
    wanted = (mapping.case, mapping.activity, mapping.resource, mapping.timestamp)
    if stops[0] == starts[0] or any(col not in index for col in wanted):
        raise _Declined
    return [index[col] for col in wanted]


def _fields(starts, stops, delimiters, positions: list[int], filled):
    """Byte ranges ``(lo, hi)`` of each mapped field of the non-blank lines;
    a field past the end of a short line is empty."""
    starts, stops = starts[filled], stops[filled]
    first = np.searchsorted(delimiters, starts)
    count = np.searchsorted(delimiters, stops) - first  # the line's delimiters
    last = len(delimiters) - 1
    fields = []
    for k in positions:
        lo = starts if k == 0 else delimiters[np.minimum(first + k - 1, last)] + 1
        hi = np.where(count > k, delimiters[np.minimum(first + k, last)], stops)
        present = count >= k
        fields.append((np.where(present, lo, 0), np.where(present, hi, 0)))
    return fields


def _stripped(field: bytes) -> str:
    """A CSV field's text: decoded and stripped."""
    return field.decode().strip()


def _code(block: bytes, data, lo, hi, known: dict[str, int], text=_stripped) -> np.ndarray:
    """Each field's code in ``known``, keyed by ``text(field bytes)``; new
    texts are added. A field of at most ``_WIDE`` bytes is read once per
    distinct value in the block, a wider one once per row. Declined when
    two distinct fields share a hash."""
    lengths = hi - lo
    codes = np.empty(len(lo), dtype=np.int64)
    narrow = np.flatnonzero(lengths <= _WIDE)
    if narrow.size:
        width = max(8, -(-int(lengths[narrow].max()) // 8) * 8)
        matrix = sliding_window_view(data, width)[lo[narrow]]
        matrix *= np.arange(width) < lengths[narrow, None]
        first, inverse = _distinct(matrix)
        texts = (block[a:b] for a, b in zip(lo[narrow][first].tolist(), hi[narrow][first].tolist()))
        lut = np.array([known.setdefault(text(t), len(known)) for t in texts])
        codes[narrow] = lut[inverse]
    for i in np.flatnonzero(lengths > _WIDE).tolist():
        codes[i] = known.setdefault(text(block[lo[i] : hi[i]]), len(known))
    return codes


def _distinct(matrix: np.ndarray):
    """One row index per distinct row of a zero-padded byte matrix, and
    each row's index into those; declined when two distinct rows share a hash."""
    words = matrix.view(np.uint64)
    key = np.zeros(len(words), dtype=np.uint64)
    for column in words.T:
        key ^= column
        key *= _MIX
        key ^= key >> np.uint64(29)
    _, first, inverse = np.unique(key, return_index=True, return_inverse=True)
    if not np.array_equal(words[first[inverse]], words):
        raise _Declined
    return first, inverse


def _stamps(block: bytes, data, lo, hi, text=_stripped) -> np.ndarray:
    """UTC epoch microseconds of each timestamp field; declined when one
    does not read as ISO-8601 in the years 1 to 9999. A field outside the
    strict layout is read from ``text(field bytes)``."""
    us, ok = decode_timestamp_fields(data, lo, hi - lo)
    rest = np.flatnonzero(~ok)
    if rest.size:
        texts = [text(block[a:b]) for a, b in zip(lo[rest].tolist(), hi[rest].tolist())]
        us[rest], ok = decode_timestamps(texts)
        try:
            for i in np.flatnonzero(~ok).tolist():
                us[rest[i]] = epoch_us(_iso(texts[i]))
        except ValueError:
            raise _Declined from None
    return us
