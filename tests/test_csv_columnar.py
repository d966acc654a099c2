"""The columnar CSV path against the csv-module reader and the reference reader.

``parse_csv`` reads a clean path or bytes source with array operations
and sends every other input through the csv module from the start. A
spy on the csv-module reader shows which path ran; both must give the
log, or the error, that ``tests/oracles.reference_parse_csv`` gives.
"""
from __future__ import annotations

import csv
import gzip
import io
import re
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from resnap import ConfigError, CsvMapping, ParseError, ValidationError, parse_csv, parsers

from oracles import reference_parse_csv
from test_ingestion import ACTIVITIES, INSTANTS, ISO, RESOURCES, _assert_same, _assert_same_csv

HEADER = "case,act,who,when"
# strict layouts, and others every supported Python reads (3.10 reads fractions of 3 or 6 digits)
STAMPS = ["2024-03-01T12:00:00Z", "2024-03-01T12:00:00", "2024-03-01T13:00:00+01:00",
          "2024-03-01 12:00:00.500", "2024-03-01T12:00:01.123456+05:30", " 2024-03-01T12:00:02 ",
          "2024-03-01T12:00", "2024-03-01"]
CLEAN = "\n".join([HEADER] + [
    f"c{i % 7},{ACTIVITIES[i % 5]},{RESOURCES[i % 4]},{STAMPS[i % len(STAMPS)]}" for i in range(300)
]).encode() + b"\n"


@pytest.fixture
def reader_calls(monkeypatch) -> list:
    """Each call of the csv-module reader, as its (source, mapping) arguments."""
    calls = []
    read_csv = parsers._read_csv

    def spy(source, mapping):
        calls.append((source, mapping))
        return read_csv(source, mapping)

    monkeypatch.setattr(parsers, "_read_csv", spy)
    return calls


def test_a_clean_csv_never_reaches_the_csv_module(reader_calls, tmp_path):
    path = tmp_path / "log.csv.gz"
    path.write_bytes(gzip.compress(CLEAN))
    _assert_same_csv(CLEAN, ISO)
    for source in (bytearray(CLEAN), path, str(path)):
        assert parse_csv(source, ISO) == parse_csv(CLEAN, ISO)
    assert reader_calls == []


def _doc(*rows: str, header: str = HEADER) -> bytes:
    return ("\n".join([header, *rows]) + "\n").encode()


GOOD = "c1,A,r1,2024-03-01T12:00:00Z"
# each input leaves the columnar path at its first block
FALLBACKS = {
    "quote": _doc(GOOD, 'c2,"B,x",r2,2024-03-01T12:00:01Z'),
    "quote inside a field": _doc(GOOD, 'c2,B"x,r2,2024-03-01T12:00:01Z'),
    "lone CR": _doc(GOOD).replace(b"\n", b"\r"),
    "lone CR inside a line": _doc(GOOD, "c2,B\rx,r2,2024-03-01T12:00:01Z"),
    "empty case id": _doc(GOOD, " ,B,r2,2024-03-01T12:00:01Z"),
    "empty activity": _doc(GOOD, "c2,  ,r2,2024-03-01T12:00:01Z"),
    "short row without activity": _doc(GOOD, "c2"),
    "unreadable timestamp": _doc(GOOD, "c2,B,r2,2024-02-30T00:00:00"),
    "missing column": _doc(GOOD, header="case,act,when"),
    "blank header": b"\n" + _doc(GOOD),
    "no data rows": _doc("", ""),
    "empty input": b"",
    "truncated gzip": gzip.compress(_doc(*[GOOD] * 50))[:60],
}
NUL = pytest.param(
    _doc(GOOD, "c2,B\0,r2,2024-03-01T12:00:01Z"),
    marks=pytest.mark.skipif(sys.version_info < (3, 11), reason="csv reads NUL from 3.11"),
    id="NUL",
)


@pytest.mark.parametrize(
    "doc", [*(pytest.param(doc, id=name) for name, doc in FALLBACKS.items()), NUL]
)
def test_each_fallback_reaches_the_csv_module_and_matches_reference(reader_calls, doc):
    if doc.startswith(b"\x1f\x8b"):  # the reference reader does not name gzip errors
        with pytest.raises(ParseError, match=r"^input: truncated or corrupt gzip data in "):
            parse_csv(doc, ISO)
    else:
        _assert_same_csv(doc, ISO)
    assert len(reader_calls) >= 1


def test_a_timestamp_format_or_a_stream_goes_to_the_csv_module(reader_calls):
    doc = _doc(GOOD, "c2,B,r2,2024-03-01T12:00:01Z")
    stream = io.BytesIO(doc)
    assert parse_csv(stream, ISO) == parse_csv(doc, ISO)
    strptime = CsvMapping(**{**vars(ISO), "timestamp_format": "%Y-%m-%dT%H:%M:%SZ"})
    _assert_same_csv(doc, strptime)
    assert parse_csv(doc, strptime) == parse_csv(doc, ISO)
    assert [(source, mapping) for source, mapping in reader_calls] == [
        (stream, ISO), (doc, strptime), (doc, strptime)
    ]


def test_bytes_that_are_not_utf8_reach_the_csv_module(reader_calls):
    doc = _doc(GOOD, "c2,B\xff,r2,2024-03-01T12:00:01Z").decode().encode("latin-1")
    with pytest.raises(ParseError, match=r"^input: row 2 is not UTF-8 text$"):
        parse_csv(doc, ISO)
    assert reader_calls


def test_a_path_with_bytes_that_are_not_utf8_is_read_once_by_the_csv_module(
    reader_calls, monkeypatch, tmp_path
):
    """The columnar path opens the file and declines it; the csv module
    then opens it once more and names the row, with no second pass."""
    rows = [GOOD] * 5 + ["c2,B\xff,r2,2024-03-01T12:00:01Z"] + [GOOD] * 5
    path = tmp_path / "log.csv"
    path.write_bytes(_doc(*rows).decode().encode("latin-1"))
    opened = []
    open_binary = parsers._open_binary

    def spy(source):
        opened.append(source)
        return open_binary(source)

    monkeypatch.setattr(parsers, "_open_binary", spy)
    with pytest.raises(ParseError, match=rf"^{re.escape(str(path))}: row 6 is not UTF-8 text$"):
        parse_csv(path, ISO)
    assert reader_calls == [(path, ISO)]
    assert opened == [path, path]


def test_a_line_over_the_field_size_limit_reaches_the_csv_module(reader_calls):
    """A line longer than the limit leaves the columnar path; the csv
    module then reads it when no field is over the limit, as here."""
    doc = _doc(GOOD, "c2,B,r2,2024-03-01T12:00:01Z," + ",".join(["x" * 30] * 3))
    old = csv.field_size_limit(40)
    try:
        _assert_same_csv(doc, ISO)
        with pytest.raises(ParseError, match=r"^input: unreadable CSV in row 1 \(field larger"):
            parse_csv(_doc("c1," + "A" * 41 + ",r1,2024-03-01T12:00:00Z"), ISO)
    finally:
        csv.field_size_limit(old)
    assert len(reader_calls) == 2


def test_a_hash_shared_by_two_fields_reaches_the_csv_module(reader_calls, monkeypatch):
    monkeypatch.setattr(parsers, "_MIX", np.uint64(0))  # every field hashes to 0
    _assert_same_csv(CLEAN, ISO)
    assert reader_calls


def test_fields_wider_than_a_matrix_row_stay_columnar(reader_calls):
    wide = "Ä" * parsers._WIDE  # two bytes each
    doc = _doc(GOOD, f"c2,{wide},r2,2024-03-01T12:00:01Z", f"c3, {wide} ,r{wide},2024-03-01")
    _assert_same_csv(doc, ISO)
    assert reader_calls == []


# a header with a repeated name (the last wins) and rows that fall across block boundaries:
# CRLF, blank lines, a short row lacking only the resource, multi-byte UTF-8 and padding
BOUNDARIES = "\ufeff" + "\r\n".join([
    "who,case,act,when,extra,who",
    "x,c1,A,2024-03-01T12:00:00Z,e,r1",
    "",
    "x, cé ,Ä€,2024-03-01T13:00:00+01:00,éé,r2",
    "x,c2,B, 2024-03-01T12:00:01.500 ,e",
    "",
    "",
    "x,c\U0001F600,C,2024-03-01 12:00:02.123456,, r3 ",
    "x,c2,Ä€,2024-03-01T12:00:03,e,r1",
]) + "\r\n"


@pytest.mark.parametrize("block", [1, 2, 3, 5, 8, 13, 21, 64])
def test_rows_across_block_boundaries_read_as_one_block(reader_calls, block):
    doc = BOUNDARIES.encode()
    whole = parse_csv(doc, ISO)
    with mock.patch.object(parsers, "_BLOCK", block):
        assert parse_csv(doc, ISO) == whole
        assert parse_csv(gzip.compress(doc), ISO) == whole
        assert parse_csv(doc.rstrip(b"\r\n"), ISO) == whole  # no final newline
        _assert_same_csv(doc, ISO)
    assert reader_calls == []
    assert whole.n_events == 4 and whole.dropped_event_count == 1


# --- data errors name the file, also those that leave the columnar path -------


@pytest.mark.parametrize(
    "rows, header, error, message",
    [
        ([GOOD, "c1,A,r1,noon"], HEADER, ValidationError,
         "timestamp 'noon' does not match the expected format in row 2"),
        ([" ,A,r1,2024-03-01T12:00:00"], HEADER, ValidationError, "empty case id in row 1"),
        (["", GOOD, "c1,,r1,2024-03-01T12:00:00"], HEADER, ValidationError,
         "empty activity in row 2"),
        ([GOOD], "case,act,when", ConfigError, "CSV header is missing mapped columns: who"),
    ],
    ids=["timestamp", "case id", "activity", "header"],
)
def test_csv_data_errors_start_with_the_file_name(
    reader_calls, tmp_path, rows, header, error, message
):
    doc = _doc(*rows, header=header)
    path = tmp_path / "log.csv"
    path.write_bytes(doc)
    sources = ((path, str(path)), (doc, "input"), (io.BytesIO(doc), "input"))
    for source, name in sources:
        with pytest.raises(error, match=f"^{re.escape(f'{name}: {message}')}"):
            parse_csv(source, ISO)
    assert [source for source, _ in reader_calls] == [source for source, _ in sources]


@pytest.mark.parametrize("stamp", ["0001-01-01T00:30:00+01:00", "9999-12-31T23:30:00-01:00"])
def test_an_instant_outside_the_years_1_to_9999_matches_reference(reader_calls, tmp_path, stamp):
    doc = _doc(GOOD, f"c1,A,r1,{stamp}")
    path = tmp_path / "log.csv"
    path.write_bytes(doc)
    for source in (doc, path):
        _assert_same(source, source, lambda s: parse_csv(s, ISO),
                     lambda s: reference_parse_csv(s, ISO))
    message = f"{path}: timestamp '{stamp}' in row 2: "
    with pytest.raises(ValidationError, match="^" + re.escape(message)):
        parse_csv(path, ISO)
    assert len(reader_calls) == 3


# --- generated documents ------------------------------------------------------

CELLS = {
    "case": st.sampled_from(["c1", " c2 ", "cé", " c3", "c 4", "c5 "]),
    "act": st.sampled_from(ACTIVITIES + ["Ä€", " A ", "a" * 70]),
    "who": st.sampled_from(["r1", "r2", "R10", "", "  ", "r\U0001F600", " "]),
    "when": st.sampled_from([s for spellings in INSTANTS for s in spellings]
                            + [" 2024-03-01T12:00:00 ", "2024-03-01T12:00", "2024-03-01"]),
    "extra": st.sampled_from(["", "e", "éé", "x y"]),
}
# each is drawn rarely: the csv-module path must give the same result
RARE = st.sampled_from(['"', "\r", "", " ", "noon", "2024-02-30T00:00:00", "\ufeff",
                        "0001-01-01T00:30:00+01:00"])


@st.composite
def csv_documents(draw) -> tuple[bytes, CsvMapping]:
    delimiter = draw(st.sampled_from([",", ";", "\t", "|"]))
    columns = draw(st.permutations(list(CELLS)))
    if draw(st.integers(0, 4)) == 0:
        columns = [draw(st.sampled_from(list(CELLS)))] + columns  # a repeated name
    lines = [delimiter.join(columns)]
    for _ in range(draw(st.integers(0, 12))):
        row = [draw(CELLS[name]) for name in columns]
        if draw(st.integers(0, 9)) == 0:
            row[draw(st.integers(0, len(row) - 1))] = draw(RARE)
        if draw(st.integers(0, 9)) == 0:
            row = row[: draw(st.integers(1, len(row)))]  # a short row
        lines.append(delimiter.join(row))
        if draw(st.integers(0, 6)) == 0:
            lines.append("")
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    text = newline.join(lines) + draw(st.sampled_from([newline, ""]))
    if draw(st.booleans()):
        text = "\ufeff" + text
    mapping = CsvMapping(case="case", activity="act", resource="who", timestamp="when",
                         delimiter=delimiter)
    return text.encode(), mapping


@settings(max_examples=300, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(csv_documents(), st.sampled_from([1, 7, 64, parsers._BLOCK]))
def test_generated_csv_matches_reference(document, block):
    doc, mapping = document
    with mock.patch.object(parsers, "_BLOCK", block):
        _assert_same_csv(doc, mapping)
