from __future__ import annotations

import gzip
import io
import re

import pytest

from resnap import (
    ConfigError,
    CsvMapping,
    EmptyLogError,
    ParseError,
    ValidationError,
    parse_csv,
    parse_xes,
)

from conftest import xes_bytes, xes_event

MAPPING = CsvMapping(
    case="case",
    activity="activity",
    resource="resource",
    timestamp="when",
    timestamp_format="%Y-%m-%d %H:%M:%S",
)


def csv_bytes(rows, header="case,activity,resource,when"):
    return ("\n".join([header] + rows) + "\n").encode()


# --- XES ---------------------------------------------------------------


def test_parse_xes_minimal_document():
    doc = xes_bytes([("case1", [xes_event("A", "r1"), xes_event("B", "r1")])])
    log = parse_xes(doc)
    assert len(log.events) == 2
    assert log.activity_alphabet == {"A", "B"}
    assert log.resource_set == {"r1"}
    assert log.case_set == {"case1"}


def test_parse_xes_drops_events_without_resource():
    doc = xes_bytes(
        [
            (
                "case1",
                [
                    xes_event("A", "r1"),
                    xes_event("B", None),
                    xes_event("C", "r2"),
                ],
            )
        ]
    )
    log = parse_xes(doc)
    assert len(log.events) == 2
    assert log.dropped_event_count == 1


def test_parse_xes_zero_traces_is_empty_log():
    with pytest.raises(EmptyLogError):
        parse_xes(b"<?xml version='1.0'?><log></log>")


def test_parse_xes_missing_timestamp_names_trace():
    doc = xes_bytes(
        [("trace-7", [{"concept:name": "A", "org:resource": "r1"}])]
    )
    with pytest.raises(ValidationError, match="trace-7"):
        parse_xes(doc)


def test_parse_xes_missing_activity_names_trace():
    doc = xes_bytes([("trace-9", [{"org:resource": "r1", "time:timestamp": "2024-03-01T12:00:00+00:00"}])])
    with pytest.raises(ValidationError, match="trace-9"):
        parse_xes(doc)


def test_parse_xes_malformed_xml_reports_position():
    with pytest.raises(ParseError, match=r"line \d+"):
        parse_xes(b"<log><trace></log>")


def test_parse_xes_handles_namespace_and_gzip():
    doc = xes_bytes([("c", [xes_event("A", "r1")])], declare_ns=True)
    log = parse_xes(gzip.compress(doc))
    assert len(log.events) == 1


def test_parse_xes_file_order_follows_document_order(tmp_path):
    doc = xes_bytes(
        [
            ("c1", [xes_event("A", "r1"), xes_event("B", "r1")]),
            ("c2", [xes_event("C", "r2")]),
        ]
    )
    path = tmp_path / "log.xes"
    path.write_bytes(doc)
    log = parse_xes(path)
    assert [ev.file_order for ev in log.events] == [0, 1, 2]
    assert [ev.activity for ev in log.events] == ["A", "B", "C"]


def test_parse_xes_normalises_timestamps_to_utc():
    doc = xes_bytes([("c", [xes_event("A", "r1", stamp="2024-03-01T14:00:00.000+02:00")])])
    log = parse_xes(doc)
    ev = log.events[0]
    assert ev.timestamp.utcoffset().total_seconds() == 0
    assert ev.timestamp.hour == 12


# the UTC instant of each lies just outside the years 1 to 9999
OUT_OF_RANGE = ["0001-01-01T00:30:00+01:00", "9999-12-31T23:30:00-01:00"]


@pytest.mark.parametrize("stamp", OUT_OF_RANGE)
def test_parse_xes_rejects_instants_outside_datetime_range(stamp):
    doc = xes_bytes([("c9", [xes_event("A", "r1", stamp=stamp)])])
    with pytest.raises(ValidationError, match=r"in trace 'c9'.*years 1 to 9999"):
        parse_xes(doc)


def test_parse_xes_keeps_the_extreme_instants_inside_datetime_range():
    doc = xes_bytes([("c", [xes_event("A", "r1", stamp="0001-01-01T00:30:00+00:30"),
                            xes_event("B", "r1", stamp="9999-12-31T23:30:00+00:00")])])
    assert [ev.timestamp.year for ev in parse_xes(doc).events] == [1, 9999]


def test_parse_xes_reparse_is_identical():
    doc = xes_bytes(
        [("c1", [xes_event("A", "r1"), xes_event("B", "r2")]), ("c2", [xes_event("A", "r1")])]
    )
    assert parse_xes(doc) == parse_xes(doc)


# --- CSV ---------------------------------------------------------------


def test_parse_csv_three_valid_rows():
    data = csv_bytes(
        [
            "c1,A,r1,2024-03-01 10:00:00",
            "c1,B,r1,2024-03-01 10:01:00",
            "c2,A,r2,2024-03-01 10:02:00",
        ]
    )
    log = parse_csv(data, MAPPING)
    assert len(log.events) == 3
    assert log.dropped_event_count == 0


def test_parse_csv_timestamp_mismatch_names_row():
    data = csv_bytes(
        [
            "c1,A,r1,2024-03-01 10:00:00",
            "c1,B,r1,01/03/2024",
        ]
    )
    with pytest.raises(ValidationError, match="row 2"):
        parse_csv(data, MAPPING)


@pytest.mark.parametrize("stamp", OUT_OF_RANGE)
@pytest.mark.parametrize("timestamp_format", [None, "%Y-%m-%dT%H:%M:%S%z"])
def test_parse_csv_rejects_instants_outside_datetime_range(stamp, timestamp_format):
    mapping = CsvMapping(
        case="case", activity="activity", resource="resource", timestamp="when",
        timestamp_format=timestamp_format,
    )
    data = csv_bytes(["c1,A,r1,2024-03-01T10:00:00+00:00", f"c1,B,r1,{stamp}"])
    with pytest.raises(ValidationError, match=r"in row 2.*years 1 to 9999"):
        parse_csv(data, mapping)


def test_parse_csv_duplicate_rows_get_distinct_file_order():
    data = csv_bytes(
        [
            "c1,A,r1,2024-03-01 10:00:00",
            "c1,A,r1,2024-03-01 10:00:00",
        ]
    )
    log = parse_csv(data, MAPPING)
    assert len(log.events) == 2
    assert log.events[0].file_order != log.events[1].file_order


def test_parse_csv_missing_mapped_column_is_config_error():
    data = csv_bytes(["c1,A,2024-03-01 10:00:00"], header="case,activity,when")
    with pytest.raises(ConfigError, match="resource"):
        parse_csv(data, MAPPING)


def test_parse_csv_empty_resource_is_dropped():
    data = csv_bytes(
        [
            "c1,A,r1,2024-03-01 10:00:00",
            "c1,B,,2024-03-01 10:01:00",
        ]
    )
    log = parse_csv(data, MAPPING)
    assert len(log.events) == 1
    assert log.dropped_event_count == 1


def test_parse_csv_no_data_rows_is_empty_log():
    with pytest.raises(EmptyLogError):
        parse_csv(csv_bytes([]), MAPPING)


def test_parse_csv_iso_timestamps_by_default():
    mapping = CsvMapping(case="case", activity="activity", resource="resource", timestamp="when")
    data = csv_bytes(["c1,A,r1,2024-03-01T10:00:00Z"])
    log = parse_csv(data, mapping)
    assert log.events[0].timestamp.utcoffset().total_seconds() == 0


def test_parse_csv_gzip_detected_by_magic_bytes():
    data = gzip.compress(csv_bytes(["c1,A,r1,2024-03-01 10:00:00"]))
    log = parse_csv(data, MAPPING)
    assert len(log.events) == 1


# --- unreadable bytes ----------------------------------------------------------

GOOD_ROW = "c1,A,r1,2024-03-01 10:00:00"


def latin1(data: bytes) -> bytes:
    """``data`` with every character below 256 as one byte: "\xff" becomes 0xff."""
    return data.decode("utf-8").encode("latin-1")


def test_parse_csv_bytes_that_are_not_utf8_name_the_file_and_row(tmp_path):
    data = csv_bytes([GOOD_ROW, GOOD_ROW]).replace(b"c1,A", b"c1,A\xff", 1)
    with pytest.raises(ParseError, match=r"^input: row 1 is not UTF-8 text$"):
        parse_csv(data, MAPPING)
    path = tmp_path / "log.csv"
    path.write_bytes(gzip.compress(data))
    with pytest.raises(ParseError, match=rf"^{re.escape(str(path))}: row 1 is not UTF-8"):
        parse_csv(path, MAPPING)


@pytest.mark.parametrize(
    "rows, error, message",
    [
        ([GOOD_ROW, "c1,B,r1,01/03/2024", "c1,\xff,r1,2024-03-01 10:00:02"], ValidationError, "row 2"),
        ([GOOD_ROW, "c1,\xff,r1,01/03/2024", GOOD_ROW], ParseError, "row 2 is not UTF-8"),
        ([GOOD_ROW, "c1,B\xff,r1,2024-03-01 10:00:01", "c1,,r1,2024-03-01 10:00:02"], ParseError, "row 2"),
        (["c1,,r1,2024-03-01 10:00:01", "c1,B\xff,r1,2024-03-01 10:00:02"], ValidationError, "row 1"),
        (["", "c1,A,r1,x,\xff", GOOD_ROW], ParseError, "row 1 is not UTF-8"),
        ([GOOD_ROW, 'c1,"B\nB\xff",r1,2024-03-01 10:00:01', GOOD_ROW], ParseError,
         "^input: row 2 is not UTF-8 text$"),
    ],
    ids=["timestamp first", "same row", "byte first", "empty activity first", "unmapped column",
         "second line of a row"],
)
def test_parse_csv_first_error_in_file_order_wins_over_undecodable_bytes(rows, error, message):
    data = latin1(csv_bytes(rows))
    with pytest.raises(error, match=message):
        parse_csv(data, MAPPING)


def test_parse_csv_undecodable_header_and_stream():
    data = latin1(csv_bytes([GOOD_ROW], header="case,activity,resource,when\xff"))
    with pytest.raises(ParseError, match="^input: the header row is not UTF-8 text$"):
        parse_csv(data, MAPPING)
    # a stream's error names its row, as a path's does
    data = latin1(csv_bytes([GOOD_ROW, "c1,\xff,r1,2024-03-01 10:00:01"]))
    with pytest.raises(ParseError, match="^input: row 2 is not UTF-8 text$"):
        parse_csv(io.BytesIO(data), MAPPING)


def test_parse_csv_field_over_the_size_limit_names_its_row():
    data = csv_bytes([GOOD_ROW, f"c1,{'A' * 140_000},r1,2024-03-01 10:00:01"])
    with pytest.raises(ParseError, match=r"unreadable CSV in row 2 \(field larger than field limit"):
        parse_csv(data, MAPPING)


def _truncated_and_corrupt(body: bytes):
    packed = gzip.compress(body)
    yield packed[:200]  # ends before the end-of-stream marker
    flipped = bytearray(packed)
    flipped[len(packed) // 2] ^= 0xFF
    yield bytes(flipped)  # a bad deflate block or a CRC that does not match
    yield packed[:-4] + b"\x00\x00\x00\x00"  # a wrong length in the trailer


def test_parse_csv_truncated_or_corrupt_gzip_is_a_parse_error(tmp_path):
    body = csv_bytes([f"c{i},A,r1,2024-03-01 10:00:{i % 60:02d}" for i in range(400)])
    for data in _truncated_and_corrupt(body):
        path = tmp_path / "log.csv.gz"
        path.write_bytes(data)
        with pytest.raises(ParseError, match=rf"^{re.escape(str(path))}: truncated or corrupt gzip"):
            parse_csv(path, MAPPING)


def test_parse_xes_truncated_or_corrupt_gzip_is_a_parse_error(tmp_path):
    body = xes_bytes([(f"case{i}", [xes_event("A", "r1"), xes_event("B", "r2")]) for i in range(60)])
    for data in _truncated_and_corrupt(body):
        path = tmp_path / "log.xes.gz"
        path.write_bytes(data)
        with pytest.raises(ParseError, match=rf"^{re.escape(str(path))}: truncated or corrupt gzip"):
            parse_xes(path)


@pytest.mark.parametrize(
    "encoding, reason",
    [("TF-8", "unknown encoding: TF-8"), ("utf-32", "multi-byte encodings are not supported")],
)
def test_parse_xes_declared_encoding_it_cannot_decode_is_a_parse_error(tmp_path, encoding, reason):
    body = xes_bytes([("case1", [xes_event("A", "r1")])])
    path = tmp_path / "log.xes"
    path.write_bytes(body.replace(b"encoding='UTF-8'", f"encoding='{encoding}'".encode(), 1))
    with pytest.raises(ParseError, match=rf"^{re.escape(str(path))}: unreadable XML encoding \({reason}\)$"):
        parse_xes(path)
