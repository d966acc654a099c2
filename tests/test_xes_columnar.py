"""The columnar XES path against the expat reader and the reference reader.

``parse_xes`` reads a clean path or bytes source with array operations
and sends every other input through expat from the start. A spy on the
expat reader shows which path ran; both must give the log, or the
error, that ``tests/oracles.reference_parse_xes`` gives.
"""
from __future__ import annotations

import gzip
import io
import re
from unittest import mock
from xml.sax.saxutils import escape

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from resnap import ParseError, ValidationError, parse_xes, parsers

from oracles import reference_parse_xes
from test_ingestion import ACTIVITIES, INSTANTS, RESOURCES, OneWayStream, _assert_same, _outcome


@pytest.fixture
def expat_calls(monkeypatch) -> list:
    """Each source the expat reader was called with."""
    calls = []
    parse_xes_expat = parsers._parse_xes_expat

    def spy(source):
        calls.append(source)
        return parse_xes_expat(source)

    monkeypatch.setattr(parsers, "_parse_xes_expat", spy)
    return calls


# the expat reader itself, which the spy below does not see
EXPAT = parsers._parse_xes_expat


def _assert_same_xes(doc: bytes) -> None:
    """The reader, the expat path and the reference reader agree on ``doc``."""
    _assert_same(doc, doc, parse_xes, reference_parse_xes)
    assert _outcome(parse_xes, doc) == _outcome(EXPAT, doc)


def _escaped(value: str) -> str:
    """The value as an attribute in double quotes: ``&``, ``<``, ``>`` and ``"`` as entities."""
    return escape(value, {'"': "&quot;"})


def _attr(key: str, value: str, tag: str = "string") -> str:
    return f'<{tag} key="{key}" value="{_escaped(value)}"/>'


def _event(activity="A", resource="r1", stamp="2024-03-01T12:00:00Z", extra="") -> str:
    parts = [_attr("concept:name", activity)] if activity is not None else []
    if resource is not None:
        parts.append(_attr("org:resource", resource))
    if stamp is not None:
        parts.append(_attr("time:timestamp", stamp, "date"))
    return "<event>" + "".join(parts) + extra + "</event>"


def _trace(case: str | None, *events: str) -> str:
    name = _attr("concept:name", case) if case is not None else ""
    return "<trace>" + name + "".join(events) + "</trace>"


def _xes(*traces: str, head: str = "<?xml version='1.0' encoding='UTF-8'?>\n<log>",
         tail: str = "</log>\n") -> bytes:
    return (head + "\n".join(traces) + tail).encode()


# the banner OpenXES writes between the XML declaration and the root
OPENXES_BANNER = """<?xml version="1.0" encoding="UTF-8" ?>
<!-- This file has been generated with the OpenXES library. It conforms -->
<!-- to the XML serialization of the XES standard for log storage and -->
<!-- management. -->
<!-- XES standard version: 1.0 -->
<!-- OpenXES library version: 1.0RC7 -->
<!-- OpenXES is available from http://www.openxes.org/ -->
"""
# "O'Brien" written as it is and with an entity: one resource
APOSTROPHES = ('<event><string key="org:resource" value="O\'Brien"/>' + _attr("concept:name", "A")
               + _attr("time:timestamp", "2024-03-01T12:00:00", "date") + "</event>")
CLEAN = _xes(
    *(_trace(f"c{i % 7}", *(_event(ACTIVITIES[(i + j) % 5], RESOURCES[j % 4],
                                   INSTANTS[(i + j) % 5][j % 3]) for j in range(i % 4)))
      for i in range(60)),
    _trace("<c&\"'>", APOSTROPHES, APOSTROPHES.replace("O'Brien", "O&apos;Brien")),
    head=OPENXES_BANNER + '<log xes.version="1.0" xes.features="nested-attributes" '
    'openxes.version="1.0RC7" xmlns="http://www.xes-standard.org/">\n<extension name="Concept" '
    'prefix="concept" uri="http://www.xes-standard.org/concept.xesext"/>\n<global scope="event">'
    + _attr("concept:name", "__INVALID__") + "</global>\n",
)


def test_a_clean_xes_never_reaches_expat(expat_calls, tmp_path):
    path = tmp_path / "log.xes.gz"
    path.write_bytes(gzip.compress(CLEAN))
    whole = parse_xes(CLEAN)
    assert whole.n_events > 50
    assert "D & E" in whole.activity_alphabet and "O'Brien" in whole.resource_set
    assert "<c&\"'>" in whole.cases
    for source in (bytearray(CLEAN), path, str(path)):
        assert parse_xes(source) == whole
    assert expat_calls == []
    _assert_same_xes(CLEAN)


GOOD = _event()
# each input leaves the columnar path; the expat path gives the reference's log or error
FALLBACKS = {
    "comment": _xes(_trace("c1", GOOD), "<!-- a comment -->"),
    "CDATA": _xes(_trace("c1", GOOD.replace("</event>", "<list key='x'><![CDATA[y]]></list>"
                                                        "</event>"))),
    "DOCTYPE": b"<?xml version='1.0'?>\n<!DOCTYPE log>" + _xes(_trace("c1", GOOD), head="<log>"),
    "processing instruction": _xes(_trace("c1", GOOD), head="<?xml version='1.0'?><?pi x?><log>"),
    "declaration not first": b" " + _xes(_trace("c1", GOOD)),
    "version 1.1": _xes(_trace("c1", GOOD), head="<?xml version='1.1'?><log>"),
    "form feed in the declaration": _xes(_trace("c1", GOOD), head="<?xml\fversion='1.0'?><log>"),
    "stylesheet": _xes(_trace("c1", GOOD), head="<?xml-stylesheet href='x'?><log>"),
    "declared Latin-1": _xes(_trace("c1", GOOD),
                             head="<?xml version='1.0' encoding='ISO-8859-1'?><log>"),
    "Latin-1 bytes": _xes(_trace("c1", GOOD.replace("r1", "r\xe9"))).decode().encode("latin-1"),
    "prefixed element": _xes(_trace("c1", GOOD).replace("trace>", "x:trace>"),
                             head="<log xmlns:x='http://www.xes-standard.org/'>"),
    "prefixed attribute": _xes(_trace("c1", GOOD), head="<log xml:lang='en'>"),
    "unknown element": _xes(_trace("c1", GOOD.replace("<event>", "<event><meta/>"))),
    "extra attribute": _xes(_trace("c1", GOOD.replace('value="r1"', 'value="r1" type="x"'))),
    "value before key": _xes(_trace("c1", GOOD.replace('key="org:resource" value="r1"',
                                                       'value="r1" key="org:resource"'))),
    "single quotes": _xes(_trace("c1", GOOD.replace('"r1"', "'r1'"))),
    "single quotes only": _xes(_trace("c1", GOOD)).replace(b'"', b"'"),
    "two spaces": _xes(_trace("c1", GOOD.replace('string key="org:resource"',
                                                 'string  key="org:resource"'))),
    "character reference": _xes(_trace("c1", GOOD.replace("r1", "r&#9;1"))),
    "undefined entity": _xes(_trace("c1", GOOD.replace("r1", "r&nbsp;1"))),
    "bare ampersand": _xes(_trace("c1", GOOD.replace("r1", "r & 1"))),
    "entity outside a value": _xes(_trace("c1", GOOD.replace('"r1"', '"r1" &amp;'))),
    "comment after the root element opens": _xes(_trace("c1", GOOD), head="<log><!-- x -->"),
    "comment after the root": _xes(_trace("c1", GOOD), tail="</log><!-- x -->"),
    "comment before the declaration": b"<!-- x -->" + _xes(_trace("c1", GOOD)),
    "two hyphens in a comment": _xes(_trace("c1", GOOD), head="<!-- a -- b --><log>"),
    "comment ending with three hyphens": _xes(_trace("c1", GOOD), head="<!-- a ---><log>"),
    "unclosed comment": _xes(_trace("c1", GOOD), head="<!-- a <log>"),
    "control byte in a comment": _xes(_trace("c1", GOOD), head="<!-- \x01 --><log>"),
    "Latin-1 byte in a comment": b"<!-- \xe9 -->" + _xes(_trace("c1", GOOD), head="<log>"),
    "greater-than in a value": _xes(_trace("c1", GOOD.replace("r1", "r>1"))),
    "text between tags": _xes(_trace("c1", GOOD), head="<log>text"),
    "control byte": _xes(_trace("c1", GOOD.replace("r1", "r\x01"))),
    "U+FFFF": _xes(_trace("c1", GOOD.replace("r1", "r￿"))),
    "trace not under the root": _xes("<list key='l'>" + _trace("c1", GOOD) + "</list>"),
    "event under the root": _xes(_trace("c1", GOOD), GOOD),
    "event under an event": _xes(_trace("c1", GOOD.replace("</event>", GOOD + "</event>"))),
    "root other than log": _xes(_trace("c1", GOOD), head="<trace>", tail="</trace>"),
    "two roots": _xes(_trace("c1", GOOD), tail="</log><log/>"),
    "close before the root": _xes(_trace("c1", GOOD), head="</log><log>"),
    "event under a log attribute": _xes(_trace("c1", GOOD),
                                        head='<log><string key="a" value="b">' + GOOD + "</string>"),
    "bad nesting": _xes(_trace("c1", GOOD).replace("</event>", "</trace>", 1)),
    "unclosed root": _xes(_trace("c1", GOOD), tail=""),
    "truncated": _xes(_trace("c1", GOOD))[:-20],
    "truncated gzip": gzip.compress(_xes(*[_trace(f"c{i}", GOOD) for i in range(50)]))[:80],
    "duplicate attribute": _xes(_trace("c1", GOOD), head="<log a='1' a='2'>"),
    "xmlns bound to the XML namespace": _xes(
        _trace("c1", GOOD), head="<log xmlns='http://www.w3.org/XML/1998/namespace'>"),
    "missing activity": _xes(_trace("c1", _event(activity=None))),
    "empty activity": _xes(_trace("c1", _event(activity=""))),
    "missing timestamp": _xes(_trace("c1", GOOD, _event(stamp=None))),
    "unreadable timestamp": _xes(_trace("c1", _event(stamp="2024-02-30T00:00:00"))),
    "instant before the year 1": _xes(_trace("c9", _event(stamp="0001-01-01T00:30:00+01:00"))),
    "instant after the year 9999": _xes(_trace("c9", _event(stamp="9999-12-31T23:30:00-01:00"))),
    "no traces": _xes(),
    "no events": _xes(_trace("c1")),
    "empty document": b"",
}


@pytest.mark.parametrize("doc", [pytest.param(doc, id=name) for name, doc in FALLBACKS.items()])
def test_each_fallback_reaches_expat_and_matches_reference(expat_calls, doc):
    if doc.startswith(b"\x1f\x8b"):  # the reference reader does not name gzip errors
        with pytest.raises(ParseError, match=r"^input: truncated or corrupt gzip data "):
            parse_xes(doc)
    else:
        _assert_same_xes(doc)
    assert len(expat_calls) >= 1


def test_a_hash_shared_by_two_values_reaches_expat(expat_calls, monkeypatch):
    monkeypatch.setattr(parsers, "_MIX", np.uint64(0))  # every value hashes to 0
    _assert_same_xes(CLEAN)
    assert expat_calls


def test_a_stream_goes_to_expat(expat_calls):
    streams = [OneWayStream(CLEAN), io.BytesIO(CLEAN)]
    for stream in streams:
        assert parse_xes(stream) == parse_xes(CLEAN)
    assert expat_calls == streams


# each document stays on the columnar path and reads as expat reads it
COLUMNAR = {
    "OpenXES banner": _xes(_trace("c1", GOOD), head=OPENXES_BANNER + "<log>"),
    "comments without a declaration": _xes(_trace("c1", GOOD), head="\ufeff<!----><!-- a-b -->"
                                           "\r\n<!-- <log> & </log> ->\t\u00e9 --> <log>"),
    "each entity in values": _xes(_trace("&lt;c&gt;", GOOD.replace("r1", "&quot;&amp;&apos;")
                                         .replace('"A"', '"&amp;lt;&amp;amp;"'))),
    "entity in a key": _xes(_trace("c1", GOOD.replace(
        "</event>", '<string key="concept&amp;name" value="X"/></event>'))),
    "entity in a timestamp": _xes(_trace("c1", GOOD.replace("01T12", "01&amp;12"))),
    "trace end in a comment": _xes(_trace("c1", GOOD), head="<!-- </trace> --><log>"),
    "entity in another element": _xes(_trace("c1", GOOD), head="<log a='&lt;&amp;'>"),
}


@pytest.mark.parametrize("doc", [pytest.param(doc, id=name) for name, doc in COLUMNAR.items()])
def test_prologue_comments_and_entities_stay_columnar(expat_calls, doc):
    _assert_same_xes(doc)
    assert expat_calls == []


# whitespace inside tags reads as expat reads it: tabs and line ends are spaces in values too
WHITESPACE = {
    "tab between attributes": GOOD.replace('string key="org:', 'string\tkey="org:'),
    "line feed before the end": GOOD.replace('value="r1"/>', 'value="r1"\n/>'),
    "tab and CRLF in values": GOOD.replace('"r1"', '"r\t1\r\n2\r3\r\r\n"').replace('"A"', '" A\n"'),
    "space before the end": GOOD.replace('"r1"/>', '"r1" />'),
    "trace attributes": GOOD,
}


@pytest.mark.parametrize("event", [pytest.param(e, id=name) for name, e in WHITESPACE.items()])
def test_whitespace_inside_tags_stays_columnar(expat_calls, event):
    doc = _xes(_trace("c\t1", event), "<trace  a = 'x' >" + event + "</trace >").replace(
        b"</trace >", b"</trace>")
    crlf = doc.replace(b"\n", b"\r\n")
    for source in (doc, crlf):
        _assert_same_xes(source)
    assert expat_calls == []


# traces that fall across piece boundaries: a BOM, the declaration, comments, nested and listed
# attributes, duplicate keys, a case name after the events, unnamed and empty traces,
# multi-byte UTF-8, CRLF, entities, an empty resource and a value wider than a matrix row
WIDE = "Ä" * parsers._WIDE
BOUNDARIES = "﻿" + "\r\n".join([
    "<?xml version='1.0' encoding='utf-8' standalone='yes'?>",
    "<!-- OpenXES library version: 1.0RC7 -->",
    "<!-- a <banner> & \u00e9 -->",
    "<log xes.version='1.0' xmlns='http://www.xes-standard.org/'>",
    "\t" + _attr("concept:name", "the log"),
    "\t<classifier name='Activity' keys='concept:name'/>",
    _trace("c1", _event("A"), _event("Ä€ & <x>", "r2", "2024-03-01T13:00:00+01:00")),
    "\t<trace>",
    "\t\t" + _event("B", stamp=" 2024-03-01T12:00:01.500 ",
                    extra="<list key='l'>" + _attr("concept:name", "LISTED") + "</list>"),
    "\t\t<string key=\"concept:name\" value=\"c\U0001F600\">" + _attr("concept:name", "INNER")
    + "</string>" + _attr("concept:name", "LATER"),
    "\t</trace>",
    "<trace/>",
    _trace(None, _event("C", ""), _event(WIDE, "r" + WIDE, "2024-03-01 12:00:02.123456")),
    _trace("", _event("D", None)),
    "<trace><event>" + _attr("concept:name", "E") + _attr("concept:name", "SECOND")
    + _attr("time:timestamp", "2024-03-01", "date") + _attr("org:resource", "r3", "int")
    + "</event></trace>",
    "</log>",
]) + "\r\n"


@pytest.mark.parametrize("block", [1, 2, 3, 5, 8, 13, 21, 64])
def test_traces_across_block_boundaries_read_as_one_block(expat_calls, block):
    doc = BOUNDARIES.encode()
    whole = parse_xes(doc)
    with mock.patch.object(parsers, "_BLOCK", block):
        assert parse_xes(doc) == whole
        assert parse_xes(gzip.compress(doc)) == whole
        assert parse_xes(doc.rstrip(b"\r\n")) == whole  # no final line end
        assert expat_calls == []
        _assert_same_xes(doc)
    assert whole.n_events == 5 and whole.dropped_event_count == 2
    assert whole.cases == ("c1", "c\U0001F600", "trace-4", "trace-6")


# --- data errors name the file ------------------------------------------------


@pytest.mark.parametrize(
    "doc, error, message",
    [
        (_xes(_trace("c9", _event(stamp="noon"))), ValidationError,
         "unreadable timestamp 'noon' in trace 'c9'"),
        (_xes(_trace("c9", _event(activity=None))), ValidationError,
         "event without concept:name in trace 'c9'"),
        (_xes(_trace("c9", _event(stamp=None))), ValidationError,
         "event without time:timestamp in trace 'c9'"),
        (b"<log>\n<trace></log>", ParseError, "malformed XML at line 2, column 9: "),
    ],
    ids=["timestamp", "activity", "timestamp missing", "malformed"],
)
def test_xes_data_errors_start_with_the_file_name(tmp_path, doc, error, message):
    path = tmp_path / "log.xes"
    path.write_bytes(doc)
    for source, name in ((path, str(path)), (str(path), str(path)), (doc, "input"),
                         (OneWayStream(doc), "input")):
        with pytest.raises(error, match=f"^{re.escape(f'{name}: {message}')}"):
            parse_xes(source)


@pytest.mark.parametrize("stamp", ["0001-01-01T00:30:00+01:00", "9999-12-31T23:30:00-01:00"])
def test_an_instant_outside_the_years_1_to_9999_matches_reference(expat_calls, tmp_path, stamp):
    doc = _xes(_trace("c9", GOOD, _event(stamp=stamp)))
    path = tmp_path / "log.xes"
    path.write_bytes(doc)
    for source in (doc, path):
        _assert_same(source, source, parse_xes, reference_parse_xes)
    message = f"{path}: timestamp '{stamp}' in trace 'c9': "
    with pytest.raises(ValidationError, match="^" + re.escape(message)):
        parse_xes(path)
    assert len(expat_calls) == 3


# --- generated documents ------------------------------------------------------

NAMES = ["A", "B", "C", "Ä€", " A ", "a b", "x" * 70, "r\t1", "D & E", "<'q'>", '"q"']
VALUES = st.sampled_from(NAMES + RESOURCES + ["", "0.5", "true"])
STAMPS = st.sampled_from([s for spellings in INSTANTS for s in spellings]
                         + [" 2024-03-01T12:00:00 ", "2024-03-01", "2024-03-01 12:00"])
# each is drawn rarely: the expat path must give the same result
BAD_STAMPS = st.sampled_from(["noon", "2024-02-30T00:00:00", "0001-01-01T00:30:00+01:00", ""])
TAGS = st.sampled_from(["string", "string", "date", "int", "float", "boolean", "id", "list"])
OTHER_KEYS = st.sampled_from(["org:group", "impact", "cost"])
XES_KEYS = st.sampled_from(["concept:name", "org:resource", "time:timestamp", "org:group"])


def _rarely(draw, bits: int = 4) -> bool:
    """True in about one draw of ``2**bits`` (hypothesis favours the ends of a range)."""
    return all(draw(st.booleans()) for _ in range(bits))


@st.composite
def attributes(draw, keys=XES_KEYS, depth: int = 0) -> str:
    """An attribute element; its children, nested or listed, may have any key."""
    key, tag = draw(keys), draw(TAGS)
    value = draw(STAMPS if key == "time:timestamp" else VALUES)
    children = "".join(draw(st.lists(attributes(XES_KEYS, depth + 1), max_size=2 - depth)))
    if tag == "list":
        return f'<list key="{key}">{children}</list>'
    if children:
        return f'<{tag} key="{key}" value="{_escaped(value)}">{children}</{tag}>'
    return _attr(key, value, tag)


@st.composite
def events(draw) -> str:
    activity = "" if _rarely(draw, 8) else draw(st.sampled_from(NAMES))
    stamp = draw(BAD_STAMPS) if _rarely(draw, 8) else draw(STAMPS)
    parts = [_attr("concept:name", activity), _attr("time:timestamp", stamp, "date")]
    roll = draw(st.integers(0, 9))
    if roll < 9:  # else no resource; an empty one, or one given as another type
        resource = "" if roll == 8 else draw(st.sampled_from(RESOURCES))
        parts.append(_attr("org:resource", resource, "int" if roll == 7 else "string"))
    parts = draw(st.permutations(parts))
    for extra in draw(st.lists(attributes(OTHER_KEYS), max_size=2)):
        parts.insert(draw(st.integers(0, len(parts))), extra)
    if _rarely(draw):  # a duplicate key after the first: the first wins
        parts.append(draw(attributes(XES_KEYS)))
    return "<event>" + "".join(parts) + "</event>"


@st.composite
def traces(draw, index: int) -> str:
    body = draw(st.lists(events(), min_size=0 if _rarely(draw) else 1, max_size=4))
    for extra in draw(st.lists(attributes(OTHER_KEYS), max_size=1)):
        body.insert(draw(st.integers(0, len(body))), extra)
    if draw(st.integers(0, 5)) < 5:  # else the trace is named by its number
        name = "" if _rarely(draw) else f"case {index % 5}"
        body.insert(draw(st.integers(0, len(body))), _attr("concept:name", name))
    if not body and draw(st.booleans()):
        return "<trace/>"
    return "<trace>" + "".join(body) + "</trace>"


# each is drawn rarely: the expat path must give the same result
RARE = st.sampled_from([
    "<!-- note -->", "<?pi x?>", "<x:event/>", "text", "</event>", "<event/>", "<log/>",
    '<string value="v" key="concept:name"/>', "<string key='org:resource' value='r9'/>", "\x01",
    '<string key="concept:name" value="D &amp; E"/>', "<![CDATA[x]]>",
])


@st.composite
def xes_documents(draw) -> bytes:
    """Documents that are mostly clean; rarely one has an item of RARE."""
    ns = draw(st.sampled_from(["", "", ' xmlns="http://www.xes-standard.org/"',
                               ' xmlns:x="http://www.xes-standard.org/"']))
    sep = draw(st.sampled_from(["", "\n", "\r\n", "\n\t"]))
    items = [draw(traces(i)) for i in range(draw(st.integers(1, 6)))]
    items += draw(st.lists(attributes(), max_size=1))
    if _rarely(draw):
        items.insert(draw(st.integers(0, len(items))), draw(RARE))
    head = draw(st.sampled_from(["<?xml version='1.0' encoding='UTF-8'?>", "",
                                 '<?xml version="1.0"?>', OPENXES_BANNER.rstrip()]))
    text = head + sep + f"<log{ns}>" + sep + sep.join(items) + sep + "</log>" + sep
    if _rarely(draw):
        text = text.replace('"', "'")
    if _rarely(draw):
        text = draw(st.sampled_from(["\ufeff", " "])) + text  # a BOM, or a space before it
    doc = text.encode()
    if _rarely(draw):
        doc = doc[: draw(st.integers(0, len(doc)))]  # truncated
    return doc


@settings(max_examples=300, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(xes_documents(), st.sampled_from([1, 7, 64, parsers._BLOCK]))
def test_generated_xes_matches_reference_and_expat(doc, block):
    with mock.patch.object(parsers, "_BLOCK", block):
        _assert_same_xes(doc)



# bytes an edit writes: the XML syntax the columnar path checks, and text
EDIT_BYTES = b'<>"\'/=&\t\r\n?!-:\xc3\x00\x7f' + b"abcdeilnorstxyz0129 " * 2


@settings(max_examples=200, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.sampled_from([CLEAN, BOUNDARIES.encode()]), st.randoms(use_true_random=False),
       st.sampled_from([1, 64, parsers._BLOCK]))
def test_byte_edits_of_a_clean_document_match_expat(doc, rng, block):
    """Edits near the columnar path's checks; the expat path is the
    reference here, as the reference reader does not name a declared
    encoding it cannot read."""
    edited = bytearray(doc)
    for _ in range(rng.randint(1, 3)):
        at, byte = rng.randrange(len(edited)), rng.choice(EDIT_BYTES)
        edit = rng.choice(["set", "insert", "delete"])
        if edit == "set":
            edited[at] = byte
        elif edit == "insert":
            edited.insert(at, byte)
        else:
            del edited[at]
    edited = bytes(edited)
    with mock.patch.object(parsers, "_BLOCK", block):
        assert _outcome(parse_xes, edited) == _outcome(EXPAT, edited)
