"""The columnar path of :func:`resnap.parsers.parse_xes`.

:func:`columnar_xes` reads a clean XES document with bytes checks and
numpy instead of one expat callback per element, and returns None for
any document it cannot prove clean, which ``parse_xes`` then reads
through expat from the start. ``parse_xes`` imports this module on its
first call, so a run that reads only CSV never compiles it.

The document is read in pieces of whole traces; in each piece every tag
is found from the positions of ``<`` and ``>``, named from a fixed-width
window, nested by a cumulative sum and checked against its open tag, and
the key and value of every attribute element are taken as byte ranges.
The picked values are coded and decoded by the columnar CSV path's
:func:`~resnap.parsers._code` and :func:`~resnap.parsers._stamps`.
"""
from __future__ import annotations

import codecs
import re
from typing import Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .eventlog import CodedColumns
from .parsers import _GZIP_ERRORS, _WIDE, _blocks, _code, _open_binary, _stamps

_TRACE_END = b"</trace>"
# the element names the columnar path reads, by code; any other name is not clean
_XES_NAMES = ("log", "trace", "event", "string", "date", "int", "float", "boolean",
              "id", "list", "container", "values", "extension", "global", "classifier")
_LOG, _TRACE, _EVENT = 0, 1, 2  # codes of the record elements; codes 3 to 7 are attributes
# the attribute keys the columnar path reads, by code: activity (or case id), resource, timestamp
_XES_KEYS = ("concept:name", "org:resource", "time:timestamp")
_XML_DECLARATION = re.compile(  # XML whitespace is a space, tab, CR or LF, not any \s
    rb"<\?xml[ \t\r\n]+version[ \t\r\n]*=[ \t\r\n]*([\"'])1\.0\1"
    rb"(?:[ \t\r\n]+encoding[ \t\r\n]*=[ \t\r\n]*([\"'])(?i:utf-8)\2)?"
    rb"(?:[ \t\r\n]+standalone[ \t\r\n]*=[ \t\r\n]*([\"'])(?:yes|no)\3)?[ \t\r\n]*\?>"
)
# comments after the declaration, as OpenXES writes its banner; a comment holds no "--"
_PROLOGUE = re.compile(rb"(?:[ \t\r\n]*<!--(?:[^-]|-[^-])*-->)*")
# an "&" that starts none of XML's five predefined entities
_OTHER_REFERENCE = re.compile(rb"&(?!(?:amp|lt|gt|quot|apos);)")
_ENTITIES = (("&lt;", "<"), ("&gt;", ">"), ("&quot;", '"'), ("&apos;", "'"), ("&amp;", "&"))
_XML_ATTRIBUTE = re.compile(rb" +([A-Za-z_][A-Za-z0-9._-]*) *= *(\"[^\"]*\"|'[^']*')")
_RESERVED_NAMESPACES = (b"http://www.w3.org/XML/1998/namespace", b"http://www.w3.org/2000/xmlns/")
_SPACES = bytes.maketrans(b"\t\n\r", b"   ")
_KEY_EQ = int.from_bytes(b' key="', "little")  # what follows an attribute element's name
_VALUE_EQ = int.from_bytes(b' value="', "little")  # what follows the key's closing quote
# the mask of a word's first n bytes, by n
_LOW_BYTES = np.array([(1 << 8 * n) - 1 for n in range(9)], dtype=np.uint64)


class _WordTable:
    """Texts of at most 16 bytes, each as two little-endian words, to find
    byte fields by value; the texts' first words differ."""

    def __init__(self, texts: Sequence[str]):
        padded = b"".join(text.encode().ljust(16, b"\0") for text in texts)
        words = np.frombuffer(padded, dtype="<u8").reshape(-1, 2)
        self.order = np.argsort(words[:, 0])
        self.low, self.high = words[self.order, 0], words[self.order, 1]

    def find(self, low: np.ndarray, high: np.ndarray) -> np.ndarray:
        """The index of the text with words ``(low, high)``, or -1, for each pair."""
        at = np.minimum(np.searchsorted(self.low, low), len(self.low) - 1)
        return np.where((self.low[at] == low) & (self.high[at] == high), self.order[at], -1)


_NAMES, _KEYS = _WordTable(_XES_NAMES), _WordTable(_XES_KEYS)


def columnar_xes(source) -> CodedColumns | None:
    """The coded columns of a clean XES document, or None when it is not clean.

    The decompressed source is read in pieces that end with ``</trace>``
    (:func:`~resnap.parsers._blocks`), so each holds whole traces, and
    each piece's tags are found and checked with array operations
    (:class:`_XesScan`). A document is clean when it is UTF-8 without
    control bytes, CDATA, a DOCTYPE, processing instructions, comments
    other than between the declaration and the root, or references other
    than the five predefined entities (``&amp;``, ``&lt;``, ``&gt;``,
    ``&quot;`` and ``&apos;``), its XML declaration, if any, names
    version 1.0 and no encoding but UTF-8, and between its tags is only
    whitespace; every element is a ``<log>`` root with ``<trace>``
    children, ``<event>`` grandchildren and any of the other XES element
    names below them, without a namespace prefix; every
    ``string``, ``date``, ``int``, ``float`` or ``boolean`` element has
    exactly ``key="K" value="V"``, and every other element has
    unprefixed attributes; every event has an activity and a timestamp
    that reads as ISO-8601 in the years 1 to 9999; and no two distinct
    values of a piece share a hash. Expat reads a clean document as here:
    a tab or line end inside a tag reads as a space, as in XML's
    attribute-value normalisation, and a value is taken verbatim but
    for its entities.
    """
    scan = _XesScan()
    try:
        with _open_binary(source) as stream:
            for block in _blocks(stream, _TRACE_END):
                if not scan.read(block):
                    return None
    except _GZIP_ERRORS:
        return None
    return scan.columns()


def _utf8(text: bytes) -> bool:
    """Whether ``text`` is UTF-8 without U+FFFE or U+FFFF, which XML does not allow."""
    if text.isascii():
        return True
    try:
        text.decode("utf-8")
    except UnicodeDecodeError:
        return False
    return b"\xef\xbf\xbe" not in text and b"\xef\xbf\xbf" not in text


def _xml_text(block: bytes) -> bytes | None:
    """The piece as expat reads its attribute values: every tab and line
    end (``\\r\\n``, ``\\r`` or ``\\n``) reads as one space. None when the
    piece is not UTF-8, or holds U+FFFE, U+FFFF or a reference other than
    the five predefined entities."""
    if not _utf8(block) or b"&" in block and _OTHER_REFERENCE.search(block):
        return None
    if b"\r" in block:
        block = block.replace(b"\r\n", b"\n")
    return block.translate(_SPACES)


def _value(field: bytes) -> str:
    """An attribute value's text, its entities replaced."""
    text = field.decode()
    if "&" in text:
        for entity, char in _ENTITIES:  # "&amp;" last, so "&amp;lt;" reads as "&lt;"
            text = text.replace(entity, char)
    return text


def _stamp(field: bytes) -> str:
    """A timestamp value's text, stripped as the expat path strips it."""
    return _value(field).strip()


def _tag_bounds(data: np.ndarray, size: int):
    """The positions of the ``<`` and the ``>`` of every tag in the first
    ``size`` bytes (zeros follow them); None when one is a control byte,
    ``<`` and ``>`` do not alternate, or a byte outside the tags is not a
    space."""
    body = data[:size]
    if (body < ord(" ")).any():
        return None
    lt, gt = np.flatnonzero(body == ord("<")), np.flatnonzero(body == ord(">"))
    if len(lt) != len(gt) or (lt > gt).any() or (gt[:-1] > lt[1:]).any():
        return None
    text = data > ord(" ")
    if not len(lt):
        return None if text.any() else (lt, gt)
    # each tag, then the gap after it up to the next tag (or the end)
    bounds = np.empty(2 * len(lt), dtype=np.int64)
    bounds[0::2], bounds[1::2] = lt, gt + 1
    gaps = np.logical_or.reduceat(text, bounds)[1::2]
    gaps &= np.append(lt[1:], len(data)) > gt + 1  # an empty gap reads as the next '<'
    if text[: lt[0]].any() or gaps.any():
        return None
    return lt, gt


def _plain_attributes(text: bytes) -> bool:
    """Whether ``text`` is a run of attributes with distinct unprefixed
    names, then spaces; ``xmlns`` may not name a reserved namespace."""
    pos, seen = 0, set()
    while match := _XML_ATTRIBUTE.match(text, pos):
        name = match[1]
        if name in seen or (name == b"xmlns" and match[2][1:-1] in _RESERVED_NAMESPACES):
            return False
        seen.add(name)
        pos = match.end()
    return not text[pos:].strip(b" ")


def _byte_words(data: np.ndarray) -> np.ndarray:
    """The little-endian word of the 8 bytes from each position of ``data``."""
    return np.ndarray((len(data) - 7,), dtype="<u8", buffer=data, strides=(1,))


def _field_words(words: np.ndarray, starts: np.ndarray, lengths: np.ndarray):
    """The first 16 bytes of each field, zero from its length on, as two
    words. A field over 16 bytes has no zero byte among them, as text
    without control bytes has none, so it equals no word pair of a table."""
    return (words[starts] & _LOW_BYTES[np.clip(lengths, 0, 8)],
            words[starts + 8] & _LOW_BYTES[np.clip(lengths - 8, 0, 8)])


def _tag_names(data: np.ndarray, words: np.ndarray, lt: np.ndarray, gt: np.ndarray):
    """Each tag's name code, whether it closes, whether it is empty, its
    name's length, and whether a space follows the name. None unless every
    tag is ``<name>``, ``<name/>``, ``</name>`` or ``<`` and a name and a
    space, with a name of ``_XES_NAMES``."""
    close = data[lt + 1] == ord("/")
    empty = data[gt - 1] == ord("/")
    start = lt + 1 + close
    name_len = np.argmin(sliding_window_view(data, 12)[start] - ord("a") < 26, axis=1)  # not a-z
    name = _NAMES.find(*_field_words(words, start, name_len))
    bare = gt - start == name_len + empty
    spaced = (data[start + name_len] == ord(" ")) & ~close
    if (name < 0).any() or not (bare | spaced).all() or (close & empty).any():
        return None
    return name, close, empty, name_len, ~bare


def _key_values(data: np.ndarray, words: np.ndarray, quotes: np.ndarray, lt, gt, empty, name_len):
    """The key code (-1 for a key not in ``_XES_KEYS``) and the value's byte
    range of each attribute element ``<name key="K" value="V"/>`` (or
    ending ``">``, and one space may come before the end); None when one
    has another layout. ``quotes`` ends with five positions past the piece."""
    first = np.searchsorted(quotes, lt)
    key_open, key_close, value_open, value_close, after = (quotes[first + k] for k in range(5))
    tail = gt - empty - value_close - 1
    if (
        (value_close > gt).any()  # fewer than four quotes
        or (after < gt).any()  # more than four
        or (words[lt + 1 + name_len] & _LOW_BYTES[6] != _KEY_EQ).any()
        or (words[key_close + 1] != _VALUE_EQ).any()  # which puts value_open after it
        or not ((tail == 0) | (tail == 1) & (data[value_close + 1] == ord(" "))).all()
    ):
        return None
    key = _KEYS.find(*_field_words(words, key_open + 1, key_close - key_open - 1))
    return key, value_open + 1, value_close


def _first_per_owner(owner: np.ndarray) -> np.ndarray:
    """Whether each row is the first of its owner; rows come in owner order."""
    first = np.ones(len(owner), dtype=bool)
    first[1:] = owner[1:] != owner[:-1]
    return first


class _XesScan:
    """The events of a clean XES document, read one piece at a time.

    Between pieces it keeps the codes of the names of the elements still
    open (a piece ends with ``</trace>``, so at most the root), where the
    root stands, the number of traces read, and the names and codes made.
    """

    def __init__(self):
        self.names: tuple[dict[str, int], ...] = ({}, {}, {})  # case, activity, resource
        self.outs: tuple[list[np.ndarray], ...] = ([], [], [], [])  # their codes, timestamps
        self.stack: list[int] = []  # name codes of the open elements, the root first
        self.root = 0  # 0 before <log>, 1 inside it, 2 after </log>
        self.n_traces = 0
        self.started = False

    def columns(self) -> CodedColumns | None:
        """The columns read; None unless the root closed and there was an event."""
        if self.root != 2 or not sum(map(len, self.outs[3])):
            return None
        return CodedColumns(*(list(known) for known in self.names), *map(np.concatenate, self.outs))

    def read(self, block: bytes) -> bool:
        """Add the events of the next piece; False when it is not clean."""
        if not self.started:
            self.started = True
            block = block.removeprefix(codecs.BOM_UTF8)
            if block.startswith(b"<?xml"):
                declaration = _XML_DECLARATION.match(block)
                if declaration is None:
                    return False
                block = block[declaration.end() :]
            prologue = _PROLOGUE.match(block).end()
            if prologue:
                comments = block[:prologue]
                if not _utf8(comments) or min(comments.translate(_SPACES)) < ord(" "):
                    return False  # a comment holds bytes XML does not allow
                block = block[prologue:]
        block = _xml_text(block)
        if block is None:
            return False
        data = np.frombuffer(block + bytes(_WIDE), dtype=np.uint8)
        bounds = _tag_bounds(data, len(block))
        if bounds is None:
            return False
        lt, gt = bounds
        if not len(lt):
            return True
        words = _byte_words(data)
        tags = _tag_names(data, words, lt, gt)
        if tags is None:
            return False
        name, close, empty, name_len, spaced = tags
        nesting = self._nest(name, close, empty)
        if nesting is None:
            return False
        level, parent = nesting
        attributes = np.flatnonzero((name >= 3) & (name <= 7) & ~close)
        quotes = np.append(np.flatnonzero(data[: len(block)] == ord('"')), [len(block)] * 5)
        pairs = _key_values(data, words, quotes, lt[attributes], gt[attributes],
                            empty[attributes], name_len[attributes])
        if pairs is None:
            return False
        for i in np.flatnonzero(spaced & ((name < 3) | (name > 7))).tolist():
            if not _plain_attributes(block[lt[i] + 1 + name_len[i] : gt[i] - empty[i]]):
                return False
        return self._add_events(block, data, name, close, level, parent, attributes, *pairs)

    def _nest(self, name, close, empty):
        """Each tag's level (the root's is 0), and a function giving the tag
        index of the parent of tags of level 1 or more (-1 for one opened in
        an earlier piece). None unless the tags nest, one ``<log>`` root
        opens and closes, and at most the root is open after the piece."""
        opens = ~close & ~empty
        depth = len(self.stack) + np.cumsum(opens.astype(np.int64) - close)  # after each tag
        level = depth - opens
        if level.min() < 0:
            return None
        for i in np.flatnonzero(level == 0).tolist():
            if self.root == 0 and opens[i] and name[i] == _LOG:
                self.root = 1
            elif self.root == 1 and close[i]:
                self.root = 2
            else:
                return None
        # per level, in document order, opens and closes alternate and a close matches its open
        carried = len(self.stack)
        marks = np.flatnonzero(~empty)
        at = np.concatenate((np.arange(-carried, 0), marks))
        lvl = np.concatenate((np.arange(carried), level[marks]))
        shut = np.concatenate((np.zeros(carried, dtype=bool), close[marks]))
        names = np.concatenate((np.array(self.stack, dtype=np.int64), name[marks]))
        order = np.argsort(lvl, kind="stable")
        at, lvl, shut, names = at[order], lvl[order], shut[order], names[order]
        same = lvl[1:] == lvl[:-1]
        if (
            shut[:1].any()
            or (shut[1:] & ~same).any()
            or (same & (shut[1:] == shut[:-1])).any()
            or (same & shut[1:] & (names[1:] != names[:-1])).any()
        ):
            return None
        self.stack = names[np.append(~same, True) & ~shut].tolist()
        if len(self.stack) > 1:
            return None
        # a tag's parent is the last open tag one level up before it
        span = len(name) + carried
        opened = np.flatnonzero(~shut)
        keys, opened_at = lvl[opened] * span + at[opened] + carried, at[opened]

        def parent(tags: np.ndarray) -> np.ndarray:
            return opened_at[np.searchsorted(keys, (level[tags] - 1) * span + tags + carried) - 1]

        return level, parent

    def _add_events(self, block, data, name, close, level, parent, attributes, key, lo, hi) -> bool:
        """Append the piece's events; False when a trace is not a child of
        the root, an event not a child of a trace, or an event lacks an
        activity or a timestamp, or when a timestamp is unreadable or two
        distinct values share a hash."""
        traces = np.flatnonzero((name == _TRACE) & ~close)
        events = np.flatnonzero((name == _EVENT) & ~close)
        if (level[traces] != 1).any() or (level[events] != 2).any():
            return False
        event_trace = parent(events)
        if (name[event_trace] != _TRACE).any():
            return False
        # each event's and each trace's first value of each key among its attribute children
        keyed = np.flatnonzero(key >= 0)
        at, key, lo, hi = attributes[keyed], key[keyed], lo[keyed], hi[keyed]
        owner = np.full(len(at), -1)
        for depth, kind in ((2, _TRACE), (3, _EVENT)):
            rows = np.flatnonzero(level[at] == depth)
            owner[rows] = parent(at[rows])
            owner[rows[name[owner[rows]] != kind]] = -1
        fields = []
        for k in range(len(_XES_KEYS)):
            rows = np.flatnonzero((key == k) & (level[at] == 3) & (owner >= 0))
            event = np.searchsorted(events, owner[rows])
            first = _first_per_owner(event)
            rows, event = rows[first], event[first]
            if k != 1 and len(rows) != len(events):  # an event lacks an activity or timestamp
                return False
            field_lo, field_hi = np.zeros(len(events), np.int64), np.zeros(len(events), np.int64)
            field_lo[event], field_hi[event] = lo[rows], hi[rows]
            fields.append((field_lo, field_hi))
        (act_lo, act_hi), resource, stamp = fields
        if (act_hi == act_lo).any():
            return False
        rows = np.flatnonzero((key == 0) & (level[at] == 2) & (owner >= 0))
        trace = np.searchsorted(traces, owner[rows])
        named = _first_per_owner(trace) & (hi[rows] > lo[rows])  # an empty case id reads as none
        rows, trace = rows[named], trace[named]
        codes = [
            _code(block, data, lo[rows], hi[rows], self.names[0], _value),
            _code(block, data, act_lo, act_hi, self.names[1], _value),
            _code(block, data, *resource, self.names[2], _value),
            _stamps(block, data, *stamp, _stamp),
        ]
        if any(column is None for column in codes):
            return False
        cases = np.empty(len(traces), dtype=np.int64)
        cases[trace] = codes[0]
        for t in np.setdiff1d(np.arange(len(traces)), trace).tolist():
            case_id = f"trace-{self.n_traces + t + 1}"
            cases[t] = self.names[0].setdefault(case_id, len(self.names[0]))
        self.n_traces += len(traces)
        codes[0] = cases[np.searchsorted(traces, event_trace)]
        for column, out in zip(codes, self.outs):
            out.append(column)
        return True
