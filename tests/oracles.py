"""Independent test oracles, kept deliberately separate from the package.

The split oracle enumerates every (feature, midpoint) candidate and
scores it with exact Fractions, so comparisons against the production
tree are free of float-tie ambiguity. The reference grower sorts every
candidate feature at every node, one feature at a time, the way the
split search worked before columns were presorted once per fit. The
reference readers are the row-at-a-time XES (``iterparse``) and CSV
(``DictReader``) readers that built one ``Event`` per row, with the
grouping and sorting the views used before the log was stored as columns.
The reference encodings count each prefix's 2-grams with a ``Counter``
and score each bigram column with a ``Counter`` loop, the way bigram
selection and the 2-gram and run blocks worked before they ran on arrays.
"""
from __future__ import annotations

import csv
import gzip
import io
import math
import re
import xml.etree.ElementTree as ET
from collections import Counter
from dataclasses import dataclass
from datetime import datetime, timezone
from fractions import Fraction
from pathlib import Path

import numpy as np

from resnap import ConfigError, EmptyLogError, Event, ParseError, ValidationError
from resnap.profiling import (
    DatasetProfile,
    avg_repetition,
    avg_sequence_length,
    avg_specialization,
    variant_ratio,
)


def brute_force_root_split(X, y) -> tuple[int, float] | None:
    """Exhaustive minimum-weighted-Gini root split with exact arithmetic.

    Returns (feature, threshold) or None when the labels are pure or no
    feature has two distinct values. Ties keep the lowest feature index,
    then the lowest threshold, mirroring the documented tree contract.
    """
    X = np.asarray(X, dtype=float)
    y = list(y)
    n = len(y)
    if len(set(y)) <= 1:
        return None
    best_score: Fraction | None = None
    best: tuple[int, float] | None = None
    for f in range(X.shape[1]):
        values = sorted(set(X[:, f].tolist()))
        for lo, hi in zip(values, values[1:]):
            thr = (lo + hi) / 2.0
            if thr >= hi:
                thr = lo
            left = [y[i] for i in range(n) if X[i, f] <= thr]
            right = [y[i] for i in range(n) if X[i, f] > thr]
            score = _score(left) + _score(right)
            if best_score is None or score > best_score:
                best_score = score
                best = (f, thr)
    return best


def _score(labels) -> Fraction:
    counts = Counter(labels)
    return Fraction(sum(c * c for c in counts.values()), len(labels))


def reference_grow(
    X,
    stats,
    *,
    max_depth=None,
    min_samples_split=2,
    min_samples_leaf=1,
    max_features=None,
    features=None,
    rng=None,
) -> dict[str, np.ndarray]:
    """Per-node-argsort tree grower with the contract of ``tree.grow``.

    Returns the five preorder node arrays of ``Tree`` by field name.
    Each node stable-argsorts its own rows on each candidate feature and
    scans that feature's thresholds in order. Integer statistics are
    scored with exact Fractions; float statistics with the float formula
    ``sum(left**2) / n_left + sum(right**2) / n_right``, whose cumulative
    sums run down the sorted rows. The first best candidate wins (lowest
    feature, then lowest threshold). Nodes are visited in preorder, so a
    node draws its ``max_features`` candidates before its descendants.
    """
    X = np.asarray(X, dtype=float)
    stats = np.asarray(stats)
    features = np.arange(X.shape[1]) if features is None else np.asarray(features)
    integer = np.issubdtype(stats.dtype, np.integer)
    nodes: dict[str, list] = {
        "feature": [], "threshold": [], "left": [], "right": [], "value": []
    }

    def visit(rows, depth) -> int:
        node = len(nodes["feature"])
        total = stats[rows].sum(axis=0)
        for name, init in (("feature", -1), ("threshold", 0.0), ("left", -1), ("right", -1)):
            nodes[name].append(init)
        nodes["value"].append(total)
        size = int(total.sum()) if integer else len(rows)
        if (
            (max_depth is not None and depth >= max_depth)
            or size < min_samples_split
            or (integer and np.count_nonzero(total) <= 1)
        ):
            return node
        candidates = features
        if max_features is not None and max_features < features.size:
            candidates = features[
                np.sort(rng.choice(features.size, size=max_features, replace=False))
            ]
        split = _reference_split(
            X[rows], stats[rows], total, size, candidates, min_samples_leaf, integer
        )
        if split is None:
            return node
        f, cut = split
        goes_left = X[rows, f] <= cut
        nodes["feature"][node], nodes["threshold"][node] = f, cut
        nodes["left"][node] = visit(rows[goes_left], depth + 1)
        nodes["right"][node] = visit(rows[~goes_left], depth + 1)
        return node

    visit(np.arange(X.shape[0]), 0)
    return {
        "feature": np.array(nodes["feature"], dtype=np.int64),
        "threshold": np.array(nodes["threshold"], dtype=float),
        "left": np.array(nodes["left"], dtype=np.int64),
        "right": np.array(nodes["right"], dtype=np.int64),
        "value": np.array(nodes["value"]),
    }


def _reference_split(X, stats, total, size, candidates, min_samples_leaf, integer):
    n = X.shape[0]
    best_score = None
    best = None
    for f in candidates:
        order = np.argsort(X[:, f], kind="stable")
        xs = X[order, f]
        left = np.cumsum(stats[order], axis=0)
        for i in range(n - 1):
            nl = int(left[i].sum()) if integer else i + 1
            nr = size - nl
            if xs[i] == xs[i + 1] or nl < min_samples_leaf or nr < min_samples_leaf:
                continue
            right = total - left[i]
            if integer:
                score = Fraction(int((left[i] ** 2).sum()), nl) + Fraction(
                    int((right**2).sum()), nr
                )
            else:
                score = (left[i] ** 2).sum() / nl + (right**2).sum() / nr
            if best_score is None or score > best_score:
                thr = (xs[i] + xs[i + 1]) / 2.0
                if thr >= xs[i + 1]:
                    thr = xs[i]
                best_score, best = score, (int(f), float(thr))
    return best


# --- reference ingestion ---------------------------------------------------

_GZIP_MAGIC = b"\x1f\x8b"


@dataclass(frozen=True)
class ReferenceLog:
    """What the row-at-a-time readers produced: retained events plus alphabets."""

    events: tuple[Event, ...]
    activity_alphabet: frozenset[str]
    resource_set: frozenset[str]
    case_set: frozenset[str]
    dropped_event_count: int


def _reference_open(source) -> io.BytesIO:
    if isinstance(source, (str, Path)):
        data = Path(source).read_bytes()
    elif isinstance(source, (bytes, bytearray)):
        data = bytes(source)
    else:
        data = source.read()
    if data[:2] == _GZIP_MAGIC:
        return gzip.open(io.BytesIO(data))
    return io.BytesIO(data)


def reference_timestamp(value: str) -> datetime:
    """The UTC instant of an ISO-8601 text. Raises ValueError when the text
    does not read and OverflowError when the instant falls outside the
    years 1 to 9999."""
    text = value.strip()
    if text.endswith(("Z", "z")):
        text = text[:-1] + "+00:00"
    try:
        ts = datetime.fromisoformat(text)
    except ValueError:
        ts = datetime.fromisoformat(re.sub(r"(\.\d{6})\d+", r"\1", text))
    return _reference_utc(ts)


def _reference_utc(ts: datetime) -> datetime:
    if ts.tzinfo is None:
        return ts.replace(tzinfo=timezone.utc)
    try:
        return ts.astimezone(timezone.utc)
    except OverflowError as exc:
        raise OverflowError(f"{ts.isoformat()} falls outside the years 1 to 9999 in UTC") from exc


def _reference_name(source) -> str:
    """The source as the readers' messages name it: a path as given, else "input"."""
    return str(source) if isinstance(source, (str, Path)) else "input"


def _xes_attributes(elem) -> dict[str, str]:
    attrs: dict[str, str] = {}
    for child in elem:
        if child.tag.rpartition("}")[2] in ("string", "date", "int", "float", "boolean"):
            key = child.get("key")
            value = child.get("value")
            if key is not None and value is not None and key not in attrs:
                attrs[key] = value
    return attrs


def reference_parse_xes(source) -> ReferenceLog:
    """``iterparse`` XES reader: one ``Event`` per retained event. Data
    errors start with the source's name, a path as given or "input"."""
    name = _reference_name(source)
    raw: list[Event] = []
    pending: list[dict[str, str]] = []
    n_traces = 0
    in_trace = False
    try:
        for kind, elem in ET.iterparse(_reference_open(source), events=("start", "end")):
            tag = elem.tag.rpartition("}")[2]
            if kind == "start":
                if tag == "trace":
                    in_trace = True
                continue
            if tag == "event" and in_trace:
                pending.append(_xes_attributes(elem))
                elem.clear()
            elif tag == "trace":
                in_trace = False
                n_traces += 1
                case_id = _xes_attributes(elem).get("concept:name") or f"trace-{n_traces}"
                for attrs in pending:
                    activity = attrs.get("concept:name", "")
                    if not activity:
                        raise ValidationError(
                            f"{name}: event without concept:name in trace '{case_id}'"
                        )
                    ts_text = attrs.get("time:timestamp")
                    if ts_text is None:
                        raise ValidationError(
                            f"{name}: event without time:timestamp in trace '{case_id}'"
                        )
                    try:
                        ts = reference_timestamp(ts_text)
                    except ValueError as exc:
                        raise ValidationError(
                            f"{name}: unreadable timestamp {ts_text!r} in trace '{case_id}'"
                        ) from exc
                    except OverflowError as exc:
                        raise ValidationError(
                            f"{name}: timestamp {ts_text!r} in trace '{case_id}': {exc}"
                        ) from exc
                    resource = attrs.get("org:resource") or None
                    raw.append(Event(case_id, activity, resource, ts, len(raw)))
                pending.clear()
                elem.clear()
    except ET.ParseError as exc:
        line, column = exc.position
        raise ParseError(
            f"{name}: malformed XML at line {line}, column {column}: {exc.msg}"
        ) from exc
    if n_traces == 0:
        raise EmptyLogError("XES document contains no traces")
    if not raw:
        raise EmptyLogError("XES document contains no events")
    return reference_build(raw)


def reference_parse_csv(source, mapping) -> ReferenceLog:
    """``DictReader`` CSV reader: one ``Event`` per retained row. Data
    errors start with the source's name, a path as given or "input"."""
    name = _reference_name(source)
    text = io.TextIOWrapper(_reference_open(source), encoding="utf-8-sig", newline="")
    reader = csv.DictReader(text, delimiter=mapping.delimiter)
    if not reader.fieldnames:
        raise ConfigError("CSV input has no header row")
    columns = (mapping.case, mapping.activity, mapping.resource, mapping.timestamp)
    missing = [col for col in columns if col not in reader.fieldnames]
    if missing:
        raise ConfigError(f"{name}: CSV header is missing mapped columns: {', '.join(missing)}")
    raw: list[Event] = []
    for row_no, row in enumerate(reader, start=1):
        case_id = (row.get(mapping.case) or "").strip()
        activity = (row.get(mapping.activity) or "").strip()
        resource = (row.get(mapping.resource) or "").strip() or None
        ts_text = (row.get(mapping.timestamp) or "").strip()
        if not case_id:
            raise ValidationError(f"{name}: empty case id in row {row_no}")
        if not activity:
            raise ValidationError(f"{name}: empty activity in row {row_no}")
        try:
            if mapping.timestamp_format is None:
                ts = reference_timestamp(ts_text)
            else:
                ts = _reference_utc(datetime.strptime(ts_text, mapping.timestamp_format))
        except ValueError as exc:
            raise ValidationError(
                f"{name}: timestamp {ts_text!r} does not match the expected format in row {row_no}"
            ) from exc
        except OverflowError as exc:
            raise ValidationError(f"{name}: timestamp {ts_text!r} in row {row_no}: {exc}") from exc
        raw.append(Event(case_id, activity, resource, ts, row_no - 1))
    if not raw:
        raise EmptyLogError("CSV input contains no data rows")
    return reference_build(raw)


def reference_build(events) -> ReferenceLog:
    """Drop and count resource-less events; alphabets of the retained ones."""
    kept = tuple(ev for ev in events if ev.resource)
    return ReferenceLog(
        events=kept,
        activity_alphabet=frozenset(ev.activity for ev in kept),
        resource_set=frozenset(ev.resource for ev in kept),
        case_set=frozenset(ev.case_id for ev in kept),
        dropped_event_count=len(events) - len(kept),
    )


def _reference_grouped(log: ReferenceLog, key_of) -> dict[str, tuple[str, ...]]:
    if not log.events:
        raise EmptyLogError("event log has no events")
    groups: dict[str, list[Event]] = {}
    for ev in log.events:
        groups.setdefault(key_of(ev), []).append(ev)
    return {
        key: tuple(
            ev.activity for ev in sorted(groups[key], key=lambda e: (e.timestamp, e.file_order))
        )
        for key in sorted(groups)
    }


@dataclass(frozen=True)
class ReferenceView:
    """Chronologically ordered activity names per resource or case."""

    sequences: dict[str, tuple[str, ...]]


def reference_resource_view(log: ReferenceLog) -> ReferenceView:
    return ReferenceView(_reference_grouped(log, lambda ev: ev.resource))


def reference_case_view(log: ReferenceLog) -> ReferenceView:
    return ReferenceView(_reference_grouped(log, lambda ev: ev.case_id))


def reference_profile(log: ReferenceLog) -> DatasetProfile:
    """``profile`` over the reference views."""
    rview = reference_resource_view(log)
    cview = reference_case_view(log)
    alphabet_size = len(log.activity_alphabet)
    return DatasetProfile(
        n_cases=len(log.case_set),
        n_events=len(log.events),
        n_activities=alphabet_size,
        n_resources=len(log.resource_set),
        avg_seq_len_per_resource=avg_sequence_length(rview),
        avg_specialization=avg_specialization(rview, alphabet_size),
        avg_repetition=avg_repetition(rview),
        variant_resource_ratio=variant_ratio(rview),
        variant_case_ratio=variant_ratio(cview),
    )


def reference_bigram_count_columns(prefixes) -> dict[tuple, list[int]]:
    """One ``Counter`` of 2-grams per prefix, then one count list per observed bigram."""
    per_prefix = [Counter(zip(p, p[1:])) for p in prefixes]
    universe = sorted({bg for counts in per_prefix for bg in counts})
    return {bg: [counts.get(bg, 0) for counts in per_prefix] for bg in universe}


def reference_mutual_information(column, targets) -> float:
    """Plug-in mutual information, its terms summed over a ``Counter`` of pairs."""
    n = len(column)
    joint = Counter(zip(column, targets))
    px = Counter(column)
    py = Counter(targets)
    mi = 0.0
    for (x, y), n_xy in joint.items():
        mi += (n_xy / n) * math.log(n_xy * n / (px[x] * py[y]))
    return max(mi, 0.0)


def reference_select_top_k(columns, targets, k: int) -> tuple:
    """The k bigrams of highest reference mutual information; ties to the smaller bigram."""
    scored = sorted(
        (-reference_mutual_information(col, targets), bg) for bg, col in columns.items()
    )
    return tuple(bg for _, bg in scored[:k])


def reference_bigram_block(prefixes, bigrams) -> list[list[int]]:
    """Per prefix, the ``Counter`` count of each given bigram."""
    counts = [Counter(zip(p, p[1:])) for p in prefixes]
    return [[c.get(bg, 0) for bg in bigrams] for c in counts]
