"""Span recorder that traces resnap from outside, by patching module attributes.

A :class:`Recorder` replaces public functions and methods of resnap with
wrappers that record a :class:`Span` (name, start, end, parent) and,
optionally, a count derived from the call. Functions are patched in every
loaded ``resnap`` module that binds them, because modules import each
other's functions by name (``cli`` calls its own ``parse_csv`` binding,
``parsers`` its own ``build_event_log``). Spans stay in memory; the
caller writes them out once the run ends. Nothing under ``src/`` changes.
"""
from __future__ import annotations

import importlib
import json
import sys
import time
import uuid
from collections import Counter
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable, Iterable, Iterator


@dataclass(frozen=True)
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index of the enclosing span in the recorder, or None
    run_id: str

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass(frozen=True)
class Target:
    """One patch point: ``attr`` of module ``module`` (``Class.method`` allowed).

    ``span`` names the recorded span; None records no span, only counts.
    ``count(counts, args, kwargs, result)`` may add counts after each call.
    """

    module: str
    attr: str
    span: str | None
    count: Callable | None = None


class Recorder:
    """Collects spans and counts for one traced run; all spans share run_id."""

    def __init__(self):
        self.run_id = uuid.uuid4().hex[:12]
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self._open: list[int] = []  # indices of spans still running, innermost last

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        index = len(self.spans)
        parent = self._open[-1] if self._open else None
        self.spans.append(Span(name, 0.0, 0.0, parent, self.run_id))  # placeholder
        self._open.append(index)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._open.pop()
            self.spans[index] = Span(name, start, end, parent, self.run_id)

    def wrap(self, target: Target, func: Callable) -> Callable:
        recorder = self

        def traced(*args, **kwargs):
            if target.span is None:
                result = func(*args, **kwargs)
            else:
                with recorder.span(target.span):
                    result = func(*args, **kwargs)
            if target.count is not None:
                target.count(recorder.counts, args, kwargs, result)
            return result

        traced.__wrapped__ = func
        return traced

    @contextmanager
    def installed(self, targets: Iterable[Target]) -> Iterator["Recorder"]:
        """Patch every target for the duration of the block, then restore."""
        undo: list[tuple[object, str, object]] = []
        try:
            for target in targets:
                for owner, attr, original in _bindings(target):
                    undo.append((owner, attr, original))
                    setattr(owner, attr, self.wrap(target, original))
            yield self
        finally:
            for owner, attr, original in reversed(undo):
                setattr(owner, attr, original)

    def write(self, path: Path) -> None:
        """Write every span, one JSON object per line, plus the counts."""
        with open(path, "w") as handle:
            for span in self.spans:
                handle.write(json.dumps(asdict(span)) + "\n")
            handle.write(json.dumps({"run_id": self.run_id, "counts": dict(self.counts)}) + "\n")


def _bindings(target: Target) -> list[tuple[object, str, object]]:
    """(owner, attribute, original) for every place the target is bound."""
    module = importlib.import_module(target.module)
    if "." in target.attr:
        cls_name, method = target.attr.split(".")
        cls = getattr(module, cls_name)
        return [(cls, method, cls.__dict__[method])]
    original = getattr(module, target.attr)
    owners = [
        mod
        for name, mod in sorted(sys.modules.items())
        if (name == "resnap" or name.startswith("resnap.")) and getattr(mod, target.attr, None) is original
    ]
    return [(owner, target.attr, original) for owner in owners]


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of intervals."""
    total = 0.0
    reach = float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    result = []
    for i, span in enumerate(spans):
        clipped = [
            (max(s, span.start), min(e, span.end))
            for s, e in children.get(i, [])
            if min(e, span.end) > max(s, span.start)
        ]
        result.append(span.duration - _covered(clipped))
    return result


def children_of(spans: list[Span], index: int) -> list[int]:
    return [i for i, span in enumerate(spans) if span.parent == index]
