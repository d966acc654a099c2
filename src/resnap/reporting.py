"""Aggregation into summary tables and CSV/JSON result export.

Exported files are deterministic for a given config and seed: column
order is fixed, floats use their shortest round-trip representation, and
the per-cell wall time is deliberately not written (it varies between
runs). Records therefore round-trip through either format with
``wall_time`` reset to zero.

Schemas:

* records (long format, one row per result):
  dataset, model, encoding, prefix_length, accuracy, n_train, n_test,
  leakage_fraction, best_params (JSON object), status
* accuracy_by_model (wide): model, then <encoding>_mean / <encoding>_std
  per encoding; mean and population std of accuracy across records.
* improvement_over_baseline (wide): same layout; values are paired
  differences against the SeqOnly record of the same (dataset, model,
  prefix length).
"""
from __future__ import annotations

import contextlib
import csv
import json
import math
import numbers
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Iterable, Mapping, Sequence, get_type_hints

from .encodings import ENCODINGS
from .errors import ConfigError, ValidationError
from .experiment import ResultRecord
from .models.search import MODEL_KINDS, check_grid

# the exported fields of a record, in column order, and their types
_FIELDS = tuple(f.name for f in fields(ResultRecord) if f.name != "wall_time")
_TYPES = get_type_hints(ResultRecord)
# a field's type -> how CSV text is read as one, and the types a value of it may have
_PARSE = {int: int, float: float, float | None: float, Mapping: json.loads}
_ACCEPT = {float: numbers.Real, float | None: (numbers.Real, type(None)), Mapping: dict}
# the names a record's model, encoding and status may take
_NAMES = {"model": MODEL_KINDS, "encoding": ENCODINGS, "status": ("ok", "failed")}
# the fractions a record holds, in [0, 1], and its counts, at least 1
_FRACTIONS, _COUNTS = ("accuracy", "leakage_fraction"), ("prefix_length", "n_train", "n_test")


@dataclass(frozen=True)
class AggregateCell:
    model: str
    encoding: str
    mean: float
    std: float
    n: int


@dataclass(frozen=True)
class AggregateTable:
    accuracy: tuple[AggregateCell, ...]
    improvement: tuple[AggregateCell, ...]


def _mean_std(values: Sequence[float]) -> tuple[float, float]:
    mean = sum(values) / len(values)
    variance = sum((v - mean) ** 2 for v in values) / len(values)
    return mean, math.sqrt(variance)


def aggregate(records: Iterable[ResultRecord]) -> AggregateTable:
    """Mean and population std per (model, encoding), plus paired gains."""
    ok = [r for r in records if r.status == "ok" and r.accuracy is not None]
    by_pair: dict[tuple[str, str], list[float]] = {}
    for r in ok:
        by_pair.setdefault((r.model, r.encoding), []).append(r.accuracy)
    accuracy_cells = tuple(
        AggregateCell(model, encoding, *_mean_std(vals), n=len(vals))
        for (model, encoding), vals in sorted(by_pair.items())
    )
    baseline = {
        (r.dataset, r.model, r.prefix_length): r.accuracy
        for r in ok
        if r.encoding == "SeqOnly"
    }
    diffs: dict[tuple[str, str], list[float]] = {}
    for r in ok:
        base = baseline.get((r.dataset, r.model, r.prefix_length))
        if base is None:
            continue
        diffs.setdefault((r.model, r.encoding), []).append(r.accuracy - base)
    improvement_cells = tuple(
        AggregateCell(model, encoding, *_mean_std(vals), n=len(vals))
        for (model, encoding), vals in sorted(diffs.items())
    )
    return AggregateTable(accuracy=accuracy_cells, improvement=improvement_cells)


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(float(value))  # shortest round-trip form, numpy scalars included
    return str(value)


def write_json(payload, path: Path) -> Path:
    """Write ``payload`` to ``path`` as indented JSON with sorted keys, in UTF-8."""
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return path


def write_csv(header: Sequence[str], rows: Iterable[Sequence], path: Path) -> Path:
    """Write ``header`` and ``rows`` to ``path`` as CSV in UTF-8, each value
    in its :func:`_fmt` text."""
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        writer.writerows([_fmt(v) for v in row] for row in rows)
    return path


def _record_row(record: ResultRecord) -> dict:
    return {key: getattr(record, key) for key in _FIELDS} | {"best_params": dict(record.best_params)}


def export_records(records: Sequence[ResultRecord], path: str | Path) -> Path:
    """Write the long-format records file; format comes from the suffix."""
    path = Path(path)
    rows = [_record_row(r) for r in records]
    if path.suffix == ".json":
        return write_json({"records": rows}, path)
    if path.suffix == ".csv":
        for row in rows:
            row["best_params"] = json.dumps(row["best_params"], sort_keys=True)
        return write_csv(_FIELDS, ([row[f] for f in _FIELDS] for row in rows), path)
    raise ConfigError(f"{path}: unsupported records format {path.suffix!r}")


def _field(where: str, key: str, value, text: bool):
    """Field ``key`` of a loaded record, parsed first if it is CSV text;
    ValidationError unless it has the field's type and, for a name, a
    value resnap knows, for a fraction one in [0, 1] (not NaN) and for a
    count one of at least 1."""
    kind, raw = _TYPES[key], value
    with contextlib.suppress(ValueError, TypeError, RecursionError):  # unparsed text fails below
        if text and kind is not str:  # CSV writes an accuracy of None as ""
            value = None if kind == float | None and value == "" else _PARSE[kind](value)
    if isinstance(value, bool) or not isinstance(value, _ACCEPT.get(kind, kind)):
        raise ValidationError(f"{where}: {key} has the wrong type: {raw!r}")
    if key in _NAMES and value not in _NAMES[key]:
        raise ValidationError(f"{where}: unknown {key} {raw!r}; accepted: {', '.join(_NAMES[key])}")
    if key in _FRACTIONS and value is not None and not 0 <= value <= 1:
        raise ValidationError(f"{where}: {key} must be in [0, 1], got {value!r}")
    if key in _COUNTS and value < 1:
        raise ValidationError(f"{where}: {key} must be at least 1, got {value!r}")
    return value


def _record(where: str, row, text: bool) -> ResultRecord:
    if isinstance(row, dict) and None in row:  # DictReader's key for fields past the header
        raise ValidationError(f"{where}: {len(row[None])} more field(s) than the header")
    keys = list(row) if isinstance(row, dict) else []
    missing = [key for key in _FIELDS if key not in keys]
    unknown = [key for key in keys if key not in _FIELDS]
    if missing or unknown:
        raise ValidationError(f"{where}: missing key(s) {missing}, unknown key(s) {unknown}")
    values = {key: _field(where, key, row[key], text) for key in _FIELDS}
    status, accuracy = values["status"], values["accuracy"]
    if (status == "ok") == (accuracy is None):  # _run_cell gives an accuracy exactly when ok
        expected = "a number" if status == "ok" else "empty"
        raise ValidationError(f"{where}: accuracy must be {expected} when the status is "
                              f"{status!r}, got {accuracy!r}")
    try:  # a record's point must be one its model's grid could hold
        check_grid(values["model"], {k: [v] for k, v in values["best_params"].items()})
    except ConfigError as exc:
        raise ValidationError(f"{where}: best_params: {exc}") from None
    return ResultRecord(wall_time=0.0, **values)


def load_records(path: str | Path) -> list[ResultRecord]:
    """Read records back; wall_time is not stored and loads as zero.

    A record with a missing or unknown key, a value of the wrong type, a
    model, encoding or status resnap does not know, an accuracy or
    leakage fraction outside [0, 1], a prefix length, ``n_train`` or
    ``n_test`` below 1, an accuracy where the status is not ``ok`` (or
    none where it is), or ``best_params`` not a grid point of its model
    raises ValidationError naming the file, the record and the key; a
    CSV row with more fields than the header raises it naming the row,
    and a CSV the csv module cannot read naming the line.
    """
    path = Path(path)
    if path.suffix == ".json":
        try:
            rows = json.loads(path.read_text(encoding="utf-8"))["records"]
        except (ValueError, KeyError, TypeError, RecursionError):  # not JSON, too deep, no records
            rows = None
        if not isinstance(rows, list):
            raise ValidationError(
                f"{path} is not a records file (a JSON object with a 'records' list)"
            )
    elif path.suffix == ".csv":
        try:
            with open(path, newline="", encoding="utf-8") as handle:
                reader = csv.DictReader(handle)
                rows = list(reader)
        except UnicodeDecodeError:
            raise ValidationError(f"{path} is not a records file (not UTF-8 text)") from None
        except csv.Error as exc:  # e.g. a field past csv.field_size_limit()
            raise ValidationError(f"{path}: line {reader.reader.line_num}: {exc}") from None
    else:
        raise ConfigError(f"{path}: unsupported records format {path.suffix!r}")
    text = path.suffix == ".csv"
    return [_record(f"{path}: record {i}", row, text) for i, row in enumerate(rows, start=1)]


def _wide_rows(cells: Sequence[AggregateCell]) -> tuple[list[str], list[list]]:
    encodings = [e for e in ENCODINGS if any(c.encoding == e for c in cells)]
    header = ["model"]
    for enc in encodings:
        header += [f"{enc}_mean", f"{enc}_std"]
    by_key = {(c.model, c.encoding): c for c in cells}
    rows = []
    for model in sorted({c.model for c in cells}):
        row: list = [model]
        for enc in encodings:
            cell = by_key.get((model, enc))
            row += [cell.mean, cell.std] if cell else [None, None]
        rows.append(row)
    return header, rows


def _export_wide(cells: Sequence[AggregateCell], path: Path) -> Path:
    """Write a wide table as CSV, or else as JSON."""
    header, rows = _wide_rows(cells)
    if path.suffix == ".csv":
        return write_csv(header, rows, path)
    return write_json([dict(zip(header, row)) for row in rows], path)


def export_results(
    records: Sequence[ResultRecord], table: AggregateTable, out_dir: str | Path
) -> list[Path]:
    """Write records plus both aggregate tables, as CSV and as JSON."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []
    for fmt in ("csv", "json"):
        written.append(export_records(records, out_dir / f"records.{fmt}"))
        written.append(_export_wide(table.accuracy, out_dir / f"accuracy_by_model.{fmt}"))
        written.append(
            _export_wide(table.improvement, out_dir / f"improvement_over_baseline.{fmt}")
        )
    return written
