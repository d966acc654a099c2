"""Command-line front end.

Commands
--------
profile   parse a dataset and write its summary-statistics profile
grid      print the admissible prefix lengths with eligible-resource counts
run       execute the experiment sweep and export records plus tables
report    re-aggregate an existing records file into tables

All commands read a JSON config file (see README for the schema); flags
override config values. Exit codes: 0 success, 1 a runtime cell failed,
2 configuration or input error. Diagnostics go to stderr; with --quiet,
stdout carries a single machine-parseable JSON summary.
"""
from __future__ import annotations

import argparse
import dataclasses
import errno
import json
import os
import stat
import sys
import typing
from dataclasses import MISSING, dataclass, field
from pathlib import Path
from typing import Any

from .errors import ConfigError, EmptyLogError, ParseError, ResnapError, ValidationError
from .eventlog import EventLog, resource_view
from .experiment import ExperimentConfig, run_experiment
from .parsers import CsvMapping, parse_csv, parse_xes
from .prefixes import DEFAULT_PREFIX_CANDIDATES, eligible_resources, prefix_grid
from .profiling import profile
from .reporting import aggregate, export_results, load_records, write_csv, write_json


@dataclass
class DatasetEntry:
    id: str
    path: str
    format: str = "xes"
    prefix_candidates: tuple[int, ...] = DEFAULT_PREFIX_CANDIDATES
    csv_mapping: CsvMapping | None = None


@dataclass
class CliConfig:
    """The config file; ``experiment`` holds ExperimentConfig keyword arguments."""

    datasets: dict[str, DatasetEntry]
    output_dir: str = "out"
    seed: int = 0
    experiment: dict[str, Any] = field(default_factory=dict)


def _fields(cls, raw, what: str, skip: tuple[str, ...] = ()) -> dict:
    """``raw`` if it is a JSON object of keyword arguments for the dataclass
    ``cls`` (bar the fields in ``skip``), with a string for every ``str``
    field; else a ConfigError naming ``what`` and the key."""
    if not isinstance(raw, dict):
        raise ConfigError(f"{what} must be a JSON object, got {raw!r}")
    fields = {f.name: f for f in dataclasses.fields(cls) if f.name not in skip}
    unknown = [key for key in raw if key not in fields]
    if unknown:
        raise ConfigError(
            f"{what} has unknown key(s) {', '.join(map(repr, unknown))}; "
            f"accepted: {', '.join(fields)}"
        )
    missing = [
        name for name, f in fields.items()
        if name not in raw and f.default is MISSING and f.default_factory is MISSING
    ]
    if missing:
        raise ConfigError(f"{what} has no {', '.join(map(repr, missing))}")
    types = typing.get_type_hints(cls)
    for key, value in raw.items():
        if types[key] in (str, str | None) and not isinstance(value, str):
            if types[key] is str or value is not None:
                raise ConfigError(f"{what}: {key} must be a string, got {value!r}")
    return raw


def _dataset(i: int, raw) -> DatasetEntry:
    entry = DatasetEntry(**_fields(DatasetEntry, raw, f"dataset entry {i}"))
    what = f"dataset {entry.id!r}"
    if "/" in entry.id or "\0" in entry.id:  # the id names the profile's files
        raise ConfigError(f"dataset entry {i}: id {entry.id!r} must not hold '/' or NUL")
    if entry.format not in ("xes", "csv"):
        raise ConfigError(f"{what}: format must be 'xes' or 'csv', got {entry.format!r}")
    if entry.csv_mapping is not None:
        mapping = CsvMapping(**_fields(CsvMapping, entry.csv_mapping, f"{what}: csv_mapping"))
        if len(mapping.delimiter) != 1:
            raise ConfigError(f"{what}: delimiter must be one character, got {mapping.delimiter!r}")
        entry.csv_mapping = mapping
    elif entry.format == "csv":
        raise ConfigError(f"{what} needs a csv_mapping")
    return entry


def _lookup(path: Path, what: str) -> os.stat_result | None:
    """``path``'s status, or None when there is no such path; ConfigError
    naming ``what`` when the OS cannot look it up (a NUL, a name too long)."""
    try:
        return path.stat()
    except (FileNotFoundError, NotADirectoryError):
        return None
    except (OSError, ValueError) as exc:
        reason = exc.strerror if isinstance(exc, OSError) else exc
        raise ConfigError(f"{what} {str(path)!r} cannot be looked up: {reason}") from exc


def _is_file(path: Path, what: str) -> bool:
    status = _lookup(path, what)
    return status is not None and stat.S_ISREG(status.st_mode)


def _load_config(args: argparse.Namespace) -> CliConfig:
    """The config file with the --seed and --workers overrides, all checked."""
    config_path = Path(args.config)
    if not _is_file(config_path, "config file"):
        raise ConfigError(f"config file not found: {config_path}")
    try:
        raw = json.loads(config_path.read_text(encoding="utf-8"))
    except (ValueError, RecursionError) as exc:  # not JSON or UTF-8 text, or nested too deep
        raise ConfigError(f"config file is not valid JSON: {exc}") from exc
    raw = _fields(CliConfig, raw, "the config")
    if not isinstance(raw["datasets"], list) or not raw["datasets"]:
        raise ConfigError(f"datasets must be a list of objects, not empty, got {raw['datasets']!r}")
    datasets: dict[str, DatasetEntry] = {}
    for i, item in enumerate(raw["datasets"]):
        entry = _dataset(i, item)
        if entry.id in datasets:
            raise ConfigError(f"dataset entry {i}: id {entry.id!r} is already declared")
        datasets[entry.id] = entry
    config = CliConfig(**{**raw, "datasets": datasets})
    # the dataset entry and the seed fill the other ExperimentConfig fields
    skip = ("dataset_id", "prefix_candidates", "seed")
    config.experiment = {
        "workers": os.cpu_count() or 1,
        **_fields(ExperimentConfig, config.experiment, "experiment", skip),
    }
    if args.seed is not None:
        config.seed = args.seed
    if args.workers is not None:
        config.experiment["workers"] = args.workers
    for entry in datasets.values():
        _experiment_config(config, entry).validate()
    return config


def _select_dataset(config: CliConfig, dataset_id: str | None) -> DatasetEntry:
    if dataset_id is None:
        if len(config.datasets) == 1:
            return next(iter(config.datasets.values()))
        raise ConfigError("--dataset is required when the config lists several datasets")
    try:
        return config.datasets[dataset_id]
    except KeyError:
        raise ConfigError(f"dataset {dataset_id!r} is not declared in the config") from None


def _load_log(entry: DatasetEntry) -> EventLog:
    if not os.path.isfile(entry.path):
        raise ConfigError(f"dataset file not found: {entry.path}")
    print(f"parsing {entry.path} ...", file=sys.stderr)
    if entry.format == "xes":
        return parse_xes(entry.path)
    return parse_csv(entry.path, entry.csv_mapping)


def _experiment_config(config: CliConfig, entry: DatasetEntry) -> ExperimentConfig:
    return ExperimentConfig(
        dataset_id=entry.id,
        prefix_candidates=entry.prefix_candidates,
        seed=config.seed,
        **config.experiment,
    )


def _out_dir(config: CliConfig, args: argparse.Namespace) -> Path:
    """The output directory, or ConfigError when it cannot be looked up or
    the nearest of its parents that exists is not a directory. It is made
    when written to."""
    out = Path(args.out or config.output_dir)
    for path in (out, *out.parents):
        status = _lookup(path, "output directory")
        if status is not None:
            if not stat.S_ISDIR(status.st_mode):
                raise ConfigError(f"output directory {out} cannot be made: {path} is not a directory")
            break
    return out


def cmd_profile(args: argparse.Namespace) -> int:
    config = _load_config(args)
    entry = _select_dataset(config, args.dataset)
    out = _out_dir(config, args)
    log = _load_log(entry)
    prof = profile(log)
    out.mkdir(parents=True, exist_ok=True)
    data = prof.as_dict()
    keys = sorted(data)
    row = [entry.id, *(data[k] for k in keys)]
    try:  # the file system, not the config, bounds the length of a file name
        json_path = write_json(data, out / f"{entry.id}_profile.json")
        csv_path = write_csv(["dataset", *keys], [row], out / f"{entry.id}_profile.csv")
    except OSError as exc:
        if exc.errno != errno.ENAMETOOLONG:
            raise
        raise ConfigError(f"profile file {exc.filename} cannot be written: {exc.strerror}") from exc
    if args.quiet:
        print(json.dumps({"dataset": entry.id, **data}, sort_keys=True))
    else:
        print(f"dataset: {entry.id}")
        print(f"  cases: {prof.n_cases}  events: {prof.n_events}")
        print(f"  activities: {prof.n_activities}  resources: {prof.n_resources}")
        print(f"  dropped events (no resource): {log.dropped_event_count}")
        print(f"  avg sequence length / resource: {prof.avg_seq_len_per_resource:.2f}")
        print(f"  avg specialization / resource:  {prof.avg_specialization:.2f}")
        print(f"  avg repetition / resource:      {prof.avg_repetition:.2f}")
        print(f"  variant/resource ratio: {prof.variant_resource_ratio:.2f}")
        print(f"  variant/case ratio:     {prof.variant_case_ratio:.2f}")
        print(f"wrote {json_path} and {csv_path}")
    return 0


def cmd_grid(args: argparse.Namespace) -> int:
    config = _load_config(args)
    entry = _select_dataset(config, args.dataset)
    min_resources = _experiment_config(config, entry).min_resources
    log = _load_log(entry)
    view = resource_view(log)
    admissible = prefix_grid(view, entry.prefix_candidates, min_resources)
    counts = {
        length: len(eligible_resources(view, length))
        for length in entry.prefix_candidates
    }
    if args.quiet:
        print(json.dumps({"admissible": admissible, "counts": counts}, sort_keys=True))
    else:
        for length in entry.prefix_candidates:
            marker = "kept" if length in admissible else "dropped"
            print(f"L={length}: {counts[length]} eligible resources ({marker})")
        print(f"admissible grid: {admissible}")
    if not admissible:
        print(
            f"warning: no candidate keeps at least {min_resources} resources",
            file=sys.stderr,
        )
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    config = _load_config(args)
    entry = _select_dataset(config, args.dataset)
    out = _out_dir(config, args)
    log = _load_log(entry)
    records = run_experiment(log, _experiment_config(config, entry))
    table = aggregate(records)
    written = export_results(records, table, out)
    failed = [r for r in records if r.status != "ok"]
    if args.quiet:
        print(
            json.dumps(
                {
                    "dataset": entry.id,
                    "records": len(records),
                    "failed": len(failed),
                    "files": [str(p) for p in written],
                },
                sort_keys=True,
            )
        )
    else:
        for r in records:
            acc = "failed" if r.accuracy is None else f"{r.accuracy:.4f}"
            print(
                f"L={r.prefix_length:<5} {r.encoding:<8} {r.model:<9} "
                f"accuracy={acc}  (train={r.n_train}, test={r.n_test})"
            )
        print(f"wrote {len(written)} files to {out}")
    if failed:
        print(f"{len(failed)} cell(s) failed", file=sys.stderr)
        return 1
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    config = _load_config(args)
    if args.dataset is not None:  # report reads no dataset, but a named one must be declared
        _select_dataset(config, args.dataset)
    out = _out_dir(config, args)
    records_path = Path(args.records) if args.records else out / "records.json"
    if not _is_file(records_path, "records file"):
        raise ConfigError(f"records file not found: {records_path}")
    records = load_records(records_path)
    table = aggregate(records)
    written = export_results(records, table, out)
    if args.quiet:
        print(json.dumps({"records": len(records), "files": [str(p) for p in written]}, sort_keys=True))
    else:
        print(f"aggregated {len(records)} records; wrote {len(written)} files to {out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="resnap",
        description="Resource-centric next-activity prediction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, func, helptext in (
        ("profile", cmd_profile, "write dataset summary statistics"),
        ("grid", cmd_grid, "show admissible prefix lengths"),
        ("run", cmd_run, "run the experiment sweep"),
        ("report", cmd_report, "re-aggregate an existing records file"),
    ):
        cmd = sub.add_parser(name, help=helptext)
        cmd.add_argument("--config", required=True, help="path to the JSON config file")
        cmd.add_argument("--dataset", help="dataset id from the config")
        cmd.add_argument("--seed", type=int, help="override the config seed")
        cmd.add_argument("--out", help="override the output directory")
        cmd.add_argument("--workers", type=int, help="parallel worker count")
        cmd.add_argument("--quiet", action="store_true", help="machine-readable stdout")
        if name == "report":
            cmd.add_argument("--records", help="records file to aggregate")
        cmd.set_defaults(func=func)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, ParseError, ValidationError, EmptyLogError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ResnapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
