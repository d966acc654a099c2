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
import csv
import json
import os
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from .encodings import ENCODINGS
from .errors import ConfigError, EmptyLogError, ParseError, ResnapError, ValidationError
from .eventlog import EventLog, resource_view
from .experiment import ExperimentConfig, run_experiment
from .parsers import CsvMapping, parse_csv, parse_xes
from .prefixes import DEFAULT_PREFIX_CANDIDATES, eligible_resources, prefix_grid
from .profiling import profile
from .reporting import aggregate, export_results, load_records


@dataclass
class DatasetEntry:
    dataset_id: str
    path: Path
    format: str
    prefix_candidates: tuple[int, ...]
    csv_mapping: CsvMapping | None


@dataclass
class CliConfig:
    datasets: dict[str, DatasetEntry]
    output_dir: Path
    seed: int
    experiment: dict[str, Any]


_CSV_COLUMNS = ("case", "activity", "resource", "timestamp")


def _number(section: dict, key: str, default, cast):
    """``cast(section[key])`` (or of ``default``), as a ConfigError if it fails."""
    value = section.get(key, default)
    try:
        return cast(value)
    except (TypeError, ValueError):
        kind = "an integer" if cast is int else "a number"
        raise ConfigError(f"{key} must be {kind}, got {value!r}") from None


def _load_config(path: str) -> CliConfig:
    config_path = Path(path)
    if not config_path.exists():
        raise ConfigError(f"config file not found: {config_path}")
    try:
        raw = json.loads(config_path.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file is not valid JSON: {exc}") from exc
    datasets: dict[str, DatasetEntry] = {}
    for i, entry in enumerate(raw.get("datasets", [])):
        missing = [key for key in ("id", "path") if key not in entry]
        if missing:
            raise ConfigError(f"dataset entry {i} has no {' or '.join(map(repr, missing))}")
        mapping = None
        if "csv_mapping" in entry:
            m = entry["csv_mapping"]
            if not isinstance(m, dict):
                raise ConfigError(f"dataset {entry['id']!r}: csv_mapping must be an object")
            missing = [key for key in _CSV_COLUMNS if key not in m]
            if missing:
                raise ConfigError(
                    f"dataset {entry['id']!r}: csv_mapping has no {', '.join(map(repr, missing))}"
                )
            mapping = CsvMapping(
                case=m["case"],
                activity=m["activity"],
                resource=m["resource"],
                timestamp=m["timestamp"],
                timestamp_format=m.get("timestamp_format"),
                delimiter=m.get("delimiter", ","),
            )
        fmt = entry.get("format", "xes")
        if fmt not in ("xes", "csv"):
            raise ConfigError(f"unknown dataset format {fmt!r}")
        if fmt == "csv" and mapping is None:
            raise ConfigError(f"dataset {entry.get('id')!r} needs a csv_mapping")
        datasets[entry["id"]] = DatasetEntry(
            dataset_id=entry["id"],
            path=Path(entry["path"]),
            format=fmt,
            prefix_candidates=tuple(
                entry.get("prefix_candidates", DEFAULT_PREFIX_CANDIDATES)
            ),
            csv_mapping=mapping,
        )
    if not datasets:
        raise ConfigError("config declares no datasets")
    return CliConfig(
        datasets=datasets,
        output_dir=Path(raw.get("output_dir", "out")),
        seed=_number(raw, "seed", 0, int),
        experiment=raw.get("experiment", {}),
    )


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
    if not entry.path.exists():
        raise ConfigError(f"dataset file not found: {entry.path}")
    print(f"parsing {entry.path} ...", file=sys.stderr)
    if entry.format == "xes":
        return parse_xes(entry.path)
    return parse_csv(entry.path, entry.csv_mapping)


def _experiment_config(
    config: CliConfig, entry: DatasetEntry, args: argparse.Namespace
) -> ExperimentConfig:
    exp = config.experiment
    seed = args.seed if args.seed is not None else config.seed
    if args.workers is not None:
        workers = args.workers
    else:
        workers = _number(exp, "workers", os.cpu_count() or 1, int)
    grids = {model: grid for model, grid in exp.get("grids", {}).items()}
    return ExperimentConfig(
        dataset_id=entry.dataset_id,
        prefix_candidates=entry.prefix_candidates,
        min_resources=_number(exp, "min_resources", 100, int),
        encodings=tuple(exp.get("encodings", ENCODINGS)),
        models=tuple(exp.get("models", ("majority", "forest", "boosted"))),
        split_ratio=_number(exp, "split_ratio", 0.8, float),
        seed=seed,
        cv_folds=_number(exp, "cv_folds", 3, int),
        mi_k=_number(exp, "mi_k", 20, int),
        grids=grids,
        cell_timeout=exp.get("cell_timeout"),
        workers=workers,
    )


def _out_dir(config: CliConfig, args: argparse.Namespace) -> Path:
    out = Path(args.out) if args.out else config.output_dir
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_profile(args: argparse.Namespace) -> int:
    config = _load_config(args.config)
    entry = _select_dataset(config, args.dataset)
    log = _load_log(entry)
    prof = profile(log)
    out = _out_dir(config, args)
    data = prof.as_dict()
    json_path = out / f"{entry.dataset_id}_profile.json"
    json_path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
    csv_path = out / f"{entry.dataset_id}_profile.csv"
    with open(csv_path, "w", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        keys = sorted(data)
        writer.writerow(["dataset"] + keys)
        writer.writerow([entry.dataset_id] + [repr(data[k]) if isinstance(data[k], float) else data[k] for k in keys])
    if args.quiet:
        print(json.dumps({"dataset": entry.dataset_id, **data}, sort_keys=True))
    else:
        print(f"dataset: {entry.dataset_id}")
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
    config = _load_config(args.config)
    entry = _select_dataset(config, args.dataset)
    min_resources = _number(config.experiment, "min_resources", 100, int)
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
    config = _load_config(args.config)
    entry = _select_dataset(config, args.dataset)
    cfg = _experiment_config(config, entry, args)
    cfg.validate()
    log = _load_log(entry)
    records = run_experiment(log, cfg)
    table = aggregate(records)
    out = _out_dir(config, args)
    written = export_results(records, table, out)
    failed = [r for r in records if r.status != "ok"]
    if args.quiet:
        print(
            json.dumps(
                {
                    "dataset": entry.dataset_id,
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
    config = _load_config(args.config)
    out = _out_dir(config, args)
    records_path = Path(args.records) if args.records else out / "records.json"
    if not records_path.exists():
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
