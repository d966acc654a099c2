"""Patch points per resnap layer and the per-layer metrics derived from spans.

Times are self times (a span minus the part its child spans cover), so
they add up to the traced run without double counting. Counts come from
the number of spans or from the values the wrapped functions return.
"""
from __future__ import annotations

from pathlib import Path

from spans import Recorder, Target, children_of, self_times


def _parsed(counts, args, kwargs, log) -> None:
    counts["events_read"] += len(log.events) + log.dropped_event_count


def _built(counts, args, kwargs, log) -> None:
    counts["events_dropped"] = log.dropped_event_count


def _samples(counts, args, kwargs, ds) -> None:
    counts["samples"] += len(ds.samples)


def _mi_columns(counts, args, kwargs, selection) -> None:
    columns = args[0] if args else kwargs["bigram_columns"]
    counts["mi_columns"] += len(columns)


def _grid_points(counts, args, kwargs, points) -> None:
    counts["grid_points"] += len(points)


def _classifiers(counts, args, kwargs, model) -> None:
    counts["classifiers"] += 1


def _boosted(counts, args, kwargs, model) -> None:
    counts["rounds"] += len(model.rounds_)
    counts["class_trees"] += sum(len(r) for r in model.rounds_)


def _records(counts, args, kwargs, records) -> None:
    counts["cells"] += len(records)
    counts["cells_failed"] += sum(1 for r in records if r.status != "ok")
    counts["cell_s_sum"] += sum(r.wall_time for r in records)
    counts["cell_s_max"] = max([counts["cell_s_max"]] + [r.wall_time for r in records])


def _written(counts, args, kwargs, paths) -> None:
    counts["bytes_written"] += sum(Path(p).stat().st_size for p in paths)


RUN_EXPERIMENT = Target("resnap.experiment", "run_experiment", "experiment.run_experiment", _records)

TARGETS = [
    Target("resnap.parsers", "parse_xes", "parsers.parse_xes", _parsed),
    Target("resnap.parsers", "parse_csv", "parsers.parse_csv", _parsed),
    Target("resnap.eventlog", "build_event_log", "eventlog.build_event_log", _built),
    Target("resnap.eventlog", "resource_view", "eventlog.resource_view"),
    Target("resnap.eventlog", "case_view", "eventlog.case_view"),
    Target("resnap.profiling", "profile", "profiling.profile"),
    Target("resnap.prefixes", "prefix_grid", "prefixes.prefix_grid"),
    Target("resnap.prefixes", "build_prefix_dataset", "prefixes.build_prefix_dataset", _samples),
    Target("resnap.encodings", "capability_map", "encodings.capability_map"),
    Target("resnap.encodings", "bigram_count_columns", "encodings.bigram_count_columns"),
    Target("resnap.encodings", "select_top_k", "encodings.select_top_k", _mi_columns),
    Target("resnap.encodings", "encode_seq_only", "encodings.encode"),
    Target("resnap.encodings", "encode_scap", "encodings.encode"),
    Target("resnap.encodings", "encode_s2g", "encodings.encode"),
    Target("resnap.encodings", "encode_s2gr", "encodings.encode"),
    RUN_EXPERIMENT,
    Target("resnap.experiment", "stratified_split", "experiment.stratified_split"),
    Target("resnap.profiling", "example_leakage", "experiment.example_leakage"),
    Target("resnap.models.search", "grid_search_cv", "search.grid_search_cv"),
    Target("resnap.models.search", "expand_grid", None, _grid_points),
    Target("resnap.models.search", "make_classifier", None, _classifiers),
    Target("resnap.models.ensemble", "RandomForest.fit", "ensemble.fit"),
    Target("resnap.models.ensemble", "RandomForest.predict", "ensemble.predict"),
    Target("resnap.models.tree", "DecisionTree.fit", "tree.fit"),
    Target("resnap.models.tree", "DecisionTree.predict", "tree.predict"),
    Target("resnap.models.tree", "MajorityClassifier.fit", "majority.fit"),
    Target("resnap.models.tree", "MajorityClassifier.predict", "majority.predict"),
    Target("resnap.models.boosting", "GradientBoostedTrees.fit", "boosting.fit", _boosted),
    Target("resnap.models.boosting", "GradientBoostedTrees.predict", "boosting.predict"),
    Target("resnap.reporting", "aggregate", "reporting.aggregate"),
    Target("resnap.reporting", "export_results", "reporting.export_results", _written),
]

POOL_TARGETS = [RUN_EXPERIMENT]

# per-layer metric -> span whose summed self time it reports
SELF_TIME = {
    "parsers.parse_xes_s": "parsers.parse_xes",
    "parsers.parse_csv_s": "parsers.parse_csv",
    "eventlog.build_event_log_s": "eventlog.build_event_log",
    "eventlog.resource_view_s": "eventlog.resource_view",
    "eventlog.case_view_s": "eventlog.case_view",
    "profiling.profile_self_s": "profiling.profile",
    "prefixes.prefix_grid_s": "prefixes.prefix_grid",
    "prefixes.build_prefix_dataset_s": "prefixes.build_prefix_dataset",
    "encodings.capability_map_s": "encodings.capability_map",
    "encodings.bigram_columns_s": "encodings.bigram_count_columns",
    "encodings.select_top_k_s": "encodings.select_top_k",
    "encodings.encode_s": "encodings.encode",
    "experiment.sweep_self_s": "experiment.run_experiment",
    "experiment.split_s": "experiment.stratified_split",
    "experiment.leakage_s": "experiment.example_leakage",
    "search.cv_s": "search.grid_search_cv",
    "ensemble.fit_s": "ensemble.fit",
    "ensemble.predict_s": "ensemble.predict",
    "tree.fit_s": "tree.fit",
    "tree.predict_s": "tree.predict",
    "boosting.fit_s": "boosting.fit",
    "boosting.predict_s": "boosting.predict",
    "reporting.aggregate_s": "reporting.aggregate",
    "reporting.export_s": "reporting.export_results",
}

# per-layer metric -> span whose number of occurrences it reports
SPAN_COUNT = {
    "encodings.encode_calls": "encodings.encode",
    "ensemble.fits": "ensemble.fit",
    "tree.fits": "tree.fit",
    "tree.predict_calls": "tree.predict",
}

# per-layer metric -> recorder count it reports
COUNT = {
    "eventlog.events_dropped": "events_dropped",
    "prefixes.samples": "samples",
    "encodings.mi_columns": "mi_columns",
    "experiment.cells": "cells",
    "experiment.cells_failed": "cells_failed",
    "experiment.cell_s_max": "cell_s_max",
    "search.grid_points": "grid_points",
    "boosting.rounds": "rounds",
    "boosting.class_trees": "class_trees",
    "reporting.bytes_written": "bytes_written",
}

_FITS = ("tree.fit", "ensemble.fit", "boosting.fit", "majority.fit")


def metrics(recorder: Recorder, workers: int) -> dict[str, float]:
    """Per-layer metrics of one traced iteration."""
    spans = recorder.spans
    own = self_times(spans)
    by_name: dict[str, float] = {}
    occurrences: dict[str, int] = {}
    for span, t in zip(spans, own):
        by_name[span.name] = by_name.get(span.name, 0.0) + t
        occurrences[span.name] = occurrences.get(span.name, 0) + 1
    counts = recorder.counts
    out: dict[str, float] = {m: by_name.get(s, 0.0) for m, s in SELF_TIME.items()}
    out.update({m: occurrences.get(s, 0) for m, s in SPAN_COUNT.items()})
    out.update({m: counts.get(c, 0) for m, c in COUNT.items()})

    parse_spans = [s for s in spans if s.name in ("parsers.parse_xes", "parsers.parse_csv")]
    read = counts.get("events_read", 0)
    out["parsers.us_per_event"] = sum(s.duration for s in parse_spans) / read * 1e6 if read else 0.0

    searches = [i for i, s in enumerate(spans) if s.name == "search.grid_search_cv"]
    out["search.fold_fits"] = counts.get("classifiers", 0) - len(searches)
    refit = 0.0
    for i in searches:
        fits = [j for j in children_of(spans, i) if spans[j].name in _FITS]
        if fits:
            refit += spans[fits[-1]].duration  # the winner is refit after every fold fit
    out["search.refit_s"] = refit

    roots = [i for i, s in enumerate(spans) if s.parent is None]
    out["cli.unaccounted_s"] = sum(own[i] for i in roots)
    run_roots = [i for i in roots if spans[i].name == "cli.run"]
    covered = sum(spans[j].duration for i in run_roots for j in children_of(spans, i))
    out["trace.coverage"] = covered / sum(spans[i].duration for i in run_roots)
    out["experiment.pool_efficiency"] = pool_efficiency(recorder, workers)
    return out


def pool_efficiency(recorder: Recorder, workers: int) -> float:
    """Summed cell wall time over workers times the sweep's wall time."""
    sweep = sum(s.duration for s in recorder.spans if s.name == "experiment.run_experiment")
    return recorder.counts.get("cell_s_sum", 0.0) / (workers * sweep) if sweep else 0.0
