"""The benchmark's tracer still finds every resnap function it patches.

``perfbench/layers.py`` wraps resnap functions by module and name and
derives the per-layer metrics from the spans and counts those wrappers
record. This test installs its targets unchanged, runs ``resnap run``
in-process on a small log with all four encodings, and checks that every
span behind a prefix, encoding, experiment or search metric was recorded,
that the sample and MI-column counts are positive and that the search
counts its grid points and fold fits. It also runs ``resnap
profile`` on an XES fixture and checks that the ``parsers.parse_xes``
span was recorded with every event counted. A change that renames,
removes or bypasses a patched function fails here, not in a traced
benchmark run.
"""
from __future__ import annotations

import gzip
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import layers  # noqa: E402
from spans import Recorder  # noqa: E402

from resnap.cli import main  # noqa: E402

from conftest import xes_bytes, xes_event  # noqa: E402
from test_cli import write_config, write_fixture_csv  # noqa: E402

LAYERS = ("prefixes.", "encodings.", "experiment.", "search.")
ENCODINGS = ["SeqOnly", "SCap", "S2g", "S2gR"]


def test_traced_run_records_every_patched_span(tmp_path):
    data = tmp_path / "fixture.csv"
    write_fixture_csv(data)
    config = write_config(tmp_path, data, encodings=ENCODINGS)
    recorder = Recorder()
    with recorder.installed(layers.TARGETS), recorder.span("cli.run"):
        assert main(["run", "--config", str(config), "--workers", "1", "--quiet"]) == 0

    spans = {span.name for span in recorder.spans}
    read = {
        metric: span
        for metric, span in {**layers.SELF_TIME, **layers.SPAN_COUNT}.items()
        if metric.startswith(LAYERS)
    }
    missing = {metric: span for metric, span in read.items() if span not in spans}
    assert not missing, f"spans never recorded: {missing}"

    metrics = layers.metrics(recorder, workers=1)
    assert metrics["prefixes.samples"] > 0
    assert metrics["encodings.mi_columns"] > 0
    assert metrics["encodings.encode_calls"] == len(ENCODINGS)  # one prefix length
    # counted through expand_grid and make_classifier, looked up in resnap.models.search
    assert metrics["search.grid_points"] == 8
    assert metrics["search.fold_fits"] == 8


def test_traced_profile_records_the_xes_reader(tmp_path):
    traces = [(f"c{i}", [xes_event("A", "r1"), xes_event("B", None), xes_event("C", f"r{i % 3}")])
              for i in range(40)]
    data = tmp_path / "fixture.xes.gz"
    data.write_bytes(gzip.compress(xes_bytes(traces)))
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "output_dir": str(tmp_path / "out"),
        "datasets": [{"id": "fixture", "path": str(data), "format": "xes"}],
    }))
    recorder = Recorder()
    with recorder.installed(layers.TARGETS), recorder.span("cli.profile"):
        assert main(["profile", "--config", str(config), "--quiet"]) == 0

    assert [span.name for span in recorder.spans].count("parsers.parse_xes") == 1
    assert recorder.counts["events_read"] == 3 * len(traces)
    assert recorder.counts["events_dropped"] == len(traces)
